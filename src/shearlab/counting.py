"""Orbit counting on discriminant quadrics and growth-law fitting.

The orbit of an integer form vector under a discrete group is enumerated
inside a gate about the largest counted ball and counted inside norm
balls.  The group <T^omega, S> is enumerated by a numpy walk over
syllables S T^(omega k), one layer per S, each layer emitting whole runs
along T^omega.  The walk spells every element in one normal form, so it
visits each element once; a vector can then repeat only through a
stabilizer of x0, and the exact dedup that reports one runs only where
x0 can have one.  The two built-in scenarios (full modular group and the
thin subgroup, both acting on x0 = (0, 1, 0)) have trivial stabilizer,
so vectors, group elements, and congruence cosets are in bijection and
per-coset counts are well defined.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from .algebra import FormVector, _Checked
from .groups import (CosetLabel, GroupSpec, WordBudget, check_level,
                     coset_labels, coset_space, label_codes, label_entries)


class InsufficientDataError(ValueError):
    pass


class StabilizerError(RuntimeError):
    """Two distinct words hit the same vector: the bijection assumption
    behind per-coset counts has failed for this orbit."""


class _OrbitQuery(NamedTuple):
    spec: GroupSpec
    x0: FormVector
    t_list: tuple
    norm: str
    q: Optional[int]
    budget: WordBudget


class OrbitQuery(_Checked, _OrbitQuery):
    __slots__ = ()

    def __new__(cls, spec, x0, t_list, norm="sup", q=None,
                budget=WordBudget()):
        t_list = tuple(float(t) for t in t_list)
        try:
            ints = tuple(int(v) for v in x0.entries())
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != x0.entries():
            raise ValueError(f"x0 must be an integer form vector, "
                             f"got {x0.entries()}")
        if ints == (0, 0, 0):
            raise ValueError("x0 must be nonzero")
        if not t_list:
            raise ValueError("t_list must hold at least one radius")
        if any(b >= a for a, b in zip(t_list[1:], t_list)):
            raise ValueError("t_list must be strictly increasing")
        if not all(math.isfinite(t) for t in t_list):
            raise ValueError("radii must be finite")
        if norm not in ("sup", "euclidean"):
            raise ValueError(f"unknown norm tag {norm!r}")
        if q is not None:
            check_level(q)
        return tuple.__new__(cls, (spec, x0, t_list, norm, q, budget))


class _CountResult(NamedTuple):
    t_list: tuple
    counts: tuple
    saturated: tuple
    x0_norm: float
    q: Optional[int]
    breakdown: Optional[dict]  # CosetLabel -> per-T counts, code order
    search_nodes: int  # group elements the walk collected
    search_depth: int  # syllable layers the walk reached


class CountResult(_Checked, _CountResult):
    __slots__ = ()

    def __new__(cls, t_list, counts, saturated, x0_norm=1.0, q=None,
                breakdown=None, search_nodes=0, search_depth=0):
        if any(b >= a for a, b in zip(t_list[1:], t_list)):
            raise ValueError("t_list must be strictly increasing")
        if not all(math.isfinite(t) for t in t_list):
            raise ValueError("radii must be finite")
        if any(b > a for a, b in zip(counts[1:], counts)):
            raise ValueError("counts must be nondecreasing in T")
        return tuple.__new__(cls, (t_list, counts, saturated, x0_norm, q,
                                   breakdown, search_nodes, search_depth))

    def largest_saturated_index(self) -> int:
        idx = [i for i, s in enumerate(self.saturated) if s]
        if not idx:
            raise InsufficientDataError("no saturated radius")
        return idx[-1]


_INT64_MAX = np.iinfo(np.int64).max
_HALF = 1 << 20  # vectors pack into one exact int64 while |entries| < 2^20
_SAFE = 2.0 ** 61  # float keys past this could wrap int64 arithmetic
_BLOCK = 1 << 17  # walk candidates built and checked at a time
_WIDE_GATE = 3.0  # gate radius over the largest ball's when D > 1
_OUT = np.array([[1], [-1]])  # the outward step at a run's hi end and lo end
_S_SIGN = np.array([[1], [-1], [1]])  # (p, q, r) S = (r, -q, p)
_ZS_ROWS = np.array([[1], [0], [3], [2]])  # z S = (b, -a, d, -c)
_ZS_SIGN = np.array([[1], [-1], [1], [-1]])


def _stabilizer(vec, first, later) -> StabilizerError:
    def ints(row):
        return tuple(int(v) for v in row)
    return StabilizerError(f"vector {ints(vec)} reached by {ints(first)} "
                           f"and {ints(later)}")


def _pack(vecs: np.ndarray) -> np.ndarray:
    """One int64 per (p, q, r) column: three 21-bit fields holding the
    entries offset by 2^20.  Injective while every |entry| < 2^20, which
    the walk checks before it packs."""
    o = vecs + _HALF
    return (o[0] << 42) | (o[1] << 21) | o[2]


def _shift(vecs: np.ndarray, k: np.ndarray, omega: int):
    """Rows of (p, q, r) * T^(omega k) = (p, q + 2 p w k,
    r + w k (q + p w k)) for the (3, n) columns vecs, in their dtype; k
    may hold several rows of n steps."""
    p, q, r = vecs
    wk = omega * k
    return p, q + 2 * p * wk, r + wk * (q + p * wk)


def _key(p, q, r, sup: bool):
    if sup:
        return np.maximum(np.maximum(np.abs(p), np.abs(q)), np.abs(r))
    return p * p + q * q + r * r


def _element(x0, vec, col):
    """The element with first column col = (a, c), in the walk's sign
    representative, that takes x0 to vec.  Elements sharing a first column
    differ by a power of T, which moves every vector with p or q nonzero."""
    a, c = (int(v) for v in col)
    p, q, r = (int(v) for v in vec)
    d = pow(a, -1, c) if c else 1  # c = 0 makes a = 1
    b = (a * d - 1) // c if c else 0
    p0, q0, r0 = x0
    q1 = 2 * p0 * a * b + q0 * (a * d + b * c) + 2 * r0 * c * d
    r1 = p0 * b * b + q0 * b * d + r0 * d * d
    n = (q - q1) // (2 * p) if p else (r - r1) // q1
    return a, b + n * a, c, d + n * c


def _word_order(lo: np.ndarray, hi: np.ndarray, start: int, stop: int):
    """(run, k) of the candidates start..stop-1 of the runs lo..hi, in walk
    order: run by run, and within a run by word length, k = 0, 1, -1, ...,
    m, -m for m = min(hi, -lo), then the longer side alone."""
    n = hi - lo + 1
    ends = np.cumsum(n)
    i = np.arange(start, stop)
    run = np.searchsorted(ends, i, side="right")
    j = i - ends[run] + n[run]
    m = np.minimum(hi, -lo)[run]
    half = (j + 1) >> 1
    side = np.where(hi > -lo, 1, -1)[run]
    return run, np.where(j <= 2 * m, np.where(j & 1, half, -half),
                         side * (j - m))


def _elements(els: np.ndarray, cols: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """els[:, cols] T^wk = (a, b + a wk, c, d + c wk), for (4, n) columns."""
    el = els[:, cols]
    el[1::2] += el[::2] * wk
    return el


def _times_s(els: np.ndarray, cols: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """els[:, cols] T^wk S for (4, n) columns, in the sign representative
    c > 0, or c = 0 < a: z S = (b, -a, d, -c), and b != 0 when d = 0."""
    el = els[_ZS_ROWS, cols]
    el[::2] += el[1::2] * wk
    el *= _ZS_SIGN * np.sign(2 * el[2] + np.sign(el[0]))
    return el


def _inserted(index: np.ndarray, at: np.ndarray, keys, cols) -> np.ndarray:
    """The (3, n) index with the columns (keys, cols) inserted before its
    columns at, which searchsorted gave on its sorted first row."""
    pos = at + np.arange(len(at))
    old = np.ones(index.shape[1] + len(at), dtype=bool)
    old[pos] = False
    old = np.flatnonzero(old)
    merged = np.empty((3, len(old) + len(at)), dtype=np.int64)
    for row, was in zip(merged, index):  # one contiguous row at a time
        row[old] = was
    merged[0, pos], merged[1:, pos] = keys, cols
    return merged


class _Walk:
    """The syllable walk behind count_orbit for the group <T^omega, S>.

    Layer 0 is the run of the identity along T^omega.  Each later layer
    takes every expandable element z of the one before to zS and emits
    the run zS T^(omega k): the consecutive k around 0 whose key (sup
    norm, or sum of squares) is at most the integer gate.  S permutes and
    negates (p, q, r), so zS is in the gate whenever z is.  The k = 0
    child is zS itself; it is kept but not expanded, because its S-image
    z is walked already.

    The words walked are normal forms T^(w k0) S T^(w k1) ... S T^(w kn)
    with every inner k nonzero, so the walk reaches each element once.
    For omega >= 2 the group is the free product of <T^omega> and <S>
    (Serre, Trees), whose normal forms these words are.  For omega = 1,
    PSL2(Z) is the free product of <S> and <ST>, of orders 2 and 3, and
    T S T = S T^-1 S, so two neighbouring exponents of one sign spell an
    element that a longer word spells too.  The normal forms are the
    words whose exponents alternate in sign: each run is clipped to the
    side of k = 0 opposite the last exponent of its parent.

    Along a run p is fixed and, with Q = q + 2 p w k, r = (Q^2 - D) / 4p,
    so the key depends on k only through |k - k*|, k* = -q / (2 p w)
    (for p = 0, r is linear in k and k* is its zero).  The k in the gate
    are an interval around k*, less a hole around k* when the
    discriminant D exceeds 1 (count_orbit shows why not below): the hole
    holds an integer iff the integer nearest k* is outside the gate, which
    one probe tests.  The run's ends come from that closed form, one exact
    test of every end and of the k one step past it confirms them, and
    only the ends it rejects then move one step at a time.

    Vectors and elements are held as columns of (3, n) and (4, n) arrays.
    A layer is a fixed sequence of whole-array passes over its candidates,
    in blocks of _BLOCK that bound the memory of huge layers.  Each block
    tallies its collected elements as it finishes, by the bucket of their
    tally key and, when a level q is set, the row of their coset label
    code, so no per-element array outlives its layer.

    With each element reached once, two candidates share a vector only
    when an element of the group other than 1 fixes x0.  Where D is a
    positive square, Pell's t^2 - D u^2 = 4 has only t = +-2, u = 0, so
    x0's stabilizer in PSL2(Z) is trivial and the walk keeps no record of
    its vectors.  Elsewhere it deduplicates exactly: each block's packed
    vectors are sorted once, looked up in one sorted index of every vector
    kept so far, and the new ones are merged into it.  Beside each vector
    the index holds the first column (a, c) of its element, which decides
    the clash test exactly: two elements with one vector and one first
    column differ by a power of T, which fixes only vectors with
    p = q = 0, and the walk never keeps one.  A vector reached by two
    different elements raises StabilizerError, and so does a vector that
    T^omega fixes, before its run would be endless.  Packing needs every
    entry below 2^20 and raises OverflowError past it.

    Candidates are checked in walk order, a block at a time: a block
    checks element size, then the dedup range, then clashes, then the node
    budget, and the walk stops in the first block where a check fails, on
    the first check that failed there.
    """

    def __init__(self, x0: tuple, omega: int, gate: int, sup: bool,
                 budget: WordBudget):
        if omega >= _HALF:
            raise OverflowError("translation width past 2^20")
        self.omega, self.sup, self.budget = omega, sup, budget
        self.x0 = x0
        p0, q0, r0 = x0
        disc = q0 * q0 - 4 * p0 * r0
        self.wide = disc > 1
        self.disc = float(disc)
        self.dedup = disc <= 0 or math.isqrt(disc) ** 2 != disc
        self.gate = min(gate, _INT64_MAX)
        self.gate_f = float(gate)
        # every entry of an in-gate vector is at most this; below 2^20 the
        # runs' vectors fit the dedup key without a float check first
        self.small = (gate if sup else math.isqrt(max(gate, 0))) < _HALF
        # only at such a gate can in_gate's overflow guard fire; the runs
        # then probe as for D > 1 and confirm no end at once
        self.guard = self.gate >= _SAFE / 2
        self.cap = budget.max_nodes + 1  # a longer run overruns the budget

    def in_gate(self, vecs: np.ndarray, k: np.ndarray) -> np.ndarray:
        """key(vecs * T^(omega k)) <= gate for each column, in exact int64:
        at once where the largest entry and |k| bound every term below
        2^60, else where a float estimate shows the key fits."""
        top = (int(np.abs(vecs).max())
               * (1 + self.omega * int(np.abs(k).max())) ** 2)
        if (top if self.sup else 3 * top * top) < _SAFE / 2:
            return _key(*_shift(vecs, k, self.omega), self.sup) <= self.gate
        key_f = _key(*_shift(vecs.astype(float), k.astype(float), self.omega),
                     self.sup)
        big = key_f >= _SAFE
        if big.any() and self.guard:
            raise OverflowError("orbit keys outgrow int64 arithmetic")
        key = _key(*_shift(vecs, np.where(big, 0, k), self.omega), self.sup)
        return ~big & (key <= self.gate)

    def runs(self, vecs: np.ndarray, side: Optional[np.ndarray] = None):
        """(lo, hi, gap, k) for the in-gate columns of vecs: the run around
        k = 0 of each, clipped to k >= 0 where side is 1 and to k <= 0
        where it is -1, an end more than self.cap from 0 clipped there, and
        the columns whose hole is the single integer k.  _BLOCK columns at
        a time, which bounds the temporaries."""
        if vecs.shape[1] <= _BLOCK:
            return self._runs(vecs, side, 0)
        parts = [self._runs(vecs[:, s:s + _BLOCK],
                            None if side is None else side[s:s + _BLOCK], s)
                 for s in range(0, vecs.shape[1], _BLOCK)]
        return tuple(np.concatenate(v, axis=-1) for v in zip(*parts))

    def _runs(self, vecs, side, offset):
        """runs of one block of columns, the first at column offset."""
        # now p > 0, or p = 0 < q
        p, q, r = vecs * np.sign(2 * vecs[0] + np.sign(vecs[1]))
        w, g, d = self.omega, self.gate_f, self.disc
        lin = p == 0
        pf = p.astype(float)
        num = np.where(lin, r, q)  # k* = -num / t
        t = np.where(lin, q, 2 * p) * w
        if self.sup:  # |Q| <= G and -G <= r <= G
            s_hi = np.minimum(g * g, d + 4.0 * g * pf)
            a_lin = g
        else:  # the roots in Q^2 of p^2 + Q^2 + r^2 = G
            root = 4.0 * pf * np.sqrt(np.maximum(3.0 * pf * pf - d + g, 0.0))
            s_hi = d - 8.0 * pf * pf + root
            a_lin = np.sqrt(np.maximum(g - q.astype(float) ** 2, 0.0))
        tf = t.astype(float)
        a = np.where(lin, a_lin, np.sqrt(np.maximum(s_hi, 0.0))) / tf
        kc = -num / tf
        ends_f = kc + _OUT * a  # hi, lo
        gap = near = np.zeros(0, dtype=np.int64)
        if self.wide or self.guard:
            s_lo = (d - 4.0 * g * pf if self.sup
                    else d - 8.0 * pf * pf - root)
            b = np.where(lin, 0.0, np.sqrt(np.maximum(s_lo, 0.0))) / tf
            near = (t - 2 * num) // (2 * t)  # the integer nearest k*
            hole = ~self.in_gate(vecs, near)
            gap = np.flatnonzero(hole)
            if len(gap):
                gap = gap[self.in_gate(vecs[:, gap], near[gap] - 1)
                          & self.in_gate(vecs[:, gap], near[gap] + 1)]
            right = num > 0  # k = 0 lies right of k*
            ends_f = np.where(hole & np.array([~right, right]),
                              kc - _OUT * b, ends_f)
        n = len(p)
        clip = (np.zeros((2, n), dtype=bool) if side is None
                else np.array([side < 0, side > 0]))
        ends_f = np.where(clip, 0.0, ends_f)
        cap = float(self.cap)
        ends = (_OUT * np.maximum(np.floor(np.minimum(_OUT * ends_f, cap)),
                                  0).astype(np.int64)).ravel()
        # of ends: hi ends, then lo; an end at k = 0 by the clip stays
        idx = np.flatnonzero((np.abs(ends_f) <= cap) & ~clip)
        row, step = idx % n, np.where(idx < n, 1, -1)
        if len(idx) and not self.guard:  # the end in and the next k out
            e = ends[idx]
            ok = self.in_gate(vecs[:, row], np.array([e, e + step]))
            idx, row, step = (v[~ok[0] | ok[1]] for v in (idx, row, step))
        if len(idx):
            e, sel = ends[idx], np.arange(len(idx))
            while len(sel):  # toward 0 while the end is outside
                sel = sel[~self.in_gate(vecs[:, row[sel]], e[sel])]
                e[sel] -= step[sel]
            sel = np.arange(len(idx))
            while len(sel):  # outward while the next k is inside
                sel = sel[self.in_gate(vecs[:, row[sel]], e[sel] + step[sel])]
                e[sel] += step[sel]
            ends[idx] = e
        return ends[n:], ends[:n], gap + offset, near[gap]

    def unseen(self, index, base_el, base_vec, par, k, vec, fails):
        """(new, index): the candidates (par, k) of a block whose vector
        neither the index nor an earlier candidate holds, in walk order,
        and the index with them merged in.  Enters the dedup range and
        clash checks' failures in fails."""
        w = self.omega
        col = base_el[::2]  # (a, c), shared along each run
        key = _pack(vec)
        order = np.argsort(key, kind="stable")
        sk = key[order]
        head = np.empty(len(sk), dtype=bool)
        head[0] = True
        np.not_equal(sk[1:], sk[:-1], out=head[1:])
        first, uk = order[head], sk[head]  # each vector's first holder
        seen = index[0]
        at = np.searchsorted(seen, uk)
        hit = (seen.take(at, mode="clip") == uk if len(seen)
               else np.zeros(len(uk), dtype=bool))
        fresh = ~hit
        new = np.sort(first[fresh])  # in walk order
        if not self.small and (np.abs(np.array(_shift(
                base_vec[:, par].astype(float), k.astype(float), w)))
                >= _HALF).any():
            fails[1] = lambda: OverflowError(
                "orbit vectors outgrow the exact dedup key (entries past 2^20)")
        # a clash: a later holder's (a, c) differs from the one before it
        # in key order, or a first holder's from the index
        later = np.flatnonzero(~head) if len(uk) < len(k) else new[:0]
        hits = np.flatnonzero(hit) if len(new) < len(uk) else new[:0]
        if ((len(later) and (col[:, par[order[later]]]
                             != col[:, par[order[later - 1]]]).any())
                or (len(hits) and (col[:, par[first[hits]]]
                                   != index[1:, at[hits]]).any())):
            ref = col[:, par[first]]
            ref[:, hits] = index[1:, at[hits]]
            bad = order[(col[:, par[order]] != ref[:, np.cumsum(head) - 1])
                        .any(axis=0)].min()

            def clash():
                g = np.searchsorted(uk, key[bad])
                two = np.array([first[g], bad])
                el = _elements(base_el, par[two], w * k[two])
                return _stabilizer(vec[:, bad], _element(
                    self.x0, vec[:, bad], ref[:, g]) if hit[g]
                    else el[:, 0], el[:, 1])
            fails[2] = clash
        return new, _inserted(index, at[fresh], uk[fresh],
                              col[:, par[first[fresh]]])

    def walk(self, thresholds: np.ndarray, q: Optional[int] = None,
             space: Optional[np.ndarray] = None):
        """(table, saturated, nodes, depth): table[i, j] counts the
        collected elements whose label code at level q is space[i] (one
        row when q is None) and whose tally key is at most thresholds[j]
        and above thresholds[j - 1]."""
        w, budget = self.omega, self.budget
        width = len(thresholds) + 1
        table = np.zeros((1 if q is None else len(space)) * width,
                         dtype=np.int64)
        base_el = np.array([[1], [0], [0], [1]], dtype=np.int64)
        base_vec = np.array(self.x0, dtype=np.int64)[:, None]
        # for omega = 1, the sign of k each base's run keeps: opposite to
        # its parent's last exponent (either sign for the identity's run)
        base_side = np.zeros(1, dtype=np.int64) if w == 1 else None
        # the packed vectors kept so far, sorted, over their elements' (a, c)
        index = np.zeros((3, 0), dtype=np.int64)
        gaps = []  # (vector, element) in single-integer holes
        nodes = depth = 0
        saturated = True
        while base_el.shape[1]:
            if depth >= budget.max_depth:
                saturated = False
                break
            moved = (base_vec[0] | base_vec[1]) != 0  # by T^omega
            if not moved.all():
                i = np.argmin(moved)
                a, b, c, d = base_el[:, i]
                raise _stabilizer(base_vec[:, i], (a, b, c, d),
                                  (a, b + a * w, c, d + c * w))
            lo, hi, gap, gap_k = self.runs(base_vec, base_side)
            total = int((hi - lo + 1).sum())
            top = int(np.abs(base_el).max()) * (
                1 + w * int(np.maximum(hi, -lo).max()))
            next_el, next_vec, next_side = [], [], []
            for c0 in range(0, total, _BLOCK):
                par, k = _word_order(lo, hi, c0, min(c0 + _BLOCK, total))
                vec = np.array(_shift(base_vec[:, par], k, w))
                # check -> error of each check that fails: 0 element size,
                # 1 dedup range, 2 clash and 3 budget, which cuts the walk
                # without an error
                fails = {}
                if top >= _SAFE and int(np.abs(base_el[:, par]).max()) * (
                        1 + w * int(np.abs(k).max())) >= _SAFE:
                    fails[0] = lambda: OverflowError(
                        "group elements outgrow int64")
                if self.dedup:
                    new, index = self.unseen(index, base_el, base_vec, par,
                                             k, vec, fails)
                    par, k, vec = par[new], k[new], vec[:, new]
                room = budget.max_nodes - nodes
                if len(k) > room:
                    fails[3] = None
                if fails:
                    error = fails[min(fails)]
                    if error is not None:
                        raise error()
                    saturated = False
                    par, k, vec = par[:room], k[:room], vec[:, :room]
                nodes += len(k)
                cell = np.searchsorted(thresholds, _key(*vec, self.sup))
                if q is not None:
                    codes = label_codes(_elements(base_el, par, w * k).T, q)
                    cell += np.searchsorted(space, codes) * width
                np.add.at(table, cell, 1)
                if not saturated:
                    break
                grow = (k != 0) | (depth == 0)
                pg, kg = par[grow], k[grow]
                next_el.append(_times_s(base_el, pg, w * kg))
                v = vec[::-1, grow]  # (p, q, r) S = (r, -q, p)
                v *= _S_SIGN
                next_vec.append(v)
                if w == 1:
                    next_side.append(-np.sign(kg))
            depth += 1
            if not saturated:
                break
            if self.dedup:
                for i, k in zip(gap.tolist(), gap_k.tolist()):
                    a, b, c, d = base_el[:, i].tolist()
                    vp, vq, vr = base_vec[:, i].tolist()
                    wk = w * k
                    gaps.append(((vp, vq + 2 * vp * wk,
                                  vr + wk * (vq + vp * wk)),
                                 (a, b + a * wk, c, d + c * wk)))
            base_el = np.concatenate(next_el, axis=1)
            base_vec = np.concatenate(next_vec, axis=1)
            if w == 1:
                base_side = np.concatenate(next_side)
        # a vector in a one-integer hole lies just outside the gate between
        # two runs; a search one letter at a time reaches it from both,
        # so two different elements there are a stabilizer too
        found = {}
        for vec, el in gaps:
            if found.setdefault(vec, el) != el:
                raise _stabilizer(vec, found[vec], el)
        return table.reshape(-1, width), saturated, nodes, depth


def count_orbit(query: OrbitQuery) -> CountResult:
    """Exact ball counts of the orbit x0 * spin_cover(Gamma).

    The syllable walk of _Walk over <T^omega, S> collects the elements
    connected to the identity through elements whose vectors lie in the
    gate: the ball of radius B = max(largest radius, |x0| + 1) when x0's
    discriminant D = q0^2 - 4 p0 r0 is at most 1 (the walk then collects
    exactly that ball's points), and three times that ball when D > 1.
    It spells each element in one normal form, and deduplicates vectors
    only where D is not a positive square: only such x0 can have a
    stabilizer.
    search_nodes and search_depth count the elements it collects and its
    layers, budget.max_nodes and max_depth cap them, a cut walk keeps
    exactly its first max_nodes elements in walk order, and a budget
    overrun downgrades every radius to saturated=False.

    Why the ball suffices for D <= 1: along a run p is fixed, and with
    Q = q + 2 p w k, |r| = (Q^2 - D) / (4 |p|) (Q is odd when D = 1) never
    decreases as |Q| grows, so each run's key is monotone in |k - k*| and
    no run has a hole.  For D > 1 a hole can hold keys above the ball and
    cut in-ball points off ((-3, -1, 4) on psl2z at sup radius 5.5).  That
    every in-ball element is reached through in-ball elements is checked
    in the tests, by a divisor count and a word search, not proven.

    The walk tallies each block of elements as it collects it: one
    searchsorted puts each element's integer key (sup norm, or the sum of
    squares for the Euclidean ball) in its bucket among the integer
    thresholds ceil(t) - 1 (or ceil(t * t) - 1), so each test is the
    exact integer form of key < t (or < t * t), and the cumulative bucket
    counts count every radius.  Per-coset counts bucket by label code
    (one searchsorted in coset_space) and key together; the breakdown
    lists every label of the image (coset_labels) in code order.  Entries
    that do not fit int64 raise OverflowError, and so do walk vectors with
    an entry past 2^20 where the walk deduplicates.
    """
    q = query.q
    space = None
    if q is not None:
        space, labels = coset_space(query.spec, q), coset_labels(query.spec, q)
    x0n = query.x0.sup_norm() if query.norm == "sup" else query.x0.euclid_norm()
    x0 = tuple(int(v) for v in query.x0.entries())
    wide = x0[1] * x0[1] - 4 * x0[0] * x0[2] > 1
    gate_r = max(max(query.t_list), x0n + 1.0) * (_WIDE_GATE if wide else 1.0)
    sup = query.norm == "sup"
    gate = math.ceil(gate_r if sup else gate_r * gate_r) - 1  # key <= gate
    thresholds = np.array(
        [min(max(math.ceil(t if sup else t * t) - 1, -1), _INT64_MAX)
         for t in query.t_list], dtype=np.int64)
    walk = _Walk(x0, query.spec.omega, gate, sup, query.budget)
    table, saturated, nodes, depth = walk.walk(thresholds, q, space)
    # key <= thresholds[i] exactly for the i at or past each key's bucket
    table = np.cumsum(table, axis=1)[:, :-1]
    breakdown = None
    if q is not None:
        breakdown = dict(zip(labels, zip(*table.T.tolist())))
    return CountResult(query.t_list, tuple(int(n) for n in table.sum(axis=0)),
                       tuple(saturated for _ in query.t_list), x0n, q,
                       breakdown, nodes, depth)


# -- growth-law fitting ------------------------------------------------------

FIT_MODELS = ("t_log_t", "linear", "pure_t_log_t", "power", "t_plus_t_delta")


class FitResult(NamedTuple):
    model: str
    coefficients: tuple
    residual_norm: float
    rel_residual_top_octave: float
    delta_hat: Optional[float] = None
    t_used: tuple = ()

    def predict(self, t):
        t = np.asarray(t, dtype=float)
        if self.model == "power":
            c, alpha = self.coefficients
            return c * t ** alpha
        return _design(self.model, t, self.delta_hat) @ np.asarray(self.coefficients)


def _design(model: str, t: np.ndarray, delta: Optional[float] = None) -> np.ndarray:
    if model == "t_log_t":
        return np.column_stack([t * np.log(t), t])
    if model == "linear":
        return t[:, None]
    if model == "pure_t_log_t":
        return (t * np.log(t))[:, None]
    if model == "t_plus_t_delta":
        return np.column_stack([t, t ** delta])
    raise ValueError(f"unknown model {model!r}")


def fit_counting_law(result: CountResult, model: str) -> FitResult:
    """Least squares in the chosen growth model over the saturated radii
    at least 10 * ||x0|| (below that the asymptotic laws have not set in).

    "power" fits C * T^alpha by log-log least squares; "t_plus_t_delta"
    nests a one-dimensional search for delta (coarse grid, then one
    parabolic refinement) around linear least squares for the
    coefficients.  rel_residual_top_octave is the worst relative miss
    over the top octave of fitted radii, the quantity the growth-law
    checks threshold on.
    """
    if model not in FIT_MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {FIT_MODELS}")
    keep = [i for i, (t, s) in enumerate(zip(result.t_list, result.saturated))
            if s and t >= 10.0 * result.x0_norm]
    if len(keep) < 4:
        raise InsufficientDataError(
            f"need at least 4 saturated radii at or above {10.0 * result.x0_norm:g}, "
            f"have {len(keep)}")
    t = np.array([result.t_list[i] for i in keep], dtype=float)
    y = np.array([result.counts[i] for i in keep], dtype=float)

    delta = None
    if model == "power":
        if np.any(y <= 0):
            raise InsufficientDataError("power fit needs positive counts")
        a = np.column_stack([np.log(t), np.ones_like(t)])
        sol, *_ = np.linalg.lstsq(a, np.log(y), rcond=None)
        alpha, logc = sol
        coeffs = (math.exp(logc), alpha)
        fitted = coeffs[0] * t ** alpha
    elif model == "t_plus_t_delta":
        def rss(d):
            x = _design(model, t, d)
            sol, *_ = np.linalg.lstsq(x, y, rcond=None)
            r = y - x @ sol
            return float(r @ r), sol
        grid = np.linspace(0.05, 0.99, 95)
        vals = [rss(d)[0] for d in grid]
        k = int(np.argmin(vals))
        # one parabolic refinement through the bracketing triple
        if 0 < k < len(grid) - 1:
            d0, d1, d2 = grid[k - 1:k + 2]
            v0, v1, v2 = vals[k - 1:k + 2]
            denom = (v0 - 2 * v1 + v2)
            delta = d1 if denom == 0 else d1 + 0.5 * (grid[1] - grid[0]) * (v0 - v2) / denom
            delta = float(np.clip(delta, d0, d2))
        else:
            delta = float(grid[k])
        _, sol = rss(delta)
        coeffs = tuple(float(v) for v in sol)
        fitted = _design(model, t, delta) @ sol
    else:
        x = _design(model, t)
        sol, *_ = np.linalg.lstsq(x, y, rcond=None)
        coeffs = tuple(float(v) for v in sol)
        fitted = x @ sol

    resid = y - fitted
    top = t >= max(t) / 2.0
    rel_top = float(np.max(np.abs(resid[top]) / np.maximum(y[top], 1.0)))
    return FitResult(model, coeffs, float(math.sqrt(resid @ resid)), rel_top,
                     delta, tuple(t.tolist()))


# -- congruence coset statistics ---------------------------------------------

def _over_mean(result: CountResult, label=None) -> float:
    """The count of the coset label(q), or the largest count when label is
    None, over the mean over the whole coset space (empty cosets
    included), at the largest saturated radius."""
    if result.breakdown is None or result.q is None:
        raise ValueError("result has no coset breakdown; set q in the query")
    i = result.largest_saturated_index()
    vals = [cs[i] for cs in result.breakdown.values()]
    n = max(vals) if label is None else result.breakdown[label(result.q)][i]
    mean = sum(vals) / len(vals)
    if mean == 0:
        return 1.0 if n == 0 else math.inf
    return n / mean


def coset_disparity(result: CountResult) -> float:
    """Largest per-coset count over the coset-space mean (_over_mean)."""
    return _over_mean(result)


def identity_coset_factor(result: CountResult) -> float:
    """Identity-coset count over the coset-space mean (_over_mean)."""
    def identity(q):
        code = label_codes(np.array([[1, 0, 0, 1]]), q)
        return CosetLabel(q, tuple(label_entries(code, q)[0].tolist()))
    return _over_mean(result, identity)
