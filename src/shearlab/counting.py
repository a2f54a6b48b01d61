"""Orbit counting on discriminant quadrics and growth-law fitting.

The orbit of an integer form vector under a discrete group is enumerated
inside a gate about the largest counted ball, deduplicated exactly, and
counted inside norm balls.  The group <T^omega, S> is enumerated by a
numpy walk over syllables S T^(omega k), one layer per S, each layer
emitting whole runs along T^omega.  The two built-in scenarios (full
modular group and the thin subgroup, both acting on x0 = (0, 1, 0)) have
trivial stabilizer, so vectors, group elements, and congruence cosets are
in bijection and per-coset counts are well defined.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import FormVector
from .groups import CosetLabel, GroupSpec, WordBudget, coset_space


class InsufficientDataError(ValueError):
    pass


class StabilizerError(RuntimeError):
    """Two distinct words hit the same vector: the bijection assumption
    behind per-coset counts has failed for this orbit."""


@dataclass(frozen=True)
class OrbitQuery:
    spec: GroupSpec
    x0: FormVector
    t_list: tuple
    norm: str = "sup"
    q: Optional[int] = None
    coset_filter: Optional[CosetLabel] = None
    budget: WordBudget = field(default_factory=lambda: WordBudget(4096, 10 ** 7))

    def __post_init__(self):
        object.__setattr__(self, "t_list", tuple(float(t) for t in self.t_list))
        try:
            ints = tuple(int(v) for v in self.x0.entries())
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != self.x0.entries():
            raise ValueError(f"x0 must be an integer form vector, "
                             f"got {self.x0.entries()}")
        if ints == (0, 0, 0):
            raise ValueError("x0 must be nonzero")
        if any(b >= a for a, b in zip(self.t_list[1:], self.t_list)):
            raise ValueError("t_list must be strictly increasing")
        if not all(math.isfinite(t) for t in self.t_list):
            raise ValueError("radii must be finite")
        if self.norm not in ("sup", "euclidean"):
            raise ValueError(f"unknown norm tag {self.norm!r}")
        if self.coset_filter is not None and self.q is None:
            raise ValueError("coset_filter requires q")


@dataclass
class CountResult:
    t_list: tuple
    counts: tuple
    saturated: tuple
    wall_time: float
    x0_norm: float = 1.0
    q: Optional[int] = None
    breakdown: Optional[dict] = None  # CosetLabel -> per-T counts
    search_nodes: int = 0  # group elements the walk collected
    search_depth: int = 0  # syllable layers the walk reached

    def __post_init__(self):
        if any(b > a for a, b in zip(self.counts[1:], self.counts)):
            raise ValueError("counts must be nondecreasing in T")

    def largest_saturated_index(self) -> int:
        idx = [i for i, s in enumerate(self.saturated) if s]
        if not idx:
            raise InsufficientDataError("no saturated radius")
        return idx[-1]


_INT64_MAX = np.iinfo(np.int64).max
_HALF = 1 << 20  # vectors pack into one exact int64 while |entries| < 2^20
_SAFE = 2.0 ** 61  # float keys past this could wrap int64 arithmetic
_CHUNK = 1 << 17  # walk candidates built at a time
_WIDE_GATE = 3.0  # gate radius over the largest ball's when D > 1


def label_codes(elements: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of CosetLabel.of(g, q).entries for each row g of an
    (n, 4) int array: the smaller of the codes of g mod q and -g mod q,
    which is the lexicographically smaller entry tuple."""
    weights = np.array([q ** 3, q ** 2, q, 1], dtype=np.int64)
    return np.minimum((elements % q) @ weights, ((-elements) % q) @ weights)


def _stabilizer(vec, first, later):
    def ints(row):
        return tuple(int(v) for v in row)
    raise StabilizerError(f"vector {ints(vec)} reached by {ints(first)} "
                          f"and {ints(later)}")


def _pack(vecs: np.ndarray) -> np.ndarray:
    """One int64 per (p, q, r) row: three 21-bit fields holding the entries
    offset by 2^20.  Injective while every |entry| < 2^20, which the walk
    checks before it packs."""
    o = vecs + _HALF
    return (o[:, 0] << 42) | (o[:, 1] << 21) | o[:, 2]


def _shift(vecs: np.ndarray, k: np.ndarray, omega: int):
    """Columns of (p, q, r) * T^(omega k) = (p, q + 2 p w k,
    r + w k (q + p w k)), in the dtype of the inputs."""
    p, q, r = vecs[:, 0], vecs[:, 1], vecs[:, 2]
    wk = omega * k
    return p, q + 2 * p * wk, r + wk * (q + p * wk)


def _key(p, q, r, sup: bool):
    if sup:
        return np.maximum(np.maximum(np.abs(p), np.abs(q)), np.abs(r))
    return p * p + q * q + r * r


class _Walk:
    """The syllable walk behind count_orbit for the group <T^omega, S>.

    Layer 0 is the run of the identity along T^omega.  Each later layer
    takes every expandable element z of the one before to zS and emits
    the run zS T^(omega k): the consecutive k around 0 whose key (sup
    norm, or sum of squares) is at most the integer gate.  S permutes and
    negates (p, q, r), so zS is in the gate whenever z is.  The k = 0
    child is zS itself; it is kept but not expanded, because its S-image
    z is walked already.  For omega = 1, (ST)^3 = 1 gives
    zS T^(+-1) S = (z T^(-+1)) S T^(-+1), one step along the line of the
    parent's neighbour's S-image; when that neighbour z T^(-+1) is in the
    parent's run, the child's run is the neighbour's, so the child is kept
    but not expanded either.

    Along a run p is fixed and, with Q = q + 2 p w k, r = (Q^2 - D) / 4p,
    so the key depends on k only through |k - k*|, k* = -q / (2 p w)
    (for p = 0, r is linear in k and k* is its zero).  The k in the gate
    are an interval around k*, less a hole around k* when the
    discriminant D is large: the hole holds an integer iff the integer
    nearest k* is outside the gate.  The run's ends come from that closed
    form and then move one step at a time until the exact integer keys at
    k and k +- 1 confirm them.  Vectors are deduplicated exactly and
    globally; a vector reached by two different elements raises
    StabilizerError, and a vector that T^omega fixes (p = q = 0) raises it
    before its run would be endless.
    """

    def __init__(self, x0: tuple, omega: int, gate: int, sup: bool,
                 budget: WordBudget):
        if omega >= _HALF:
            raise OverflowError("translation width past 2^20")
        self.omega, self.sup, self.budget = omega, sup, budget
        self.x0 = x0
        p0, q0, r0 = x0
        self.disc = float(q0 * q0 - 4 * p0 * r0)
        self.gate = min(gate, _INT64_MAX)
        self.gate_f = float(gate)
        # every entry of an in-gate vector is at most this; below 2^20 the
        # runs' vectors fit the dedup key without a float check first
        self.small = (gate if sup else math.isqrt(max(gate, 0))) < _HALF
        self.cap = budget.max_nodes + 1  # a longer run overruns the budget

    def in_gate(self, vecs: np.ndarray, k: np.ndarray) -> np.ndarray:
        """key(vecs * T^(omega k)) <= gate for each row, in exact int64
        where a float estimate shows the key fits."""
        key_f = _key(*_shift(vecs.astype(float), k.astype(float), self.omega),
                     self.sup)
        big = key_f >= _SAFE
        if big.any() and self.gate >= _SAFE / 2:
            raise OverflowError("orbit keys outgrow int64 arithmetic")
        key = _key(*_shift(vecs, np.where(big, 0, k), self.omega), self.sup)
        return ~big & (key <= self.gate)

    def runs(self, vecs: np.ndarray):
        """(lo, hi, gap, k) for the in-gate rows of vecs: the run around
        k = 0 of each row, an end more than self.cap from 0 clipped there,
        and the rows whose hole is the single integer k."""
        s = np.where(vecs[:, 0] != 0, np.sign(vecs[:, 0]), np.sign(vecs[:, 1]))
        p, q, r = (s * vecs[:, i] for i in range(3))  # now p > 0, or p = 0 < q
        w, g, d = self.omega, self.gate_f, self.disc
        lin = p == 0
        pf, qf = p.astype(float), q.astype(float)
        num = np.where(lin, r, q)  # k* = -num / t
        t = np.where(lin, q * w, 2 * p * w)
        if self.sup:  # |Q| <= G and -G <= r <= G
            s_hi = np.minimum(g * g, d + 4.0 * pf * g)
            s_lo = d - 4.0 * pf * g
            a_lin = g
        else:  # the roots in Q^2 of p^2 + Q^2 + r^2 = G
            root = 4.0 * pf * np.sqrt(np.maximum(3.0 * pf * pf - d + g, 0.0))
            s_hi = d - 8.0 * pf * pf + root
            s_lo = d - 8.0 * pf * pf - root
            a_lin = np.sqrt(np.maximum(g - qf * qf, 0.0))
        tf = t.astype(float)
        a = np.where(lin, a_lin, np.sqrt(np.maximum(s_hi, 0.0))) / tf
        b = np.where(lin, 0.0, np.sqrt(np.maximum(s_lo, 0.0))) / tf
        kc = -num / tf
        near = (t - 2 * num) // (2 * t)  # the integer nearest k*
        hole = ~self.in_gate(vecs, near)
        gap = np.flatnonzero(hole)
        if len(gap):
            gap = gap[self.in_gate(vecs[gap], near[gap] - 1)
                      & self.in_gate(vecs[gap], near[gap] + 1)]
        right = num > 0  # k = 0 lies right of k*
        ends_f = np.concatenate([np.where(hole & ~right, kc - b, kc + a),
                                 np.where(hole & right, kc + b, kc - a)])
        cap, n = float(self.cap), len(vecs)
        # hi then lo: step +1 or -1 moves outward, from 0
        ends = np.clip(ends_f, -cap, cap)
        ends = np.concatenate([np.maximum(np.floor(ends[:n]), 0),
                               np.minimum(np.ceil(ends[n:]), 0)]).astype(np.int64)
        step = np.repeat(np.array([1, -1]), n)
        row = np.tile(np.arange(n), 2)
        free = np.flatnonzero(np.abs(ends_f) <= cap)
        idx = free
        while len(idx):  # toward 0 while the end is outside
            idx = idx[~self.in_gate(vecs[row[idx]], ends[idx])]
            ends[idx] -= step[idx]
        idx = free
        while len(idx):  # outward while the next k is inside
            idx = idx[self.in_gate(vecs[row[idx]], ends[idx] + step[idx])]
            ends[idx] += step[idx]
        return ends[n:], ends[:n], gap, near[gap]

    def walk(self):
        """(elements, keys, saturated, nodes, depth), in walk order."""
        w, budget = self.omega, self.budget
        base_el = np.array([[1, 0, 0, 1]], dtype=np.int64)
        base_vec = np.array([self.x0], dtype=np.int64)
        base_nb = np.zeros((1, 2), dtype=bool)
        seen = []  # sorted runs of packed vectors, with their elements
        out_el = [np.zeros((0, 4), dtype=np.int64)]
        out_key = [np.zeros(0, dtype=np.int64)]  # tally keys
        gaps = []  # (vector, element) in single-integer holes
        nodes = depth = 0
        saturated = True
        while len(base_el):
            if depth >= budget.max_depth:
                saturated = False
                break
            fixed = np.flatnonzero((base_vec[:, 0] == 0) & (base_vec[:, 1] == 0))
            if len(fixed):
                i = fixed[0]
                a, b, c, d = base_el[i]
                _stabilizer(base_vec[i], base_el[i], (a, b + a * w, c, d + c * w))
            lo, hi, gap, gap_k = self.runs(base_vec)
            n = hi - lo + 1
            ends = np.cumsum(n)
            total = int(ends[-1])
            next_el, next_vec, next_nb = [], [], []
            for c0 in range(0, total, _CHUNK):  # bounded memory per chunk
                idx = np.arange(c0, min(c0 + _CHUNK, total))
                par = np.searchsorted(ends, idx, side="right")
                j = idx - ends[par] + n[par]
                lo_j, hi_j = lo[par], hi[par]
                # word-length order within a run: 0, 1, -1, 2, -2, ...
                m = np.minimum(hi_j, -lo_j)
                k = np.where(j % 2 == 1, (j + 1) // 2, -(j // 2))
                k = np.where(j <= 2 * m, k,
                             np.where(hi_j > -lo_j, j - m, m - j))
                el = base_el[par]
                top = (int(np.abs(el).max()) * (1 + w * int(np.abs(k).max())))
                if top >= _SAFE:
                    raise OverflowError("group elements outgrow int64")
                if not self.small:
                    big = np.abs(np.column_stack(_shift(
                        base_vec[par].astype(float), k.astype(float), w)))
                    if big.max() >= _HALF:
                        raise OverflowError("orbit vectors outgrow the exact "
                                            "dedup key (entries past 2^20)")
                wk = w * k
                el = np.column_stack([el[:, 0], el[:, 1] + el[:, 0] * wk,
                                      el[:, 2], el[:, 3] + el[:, 2] * wk])
                vec = np.column_stack(_shift(base_vec[par], k, w))
                key = _pack(vec)
                # the element each vector must have: the one already seen
                # with it, else its first holder in this chunk
                uk, first, inv = np.unique(key, return_index=True,
                                           return_inverse=True)
                hit = np.zeros(len(uk), dtype=bool)
                ref = el[first]
                for keys, els in seen:
                    at = np.minimum(np.searchsorted(keys, uk), len(keys) - 1)
                    now = keys[at] == uk
                    hit |= now
                    ref[now] = els[at[now]]
                clash = np.flatnonzero((el != ref[inv]).any(axis=1))
                if len(clash):
                    i = clash[0]
                    _stabilizer(vec[i], ref[inv[i]], el[i])
                fresh = np.flatnonzero(~hit)  # unique keys, in key order
                new = np.sort(first[fresh])  # in walk order
                room = budget.max_nodes - nodes
                if len(new) > room:
                    saturated = False
                    new = new[:room]
                    fresh = fresh[np.isin(first[fresh], new)]
                if len(fresh):
                    seen.append((uk[fresh], el[first[fresh]]))
                # merge runs of like size up to 2^19 vectors, which keeps the
                # runs few without copying the large ones again and again
                while (len(seen) > 1 and len(seen[-2][0]) <= 2 * len(seen[-1][0])
                       and len(seen[-2][0]) + len(seen[-1][0]) <= 1 << 19):
                    (kb, eb), (ka, ea) = seen.pop(), seen.pop()
                    keys = np.concatenate([ka, kb])
                    order = np.argsort(keys)
                    seen.append((keys[order], np.concatenate([ea, eb])[order]))
                nodes += len(new)
                out_el.append(el[new])
                out_key.append(_key(*vec[new].T, self.sup))
                kn, pn = k[new], par[new]
                grow = kn != 0
                if w == 1:
                    grow &= ~(((kn == 1) & base_nb[pn, 0])
                              | ((kn == -1) & base_nb[pn, 1]))
                grow = new[grow | (depth == 0)]
                next_el.append(el[grow])
                next_vec.append(vec[grow])
                next_nb.append(np.column_stack([k[grow] > lo_j[grow],
                                                k[grow] < hi_j[grow]]))
                if not saturated:
                    break
            depth += 1
            if not saturated:
                break
            for i, k in zip(gap.tolist(), gap_k.tolist()):
                a, b, c, d = base_el[i].tolist()
                p, q, r = base_vec[i].tolist()
                wk = w * k
                gaps.append(((p, q + 2 * p * wk, r + wk * (q + p * wk)),
                             (a, b + a * wk, c, d + c * wk)))
            el = np.concatenate(next_el)
            vec = np.concatenate(next_vec)
            # z S = (b, -a, d, -c) in the sign representative; (p, q, r) S
            # = (r, -q, p)
            flip = np.where((el[:, 3] < 0) | ((el[:, 3] == 0) & (el[:, 1] < 0)),
                            -1, 1)[:, None]
            base_el = flip * np.column_stack([el[:, 1], -el[:, 0],
                                              el[:, 3], -el[:, 2]])
            base_vec = np.column_stack([vec[:, 2], -vec[:, 1], vec[:, 0]])
            base_nb = np.concatenate(next_nb)
        # a vector in a one-integer hole lies just outside the gate between
        # two runs; a search one letter at a time reaches it from both,
        # so two different elements there are a stabilizer too
        found = {}
        for vec, el in gaps:
            if found.setdefault(vec, el) != el:
                _stabilizer(vec, found[vec], el)
        del seen  # free the dedup index before joining the output
        return (np.concatenate(out_el), np.concatenate(out_key), saturated,
                nodes, depth)


def count_orbit(query: OrbitQuery) -> CountResult:
    """Exact ball counts of the orbit x0 * spin_cover(Gamma).

    The syllable walk of _Walk over <T^omega, S> collects the elements
    connected to the identity through elements whose vectors lie in the
    gate: the ball of radius B = max(largest radius, |x0| + 1) when x0's
    discriminant D = q0^2 - 4 p0 r0 is at most 1 (the walk then collects
    exactly that ball's points), and three times that ball when D > 1.
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

    The tally is one numpy pass: each vector gets one integer key (sup
    norm, or the sum of squares for the Euclidean ball), the keys are
    sorted once, and one searchsorted against the integer thresholds
    ceil(t) - 1 (or ceil(t * t) - 1) counts every radius, so each test
    is the exact integer form of key < t (or < t * t).  Per-coset counts
    do the same within each label's block.  Entries that do not fit int64
    raise OverflowError, and so do walk vectors with an entry past 2^20.
    """
    t0 = time.perf_counter()
    x0n = query.x0.sup_norm() if query.norm == "sup" else query.x0.euclid_norm()
    x0 = tuple(int(v) for v in query.x0.entries())
    wide = x0[1] * x0[1] - 4 * x0[0] * x0[2] > 1
    gate_r = max(max(query.t_list), x0n + 1.0) * (_WIDE_GATE if wide else 1.0)
    sup = query.norm == "sup"
    gate = math.ceil(gate_r if sup else gate_r * gate_r) - 1  # key <= gate
    elements, keys, saturated, nodes, depth = _Walk(
        x0, query.spec.omega, gate, sup, query.budget).walk()
    thresholds = np.array(
        [min(max(math.ceil(t if sup else t * t) - 1, -1), _INT64_MAX)
         for t in query.t_list], dtype=np.int64)

    breakdown = None
    if query.q is None:
        counts = np.searchsorted(np.sort(keys), thresholds, side="right")
    else:
        labels = sorted(coset_space(query.spec, query.q),
                        key=lambda lab: lab.entries)
        codes = label_codes(elements, query.q)
        order = np.lexsort((keys, codes))
        codes, keys = codes[order], keys[order]
        label_code = label_codes(np.array([lab.entries for lab in labels],
                                          dtype=np.int64), query.q)
        counts = np.zeros(len(thresholds), dtype=np.int64)
        breakdown = {}
        for lab, code in zip(labels, label_code):
            lo, hi = np.searchsorted(codes, [code, code + 1])
            cs = np.searchsorted(keys[lo:hi], thresholds, side="right")
            if query.coset_filter is not None and lab != query.coset_filter:
                cs[:] = 0
            counts += cs
            breakdown[lab] = tuple(int(n) for n in cs)
    return CountResult(query.t_list, tuple(int(n) for n in counts),
                       tuple(saturated for _ in query.t_list),
                       time.perf_counter() - t0, x0n, query.q, breakdown,
                       nodes, depth)


# -- growth-law fitting ------------------------------------------------------

FIT_MODELS = ("t_log_t", "linear", "pure_t_log_t", "power", "t_plus_t_delta")


@dataclass(frozen=True)
class FitResult:
    model: str
    coefficients: tuple
    residual_norm: float
    rel_residual_top_octave: float
    delta_hat: Optional[float] = None
    t_used: tuple = ()
    n_points: int = 0

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
                     delta, tuple(t.tolist()), len(keep))


# -- congruence coset statistics ---------------------------------------------

def coset_disparity(result: CountResult) -> float:
    """Largest per-coset count divided by the mean over the whole coset
    space (empty cosets included) at the largest saturated radius."""
    if result.breakdown is None:
        raise ValueError("result has no coset breakdown; set q in the query")
    i = result.largest_saturated_index()
    vals = [cs[i] for cs in result.breakdown.values()]
    mean = sum(vals) / len(vals)
    if mean == 0:
        return 1.0 if max(vals) == 0 else math.inf
    return max(vals) / mean


def identity_coset_factor(result: CountResult) -> float:
    """Identity-coset count over the coset-space mean at the largest
    saturated radius."""
    if result.breakdown is None or result.q is None:
        raise ValueError("result has no coset breakdown; set q in the query")
    i = result.largest_saturated_index()
    vals = [cs[i] for cs in result.breakdown.values()]
    mean = sum(vals) / len(vals)
    ident = result.breakdown[CosetLabel.identity(result.q)][i]
    if mean == 0:
        return 1.0 if ident == 0 else math.inf
    return ident / mean
