"""The groups <T^omega, S>, each given by its width omega: coset rows,
domain reduction and congruence data.

Every group here is generated by the translation T^omega by an integer
omega >= 1 and the inversion S, and has its cusp at infinity with width
omega.  Two ship built in.  "psl2z" (omega = 1) is the full modular
group; "thin4" (omega = 4) is an infinite-covolume subgroup, which keeps
the cusp at infinity but leaves most of the boundary circle as
limit-set complement.  For omega >= 2 the group is the free product of
<T^omega> and <S>: omega = 2 is the theta group, a lattice of index 3,
and from omega = 3 on the covolume is infinite.
"""

import json
import math
from functools import lru_cache
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .algebra import INT_S, IntGroupElement, _Checked

class _GroupSpec(NamedTuple):
    name: str
    omega: int


class GroupSpec(_Checked, _GroupSpec):
    """The group <T^omega, S>.  lattice (finite covolume) iff omega <= 2."""
    __slots__ = ()

    def __new__(cls, name, omega):
        # bool is an int subclass; True is no width
        if type(omega) is not int or omega < 1:
            raise ValueError(f"group {name!r}: omega must be an integer "
                             f">= 1, got {omega!r}")
        return tuple.__new__(cls, (name, omega))

    @property
    def lattice(self) -> bool:
        return self.omega <= 2

    def gen_set(self):
        """Generators and inverses: T^omega, T^-omega and S."""
        return (IntGroupElement(1, self.omega, 0, 1),
                IntGroupElement(1, -self.omega, 0, 1), INT_S)

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "omega": self.omega})

    @staticmethod
    def from_json(text: str) -> "GroupSpec":
        """A spec from {"name": ..., "omega": w}, the name a string;
        anything else, a generator list among them, raises ValueError."""
        doc = json.loads(text)
        if not isinstance(doc, dict) or set(doc) != {"name", "omega"} \
                or not isinstance(doc["name"], str):
            raise ValueError('a group file is {"name": ..., "omega": w}, the '
                             'width w >= 1 of <T^w, S>; generator lists are '
                             'not read')
        return GroupSpec(doc["name"], doc["omega"])


PSL2Z = GroupSpec("psl2z", 1)
THIN4 = GroupSpec("thin4", 4)

BUILTINS = {"psl2z": PSL2Z, "thin4": THIN4}


class _WordBudget(NamedTuple):
    max_depth: int
    max_nodes: int


class WordBudget(_Checked, _WordBudget):
    __slots__ = ()

    def __new__(cls, max_depth=4096, max_nodes=10 ** 7):
        self = tuple.__new__(cls, (max_depth, max_nodes))
        # bool is an int subclass; True is no budget
        if not all(type(v) is int and v >= 0 for v in self):
            raise ValueError(f"word budgets must be integers >= 0: {self}")
        return self


class _TestFunction(NamedTuple):
    name: str
    spec: GroupSpec
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    c_psi: float
    alpha_psi: float
    support: Optional[tuple]
    profiles: Optional[tuple]
    peak: float


class TestFunction(_Checked, _TestFunction):
    """Automorphic observable with declared decay and support data.

    batch takes (x, y) arrays and is the one way to evaluate the function;
    every integrator reads it through batch.  A function of (x, y) alone
    is right-K-invariant by construction: the direction on the unit
    tangent bundle never enters.  support is a fundamental-domain bounding
    box (x_lo, x_hi, y_lo, y_hi) for compactly supported functions, None for
    cusp-decaying ones.  profiles, set by the bump factories, holds the
    (P_x, P_y) product factors, the bump on each side of support: it lets
    the unfolded engines rebuild the single-translate profile instead of
    sampling the folded sum.  spec, the group the function is automorphic
    under, gives every route its rows and its period omega; anything but a
    GroupSpec raises TypeError.  The measures live in measures, which
    re-exports this class; it sits here so that modforms can build one
    without loading them.
    """
    __slots__ = ()

    def __new__(cls, name, spec, batch, c_psi=2.5, alpha_psi=2.0,
                support=None, profiles=None, peak=1.0):
        if not isinstance(spec, GroupSpec):
            raise TypeError(f"spec must be a GroupSpec, got {spec!r}")
        return tuple.__new__(cls, (name, spec, batch, c_psi, alpha_psi,
                                   support, profiles, peak))

    @property
    def omega(self) -> float:
        return float(self.spec.omega)

    @property
    def mode(self) -> str:  # a label for reports; no route reads it
        return "lattice" if self.spec.lattice else "thin"


class BudgetExceeded(Exception):
    """A resource ceiling was reached: a row table's height cap, a row
    region of mu_T or the strip measure, the Fourier mode cap, or the
    second moment's MAX_SEED_PANELS seed panels."""


# -- fundamental domains -----------------------------------------------------

REDUCE_MAX_STEPS = 200  # inversions a point may take before reduction raises
_Y_MIN = 2.0 ** -511  # least height whose square is a normal float


def reduce_points(x, y, omega=1):
    """Vectorized translate/invert reduction into |x| <= omega/2, |z| >= 1.

    That set is a fundamental domain of <T^omega, S> for every width: the
    standard domain at omega = 1, the theta group's at omega = 2, and the
    Ford domain of the free product from omega = 3 on.  omega is the
    group's width (GroupSpec.omega), 1 by default.  Translates every point
    once by omega * round(x / omega), then inverts and translates only the
    points still inside the unit disc, until none is left; the last
    translation is applied to all.  Boundary points may land on either
    representative; automorphic integrands do not care.  Non-finite
    input, y <= 0, y below 2^-511 (about 1.49e-154, the least height whose
    square is a normal float) and points still unreduced after
    REDUCE_MAX_STEPS inversions raise ValueError.  The last are points
    near the theta group's second cusp, at +-1 (omega = 2), which take
    about 1/y inversions.  The walk magnifies the rounding of x by about
    1/y: the height is about 1e-15 / y relative off the exact reduction of
    the input (7e-9 at y = 1e-8), and from y of about 1e-15 on it is the
    reduction of a nearby point instead.
    """
    return _walk(x, y, omega, False)[:2]


def _walk(x, y, omega, factor):
    """reduce_points' walk, returning (x, y, j).  With factor, j is the
    automorphy factor +-(cz + d) of the element that moves each point:
    an inversion w -> -1/w multiplies it by w, since j(S g, z) =
    (g z) j(g, z), and a translation leaves it alone.  Without, j is
    None: tracking it took 20-70% longer on 8192-point batches."""
    x = np.array(x, dtype=float, copy=True)
    y = np.array(y, dtype=float, copy=True)
    # below _Y_MIN, |z|^2 loses digits or underflows, so the walk would
    # return the heights of other points
    if not (np.isfinite(x).all() and np.isfinite(y).all()
            and (y >= _Y_MIN).all()):
        raise ValueError("reduce_points needs finite points with y >= 2^-511 "
                         "(about 1.49e-154), where y^2 is a normal float")
    np.subtract(x, omega * np.floor(x / omega + 0.5), out=x)
    idx = np.flatnonzero(x * x + y * y < 1.0 - 1e-15)
    j = np.ones(x.shape, dtype=complex) if factor else None
    for _ in range(REDUCE_MAX_STEPS):
        if not len(idx):
            break
        xi, yi = x[idx], y[idx]
        if factor:
            j[idx] *= xi + 1j * yi
        inv = 1.0 / (xi * xi + yi * yi)
        xi = -xi * inv
        yi *= inv
        np.subtract(xi, omega * np.floor(xi / omega + 0.5), out=xi)
        x[idx], y[idx] = xi, yi
        idx = idx[xi * xi + yi * yi < 1.0 - 1e-15]
    if len(idx) or not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"reduce_points left points outside the domain "
                         f"after {REDUCE_MAX_STEPS} inversions")
    np.subtract(x, omega * np.floor(x / omega + 0.5), out=x)
    return x, y, j


# -- congruence structure ----------------------------------------------------

class CosetLabel(NamedTuple):
    """A class mod q as the entries of its label code (label_entries),
    decoded for display; the library works on the codes."""
    q: int
    entries: tuple


# coset_space enumerates at most this many labels.  Every level up to 126
# stays within it and none past 144; q = 126 has 653,184 labels, built in
# 0.6 s with 24 MB over the process peak on a shared 2-core machine.  Label
# codes fit int64 far beyond.
MAX_COSETS = 10 ** 6


def psl2_order(q: int) -> int:
    """|PSL2(Z/q)| = q^3 prod_{p | q} (1 - p^-2), halved for q > 2, where
    -1 != 1 mod q: the number of labels at level q of every group whose
    image is all of PSL2(Z/q), and a bound on the others."""
    n, m, p = q ** 3, q, 2
    while p * p <= m:
        if m % p == 0:
            n = n // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        n = n // (m * m) * (m * m - 1)
    return n // 2 if q > 2 else n


def check_level(q: int) -> None:
    """ValueError unless q is an int, 1 <= q and |PSL2(Z/q)| <= MAX_COSETS."""
    # bool is an int subclass; True is no level
    if type(q) is not int or q < 1:
        raise ValueError(f"level must be an integer >= 1, got {q!r}")
    # |PSL2(Z/q)| >= q^3 (6 / pi^2) / 2 > q^3 / 4, so the large q are
    # refused before any factoring
    if q ** 3 > 4 * MAX_COSETS or psl2_order(q) > MAX_COSETS:
        raise ValueError(f"level q = {q} has more congruence classes than "
                         f"the {MAX_COSETS:,} that are enumerated")


def label_codes(elements: np.ndarray, q: int) -> np.ndarray:
    """The label code of each row g of an (n, 4) int array: the smaller of
    the base-q codes of g mod q and -g mod q, whose entries are the
    lexicographically smaller tuple, so code order is entry order."""
    weights = np.array([q ** 3, q ** 2, q, 1], dtype=np.int64)
    return np.minimum((elements % q) @ weights, ((-elements) % q) @ weights)


def label_entries(codes: np.ndarray, q: int) -> np.ndarray:
    """The (n, 4) entries of the label codes: their base-q digits."""
    return codes[:, None] // np.array([q ** 3, q ** 2, q, 1]) % q


@lru_cache(maxsize=32, typed=True)  # 3.0 and True must miss 3 and 1
def coset_space(spec: GroupSpec, q: int) -> np.ndarray:
    """The sorted, read-only int64 label codes of the group's image at
    level q: the closure of the identity under the generators, one
    breadth-first layer at a time.  ValueError past MAX_COSETS, before
    enumerating."""
    check_level(q)
    gens = np.array([[v % q for v in g.entries()] for g in spec.gen_set()],
                    dtype=np.int64).reshape(-1, 2, 2)
    seen = frontier = label_codes(np.array([[1, 0, 0, 1]]), q)
    while len(frontier):
        g = label_entries(frontier, q).reshape(-1, 2, 2)
        new = np.sort(np.concatenate([label_codes((g @ h).reshape(-1, 4), q)
                                      for h in gens]))
        # unique; np.unique of numpy 2.4 hashes and took 50 times longer
        new = new[np.diff(new, prepend=-1) != 0]
        at = np.searchsorted(seen, new)
        fresh = seen.take(at, mode="clip") != new
        frontier = new[fresh]
        seen = np.insert(seen, at[fresh], frontier)
    seen.setflags(write=False)
    return seen


# q = 97 holds 456,288 labels, about 90 MB of objects, so few levels stay
@lru_cache(maxsize=2, typed=True)
def coset_labels(spec: GroupSpec, q: int) -> tuple:
    """The CosetLabel of every code of coset_space(spec, q), in code
    order: the keys of a count's per-coset breakdown."""
    entries = zip(*label_entries(coset_space(spec, q), q).T.tolist())
    return tuple(map(CosetLabel, repeat(q), entries))


# -- coset rows --------------------------------------------------------------

ROW_HEIGHT_CAP = 4096  # bottom_rows raises BudgetExceeded from this height on


def _ragged(start, n):
    """(i, start[i] + j) for every i and 0 <= j < n[i], in that order."""
    i = np.repeat(np.arange(len(n)), n)
    return i, start[i] + (np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n))


def _mod_inverse(d, c):
    """d^-1 mod c in [0, c) for coprime int arrays (0 where c = 1), by the
    extended Euclidean algorithm run on the unfinished entries at once."""
    inv, idx = np.zeros_like(c), np.arange(len(c))
    r0, r1, s0, s1 = c, d % c, np.zeros_like(c), np.ones_like(c)
    while len(idx):
        done = r1 == 0
        inv[idx[done]] = s0[done] % c[idx[done]]
        idx, r0, r1, s0, s1 = (v[~done] for v in (idx, r0, r1, s0, s1))
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return inv


def _syllable_tree(omega: int, h2: float) -> np.ndarray:
    """[a, b, c, d] of the words S T^(omega k1) S ... S T^(omega kn), k1
    ... k(n-1) != 0, whose row has c^2 + d^2 <= h2.  A node is such a word
    ending in S, with row (c, d); its run is the node times T^(omega k)
    for the k with c^2 + (d + omega k c)^2 <= h2 (the closed-form interval
    one step wider, checked in exact integers), and the run's k != 0
    members times S are the next nodes.  Pruning at the disc is exact for
    omega >= 2: each row (c, d) after a k != 0 syllable has |c| <=
    (2/omega)|d|, so the next such row (d, omega j d - c) has |omega j d -
    c| >= |d| >= |c|, and the row norm never drops down the tree."""
    out, node = [], np.array([[0, -1, 1, 0]], dtype=np.int64)  # S
    while len(node):
        a, b, c, d = node.T
        mid = -d / (omega * c)
        r = np.sqrt(np.maximum(h2 - c * c, 0.0)) / (omega * c)
        lo = np.floor(mid - r).astype(np.int64) - 1
        i, k = _ragged(lo, np.ceil(mid + r).astype(np.int64) + 2 - lo)
        wk = omega * k
        run = np.column_stack([a[i], b[i] + a[i] * wk, c[i], d[i] + c[i] * wk])
        keep = run[:, 2] ** 2 + run[:, 3] ** 2 <= h2
        out.append(run[keep])
        # times S: (a, b, c, d) S = (b, -a, d, -c), signed so that c > 0
        nxt = run[keep & (k != 0)][:, [1, 0, 3, 2]] * [1, -1, 1, -1]
        node = nxt * np.where(nxt[:, 2] < 0, -1, 1)[:, None]
    return np.concatenate(out)


@lru_cache(maxsize=64)
def bottom_rows(spec: GroupSpec, height: float) -> np.ndarray:
    """Coset representatives for the translation subgroup, one per coset,
    for every coset whose bottom row (c, d) has Euclidean norm <= height.

    Left multiplication by a translation fixes the bottom row, and two
    elements share a row (up to sign) exactly when they lie in the same
    coset, so the rows label the cosets.  For omega = 1 they are the
    coprime pairs in the disc, with a = d^-1 mod c (coset_row_chunks);
    for omega >= 2, the free product of <T^omega> and <S>, each coset's
    shortest word (the one a breadth-first search finds first) is the
    identity or starts with S, and _syllable_tree builds those.  Heights
    from ROW_HEIGHT_CAP on raise BudgetExceeded.  Returns a read-only (n, 4)
    int array of [a, b, c, d], c > 0 or c = 0 and a = d = 1, sorted by row.
    """
    if not height < ROW_HEIGHT_CAP:
        raise BudgetExceeded(f"row table of height {height:g} is past the "
                             f"cap (heights < {ROW_HEIGHT_CAP})")
    h2 = float(height) * float(height)
    if spec.omega == 1:
        cs = np.arange(1, int(math.sqrt(h2)) + 2)
        span = np.sqrt(np.maximum(h2 - cs * cs, 0.0)).astype(np.int64) + 1
        a, c, d = np.concatenate([*coset_row_chunks(spec, -span, span)], 1)
        rest = np.column_stack([a, (a * d - 1) // c, c, d])
    else:
        rest = _syllable_tree(spec.omega, h2)
    out = np.concatenate([np.array([[1, 0, 0, 1]], dtype=np.int64), rest])
    # exact; the coprime spans are one too wide, and h < 1 drops the identity
    out = out[out[:, 2] ** 2 + out[:, 3] ** 2 <= h2]
    out = out[np.lexsort((out[:, 3], out[:, 2]))]
    out.setflags(write=False)
    return out


# rows per chunk of coset_row_chunks.  A chunk's per-row arrays take 32
# KiB and the spike engine's per-piece ones 5 times the coprime share of
# that, near glibc's 128 KiB mmap threshold, so they reuse heap memory;
# on warm lattice mu_T at T = 10-2000, 2048 rows ran 6% slower than one
# whole chunk and 4096 rows 1.5%
ROW_CHUNK = 4096


def coset_row_chunks(spec: GroupSpec, d_lo, d_hi):
    """(a, c, d) int array chunks of the coset rows with c = 1..len(d_lo)
    and d_lo[c-1] <= d <= d_hi[c-1], ordered by c and then d, in
    consecutive chunks of at most ROW_CHUNK rows, none empty; a is needed
    mod omega c.  omega = 1 builds each chunk on its own from the next
    ROW_CHUNK candidates (d_hi - d_lo + 1 for each c), a = d^-1 mod c, so
    a long d-range is split inside its c; omega >= 2 masks the cached
    bottom_rows table of the least power-of-two height that holds the
    region, which raises BudgetExceeded past the cap, and slices the rows
    it keeps."""
    d_lo, d_hi = np.asarray(d_lo, np.int64), np.asarray(d_hi, np.int64)
    if spec.omega == 1:
        n = np.maximum(d_hi - d_lo + 1, 0)
        end = np.cumsum(n)
        total = int(end[-1]) if len(end) else 0
        for first in range(0, total, ROW_CHUNK):
            stop = min(first + ROW_CHUNK, total)
            i0, i1 = np.searchsorted(end, [first, stop - 1], side="right")
            hi, begin = end[i0:i1 + 1], end[i0:i1 + 1] - n[i0:i1 + 1]
            lo = np.maximum(begin, first)
            i, d = _ragged(d_lo[i0:i1 + 1] + (lo - begin),
                           np.minimum(hi, stop) - lo)
            c = i + (i0 + 1)
            keep = np.gcd(c, d) == 1
            if keep.any():
                c, d = c[keep], d[keep]
                yield _mod_inverse(d, c), c, d
        return
    cs = np.arange(1, len(d_lo) + 1)
    n2 = cs * cs + np.maximum(d_lo * d_lo, d_hi * d_hi)
    n2 = int(n2[d_lo <= d_hi].max(initial=1))
    # (2^k)^2 >= n2 for k = ceil(log2(n2) / 2) = ceil(bitlen(n2 - 1) / 2)
    a, _, c, d = bottom_rows(spec, 1 << ((n2 - 1).bit_length() + 1) // 2).T
    first, stop = np.searchsorted(c, [1, len(d_lo) + 1])
    a, c, d = a[first:stop], c[first:stop], d[first:stop]
    keep = (d_lo[c - 1] <= d) & (d <= d_hi[c - 1])
    a, c, d = a[keep], c[keep], d[keep]
    for first in range(0, len(c), ROW_CHUNK):
        chunk = slice(first, first + ROW_CHUNK)
        yield a[chunk], c[chunk], d[chunk]
