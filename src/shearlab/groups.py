"""Discrete subgroups given by integer generators: word search, domain
reduction, congruence data, cusp bookkeeping.

Two specs ship built in.  "psl2z" is the full modular group generated by
the unit translation and the inversion; "thin4" is the infinite-covolume
subgroup generated by the translation by 4 and the inversion, which keeps
the cusp at infinity (width 4) but leaves most of the boundary circle as
limit-set complement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .algebra import INT_S, INT_T, IntGroupElement, UTBPoint, mobius_act

INF = float("inf")


@dataclass(frozen=True)
class Cusp:
    point: float  # boundary point, INF allowed
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("cusp width must be positive")


@dataclass(frozen=True)
class GroupSpec:
    name: str
    generators: tuple
    lattice: bool
    cusps: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        for g in gens:
            if not isinstance(g, IntGroupElement):
                raise TypeError("generators must be IntGroupElement")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "cusps", tuple(self.cusps))

    def gen_set(self):
        """Generators and inverses, deduplicated."""
        out = []
        for g in self.generators:
            for h in (g, g.inverse()):
                if h not in out:
                    out.append(h)
        return tuple(out)

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "generators": [[[g.a, g.b], [g.c, g.d]] for g in self.generators],
            "lattice": self.lattice,
            "cusps": [{"point": ("inf" if math.isinf(c.point) else c.point),
                       "width": c.width} for c in self.cusps],
        })

    @staticmethod
    def from_json(text: str) -> "GroupSpec":
        doc = json.loads(text)
        gens = tuple(IntGroupElement(m[0][0], m[0][1], m[1][0], m[1][1])
                     for m in doc["generators"])
        cusps = tuple(Cusp(INF if c["point"] == "inf" else float(c["point"]),
                           float(c["width"])) for c in doc["cusps"])
        return GroupSpec(doc["name"], gens, bool(doc["lattice"]), cusps)


PSL2Z = GroupSpec("psl2z", (INT_T, INT_S), True, (Cusp(INF, 1.0),))
THIN4 = GroupSpec("thin4", (IntGroupElement(1, 4, 0, 1), INT_S), False,
                  (Cusp(INF, 4.0), Cusp(0.0, 4.0)))

BUILTINS = {"psl2z": PSL2Z, "thin4": THIN4}


def syllable_width(spec: GroupSpec) -> Optional[int]:
    """omega when spec is generated by the translation T^omega and the
    inversion S (in any order, inverses allowed), else None.  Every
    element of such a group is a product of syllables S T^(omega k)."""
    gens = {g.entries() for g in spec.gen_set()}
    omega = max((abs(b) for a, b, c, d in gens if (a, c, d) == (1, 0, 1)),
                default=0)
    if omega and gens == {INT_S.entries(), (1, omega, 0, 1), (1, -omega, 0, 1)}:
        return omega
    return None


def builtin(name: str) -> GroupSpec:
    try:
        return BUILTINS[name]
    except KeyError:
        raise KeyError(f"no built-in group named {name!r}; "
                       f"choose from {sorted(BUILTINS)}") from None


@dataclass(frozen=True)
class WordBudget:
    max_depth: int = 512
    max_nodes: int = 4_000_000


@dataclass
class WordSearchResult:
    elements: list
    saturated: bool
    depth: int
    nodes: int


class BudgetExceeded(Exception):
    """Raised when a search or a row table hits its budget; carries the
    partial word-search result when there is one."""

    def __init__(self, partial: Optional[WordSearchResult] = None,
                 message: str = ""):
        super().__init__(message or f"word search budget exceeded at depth "
                         f"{partial.depth} ({partial.nodes} nodes)")
        self.partial = partial


def enumerate_words(spec: GroupSpec, budget: WordBudget = WordBudget(),
                    expand: Optional[Callable[[tuple], bool]] = None
                    ) -> WordSearchResult:
    """Breadth-first enumeration of distinct group elements.

    Elements are plain int tuples (a, b, c, d) in the sign representative
    IntGroupElement uses (c > 0, or c = 0 and a > 0); IntGroupElement(*t)
    turns one into an object.  Words are built by right multiplication
    with generators and inverses; immediate backtracking never survives
    the global dedup set, so no separate reduced-word bookkeeping is
    needed.  Every element found is collected; `expand` sees each new
    one once, in collection order, and gates which ones spawn children
    (default: all, so only the budget stops the search).  The search is
    saturated when the frontier closes.  Only orbit counts on specs that
    are not <T^omega, S> use it; coset rows come from bottom_rows.
    """
    ident = (1, 0, 0, 1)
    gens = [g.entries() for g in spec.gen_set()]
    seen = {ident}
    frontier = [ident]
    collected = [ident]
    depth = 0
    while frontier:
        if depth >= budget.max_depth:
            raise BudgetExceeded(WordSearchResult(collected, False, depth,
                                                  len(collected)))
        new_frontier = []
        for a, b, c, d in frontier:
            for e, f, g, h in gens:
                ma, mb = a * e + b * g, a * f + b * h
                mc, md = c * e + d * g, c * f + d * h
                if mc < 0 or (mc == 0 and ma < 0):
                    m = (-ma, -mb, -mc, -md)
                else:
                    m = (ma, mb, mc, md)
                if m in seen:
                    continue
                seen.add(m)
                if len(collected) >= budget.max_nodes:  # m is one too many
                    raise BudgetExceeded(WordSearchResult(
                        collected, False, depth, len(collected) + 1))
                collected.append(m)
                if expand is None or expand(m):
                    new_frontier.append(m)
        frontier = new_frontier
        depth += 1
    return WordSearchResult(collected, True, depth, len(collected))


# -- fundamental domain for the full modular group ---------------------------

def reduce_to_fundamental_domain(p: UTBPoint, max_steps: int = 10000):
    """Move p into |x| <= 1/2, |z| >= 1 and return (point, word).

    Boundary conventions: the x = +1/2 edge is excluded (mapped to -1/2),
    and on the unit circle the x < 0 half is excluded (mapped across by the
    inversion).  The returned integer word gamma satisfies gamma p = point.
    """
    word = IntGroupElement.identity()
    cur = p
    for _ in range(max_steps):
        shift = -math.floor(cur.x + 0.5)
        if shift != 0:
            step = IntGroupElement(1, shift, 0, 1)
            cur = mobius_act(step, cur)
            word = step * word
        r2 = cur.x * cur.x + cur.y * cur.y
        if r2 < 1.0 - 1e-15:
            cur = mobius_act(INT_S, cur)
            word = INT_S * word
            continue
        # on the unit circle the negative-x half maps across, except the
        # corner at x = -1/2 which is the canonical representative
        if abs(r2 - 1.0) <= 1e-15 and -0.5 + 1e-15 < cur.x < 0.0:
            cur = mobius_act(INT_S, cur)
            word = INT_S * word
            continue
        return cur, word
    raise RuntimeError("fundamental domain reduction did not terminate")


def reduce_points(x, y, max_steps: int = 200):
    """Vectorized translate/invert reduction for point arrays.

    Boundary points may land on either representative; automorphic
    integrands do not care.
    """
    x = np.array(x, dtype=float, copy=True)
    y = np.array(y, dtype=float, copy=True)
    for _ in range(max_steps):
        np.subtract(x, np.floor(x + 0.5), out=x)
        r2 = x * x + y * y
        mask = r2 < 1.0 - 1e-15
        if not np.any(mask):
            break
        inv = 1.0 / r2[mask]
        x[mask] = -x[mask] * inv
        y[mask] = y[mask] * inv
    np.subtract(x, np.floor(x + 0.5), out=x)
    return x, y


# -- congruence structure ----------------------------------------------------

@dataclass(frozen=True)
class CosetLabel:
    """Entries mod q with the sign representative chosen lexicographically."""
    q: int
    entries: tuple

    @staticmethod
    def of(g: IntGroupElement, q: int) -> "CosetLabel":
        if q < 1:
            raise ValueError("level must be >= 1")
        plus = tuple(v % q for v in g.entries())
        minus = tuple((-v) % q for v in g.entries())
        return CosetLabel(q, min(plus, minus))

    @staticmethod
    def identity(q: int) -> "CosetLabel":
        return CosetLabel.of(IntGroupElement.identity(), q)

    def __mul__(self, other: "CosetLabel") -> "CosetLabel":
        if self.q != other.q:
            raise ValueError("level mismatch")
        q = self.q
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        prod = ((a * e + b * g) % q, (a * f + b * h) % q,
                (c * e + d * g) % q, (c * f + d * h) % q)
        minus = tuple((-v) % q for v in prod)
        return CosetLabel(q, min(prod, minus))


@lru_cache(maxsize=32)
def coset_space(spec, q: int) -> frozenset:
    """All labels of the image of the group at level q (closure of the
    generator labels).  Accepts a GroupSpec or a built-in name."""
    if isinstance(spec, str):
        spec = builtin(spec)
    gens = [CosetLabel.of(g, q) for g in spec.gen_set()]
    seen = {CosetLabel.identity(q)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for lab in frontier:
            for h in gens:
                m = lab * h
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    return frozenset(seen)


# -- coset rows --------------------------------------------------------------

ROW_HEIGHT_CAP = 4096  # bottom_rows raises BudgetExceeded from this height on


def _ragged(start, n):
    """(i, start[i] + j) for every i and 0 <= j < n[i], in that order."""
    i = np.repeat(np.arange(len(n)), n)
    return i, start[i] + (np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n))


def _coprime_rows(d_lo, d_hi):
    """(c, d) int arrays of the coprime pairs with c = 1..len(d_lo) and
    d_lo[c-1] <= d <= d_hi[c-1], ordered by c and then d."""
    i, d = _ragged(d_lo, np.maximum(d_hi - d_lo + 1, 0))
    keep = np.gcd(i + 1, d) == 1
    return i[keep] + 1, d[keep]


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
    coset, so the rows label the cosets.  spec must be <T^omega, S>
    (else ValueError).  For omega = 1 the rows are the coprime pairs in
    the disc, with a = d^-1 mod c.  For omega >= 2, the free product of
    <T^omega> and <S>, each coset's shortest word (the one a breadth-first
    search finds first) is the identity or starts with S, and
    _syllable_tree builds those.  Heights from ROW_HEIGHT_CAP on raise
    BudgetExceeded.  Returns a read-only (n, 4) int array of [a, b, c, d],
    c > 0 or c = 0 and a = d = 1, sorted by row.
    """
    omega = syllable_width(spec)
    if omega is None:
        raise ValueError(f"coset rows need a group generated by T^omega and "
                         f"S; {spec.name!r} is not one")
    if not height < ROW_HEIGHT_CAP:
        raise BudgetExceeded(message=f"row table of height {height:g} is "
                             f"past the cap (heights < {ROW_HEIGHT_CAP})")
    h2 = float(height) * float(height)
    if omega == 1:
        cs = np.arange(1, int(math.sqrt(h2)) + 2)
        span = np.sqrt(np.maximum(h2 - cs * cs, 0.0)).astype(np.int64) + 1
        c, d = _coprime_rows(-span, span)
        a = _mod_inverse(d, c)
        rest = np.column_stack([a, (a * d - 1) // c, c, d])
    else:
        rest = _syllable_tree(omega, h2)
    out = np.concatenate([np.array([[1, 0, 0, 1]], dtype=np.int64), rest])
    # exact; the coprime spans are one too wide, and h < 1 drops the identity
    out = out[out[:, 2] ** 2 + out[:, 3] ** 2 <= h2]
    out = out[np.lexsort((out[:, 3], out[:, 2]))]
    out.setflags(write=False)
    return out


# -- cusps -------------------------------------------------------------------

def cusp_normalizer(spec: GroupSpec, cusp_index: int) -> IntGroupElement:
    """sigma with sigma(cusp) = infinity; the cusp stabilizer conjugates to
    translations by the declared width."""
    cusp = spec.cusps[cusp_index]
    if math.isinf(cusp.point):
        return IntGroupElement.identity()
    p = cusp.point
    fr = _as_fraction(p)
    if fr is None:
        raise ValueError("only rational cusps are supported")
    num, den = fr
    # bottom row (den, -num) sends num/den to infinity
    g, x, yy = _ext_gcd(num, den)
    if g != 1:
        raise ValueError("cusp fraction not reduced")
    # (x  yy; den  -num) has det -x*num - yy*den = -(1) -> fix signs
    return IntGroupElement(x, yy, -den, num) if x * num + yy * den == 1 else \
        IntGroupElement(-x, -yy, den, -num)


def _as_fraction(p: float, max_den: int = 10 ** 6):
    from fractions import Fraction
    fr = Fraction(p).limit_denominator(max_den)
    if abs(float(fr) - p) > 1e-12:
        return None
    return fr.numerator, fr.denominator


def _ext_gcd(a: int, b: int):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y
