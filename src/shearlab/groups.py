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

    def conjugated(self, h: IntGroupElement, name: Optional[str] = None) -> "GroupSpec":
        """The group h G h^-1 with cusps moved along."""
        hinv = h.inverse()
        gens = tuple(h * g * hinv for g in self.generators)
        cusps = tuple(Cusp(_boundary_image(h, c.point), c.width) for c in self.cusps)
        return GroupSpec(name or (self.name + "~"), gens, self.lattice, cusps)

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


def _boundary_image(g: IntGroupElement, p: float) -> float:
    if math.isinf(p):
        return INF if g.c == 0 else g.a / g.c
    den = g.c * p + g.d
    if den == 0:
        return INF
    return (g.a * p + g.b) / den


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
    closure: bool
    depth: int
    nodes: int


class BudgetExceeded(Exception):
    """Raised when the word search hits its budget; carries partial results."""

    def __init__(self, partial: WordSearchResult):
        super().__init__(f"word search budget exceeded at depth {partial.depth} "
                         f"({partial.nodes} nodes)")
        self.partial = partial


def enumerate_words(spec: GroupSpec,
                    predicate: Optional[Callable[[tuple], bool]] = None,
                    budget: WordBudget = WordBudget(),
                    expand: Optional[Callable[[tuple], bool]] = None
                    ) -> WordSearchResult:
    """Breadth-first enumeration of distinct group elements.

    Elements are plain int tuples (a, b, c, d) in the sign representative
    IntGroupElement uses (c > 0, or c = 0 and a > 0); IntGroupElement(*t)
    turns one into an object.  Words are built by right multiplication
    with generators and inverses; immediate backtracking never survives
    the global dedup set, so no separate reduced-word bookkeeping is
    needed.  `predicate` selects which elements are collected into
    `elements`; `expand` gates which elements spawn children (default:
    all of them, so termination comes from the budget alone).  Both see
    each new element once, predicate first, in collection order; the
    identity is collected (if the predicate keeps it) and expanded
    without asking them.  Saturation is reported when two consecutive
    depth layers contribute no new collected element, or when the
    frontier closes outright.
    """
    ident = (1, 0, 0, 1)
    gens = [g.entries() for g in spec.gen_set()]
    seen = {ident}
    frontier = [ident]
    collected = []
    if predicate is None or predicate(ident):
        collected.append(ident)
    nodes = 1
    depth = 0
    empty_layers = 0
    while frontier:
        if depth >= budget.max_depth:
            raise BudgetExceeded(WordSearchResult(
                collected, False, False, depth, nodes))
        new_frontier = []
        added = 0
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
                nodes += 1
                if nodes > budget.max_nodes:
                    raise BudgetExceeded(WordSearchResult(
                        collected, False, False, depth, nodes))
                if predicate is None or predicate(m):
                    collected.append(m)
                    added += 1
                if expand is None or expand(m):
                    new_frontier.append(m)
        frontier = new_frontier
        depth += 1
        empty_layers = 0 if added else empty_layers + 1
        if predicate is not None and empty_layers >= 2:
            return WordSearchResult(collected, True, not frontier, depth, nodes)
    return WordSearchResult(collected, True, True, depth, nodes)


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


# -- cusps -------------------------------------------------------------------

@lru_cache(maxsize=64)
def bottom_rows(spec: GroupSpec, height: float, slack: float = 4.0) -> np.ndarray:
    """Coset representatives for the translation subgroup, one per coset,
    for every coset whose bottom row (c, d) has Euclidean norm <= height.

    Left multiplication by a translation fixes the bottom row, and two
    elements share a row (up to sign) exactly when they lie in the same
    coset, so the rows label the cosets.  The word search is gated on the
    sup norm of the full matrix at slack * height; every coset with a row
    in the disc has a representative with entries within twice the row
    norm, so the gate is comfortable.  Returns an (n, 4) int array of
    full matrices [a, b, c, d] (first representative found, whole matrix
    sign-flipped so that c > 0, or c = 0 and d > 0), sorted by row, that
    callers must not mutate.
    """
    h2 = height * height
    gate = slack * height

    def in_disc(g: tuple) -> bool:
        return g[2] * g[2] + g[3] * g[3] <= h2

    def keep_expanding(g: tuple) -> bool:
        a, b, c, d = g
        return max(abs(a), abs(b), abs(c), abs(d)) <= gate

    res = enumerate_words(spec, predicate=in_disc,
                          budget=WordBudget(max_depth=4096, max_nodes=10 ** 7),
                          expand=keep_expanding)
    # the search's sign representative already has c > 0, or c = 0 and
    # a = d = 1, so each row is a coset key as it stands
    reps = {}
    for a, b, c, d in res.elements:
        reps.setdefault((c, d), (a, b))
    out = np.array([(a, b, c, d) for (c, d), (a, b) in reps.items()],
                   dtype=np.int64).reshape(-1, 4)
    out = out[np.lexsort((out[:, 3], out[:, 2]))]
    out.setflags(write=False)
    return out


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
