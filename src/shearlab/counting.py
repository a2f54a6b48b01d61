"""Orbit counting on discriminant quadrics and growth-law fitting.

The orbit of an integer form vector under a discrete group is enumerated
by word search, deduplicated exactly, and counted inside norm balls.  The
two built-in scenarios (full modular group and the thin subgroup, both
acting on x0 = (0, 1, 0)) have trivial stabilizer, so vectors, group
elements, and congruence cosets are in bijection and per-coset counts are
well defined.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import FormVector
from .groups import (BudgetExceeded, CosetLabel, GroupSpec, WordBudget,
                     coset_space, enumerate_words)


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
    explore_factor: float = 3.0
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
    search_nodes: int = 0  # word-search nodes, partial ones included
    search_depth: int = 0  # word-search layers reached

    def __post_init__(self):
        if any(b > a for a, b in zip(self.counts[1:], self.counts)):
            raise ValueError("counts must be nondecreasing in T")

    def largest_saturated_index(self) -> int:
        idx = [i for i, s in enumerate(self.saturated) if s]
        if not idx:
            raise InsufficientDataError("no saturated radius")
        return idx[-1]


_INT64_MAX = np.iinfo(np.int64).max


def label_codes(elements: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of CosetLabel.of(g, q).entries for each row g of an
    (n, 4) int array: the smaller of the codes of g mod q and -g mod q,
    which is the lexicographically smaller entry tuple."""
    weights = np.array([q ** 3, q ** 2, q, 1], dtype=np.int64)
    return np.minimum((elements % q) @ weights, ((-elements) % q) @ weights)


def _raise_on_repeat(elements: list, vecs: np.ndarray):
    """StabilizerError naming the first element (in search order) whose
    vector an earlier element already reached, and that earlier one."""
    order = np.lexsort(vecs.T[::-1])  # stable: equal vectors keep search order
    sv = vecs[order]
    rep = np.flatnonzero((sv[1:] == sv[:-1]).all(axis=1))
    if len(rep):
        k = rep[np.argmin(order[rep + 1])]
        first, later = order[k], order[k + 1]
        key = tuple(int(v) for v in vecs[later])
        raise StabilizerError(f"vector {key} reached by {elements[first]} "
                              f"and {elements[later]}")


def count_orbit(query: OrbitQuery) -> CountResult:
    """Exact ball counts of the orbit x0 * spin_cover(Gamma).

    The word search (plain int tuples) expands an element only while its
    vector, computed inline in exact integers, stays inside the
    exploration box: explore_factor times the largest requested radius.
    The box-closure heuristic is validated against brute-force quadric
    enumeration in the tests, and doubling explore_factor is the knob to
    turn if a new scenario is in doubt.  A budget overrun downgrades every
    radius to saturated=False rather than guessing.

    The tally is one numpy pass: each vector gets one integer key (sup
    norm, or the sum of squares for the Euclidean ball), the keys are
    sorted once, and one searchsorted against the integer thresholds
    ceil(t) - 1 (or ceil(t * t) - 1) counts every radius, so each test
    is the exact integer form of key < t (or < t * t).  Per-coset counts
    do the same within each label's block.  Entries that do not fit int64
    raise OverflowError.
    """
    t0 = time.perf_counter()
    t_max = max(query.t_list)
    x0n = query.x0.sup_norm() if query.norm == "sup" else query.x0.euclid_norm()
    gate_r = query.explore_factor * max(t_max, x0n + 1.0)
    sup = query.norm == "sup"
    gate = gate_r if sup else gate_r * gate_r
    p0, q0, r0 = (int(v) for v in query.x0.entries())
    # (p, q, r, key) per element in search order, starting with the
    # identity; the gate sees each later element once, right after the
    # search collects it.  array("q") raises OverflowError past int64.
    rows = array("q", (p0, q0, r0, max(abs(p0), abs(q0), abs(r0)) if sup
                       else p0 * p0 + q0 * q0 + r0 * r0))

    def in_gate(g: tuple) -> bool:
        a, b, c, d = g
        p = p0 * a * a + q0 * a * c + r0 * c * c
        q = 2 * p0 * a * b + q0 * (a * d + b * c) + 2 * r0 * c * d
        r = p0 * b * b + q0 * b * d + r0 * d * d
        key = max(abs(p), abs(q), abs(r)) if sup else p * p + q * q + r * r
        rows.extend((p, q, r, key))
        return key < gate

    try:
        res = enumerate_words(query.spec, predicate=None,
                              budget=query.budget, expand=in_gate)
        saturated = res.saturated
    except BudgetExceeded as e:
        res = e.partial
        saturated = False
    elements = res.elements
    rows = np.frombuffer(rows, dtype=np.int64).reshape(-1, 4)
    if len(rows) != len(elements):
        raise RuntimeError("word search and orbit gate out of step")
    _raise_on_repeat(elements, rows[:, :3])
    keys = rows[:, 3]
    thresholds = np.array(
        [min(max(math.ceil(t if sup else t * t) - 1, -1), _INT64_MAX)
         for t in query.t_list], dtype=np.int64)

    breakdown = None
    if query.q is None:
        counts = np.searchsorted(np.sort(keys), thresholds, side="right")
    else:
        labels = sorted(coset_space(query.spec, query.q),
                        key=lambda lab: lab.entries)
        codes = label_codes(np.array(elements, dtype=np.int64).reshape(-1, 4),
                            query.q)
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
                       res.nodes, res.depth)


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
