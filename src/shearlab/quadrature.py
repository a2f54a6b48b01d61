"""Shared quadrature kernels.

Everything here works on vectorized integrands: f(x) takes a numpy array of
nodes and returns an array of values.  The adaptive driver refines in
whole-array rounds: each round bisects the largest-error panels that
together carry the error in excess of half the tolerance, and evaluates
all their halves in one integrand call per _PANEL_BLOCK panels.  On top
sit the one grid-refinement loop (refine) and the one fundamental-domain
integrator (integrate_fd, a single adaptive pass over all its columns)
the other modules share.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

# 15-point Kronrod extension of 7-point Gauss, nodes on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights sit on every other Kronrod node.
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GIDX = np.arange(1, 15, 2)
# points per call of f in integrate_fd, bounding f's temporaries
_FD_BLOCK = 1 << 11
# panels per call of f in _panel_eval, bounding adaptive's temporaries
_PANEL_BLOCK = 1 << 12


class InsufficientConvergenceError(RuntimeError):
    """An estimate missed its tolerance: two smoothing cutoffs of an
    L-series disagree, or a ray, strip, domain or pairing quadrature does
    not converge.  Raised by settled alone."""


class QuadResult(NamedTuple):
    value: float
    est_error: float
    converged: bool
    n_evals: int
    n_panels: int


def settled(result, what: str):
    """result[0], the value of a (value, est. error, converged, ...)
    result such as adaptive's or refine's, once it has converged;
    InsufficientConvergenceError naming what otherwise."""
    value, err, ok = result[:3]
    if not ok:
        raise InsufficientConvergenceError(
            f"{what} did not converge: last value {value!r}, est. error "
            f"{err:.2e}")
    return value


def _panel_eval(f, lo: np.ndarray, hi: np.ndarray):
    """(k15, |k15-g7|) of G7/K15 on panels, _PANEL_BLOCK per call of f."""
    if len(lo) > _PANEL_BLOCK:
        out = np.empty((2, len(lo)))
        for i in range(0, len(lo), _PANEL_BLOCK):
            b = slice(i, i + _PANEL_BLOCK)
            out[0, b], out[1, b] = _panel_eval(f, lo[b], hi[b])
        return out[0], out[1]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    k15 = half * (vals @ _WK)
    g7 = half * (vals[:, _GIDX] @ _WG)
    return k15, np.abs(k15 - g7)


def _seed_edges(a: float, b: float, seeds) -> np.ndarray:
    """a, b and the seeds clipped to [a, b], sorted and without repeats.
    Float seeds that already start at a, end at b and strictly increase
    come back as they are, after one pass; others get np.unique's result
    by a sort and a mask of neighbours that differ, since numpy 2.4's
    np.unique imports numpy.ma, about 20 ms, on its first call in a
    process."""
    seeds = np.asarray(seeds, dtype=float)
    if (len(seeds) > 1 and seeds[0] == a and seeds[-1] == b
            and (seeds[1:] > seeds[:-1]).all()):
        return seeds
    edges = np.sort(np.clip(np.concatenate([[a, b], seeds]), a, b))
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def adaptive(f, a: float, b: float, abs_tol: float = 1e-12,
             rel_tol: float = 1e-10, initial_edges=None,
             max_panels: int = 20000) -> QuadResult:
    """Globally adaptive Gauss-Kronrod integration of f over [a, b].

    initial_edges lets the caller pre-split at known kinks; the refinement
    loop then only has to chase whatever structure is left inside panels.

    Each round bisects the fewest largest-error panels whose errors
    together reach toterr - tol/2, where tol = max(abs_tol, rel_tol
    |total|), and evaluates their halves, _PANEL_BLOCK per call of f.  Rounds
    stop once toterr <= tol, or when the panel count reaches max_panels;
    converged reports whether the first of these held.
    """
    edges = _seed_edges(a, b, [] if initial_edges is None else initial_edges)
    del initial_edges   # edges may be it; a sorted copy frees it now
    lo, hi = edges[:-1], edges[1:].copy()   # hi is split in place below
    vals, errs = _panel_eval(f, lo, hi)
    n_evals = 15 * len(lo)

    while True:
        total = float(vals.sum())
        toterr = float(errs.sum())
        tol = max(abs_tol, rel_tol * abs(total))
        # a NaN error estimate stops the rounds too, unconverged
        if not toterr > tol or len(lo) >= max_panels:
            break
        order = errs.argsort()[::-1]
        carried = errs[order].cumsum()
        n_pick = int(carried.searchsorted(toterr - 0.5 * tol)) + 1
        pick = order[:min(n_pick, max_panels - len(lo))]
        n = len(pick)
        plo, phi = lo[pick], hi[pick]
        mid = 0.5 * (plo + phi)
        nvals, nerrs = _panel_eval(f, np.concatenate([plo, mid]),
                                   np.concatenate([mid, phi]))
        n_evals += 30 * n
        # left halves take the split panels' places, right halves append
        hi[pick], vals[pick], errs[pick] = mid, nvals[:n], nerrs[:n]
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([hi, phi])
        vals = np.concatenate([vals, nvals[n:]])
        errs = np.concatenate([errs, nerrs[n:]])

    return QuadResult(total, toterr, toterr <= tol, n_evals, len(lo))


def _read_only(*arrays):
    """The arrays, each made read-only in place."""
    for v in arrays:
        v.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def gl_nodes(n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1]:
    read-only, since every caller of one n shares them."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


@lru_cache(maxsize=1)
def tanh_levels():
    """The nested tanh rule (Takahasi-Mori) on [-1, 1], level by level:
    (h, x, w) for h = 1/3, 1/6, 1/12, 1/24, with x = tanh(s) and w =
    sech^2(s) at the level's new nodes s = k h, |s| <= 3 (odd k after
    level 0).  h times the weighted sum over levels 0..j is the trapezoid
    rule in s, on 19, 37, 73 and 145 nodes; it converges fast on
    integrands that vanish to all orders at both ends, since the cut at
    |s| = 3 leaves out only 1 - tanh(3), 0.5%, of either half.  The arrays
    are read-only and shared by every caller."""
    levels = []
    for j in range(4):
        m = 3 << j                      # nodes per unit of s
        # level 0 takes every k, later levels the odd k
        s = (np.arange(-3 * m, 3 * m + 1) if j == 0
             else np.arange(1 - 3 * m, 3 * m, 2)) / m
        levels.append((1.0 / m, *_read_only(np.tanh(s), np.cosh(s) ** -2.0)))
    return tuple(levels)


def refine(run, sizes, abs_tol: float = 0.0, rel_tol: float = 0.0):
    """Evaluate run(n) along the size sequence until two successive values
    agree, |cur - prev| <= abs_tol + rel_tol * |cur|.

    Returns (value, err, converged): the last value computed, its distance
    from the one before, and whether that distance met the tolerance: a
    QuadResult's first three fields, so settled reads either.  The
    grid-refinement loops of measures, eisenstein and modforms all go
    through here; each keeps its own sizes and threshold.
    """
    prev = None
    err = float("inf")
    for n in sizes:
        cur = run(n)
        if prev is not None:
            err = abs(cur - prev)
            if err <= abs_tol + rel_tol * abs(cur):
                return cur, err, True
        prev = cur
    return cur, err, False


def integrate_fd(f, y_top: float, nx: int, n_edges: int, abs_tol: float,
                 rel_tol: float) -> QuadResult:
    """Integral of f(x, y) over the standard fundamental domain |x| <= 1/2,
    x^2 + y^2 >= 1, cut at y = y_top.

    Gauss-Legendre columns in x.  Column x runs from the unit arc
    y0 = sqrt(1 - x^2) up to y_top along y = y0 (y_top / y0)^t, so one
    adaptive pass in t over [0, 1] integrates the columns' weighted sum,
    to the tolerance, from n_edges equal seed panels: each column's
    geometric seeds in y.  f takes two equal-shape 1-d arrays of
    _FD_BLOCK points at most and must carry the caller's measure factor,
    e.g. 1/y^2 for dx dy / y^2.  Returns the pass's QuadResult.
    """
    gx, wx = gl_nodes(nx)
    y0 = np.sqrt(1.0 - 0.25 * gx * gx)
    span = np.log(y_top / y0)
    wcol = 0.5 * wx * span          # column weight times dy / (y dt)
    step = max(1, _FD_BLOCK // nx)  # t nodes per call of f
    xb = np.tile(0.5 * gx, step)

    def g(t):
        out = np.empty(len(t))
        for lo in range(0, len(t), step):
            ys = y0 * np.exp(np.outer(t[lo:lo + step], span))
            vals = f(xb[:ys.size], ys.ravel()).reshape(ys.shape)
            out[lo:lo + step] = (vals * ys) @ wcol
        return out

    return adaptive(g, 0.0, 1.0, abs_tol=abs_tol, rel_tol=rel_tol,
                    initial_edges=np.linspace(0.0, 1.0, n_edges))
