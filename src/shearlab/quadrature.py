"""Shared quadrature kernels.

Everything here works on vectorized integrands: f(x) takes a numpy array of
nodes and returns an array of values.  The adaptive driver refines in
whole-array rounds: each round bisects the largest-error panels that
together carry the error in excess of half the tolerance, and evaluates
all their halves in one integrand call.  On top of it sit the one
grid-refinement loop (refine) and the one fundamental-domain integrator
(integrate_fd) the other modules share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@dataclass
class QuadResult:
    value: float
    est_error: float
    n_evals: int
    converged: bool
    n_panels: int


def _panel_eval(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate G7/K15 on a batch of panels.  Returns (k15, |k15-g7|)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    k15 = half * (vals @ _WK)
    g7 = half * (vals[:, _GIDX] @ _WG)
    return k15, np.abs(k15 - g7)


def adaptive(f, a: float, b: float, abs_tol: float = 1e-12,
             rel_tol: float = 1e-10, initial_edges=None,
             max_panels: int = 20000) -> QuadResult:
    """Globally adaptive Gauss-Kronrod integration of f over [a, b].

    initial_edges lets the caller pre-split at known kinks; the refinement
    loop then only has to chase whatever structure is left inside panels.

    Each round bisects the fewest largest-error panels whose errors
    together reach toterr - tol/2, where tol = max(abs_tol, rel_tol
    |total|), and evaluates all their halves in one call of f.  Rounds
    stop once toterr <= tol, or when the panel count reaches max_panels;
    converged reports whether the first of these held.
    """
    if initial_edges is None:
        edges = np.array([a, b], dtype=float)
    else:
        edges = np.unique(np.clip(np.asarray(initial_edges, dtype=float), a, b))
        if edges[0] > a:
            edges = np.concatenate([[a], edges])
        if edges[-1] < b:
            edges = np.concatenate([edges, [b]])
    lo, hi = edges[:-1], edges[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
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

    return QuadResult(total, toterr, n_evals, toterr <= tol, len(lo))


@lru_cache(maxsize=64)
def gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def refine(run, sizes, abs_tol: float = 0.0, rel_tol: float = 0.0):
    """Evaluate run(n) along the size sequence until two successive values
    agree, |cur - prev| <= abs_tol + rel_tol * |cur|.

    Returns (value, err, converged): the last value computed, its distance
    from the one before, and whether that distance met the tolerance.  The
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
                 rel_tol: float) -> float:
    """Integral of f(x, y) over the standard fundamental domain |x| <= 1/2,
    x^2 + y^2 >= 1, cut at y = y_top.

    Gauss-Legendre columns in x; each column is integrated adaptively in y
    from the unit arc to y_top over n_edges geometric seed panels.  f takes
    two equal-shape arrays (x is constant along a column) and must carry
    whatever measure factor the caller wants, e.g. 1/y^2 for dx dy / y^2.
    Used by the eisenstein and modforms pairings over the domain.
    """
    gx, wx = gl_nodes(nx)
    total = 0.0
    for xv, wv in zip(0.5 * gx, wx):
        y0 = math.sqrt(max(1.0 - xv * xv, 0.0))
        res = adaptive(lambda ys: f(np.full(ys.shape, xv), ys), y0, y_top,
                       abs_tol=abs_tol, rel_tol=rel_tol,
                       initial_edges=np.geomspace(y0, y_top, n_edges))
        total += 0.5 * wv * res.value
    return total
