"""Measures along sheared rays and on the cusp strip, horocycle averages,
and Fourier coefficients of automorphic test functions.

The headline integral is mu_T: the pushforward of dy/y along the ray
u -> u*(T + i), u >= 1/sqrt(T^2+1), of an automorphic test function.  For
box bumps it is computed by unfolding: the bump is a Poincare series of
one compactly supported profile, so the integral is a finite sum over the
translates whose image meets the box, each a short smooth "spike" whose
ends solve a quadratic (a spike that ends at a cut is given that cut
exactly, so the spikes tile the support).  One numpy pass builds every
spike, and Gauss-Legendre runs over them in bounded blocks on 22, 34, 60
and 100 nodes until two passes agree, evaluating the box bump as one
exponential; the lattice bump reaches T = 1e5 in about 2 s.  Blind
quadrature cannot find a support of tens of thousands of intervals as
thin as 1e-6 (T = 1000); the adaptive path remains for small |T|,
cusp-decaying functions, and as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .groups import (PSL2Z, THIN4, GroupSpec, _ragged, coset_rows,
                     reduce_points)
from .quadrature import (InsufficientConvergenceError, adaptive, gl_nodes,
                         integrate_fd, refine)

__all__ = [
    "TestFunction", "ShearSample", "RegistrationError", "bump_profile",
    "make_lattice_bump", "make_thin_bump", "make_strip_bump", "mu_T",
    "mu_T_strip", "fourier_coefficient", "horocycle_average", "haar_mean",
    "equidistribution_regression", "RegressionResult", "DEFAULT_BOX",
    "THIN_BOX",
]


def _profile(v, lo, hi):
    """bump_profile of v scaled from (lo, hi) to (-1, 1), with 1 - t^2 as
    4 (v - lo) (hi - v) / (hi - lo)^2: no cancellation near the edges."""
    q = (v - lo) * (hi - v)
    # exp on every node beats gathering the inside ones (spikes lie inside)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(q > 0.0, np.exp(1.0 - 0.25 * (hi - lo) ** 2 / q), 0.0)


def bump_profile(t):
    """C-infinity bump exp(1 - 1/(1-t^2)) on |t| < 1, zero outside."""
    return _profile(np.asarray(t, dtype=float), -1.0, 1.0)


class RegistrationError(ValueError):
    pass


@dataclass(frozen=True)
class TestFunction:
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
    under, gives every route its rows and its period omega; None marks a
    function on the strip itself, of period 1.
    """
    name: str
    spec: Optional[GroupSpec]
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    c_psi: float = 2.5
    alpha_psi: float = 2.0
    support: Optional[tuple] = None
    profiles: Optional[tuple] = None
    peak: float = 1.0

    @property
    def omega(self) -> float:
        return 1.0 if self.spec is None else float(self.spec.omega)

    @property
    def mode(self) -> str:  # a label for reports; no route reads it
        return "strip" if self.spec is None else (
            "lattice" if self.spec.lattice else "thin")


def _register(tf: TestFunction, n_samples: int = 1000, tol: float = 1e-7,
              seed: int = 20140823) -> TestFunction:
    """Spot-check automorphy before handing the function out: batch at
    n_samples points (x in [-3, 3], log-uniform y in [0.1, 8]) against
    batch at their images under a random generator or product of two, in
    two calls.  A NaN anywhere fails the check."""
    if tf.spec is None:
        return tf
    rng = np.random.default_rng(seed)
    gens = tf.spec.gen_set()
    draws = []
    for _ in range(n_samples):
        g = gens[rng.integers(len(gens))]
        if rng.random() < 0.5:
            g = g * gens[rng.integers(len(gens))]
        draws.append((g.a, g.b, g.c, g.d, rng.uniform(-3.0, 3.0),
                      math.exp(rng.uniform(math.log(0.1), math.log(8.0)))))
    a, b, c, d, x, y = np.array(draws, dtype=float).T
    den = (c * x + d) ** 2 + (c * y) ** 2
    gx = ((a * x + b) * (c * x + d) + a * c * y * y) / den
    worst = float(np.max(np.abs(tf.batch(gx, y / den) - tf.batch(x, y))))
    if not worst <= tol:
        raise RegistrationError(
            f"{tf.name}: automorphy violated by {worst:.2e} (> {tol:g})")
    return tf


# -- built-in test functions -------------------------------------------------

# calibrated so the pre-asymptotic wobble at small radii sits well inside
# the regression tolerances; symmetric boxes land near a sign change of the
# correction term and make the small-T points unrepresentative
DEFAULT_BOX = (-0.2, 0.4, 1.3, 2.1)
# the thin group opens its coset windows late, so its default box hugs the
# floor of the injectivity range to pull the plateau forward
THIN_BOX = (-0.2, 0.4, 1.05, 1.8)


def _box_profiles(box):
    """(px, py): the bump on each side of box."""
    return (lambda x: _profile(x, *box[:2]), lambda y: _profile(y, *box[2:]))


def _box_bump(x, y, box):
    """px(x) * py(y) of _box_profiles(box) as one exp under one mask."""
    x_lo, x_hi, y_lo, y_hi = box
    qx, qy = (x - x_lo) * (x_hi - x), (y - y_lo) * (y_hi - y)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = np.exp(2.0 - 0.25 * (x_hi - x_lo) ** 2 / qx
                   - 0.25 * (y_hi - y_lo) ** 2 / qy)
    return np.where((qx > 0.0) & (qy > 0.0), v, 0.0)


def _reduced_bump(box, name: str, spec: GroupSpec) -> TestFunction:
    """The product bump px * py on a box inside the fundamental domain |x|
    < omega/2, |z| > 1 of <T^omega, S>, automorphic as the profile at the
    reduced point: no other translate meets the box."""
    omega = spec.omega
    x_lo, x_hi, y_lo, y_hi = box
    if not (-omega / 2.0 < x_lo < x_hi < omega / 2.0 and 1.0 < y_lo < y_hi):
        raise ValueError(f"box must sit strictly inside the fundamental "
                         f"domain |x| < {omega / 2.0:g}, y > 1")
    px, py = _box_profiles(box)

    def batch(x, y):
        rx, ry = reduce_points(x, y, omega)
        return px(rx) * py(ry)

    return _register(TestFunction(name, spec, batch,
                                  c_psi=max(2.0 * y_hi, 1.0), alpha_psi=2.0,
                                  support=tuple(box), profiles=(px, py)))


def make_lattice_bump(box=DEFAULT_BOX, name: str = "lattice_bump") -> TestFunction:
    """Product bump in fundamental-domain coordinates, right-K-invariant.

    The box must sit strictly inside the standard domain (|x| < 1/2,
    y > 1), which makes the function a one-term Poincare series and the
    unfolded integrators exact.
    """
    return _reduced_bump(box, name, PSL2Z)


def make_thin_bump(box=THIN_BOX, name: str = "thin_bump") -> TestFunction:
    """Poincare series of the box profile over the thin built-in group.

    The box must sit strictly inside the group's Ford domain (|x| < 2,
    |z| > 1), so at most one group translate lands in it and pointwise
    evaluation is the profile at the point reduce_points moves there, at
    every height it accepts.
    """
    return _reduced_bump(box, name, THIN4)


def make_strip_bump(box=DEFAULT_BOX, name: str = "strip_bump") -> TestFunction:
    """Bump on the strip itself (x of period 1, compact in y); not
    automorphic.  Used by the coordinate-level strip checks."""
    x_lo, x_hi, y_lo, y_hi = box
    px, py = _box_profiles(box)

    def batch(x, y):
        x = np.mod(np.asarray(x, dtype=float) - x_lo, 1.0) + x_lo
        return px(x) * py(np.asarray(y, dtype=float))

    return TestFunction(name, None, batch, support=tuple(box),
                        profiles=(px, py))


# -- mu_T --------------------------------------------------------------------

@dataclass(frozen=True)
class ShearSample:
    T: float
    value: float
    est_error: float
    n_nodes: int
    tol_met: bool
    route: str


def _y_top(psi: TestFunction, tol: float) -> float:
    """Where integrals in y stop: the top of the support box, else the
    cusp cut above which the tail against dy/y drops below tol/2, given
    |psi| <= C y^-alpha above y = C."""
    if psi.support is not None:
        return psi.support[3]
    c, a = psi.c_psi, psi.alpha_psi
    return max((2.0 * c / (a * tol)) ** (1.0 / a), c, 2.0)


def mu_T(psi: TestFunction, T: float, tol: float = 1e-7) -> ShearSample:
    """Integral of psi along the sheared ray against dy/y.

    Product bumps with |T| >= 8 go through the unfolded spike engine;
    everything else uses adaptive panels along the ray, with batch doing
    its own domain folding.  ValueError unless T and tol are finite, tol > 0.
    """
    if not (math.isfinite(T) and 0.0 < tol < math.inf):
        raise ValueError(f"mu_T needs finite T, 0 < tol < inf: got {T}, {tol}")
    if psi.profiles is not None and psi.spec is not None and abs(T) >= 8.0:
        return _mu_T_unfolded(psi, float(T), tol)
    return _mu_T_generic(psi, float(T), tol)


def _mu_T_generic(psi: TestFunction, T: float, tol: float) -> ShearSample:
    u_min = 1.0 / math.sqrt(T * T + 1.0)
    # on the ray the plane height u is the cusp height once u > 1
    u_max = _y_top(psi, tol)
    if u_max <= u_min:
        return ShearSample(T, 0.0, 0.0, 0, True, "generic")

    def f(u):
        return psi.batch(u * T, u) / u

    n_seed = int(np.clip(60.0 * max(abs(T), 1.0), 64, 30000))
    edges = np.geomspace(u_min, u_max, n_seed)
    res = adaptive(f, u_min, u_max, abs_tol=tol * 0.5, rel_tol=tol,
                   initial_edges=edges, max_panels=max(2 * n_seed, 20000))
    return ShearSample(T, res.value, res.est_error, res.n_evals,
                       res.converged, "generic")


def _window_rows(psi: TestFunction, T: float, y_lo: float):
    """(c, d, a/c) arrays of the cosets whose ray window reaches y_lo.

    The window exists iff c|d| < (sqrt(T^2+1)+|T|)/(2 y_lo), with d of
    sign opposite to T; the rows under that hyperbola come from the
    group's coset_rows, and a/c is the cusp offset, needed mod omega.
    """
    peak = (math.sqrt(T * T + 1.0) + abs(T)) / (2.0 * y_lo)
    span = (peak / np.arange(1, int(peak) + 2)).astype(np.int64) + 1
    one = np.ones_like(span)
    a, c, d = coset_rows(psi.spec, *((-span, -one) if T > 0 else (one, span)))
    return c, d, a / c


def _spikes(psi: TestFunction, T: float):
    """The pieces of the unfolded ray integral at T, as arrays: (spikes,
    trans).  spikes are the u-intervals where one translate's folded x
    lands in the box shifted by k_offset, as columns (u_a, u_b, a/c - k_offset,
    d/c, A, B, C): with D(u) = A u^2 + B u + C = |c u (T + i) + d|^2 the
    point in the box is (a/c - k_offset - (u T + d/c) / D, u / D).  trans are
    (u_a, u_b, k_offset) of the ray crossing a translated box.  Together they
    tile the ray's part of the support."""
    x_lo, x_hi, y_lo, y_hi = psi.support
    omega = psi.omega
    t2p1 = T * T + 1.0
    u_min = 1.0 / math.sqrt(t2p1)
    c, d, ac = _window_rows(psi, T, y_lo)
    c, d = c.astype(float), d.astype(float)
    A, B, C = c * c * t2p1, 2.0 * c * d * T, d * d

    def roots(y):
        # height condition c^2(T^2+1)u^2 + (2cdT - 1/y)u + d^2 <= 0; its
        # discriminant in the cancellation-free form 1/y^2 - 2B/y - 4c^2d^2
        disc = (1.0 / y - 2.0 * B) / y - 4.0 * C * c * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        return (disc > 0.0, (1.0 / y - B - sq) / (2.0 * A),
                (1.0 / y - B + sq) / (2.0 * A))

    ok, out_lo, out_hi = roots(y_lo)
    ok &= out_hi > u_min
    c, d, ac, A, B, C, out_lo, out_hi = (
        v[ok] for v in (c, d, ac, A, B, C, out_lo, out_hi))
    # the band is out_lo..out_hi less the hole in_lo..in_hi (in_lo = in_hi
    # = out_hi without one); the folded x turns around where cuT + d =
    # kappa * cu, and those points cut the band into monotone pieces
    hole, in_lo, in_hi = roots(y_hi)
    lo, in_lo, in_hi = (np.maximum(v, u_min) for v in (
        out_lo, np.where(hole, in_lo, out_hi), np.where(hole, in_hi, out_hi)))
    cuts = [lo, in_lo, in_hi, out_hi]
    for kappa in ((math.sqrt(t2p1) - 1.0) / T, -(math.sqrt(t2p1) + 1.0) / T):
        s = -d / (c * (T - kappa))
        cuts.append(np.where((lo < s) & (s < out_hi), s, out_hi))
    cuts = np.sort(np.column_stack(cuts), axis=1)
    p, q = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    piece = (q > p) & ((p < np.repeat(in_lo, 5)) | (q > np.repeat(in_hi, 5)))
    p, q, row = p[piece], q[piece], np.repeat(np.arange(len(c)), 5)[piece]
    c, d, ac, A, B, C = (v[row] for v in (c, d, ac, A, B, C))
    gp, gq = ((c * u * T + d) / (c * ((A * u + B) * u + C)) for u in (p, q))
    g_lo, g_hi = np.minimum(gp, gq), np.maximum(gp, gq)
    # one spike per period offset k whose box meets x = ac - g on the piece
    k0 = np.ceil((ac - g_hi - x_hi) / omega)
    n = np.floor((ac - g_lo - x_lo) / omega) - k0 + 1
    i, kk = _ragged(k0, np.maximum(n, 0).astype(int))
    kk = kk * omega
    p, q, gp, gq, g_lo, g_hi, c, d, ac, A, B, C = (
        v[i] for v in (p, q, gp, gq, g_lo, g_hi, c, d, ac, A, B, C))

    def g_inverse(xi):
        # the u in [p, q] with g(u) = xi, where g is monotone: the root of
        # xi c D(u) = c T u + d nearer [p, q] (for xi = 0, a0 / qq is the
        # linear root).  xi = g(p) or g(q) returns p or q exactly: solving
        # there meets a near-double root and loses half the digits
        a2, a1, a0 = xi * c * A, xi * c * B - c * T, xi * c * C - d
        sq = np.sqrt(np.maximum(a1 * a1 - 4.0 * a2 * a0, 0.0))
        qq = -0.5 * (a1 + np.copysign(sq, a1))
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = qq / a2
            r2 = np.where(qq != 0.0, a0 / qq, r1)
        m1, m2 = (np.maximum(np.maximum(p - r, r - q), 0.0) for r in (r1, r2))
        u = np.minimum(np.maximum(np.where(m1 <= m2, r1, r2), p), q)
        return np.where(xi == gp, p, np.where(xi == gq, q, u))

    # x in [kk+x_lo, kk+x_hi]  <=>  g in [ac-kk-x_hi, ac-kk-x_lo]
    xi0 = np.maximum(ac - kk - x_hi, g_lo)
    xi1 = np.minimum(ac - kk - x_lo, g_hi)
    rising = gp <= gq
    ua = g_inverse(np.where(rising, xi0, xi1))
    ub = g_inverse(np.where(rising, xi1, xi0))
    keep = (xi1 > xi0) & (ub > ua)
    spikes = tuple(v[keep] for v in (ua, ub, ac - kk, d / c, A, B, C))

    # translation family: the ray itself crossing the box translates
    u_lo_t = max(u_min, y_lo)
    xe = sorted((T * u_lo_t, T * y_hi))
    kk = np.arange(math.ceil((xe[0] - x_hi) / omega),
                   math.floor((xe[1] - x_lo) / omega) + 1) * omega
    ea, eb = (kk + x_lo) / T, (kk + x_hi) / T
    ua = np.maximum(np.minimum(ea, eb), u_lo_t)
    ub = np.minimum(np.maximum(ea, eb), y_hi)
    keep = ub > ua
    return spikes, (ua[keep], ub[keep], kk[keep])


def _mu_T_unfolded(psi: TestFunction, T: float, tol: float) -> ShearSample:
    box = psi.support
    (ua, ub, off, dc, A, B, C), (ta, tb, tk) = _spikes(psi, T)
    spikes = (0.5 * (ua + ub), 0.5 * (ub - ua), off, dc, A, B, C)
    trans = (0.5 * (ta + tb), 0.5 * (tb - ta), tk)
    nodes = [0]         # summed over every grid that refine runs

    def total(n):
        xg, wg = gl_nodes(n)
        step = max(1, (1 << 16) // n)   # nodes per summed block
        # evaluated 2^13 nodes at a time into one buffer: temporaries of 64
        # KiB stay below glibc's mmap threshold and reuse heap memory
        piece, buf = max(1, (1 << 13) // n), np.empty((step, n))
        acc = 0.0
        for lo in range(0, len(spikes[0]), step):
            hi = min(lo + step, len(spikes[0]))
            for p0 in range(lo, hi, piece):
                mid, half, off, dc, A, B, C = (
                    v[p0:min(p0 + piece, hi), None] for v in spikes)
                U = mid + half * xg
                R = 1.0 / ((A * U + B) * U + C)
                xr = off - (U * T + dc) * R
                buf[p0 - lo:p0 - lo + len(U)] = \
                    half * wg * _box_bump(xr, U * R, box) / U
            acc += float(np.sum(buf[:hi - lo]))
        for lo in range(0, len(trans[0]), step):
            mid, half, kk = (v[lo:lo + step, None] for v in trans)
            U = mid + half * xg
            acc += float(np.sum(half * wg * _box_bump(U * T - kk, U, box) / U))
        nodes[0] += n * (len(spikes[0]) + len(trans[0]))
        return acc

    # each spike is the box bump through a near-affine map, so a rung's
    # error is T-free: |GL14 - GL22| is 1.0-1.5e-5 (lattice), 2.4-2.6e-6
    # (thin) at T = 10-3000, and a 14-point rung settles no smaller tol
    val, err, ok = refine(total, (22, 34, 60, 100), abs_tol=tol)
    return ShearSample(T, val, max(err, 1e-16), nodes[0], ok, "unfolded")


# -- strip measure -----------------------------------------------------------

def mu_T_strip(psi: TestFunction, T: float, tol: float = 1e-8) -> float:
    """(1/omega) * integral of psi(x + iy) over x in [0, omega],
    y in (1/T, infinity), against dy/y dx.

    Automorphic product bumps unfold into a finite sum over group
    translates, each clipped by the height condition Im(g^-1 w) > 1/T;
    that sum is exact at any T.  Row (c, d) counts on a horoball disc
    over the box, whose crossings of the box edges split its y-range into
    panels with smooth integrands, all integrated in one batched
    Gauss-Legendre pass.  Strip functions and functions without
    profiles or support take the literal 2-d quadrature instead.
    InsufficientConvergenceError if either route misses tol; ValueError
    unless T is finite and positive, or for a tol below 1e-12.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"strip measure needs finite T > 0: got {T}")
    if not tol >= 1e-12:
        # below it the finest grids differ by summation rounding alone
        raise ValueError(f"strip tol {tol:g} is below the 1e-12 floor")
    if psi.spec is None or psi.profiles is None or psi.support is None:
        return _strip_direct(psi, T, tol)
    return _strip_unfolded(psi, T, tol)


def _strip_direct(psi: TestFunction, T: float, tol: float) -> float:
    """Adaptive panels in y over the mean of nx midpoints in x, nx doubled
    from 1024 until two passes agree to tol: near y = 1/T the translates
    are features of width about y, which a fixed grid misses."""
    y_top = _y_top(psi, tol)
    y_bot = 1.0 / T
    if y_top <= y_bot:
        return 0.0

    def run(nx):
        xs = (np.arange(nx) + 0.5) * (psi.omega / nx)

        def f(y):
            return np.array([np.mean(psi.batch(xs, np.full(nx, yy))) / yy
                             for yy in np.atleast_1d(y)])

        res = adaptive(f, y_bot, y_top, abs_tol=tol, rel_tol=tol,
                       initial_edges=np.geomspace(y_bot, y_top, 200))
        if not res.converged:
            raise InsufficientConvergenceError(
                f"direct strip measure at T = {T:g}, {nx} x nodes: {res}")
        return res.value

    val, err, ok = refine(run, [1 << k for k in range(10, 17)], abs_tol=tol)
    if not ok:
        raise InsufficientConvergenceError(
            f"direct strip measure at T = {T:g}: the last two x grids "
            f"differ by {err:.2e} > tol {tol:g}")
    return val


def _strip_rows(psi: TestFunction, T: float):
    """(c, d) int arrays of the rows, c > 0, whose translate can clear the
    1/T height cut somewhere over the support box."""
    x_lo, x_hi, y_lo, y_hi = psi.support
    reach = math.sqrt(T * y_hi)
    cs = np.arange(1, int(reach / y_lo) + 2)
    span = (cs * max(abs(x_lo), abs(x_hi)) + reach).astype(np.int64) + 1
    return coset_rows(psi.spec, -span, span)[1:]


def _strip_panels(psi: TestFunction, T: float):
    """y-panels (p, q, c, d, top, capped) over which each row's x-window
    in the box is smooth, as arrays in row order.

    Row (c, d) counts where Im(g z) > 1/T, on the horoball disc
    |x + d/c|^2 + (y - top/2)^2 < (top/2)^2, top = T/c^2.  Its window
    edges -d/c +- sqrt(y (top - y)) cross the box edge x_e at the roots of
    c^2 y^2 - T y + (c x_e + d)^2 = 0, which cut [y_lo, min(y_hi, top)]
    into panels; a panel whose window misses the box is dropped.  capped
    marks the panel ending at the disc top, where the window closes like
    sqrt(top - y).
    """
    x_lo, x_hi, y_lo, y_hi = psi.support
    c, d = (v.astype(float) for v in _strip_rows(psi, T))
    top = T / (c * c)
    live = top > y_lo
    c, d, top = c[live], d[live], top[live]
    y_end = np.minimum(top, y_hi)
    cuts = [np.full(len(c), y_lo), y_end]
    for xe in (x_lo, x_hi):
        k2 = (c * xe + d) ** 2
        disc = T * T - 4.0 * c * c * k2
        sq = np.sqrt(np.maximum(disc, 0.0))
        # the small root in the cancellation-free form 2 k2 / (T + sq)
        for r in (2.0 * k2 / (T + sq), (T + sq) / (2.0 * c * c)):
            cuts.append(np.where(disc > 0.0, np.clip(r, y_lo, y_end), y_end))
    cuts = np.sort(np.column_stack(cuts), axis=1)
    p, q = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    c, d, top = (np.repeat(v, 5) for v in (c, d, top))
    # which edges bind is fixed inside a panel, so test at its middle
    m = 0.5 * (p + q)
    s = np.sqrt(np.maximum(m * (top - m), 0.0))
    keep = (q > p) & (-d / c - s < x_hi) & (-d / c + s > x_lo)
    p, q, c, d, top = (v[keep] for v in (p, q, c, d, top))
    return p, q, c, d, top, q == top


def _strip_unfolded(psi: TestFunction, T: float, tol: float) -> float:
    x_lo, x_hi, y_lo, y_hi = psi.support
    px, py = psi.profiles
    panels = _strip_panels(psi, T)
    n_panels = len(panels[0])
    # identity translate: its height is y itself, cut at 1/T
    y_id = max(y_lo, 1.0 / T)

    def run(ny):
        yg, wy = gl_nodes(ny)
        xg, wx = gl_nodes(ny // 2)
        half = 0.5 * (x_hi - x_lo)
        ix = half * float(wx @ px(x_lo + half * (1.0 + xg)))
        total = 0.0
        if y_hi > y_id:
            hy = 0.5 * (y_hi - y_id)
            ym = y_id + hy * (1.0 + yg)
            total = ix * hy * float(wy @ (py(ym) / ym))
        # the capped panel maps by y = q - (q - p) u^2, u in [0, 1], so
        # its window sqrt(y (q - p)) u closes smoothly
        u, wu = 0.5 * (1.0 + yg), 0.5 * wy
        step = max(1, (1 << 16) // (ny * len(xg)))     # panels per sum
        # evaluated 2^13 nodes at a time into one buffer, as in mu_T
        piece = max(1, (1 << 13) // len(xg))          # y-nodes per piece
        buf = np.empty(step * ny)
        for lo in range(0, n_panels, step):
            p, q, c, d, top, capped = (v[lo:lo + step, None] for v in panels)
            w = q - p
            y = np.where(capped, q - w * u * u, p + w * u)
            s = np.sqrt(y * np.where(capped, w * u * u, top - y))
            a = np.maximum(-d / c - s, x_lo)
            hx = 0.5 * (np.minimum(-d / c + s, x_hi) - a)
            # the translate carries Im(g z) / y^2 = 1 / (y |cz + d|^2); each
            # y-node's weight is dy, the window's half-width and py / y
            wyn = np.where(capped, 2.0 * w * u, w) * wu * hx * py(y) / y
            mid, hx, y = (v.ravel() for v in (a + hx, hx, y))
            c, d = (np.repeat(v, ny) for v in (c, d))
            for k in range(0, len(y), piece):
                sl = slice(k, min(k + piece, len(y)))
                X = mid[sl, None] + hx[sl, None] * xg
                cy = c[sl] * y[sl]
                buf[sl] = (px(X) / ((c[sl, None] * X + d[sl, None]) ** 2
                                    + (cy * cy)[:, None])) @ wx
            total += float(wyn.ravel() @ buf[:len(y)])
        return total / psi.omega

    # every panel's integrand is smooth, so Gauss-Legendre converges fast:
    # 96 nodes land within 2e-10 of the fixed-grid references and 128
    # within 2e-12, and refinement is the error handle
    val, err, ok = refine(run, (32, 48, 64, 96, 128, 192), abs_tol=tol)
    if not ok:
        raise InsufficientConvergenceError(
            f"strip measure at T = {T:g}: the last two grids differ by "
            f"{err:.2e} > tol {tol:g}")
    return val


# -- horocycle data ----------------------------------------------------------

def fourier_coefficient(psi: TestFunction, m: int, y: float,
                        tol: float = 1e-9):
    """(1/omega) * integral over one period of psi(x+iy) e(-m x / omega).

    Trapezoid in x, spectrally accurate for smooth psi, grid doubling
    until stable.  Returns a float for m = 0, complex otherwise;
    InsufficientConvergenceError if the grids never settle.
    """
    omega = psi.omega

    def run(n):
        xs = (np.arange(n) + 0.5) * (omega / n)
        vals = psi.batch(xs, np.full(n, float(y)))
        return complex(np.mean(vals * np.exp((-2j * np.pi * m / omega) * xs)))

    cur = _settled(run, 10, tol, f"fourier coefficient {m} at y = {y:g}")
    return cur.real if m == 0 else cur


def horocycle_average(psi: TestFunction, y: float, interval,
                      tol: float = 1e-9) -> float:
    """Mean of psi over x in interval at height y, by the midpoint rule
    doubled until stable; InsufficientConvergenceError if it never is."""
    x0, x1 = interval
    if not x1 > x0:
        raise ValueError("need x0 < x1")

    def run(n):
        xs = x0 + (np.arange(n) + 0.5) * ((x1 - x0) / n)
        return float(np.mean(psi.batch(xs, np.full(n, float(y)))))

    return _settled(run, 11, tol, f"horocycle average at y = {y:g}")


def _settled(run, k0: int, tol: float, what: str):
    """run(n) on n = 2^k0 ... 2^21 points until two grids agree to tol."""
    val, err, ok = refine(run, [1 << k for k in range(k0, 22)], abs_tol=tol,
                          rel_tol=tol)
    if not ok:
        raise InsufficientConvergenceError(
            f"{what}: the last two grids differ by {err:.2e} > tol {tol:g}")
    return val


def haar_mean(psi: TestFunction) -> float:
    """Mean against the normalized hyperbolic area 3/pi * dx dy / y^2 on
    the standard domain, so psl2z functions only.  Product bumps
    integrate their profiles over the box, everything else goes through
    integrate_fd, raising InsufficientConvergenceError if it does not
    converge."""
    if psi.spec is None or psi.spec.omega != 1:
        raise ValueError("haar_mean integrates over psl2z's domain only")
    if psi.profiles is not None and psi.support is not None:
        x_lo, x_hi, y_lo, y_hi = psi.support
        px, py = psi.profiles
        xg, wg = gl_nodes(60)
        xm = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * xg
        ym = 0.5 * (y_lo + y_hi) + 0.5 * (y_hi - y_lo) * xg
        ix = 0.5 * (x_hi - x_lo) * float(wg @ px(xm))
        iy = 0.5 * (y_hi - y_lo) * float(wg @ (py(ym) / (ym * ym)))
        return 3.0 / math.pi * ix * iy
    res = integrate_fd(lambda x, y: psi.batch(x, y) / (y * y),
                       _y_top(psi, 1e-10), nx=64, n_edges=40,
                       abs_tol=1e-11, rel_tol=1e-10)
    if not res.converged:
        raise InsufficientConvergenceError(f"haar mean: {res}")
    return 3.0 / math.pi * res.value


# -- regression against the equidistribution law -----------------------------

@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    decay_exponent: float
    t_list: tuple
    values: tuple
    residuals: tuple


def equidistribution_regression(psi: TestFunction, t_list,
                                tol: float = 1e-7) -> RegressionResult:
    """Fit mu_T(psi) against a*log T + b and report how fast the
    residuals die.

    Slope and intercept come from least squares over the full list; the
    decay exponent is the negated log-log slope of |residual|, dropping
    residuals under 1e-12 (quadrature noise, not signal).  The radii must
    span at least 1.5 decades so the two fitted terms are separable.
    """
    ts = np.array(sorted(float(t) for t in t_list))
    if len(ts) < 3 or ts[-1] < ts[0] * 10 ** 1.5:
        raise ValueError("need >= 3 radii spanning >= 1.5 decades")
    vals = np.array([mu_T(psi, t, tol).value for t in ts])
    X = np.column_stack([np.log(ts), np.ones_like(ts)])
    (a, b), *_ = np.linalg.lstsq(X, vals, rcond=None)
    resid = vals - (a * np.log(ts) + b)
    keep = np.abs(resid) > 1e-12
    if keep.sum() >= 2:
        decay = -float(np.polyfit(np.log(ts[keep]),
                                  np.log(np.abs(resid[keep])), 1)[0])
    else:
        decay = math.inf
    return RegressionResult(float(a), float(b), decay, tuple(ts.tolist()),
                            tuple(vals.tolist()), tuple(resid.tolist()))
