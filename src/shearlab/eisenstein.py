"""Weight-zero Eisenstein series for the groups <T^omega, S>.

The series is E(z, s) = (1/omega) sum of Im(gamma z)^s over cosets of the
translation subgroup, omega the cusp width.  Two evaluation routes:

- fourier (psl2z, omega = 1, only): the classical expansion through
  completed-zeta ratios and K-Bessel modes.  The only route that survives
  analytic continuation below s = 1, so it is the default for psl2z.
  One array bessel_k call gives all its modes, their count sized from
  the e^(-2 pi n y) decay and doubled (up to max_mode) only if too short.
  Its completed zetas are computed once per s and cached, since a grid
  shares its s values.
- coset: direct summation.  For psl2z the coprime bottom rows are
  recovered from the full integer lattice inside |cz + d| <= R divided
  by 2 zeta(2s), with an area-integral tail correction.  The lattice is
  summed by rows: row c holds (u^2 + (cy)^2)^-s over u = cx + d in a
  window of d, and the windows of both cuts, R and the R / sqrt(2) of
  the error estimate, go through one pass.  Rows with cy of at least 16
  (more for s above 8) are summed in closed form by Euler-Maclaurin
  with eight Bernoulli terms, which is exact to rounding there.  Lower
  rows go point by point only for |u| up to three times that height;
  their two tails take the same Euler-Maclaurin sum, whose integral is
  a positive hypergeometric tail series, which holds at c = 0 too.  All endpoints
  share one derivative recurrence and one sorted cumulative
  Gauss-Legendre pass for the integral G.  So the work is O(R / y) rows
  instead of O(R^2 / y) points: about 3 ms at R = 1024, y = 0.5,
  against 70-110 ms point by point, and 11 ms for E(i, 2) at R = 8192,
  against 1.7 s.  The route stays independent of the Fourier one: it
  sums the same truncated rows the point-by-point sum would, to a few
  parts in 1e15, and takes no Poisson or K-Bessel step.  For omega >= 2
  the bottom-row tables are summed at four nested height cutoffs and the
  geometric decay of the block sums is extrapolated; each table is
  cached as floats with the rows under each cutoff, so a value is one
  power pass and four sums.  For the thin group the series converges
  at s = 1 outright because the critical exponent sits below 1.

The regularized value at s = 1 (lattice) subtracts the pole and lands on
a closed form in log|eta|.  The pairing functionals mu_eis integrate a
test function against the regularized series (lattice) or the plain
series at s = 1 (thin) with respect to dx dy / y^2.  The thin series
is y S_h(z) / omega, S_h = sum of 1 / |cz + d|^2 over the rows of norm
<= h, read at h = 256, 512 and 1024.  Both are analytic well past a
box (log|eta| and the row sums alike need Re y > |Im x|, so they reach
imaginary distance y_lo in x and pi/2 in log y), so for both groups
they are sampled once on a small Chebyshev grid, linear in x and
logarithmic in y, whose size the box's half-widths set (16 x 16 on
DEFAULT_BOX and THIN_BOX, 40 x 16 on (-1.8, 1.8, 1.05, 3)), and cached
per group and box.  Each Gauss-Legendre grid of the refinement folds
its weights onto that grid by barycentric interpolation.  A warm
pairing takes about 1 ms for either group; the lattice one took 4 ms
with log|eta| at each of its 13,312 nodes, and summing all 5,238 thin
rows at every node took 0.35-0.42 s.
"""

import math
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .algebra import _Checked, point_xy
from .groups import (PSL2Z, BudgetExceeded, GroupSpec, _ragged, bottom_rows,
                     reduce_points)
from .quadrature import gl_nodes, integrate_fd, refine, settled
from .specfun import (_BERN, EULER_GAMMA, bessel_k, divisor_sigma,
                      gamma_fn, log_abs_eta_arr, zeta, zeta_prime)

__all__ = [
    "EisensteinEvaluator", "EisensteinSample", "ConvergenceError",
    "PairingError", "completed_zeta", "critical_exponent",
    "eisenstein_sample", "regularized_E1", "mu_eis",
]


class ConvergenceError(ValueError):
    """Requested route cannot converge at the given parameters."""


class PairingError(ValueError):
    """Pairing integral fails its convergence preconditions."""


def completed_zeta(s: float) -> float:
    """xi(s) = pi^(-s/2) Gamma(s/2) zeta(s) for real s > 0, s != 1."""
    return math.pi ** (-0.5 * s) * gamma_fn(0.5 * s) * zeta(s)


@lru_cache(maxsize=8)
def critical_exponent(spec: GroupSpec) -> float:
    """Empirical growth exponent of the norm ball, 1.0 for lattices.

    Counts group elements with Frobenius norm below a ladder of radii and
    halves the fitted log-log slope.  Each element is one translate (a +
    omega m c, b + omega m d, c, d) of a row of bottom_rows; its squared
    norm is a quadratic in m, whose root interval (checked in exact
    integers) gives each row's count.  The estimate only gates which s
    the coset route accepts; it never enters a value.
    """
    if spec.lattice:
        return 1.0
    radii = (16.0, 32.0, 64.0, 128.0, 256.0)
    top = radii[-1]
    a, b, c, d = bottom_rows(spec, top).T
    omega = spec.omega
    n2 = c * c + d * d
    # the norm is least at m = centre; half bounds the distance from it
    centre = -(a * c + b * d) / (omega * n2)
    half = np.sqrt(np.maximum(top * top - n2, 0.0) / n2) / omega
    lo = np.floor(centre - half).astype(np.int64) - 1
    i, m = _ragged(lo, np.ceil(centre + half).astype(np.int64) + 2 - lo)
    wm = omega * m
    norm2 = (a[i] + wm * c[i]) ** 2 + (b[i] + wm * d[i]) ** 2 + n2[i]
    counts = np.searchsorted(np.sort(norm2), np.square(radii), side="right")
    slope = np.polyfit(np.log(radii), np.log(counts), 1)[0]
    return float(slope) / 2.0


class _EisensteinEvaluator(NamedTuple):
    spec: GroupSpec
    route: str
    max_mode: int
    max_height: float


class EisensteinEvaluator(_Checked, _EisensteinEvaluator):
    """Frozen evaluation setup: group, route, truncation controls.

    The series is the one at the cusp at infinity.  Every group here holds
    S, so 0 = S infinity is that cusp too: E at S z is E at -1/z.
    route "auto" resolves to fourier for psl2z (omega = 1) and coset
    otherwise.
    max_mode caps the Fourier mode count (BudgetExceeded past it);
    max_height cuts the coset sums at bottom-row norm (omega >= 2) or at
    |cz + d| (psl2z).
    """
    __slots__ = ()

    def __new__(cls, spec=PSL2Z, route="auto", max_mode=4000,
                max_height=1024.0):
        if route not in ("auto", "fourier", "coset"):
            raise ValueError(f"unknown route {route!r}")
        if not 32 <= max_height < math.inf:
            raise ValueError(f"max_height {max_height!r} not in [32, inf)")
        # bool is an int subclass; True is no mode count
        if type(max_mode) is not int or max_mode < 1:
            raise ValueError(f"max_mode must be an integer >= 1, got "
                             f"{max_mode!r}")
        return tuple.__new__(cls, (spec, route, max_mode, max_height))

    def value(self, z, s: float) -> float:
        return eisenstein_sample(self, z, s).value


class EisensteinSample(NamedTuple):
    value: float
    route: str
    est_error: float


def eisenstein_sample(e: EisensteinEvaluator, z, s: float) -> EisensteinSample:
    """E(z, s) by the evaluator's route.  ValueError for a non-finite x,
    y or s or for y <= 0; ConvergenceError where the route cannot
    evaluate s, its value or error estimate among them leaving the float
    range; BudgetExceeded where the Fourier modes outlast max_mode."""
    x, y = point_xy(z)
    if not (math.isfinite(x) and 0.0 < y < math.inf and math.isfinite(s)):
        raise ValueError(f"Eisenstein value needs finite x, y > 0 and s: "
                         f"got z = {complex(x, y)}, s = {s}")
    route = e.route
    omega = e.spec.omega
    if route == "auto":
        route = "fourier" if omega == 1 else "coset"
    if route == "fourier":
        if omega != 1:
            raise ConvergenceError("fourier route is psl2z-only (omega = 1)")
        if s <= 0.5 or s == 1.0:
            raise ConvergenceError(
                "fourier route needs s > 1/2 away from the pole at s = 1")
        run = partial(_fourier_value, x, y, s, e.max_mode)
    elif omega == 1:
        if s <= 1.0:
            raise ConvergenceError("lattice coset sum diverges for s <= 1")
        run = partial(_lattice_coset_value, x, y, s, e.max_height)
    else:
        gate = critical_exponent(e.spec) + 0.1
        if s < gate:
            raise ConvergenceError(
                f"coset row sum needs s >= {gate:.3f} (critical exponent "
                f"plus margin); got s = {s}")
        run = partial(_thin_coset_value, e.spec, x, y, s, e.max_height)
    # out of the float range the route's powers overflow; that is
    # reported below, not warned about
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            val, err = run()
    except OverflowError:
        val = err = math.inf
    if not (math.isfinite(val) and math.isfinite(err)):
        raise ConvergenceError(
            f"{route} route cannot evaluate E at z = {complex(x, y)}, "
            f"s = {s}: value {val!r}, est. error {err!r}")
    return EisensteinSample(val, route, err)


@lru_cache(maxsize=64)
def _fourier_constants(s):
    """(xi(2s - 1) / xi(2s), 4 / xi(2s)), once per s: the Fourier route's
    scattering ratio and mode prefactor.  ConvergenceError where the
    completed zetas leave the float range."""
    xi2 = completed_zeta(2.0 * s)
    xi1 = completed_zeta(2.0 * s - 1.0)
    if not all(isinstance(v, float) and math.isfinite(v) and v != 0.0
               for v in (xi1, xi2)):
        raise ConvergenceError(
            f"fourier route cannot evaluate s = {s!r}: the completed zeta "
            f"values xi(2s) = {xi2!r}, xi(2s - 1) = {xi1!r} leave the "
            "float range")
    return xi1 / xi2, 4.0 / xi2


@lru_cache(maxsize=64)
def _zeta_2s(s):
    """zeta(2s), once per s, for the lattice coset route."""
    return zeta(2.0 * s)


@lru_cache(maxsize=256)
def _sigma_vector(s, top):
    """sigma_(1 - 2s)(n) for n = 1..top, once per (s, top), read-only."""
    # Python ints: numpy scalars make divisor_sigma's loop 5x slower
    sigma = np.array([divisor_sigma(1.0 - 2.0 * s, k)
                      for k in range(1, top + 1)])
    sigma.flags.writeable = False
    return sigma


def _fourier_value(x, y, s, cap):
    phi, pref = _fourier_constants(s)
    total = y ** s + phi * y ** (1.0 - s)
    scale = abs(total) + 1.0
    pref = pref * math.sqrt(y)
    # modes decay like e^(-2 pi n y): the first guess covers s <= 5
    top = min(cap, math.ceil((40.0 + 2.0 * s) / (2.0 * math.pi * y)) + 2)
    while True:
        n = np.arange(1, top + 1)
        terms = pref * n ** (s - 0.5) * _sigma_vector(s, top) * bessel_k(
            s - 0.5, 2.0 * math.pi * y * n)
        env = np.abs(terms)
        # the cosine can vanish by accident, so the cut is judged on the
        # positive envelope: the second of two quiet modes in a row
        quiet = env < 1e-13 * scale
        cut = np.flatnonzero(quiet[1:] & quiet[:-1])
        if len(cut) or top == cap:
            break
        top = min(cap, 2 * top)
    if not len(cut) and env[-1] >= 1e-12 * scale:
        raise BudgetExceeded(
            f"mode cap {cap} too small at y = {y:.4g}; raise max_mode")
    m = cut[0] + 2 if len(cut) else top
    total += float(terms[:m] @ np.cos(2.0 * math.pi * x * n[:m]))
    return total, float(env[m - 1]) + 1e-14 * abs(total)


def _lattice_coset_value(x, y, s, radius):
    # full integer lattice inside |cz + d| <= R, divided by 2 zeta(2s);
    # the tail beyond R is replaced by its area integral, and the value
    # at R / sqrt(2) is carried along as the error estimate.  (c, d) and
    # (-c, -d) give the same term, so the rows c >= 0 are summed, doubled
    r2 = radius * radius
    c = np.arange(int(radius / y) + 1, dtype=float)
    cx, a2 = c * x, c * c * y * y
    # row c, window k: d with (cx + d)^2 + (cy)^2 <= R^2 (k = 0) or
    # R^2 / 2 (k = 1); both windows go through one pass of the rows
    w2 = np.stack([r2 - a2, 0.5 * r2 - a2])
    w = np.sqrt(np.maximum(w2, 0.0))
    lo, hi = np.ceil(-cx - w), np.floor(-cx + w)
    # the c = 0 row pairs d with -d and leaves out the origin
    lo[:, 0] = 1.0
    n = np.where(w2 > 0.0, np.maximum(hi - lo + 1.0, 0.0), 0.0)
    sums = 2.0 * _row_sums(cx, lo, n.astype(np.int64), a2, s).sum(axis=1)
    z2 = 2.0 * _zeta_2s(s)

    def with_tail(total, r):
        tail = (math.pi / y) * r ** (2.0 - 2.0 * s) / (s - 1.0)
        return y ** s * (total + tail) / z2

    vr = with_tail(float(sums[0]), radius)
    vh = with_tail(float(sums[1]), radius / math.sqrt(2.0))
    return vr, abs(vr - vh) + 1e-15 * abs(vr)


def _row_sums(cx, d_lo, n, a2, s):
    """sum_{k < n} ((cx + d_lo + k)^2 + a2)^-s for each row (0 where n is
    0), with d_lo integral.  d_lo and n may stack several windows per
    row, shape (m, rows); the windows then share one pass.

    With u = cx + d, rows with sqrt(a2) >= _em_threshold(s) are summed in
    closed form by Euler-Maclaurin.  Lower rows go point by point where
    |u| <= 3 _em_threshold(s), and by Euler-Maclaurin in the two tails
    beyond, where the summand is as smooth on the scale of |u| as the
    tall rows are on theirs.
    """
    shape = np.shape(n)
    lo = np.atleast_2d(d_lo).astype(float)
    n = np.atleast_2d(n)
    hi = lo + (n - 1.0)
    thr = _em_threshold(s)
    band = 3.0 * thr
    low = (a2 < thr * thr) & (n > 0)
    out = np.zeros(lo.shape)
    # point by point: each low row over the hull of its windows' central
    # parts, in blocks of at most 2^18 points
    c_lo = np.maximum(lo, np.ceil(-band - cx))
    c_hi = np.minimum(hi, np.floor(band - cx))
    mid = low & (c_lo <= c_hi)
    rows = np.flatnonzero(mid.any(axis=0))
    base = np.where(mid, c_lo, np.inf).min(axis=0)[rows]
    top = np.where(mid, c_hi, -np.inf).max(axis=0)[rows]
    width = int((top - base).max(initial=0.0)) + 1
    step = max(1, 2 ** 18 // width)
    j = np.arange(width, dtype=float)
    for k in range(0, len(rows), step):
        r = rows[k:k + step]
        d = base[k:k + step, None] + j
        t = ((cx[r, None] + d) ** 2 + a2[r, None]) ** (-s)
        for i, (m, dl, dh) in enumerate(zip(mid, c_lo, c_hi)):
            inside = m[r, None] & (d >= dl[r, None]) & (d <= dh[r, None])
            out[i, r] += np.where(inside, t, 0.0).sum(axis=1)
    # Euler-Maclaurin: the tall rows' whole windows, and the low rows'
    # tails beyond |u| = band
    left = np.minimum(hi, np.ceil(-band - cx) - 1.0)
    right = np.maximum(lo, np.floor(band - cx) + 1.0)
    segs = [((n > 0) & ~low, lo, hi), (low & (lo <= left), lo, left),
            (low & (right <= hi), right, hi)]
    i, r = np.concatenate([np.nonzero(m) for m, _, _ in segs], axis=1)
    if len(r):
        d_a = np.concatenate([a[m] for m, a, _ in segs])
        d_b = np.concatenate([b[m] for m, _, b in segs])
        np.add.at(out, (i, r), _em_row_sums(cx[r] + d_a, cx[r] + d_b,
                                            a2[r], s))
    return out.reshape(shape)


def _em_threshold(s):
    """Least row height a at which the Euler-Maclaurin row sum is exact
    to rounding.  Near u = 0 the summand is a Gaussian of width
    a / sqrt(2s), so the height grows like sqrt(s)."""
    return 16.0 * max(1.0, math.sqrt(s / 8.0))


# B_2j / (2j)! for j = 1..8
_EM_WEIGHTS = tuple(b / math.factorial(2 * j)
                    for j, b in enumerate(_BERN[:8], start=1))


def _em_row_sums(u_lo, u_hi, a2, s):
    """Sum of f(u) = (u^2 + a2)^-s over u = u_lo, u_lo + 1, ..., u_hi, one
    row per entry, by Euler-Maclaurin with eight Bernoulli terms, all
    endpoints in one pass.

    The odd derivatives at both ends come from the recurrence
    g f^(n+1) = -(2n + 2s) u f^(n) - n (n - 1 + 2s) f^(n-1), g = u^2 + a2.
    The integral is A(u_hi) - A(u_lo), A(u) = a^(1-2s) G(u / a) for
    |u| <= 3a.  Beyond 3a, A(u) = sign(u) (a^(1-2s) G(inf) - T(|u|)),
    with T(t) = int_t^inf f by a positive series, and the constant is
    left out where both ends lie beyond 3a on one side: it cancels
    there, which admits a = 0.
    """
    m = len(u_lo)
    u = np.concatenate([u_lo, u_hi])
    a2 = np.concatenate([a2, a2])
    g = u * u + a2
    f = g ** (-s)
    prev, cur = f, -2.0 * s * u * f / g
    corr = _EM_WEIGHTS[0] * cur
    for n in range(1, 15):
        prev, cur = cur, (-(2 * n + 2.0 * s) * u * cur
                          - n * (n - 1 + 2.0 * s) * prev) / g
        if n % 2 == 0:
            corr += _EM_WEIGHTS[n // 2] * cur
    t = np.abs(u)
    far = t * t > 9.0 * a2
    one_side = np.tile(far[:m] & far[m:] & (u_lo * u_hi > 0.0), 2)
    near = ~far
    a = np.sqrt(a2)
    # the primitive A(u)
    prim = np.empty_like(u)
    prim[near] = a[near] * a2[near] ** (-s) * _G_near(t[near] / a[near], s)
    # the tail integral, Pfaff's transform of its 2F1: with h = g = t^2 + a2,
    # T(t) = h^(1/2 - s) sum_k C(2k, k) 4^-k (a2 / h)^k / (2s - 1 + 2k);
    # the terms are positive and, with t >= 3a, a2 / h <= 1/10, so 17 terms
    # reach 10^-17 of the first at every s
    k = np.arange(17)
    coef = np.cumprod(np.concatenate(([1.0], (k[:-1] + 0.5) / k[1:])))
    h = g[far]
    prim[far] = -h ** (0.5 - s) * np.polynomial.polynomial.polyval(
        a2[far] / h, coef / (2.0 * s - 1.0 + 2.0 * k))
    add = far & ~one_side
    scale = a[add] * a2[add] ** (-s)
    # _row_sums sends only windows of rows with a >= _em_threshold(s) >= 16
    # across u = 0, so a^(1 - 2s) is 0 in floats from s = 135 on, before
    # math.gamma(s) overflows at s = 171.6
    if scale.any():
        prim[add] += scale * (0.5 * math.sqrt(math.pi) * math.gamma(s - 0.5)
                              / math.gamma(s))
    prim = np.where(u < 0.0, -prim, prim)
    return (prim[m:] - prim[:m] + 0.5 * (f[:m] + f[m:])
            + corr[m:] - corr[:m])


def _G_near(t, s):
    """G(t) = int_0^t (1 + v^2)^-s dv for each t in [0, 3], s > 1, in one
    sorted cumulative pass: 8-node Gauss-Legendre between neighbouring
    sorted t.  The multiples of 0.1 join the sort, so no piece is wider
    than 0.1, where the rule is exact to rounding (checked to s = 80).  The
    pieces are summed with each step's rounding error carried (TwoSum),
    so dense and sparse sets alike land within an ulp or two of G."""
    b = np.concatenate(([0.0], t, 0.1 * np.arange(1, 31)))
    order = np.argsort(b)
    b = b[order]
    nodes, weights = gl_nodes(8)
    half = 0.5 * (b[1:] - b[:-1])
    # nodes by pieces: numpy broadcasts fastest along the long axis
    v = nodes[:, None] * half
    v += 0.5 * (b[1:] + b[:-1])
    np.square(v, out=v)
    v += 1.0
    np.power(v, -s, out=v)
    piece = half * (weights @ v)
    cum = np.cumsum(piece)
    before = np.concatenate(([0.0], cum[:-1]))
    back = cum - before
    cum += np.cumsum((before - (cum - back)) + (piece - back))
    # G at sorted position p is the sum of the p pieces below it
    at = np.empty(len(b), dtype=np.int64)
    at[order] = np.arange(len(b))
    return np.concatenate(([0.0], cum))[at[1:len(t) + 1]]


def _thin_partial_heights(max_height):
    top = max(max_height, 128.0)
    return (top / 8.0, top / 4.0, top / 2.0, top)


def _geometric_limit(v1, v2, v3):
    """Extrapolate a partial-sum triple assuming geometric block decay."""
    b1, b2 = v2 - v1, v3 - v2
    if b1 <= 0.0 or b2 <= 0.0:
        return v3
    r = b2 / b1
    if not 0.0 < r < 0.97:
        return v3
    return v3 + b2 * r / (1.0 - r)


@lru_cache(maxsize=8)
def _thin_rows(spec: GroupSpec, heights: tuple):
    """(c, d, picks): the bottom rows of spec up to heights[-1] as floats,
    and for each height the positions of the rows of norm <= it, all
    read-only, so a value is one power pass and a sum per height."""
    rows = bottom_rows(spec, heights[-1])
    c = rows[:, 2].astype(float)
    d = rows[:, 3].astype(float)
    n2 = c * c + d * d
    out = (c, d, *(np.flatnonzero(n2 <= h * h) for h in heights))
    for a in out:
        a.flags.writeable = False
    return out[0], out[1], out[2:]


def _thin_coset_value(spec, x, y, s, max_height):
    c, d, picks = _thin_rows(spec, _thin_partial_heights(max_height))
    term = ((c * x + d) ** 2 + c * c * y * y) ** (-s)
    partial = [float(term[p].sum()) for p in picks]
    lim_lo = _geometric_limit(*partial[:3])
    lim_hi = _geometric_limit(*partial[1:])
    val = y ** s * lim_hi / spec.omega
    err = y ** s * abs(lim_hi - lim_lo) / spec.omega + 1e-15 * abs(val)
    return val, err


def regularized_E1(z) -> float:
    """Value at s = 1 after removing the (3/pi)/(s-1) pole, full modular
    group: (3/pi) (2 gamma - 2 zeta'(2)/zeta(2) - log(4 y |eta(z)|^4)),
    which is invariant, so it is taken at the reduced point."""
    x, y = point_xy(z)
    return float(_regularized_E1_arr(*reduce_points([x], [y]))[0])


def _regularized_E1_arr(x, y):
    const = 2.0 * EULER_GAMMA - 2.0 * zeta_prime(2.0) / zeta(2.0)
    return (3.0 / math.pi) * (const - np.log(4.0 * np.asarray(y, float))
                              - 4.0 * log_abs_eta_arr(x, y))


def mu_eis(psi, regularized: bool) -> float:
    """Pairing of a test function with the Eisenstein series at s = 1.

    regularized=True: psl2z only, integrates against the regularized
    value over the fundamental domain (box-supported functions reduce to
    their seed box).  regularized=False: omega >= 3 only, unfolds the
    pairing through the seed profile, so the coset images do the folding
    and the series never needs its own fundamental domain.  Box pairings
    of either kind read the series off one cached Chebyshev grid per
    group and box (module docstring).  A test function reads only (x, y),
    so the pairing is fibered over the base point by construction and
    needs no check of direction independence.  PairingError where a
    precondition fails; InsufficientConvergenceError where the pairing
    does not converge.
    """
    if psi.spec.omega == 1:
        if not regularized:
            raise PairingError(
                "the lattice series has a pole at s = 1; pair against the "
                "regularized value instead")
        if psi.support is not None:
            return _pair_box(psi)
        if not psi.alpha_psi > 1.0:
            raise PairingError(
                "cusp decay alpha <= 1 cannot pay for the logarithmic "
                "growth of the regularized series")
        return _pair_fd_lattice(psi)
    if not psi.spec.lattice:
        if regularized:
            raise PairingError(
                "the thin series is already finite at s = 1; nothing to "
                "regularize")
        if psi.profiles is None:
            raise PairingError("thin pairing needs a seed-profile function")
        return _pair_box(psi)
    raise PairingError("theta-group functions pair with neither functional")


def _pair_fd_lattice(psi):
    y_top = max(6.0, (3.0 * psi.c_psi * 1e12) ** (1.0 / psi.alpha_psi))

    def f(xa, ys):
        return psi.batch(xa, ys) * _regularized_E1_arr(xa, ys) / ys ** 2

    return settled(integrate_fd(f, y_top, nx=64, n_edges=40, abs_tol=1e-12,
                                rel_tol=1e-10), "domain pairing")


@lru_cache(maxsize=8)
def _box_grid(spec: GroupSpec, box: tuple):
    """(tx, ty, grids): the Chebyshev grid over box and E(z, 1) on it, as
    read-only arrays: the regularized value for psl2z, and for omega >= 3
    y S_h / omega at the three cutoffs _geometric_limit reads.  They
    depend on the group and the box alone, so warm pairings reuse them."""
    x_lo, x_hi, y_lo, y_hi = box
    # x on its own scale, y on a log scale: both series are analytic out
    # to imaginary distance y_lo in x and pi/2 in log y from the box
    lx, ly = math.log(y_lo), math.log(y_hi)
    tx = _cheb_points(_cheb_size(2.0 * y_lo / (x_hi - x_lo)))
    ty = _cheb_points(_cheb_size(math.pi / (ly - lx)))
    xs = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * tx
    ys = np.exp(0.5 * (lx + ly) + 0.5 * (ly - lx) * ty)
    if spec.omega == 1:
        grids = [_regularized_E1_arr(*np.meshgrid(xs, ys, indexing="ij"))]
    else:
        heights = _thin_partial_heights(1024.0)[1:]
        grids = [s * (ys / spec.omega) for s in _thin_row_sums(
            bottom_rows(spec, heights[-1]), heights, xs, ys)]
    for a in (tx, ty, *grids):
        a.flags.writeable = False
    return tx, ty, tuple(grids)


def _pair_box(psi):
    x_lo, x_hi, y_lo, y_hi = psi.support
    lx, ly = math.log(y_lo), math.log(y_hi)
    tx, ty, grids = _box_grid(psi.spec, tuple(psi.support))

    def run(n):
        g, w = gl_nodes(n)
        xs = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * g
        ys = 0.5 * (y_lo + y_hi) + 0.5 * (y_hi - y_lo) * g
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        W = np.outer(w, w) * (0.25 * (x_hi - x_lo) * (y_hi - y_lo))
        phi = psi.batch(X.ravel(), Y.ravel()).reshape(X.shape)
        # E(z, 1) interpolated from the Chebyshev grid: the weights of
        # dx dy / y^2 fold onto it
        fold = _bary_matrix(tx, g).T @ (W * phi / Y ** 2) @ _bary_matrix(
            ty, (2.0 * np.log(ys) - lx - ly) / (ly - lx))
        vals = [float(np.sum(fold * e)) for e in grids]
        return vals[0] if len(vals) == 1 else _geometric_limit(*vals)

    return settled(refine(run, (60, 90, 135), abs_tol=1e-9, rel_tol=1e-9),
                   f"{psi.spec.name} box pairing")


def _cheb_size(r):
    """Chebyshev nodes for a function analytic at imaginary distance r
    half-widths from its interval: interpolation error rho^-n, rho =
    r + sqrt(1 + r^2) the Bernstein ellipse through the nearest pole.
    n ln(rho) >= 22 puts it near 3e-10; the integral against a smooth
    bump converges about twice as fast, to rounding.  16 at least."""
    return max(16, math.ceil(22.0 / math.asinh(r)))


def _cheb_points(n):
    """Chebyshev points of the first kind on [-1, 1]."""
    return np.cos((2.0 * np.arange(n) + 1.0) * math.pi / (2.0 * n))


def _bary_matrix(t, s):
    """Barycentric interpolation from the Chebyshev points t (of the
    first kind) to the points s: row i holds the weights of s[i]."""
    w = (-1.0) ** np.arange(len(t)) * np.sqrt(1.0 - t * t)
    diff = s[:, None] - t[None, :]
    hit = diff == 0.0
    q = w / np.where(hit, 1.0, diff)
    out = q / q.sum(axis=1, keepdims=True)
    # a point on a node takes that node's value
    i, j = np.nonzero(hit)
    out[i] = 0.0
    out[i, j] = 1.0
    return out


def _thin_row_sums(rows, heights, xs, ys):
    """S_h(x, y) = sum of 1 / ((cx + d)^2 + (cy)^2) over the rows (c, d)
    with c^2 + d^2 <= h^2, on the grid xs x ys, one array per height.

    Sorted by norm, each height's rows are a prefix of the table, so one
    running sum over blocks of at most 256 rows passes every cutoff.
    """
    c = rows[:, 2]
    d = rows[:, 3]
    n2 = c * c + d * d
    order = np.argsort(n2, kind="stable")
    cuts = np.searchsorted(n2[order], np.square(heights), side="right")
    c = c[order].astype(float)
    d = d[order].astype(float)
    step = max(1, min(256, 2 ** 16 // (len(xs) * len(ys))))
    acc = np.zeros((len(xs), len(ys)))
    out = []
    start = 0
    for stop in cuts:
        for lo in range(start, stop, step):
            cc = c[lo:min(lo + step, stop), None]
            u2 = np.square(cc * xs + d[lo:min(lo + step, stop), None])
            v2 = np.square(cc * ys)
            # one block-sized temporary, inverted in place
            t = u2[:, :, None] + v2[:, None, :]
            acc += np.reciprocal(t, out=t).sum(axis=0)
        out.append(acc.copy())
        start = stop
    return out
