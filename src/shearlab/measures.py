"""Measures along sheared rays and on the cusp strip, horocycle averages,
and Fourier coefficients of automorphic test functions.

The headline integral is mu_T: the pushforward of dy/y along the ray
u -> u*(T + i), u >= 1/sqrt(T^2+1), of an automorphic test function.  For
box bumps it is computed by unfolding: the bump is a Poincare series of
one compactly supported profile, so the integral is a finite sum over the
translates whose image meets the box, each a short smooth "spike" whose
ends solve a quadratic and are zeros of the bump, so the spikes tile
the support.  The rows come in chunks of a few thousand, and one pass
builds each chunk's spikes and integrates them on the 19- and 37-node
levels of the nested tanh rule at once, in reused buffers, evaluating
the box bump as one exponential; 73 and then 145 nodes take a pass each
only if the rules before disagree.  The lattice bump reaches T = 1e5 in
about 1 s and 45 MB, and T = 1e6 in 10-13 s and 90 MB.  Blind
quadrature cannot find a support of tens of thousands of intervals as
thin as 1e-6 (T = 1000); the adaptive path remains for small |T|,
cusp-decaying functions, and as an independent cross-check.
"""

import math
import operator
from typing import NamedTuple

import numpy as np

from .groups import (PSL2Z, THIN4, BudgetExceeded, GroupSpec, TestFunction,
                     _ragged, coset_row_chunks, reduce_points)
from .quadrature import (adaptive, gl_nodes, integrate_fd, refine, settled,
                         tanh_levels)

__all__ = [
    "TestFunction", "ShearSample", "RegistrationError", "bump_profile",
    "make_lattice_bump", "make_thin_bump", "mu_T", "mu_T_strip",
    "fourier_coefficient", "horocycle_average", "haar_mean",
    "equidistribution_regression", "RegressionResult", "DEFAULT_BOX",
    "THIN_BOX",
]


def _inv_gap(v, lo, hi, tmp):
    """v <- (hi - lo)^2 / 4 (v - lo)(hi - v) in place, and inf where v is
    not inside (lo, hi), NaN included: the bump at v scaled from (lo, hi)
    to (-1, 1) is exp(1 - v), with 1 - t^2 as 4 (v - lo) (hi - v) / (hi -
    lo)^2, no cancellation near the edges.  tmp is scratch of v's shape;
    the caller silences the division by zero."""
    np.subtract(hi, v, out=tmp)
    v -= lo
    v *= tmp
    # fmax takes NaN to 0 but may keep -0.0 (an edge at 0, v = -0.0),
    # which would divide to -inf: absolute makes it 0
    np.fmax(v, 0.0, out=v)
    np.absolute(v, out=v)
    return np.divide(0.25 * (hi - lo) ** 2, v, out=v)


def _bump_in_place(v, lo, hi, tmp):
    """v <- bump_profile of v scaled from (lo, hi) to (-1, 1); returns v."""
    np.subtract(1.0, _inv_gap(v, lo, hi, tmp), out=v)
    return np.exp(v, out=v)


def _profile(v, lo, hi):
    """bump_profile of v scaled from (lo, hi) to (-1, 1), as a new array."""
    v = np.array(v, dtype=float)   # a copy, 0-d for a scalar
    with np.errstate(divide="ignore", over="ignore"):
        return _bump_in_place(v, lo, hi, np.empty_like(v))


def bump_profile(t):
    """C-infinity bump exp(1 - 1/(1-t^2)) on |t| < 1, zero outside."""
    return _profile(np.asarray(t, dtype=float), -1.0, 1.0)


class RegistrationError(ValueError):
    pass


def _register(tf: TestFunction, n_samples: int = 1000,
              tol: float = 1e-7) -> TestFunction:
    """Spot-check automorphy before handing the function out: batch at
    n_samples points (x in [-3, 3], log-uniform y in [0.1, 8]) against
    batch at their images under a generator or, on a coin, product of
    two, in two calls.  The group elements come from one table of the
    spec's generators and their two-letter products.  The indices, coin,
    x and log y are Roberts' R5 sequence n phi^-j mod 1 (j = 1..5),
    phi^6 = phi + 1: fixed, evenly spread, no random draws.  A NaN
    anywhere fails the check."""
    phi = 1.1347241384015194
    u = np.arange(1, n_samples + 1)[:, None] * phi ** -np.arange(1, 6) % 1
    gens = tf.spec.gen_set()
    k = len(gens)
    table = np.array([g.entries() for g in gens]
                     + [(g * h).entries() for g in gens for h in gens],
                     dtype=float)
    first, second = (u[:, :2] * k).astype(int).T
    pair = u[:, 2] < 0.5
    x = 6.0 * u[:, 3] - 3.0
    y = 0.1 * 80.0 ** u[:, 4]
    a, b, c, d = table[np.where(pair, k + k * first + second, first)].T
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


def _box_bump(x, y, box, tmp):
    """px(x) * py(y) of _box_profiles(box) as one exp, in place: x gets
    the product, y and tmp (x's shape) are scratch.  Returns x."""
    x_lo, x_hi, y_lo, y_hi = box
    with np.errstate(divide="ignore", over="ignore"):
        np.subtract(2.0, _inv_gap(x, x_lo, x_hi, tmp), out=x)
        x -= _inv_gap(y, y_lo, y_hi, tmp)
        return np.exp(x, out=x)


def _reduced_bump(box, name: str, spec: GroupSpec) -> TestFunction:
    """The product bump px * py on a box inside the fundamental domain |x|
    < omega/2, |z| > 1 of <T^omega, S>, automorphic as the profile at the
    reduced point: no other translate meets the box."""
    omega = spec.omega
    x_lo, x_hi, y_lo, y_hi = box
    if not (-omega / 2.0 < x_lo < x_hi < omega / 2.0
            and 1.0 < y_lo < y_hi < math.inf):
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


# -- mu_T --------------------------------------------------------------------

class ShearSample(NamedTuple):
    T: float
    value: float
    est_error: float
    n_nodes: int
    tol_met: bool
    route: str


# the unfolded routes' row regions at most, checked before they are built:
# c's of the ray (lattice T < 1.09e7), strip candidates (lattice T < 2.94e6)
MAX_ROW_BOUNDS = MAX_STRIP_CANDIDATES = 1 << 23


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
    if psi.profiles is not None and abs(T) >= 8.0:
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
    """(c, d, a/c) arrays of the cosets whose ray window reaches y_lo, in
    the consecutive chunks of groups.coset_row_chunks.

    The window exists iff c|d| < (sqrt(T^2+1)+|T|)/(2 y_lo), with d of
    sign opposite to T; the rows under that hyperbola come from the
    group's coset rows, and a/c is the cusp offset, needed mod omega.
    """
    peak = (math.sqrt(T * T + 1.0) + abs(T)) / (2.0 * y_lo)
    if not peak < MAX_ROW_BOUNDS:
        raise BudgetExceeded(f"mu_T at T = {T:g}: {peak:.3g} row bounds, "
                             f"past the ceiling of {MAX_ROW_BOUNDS}")
    span = (peak / np.arange(1, int(peak) + 2)).astype(np.int64) + 1
    one = np.ones_like(span)
    for a, c, d in coset_row_chunks(
            psi.spec, *((-span, -one) if T > 0 else (one, span))):
        yield c, d, a / c


def _spikes(psi: TestFunction, T: float, c, d, ac):
    """The spikes of one chunk of _window_rows, (c, d, a/c), as arrays:
    the u-intervals where one translate's folded x lands in the box
    shifted by k_offset, as columns (u_a, u_b, a/c - k_offset, d/c, c^2).
    With w = u T + d/c and D = c^2 (w^2 + u^2) = |c u (T + i) + d|^2 the
    point in the box is (a/c - k_offset - w / D, u / D), free of the
    cancellation of D's expanded form, whose terms reach c^2 T^2 u^2 where
    D is about 1.  The spikes of every chunk and the _crossings tile the
    ray's part of the support, one spike per translate: the pieces that a
    turning point of x cuts are joined again, so every spike ends where
    the bump vanishes, at an edge of the box.  The ray's start u_min ends
    none: u_min (T + i) lies on the unit circle, which S maps to itself,
    so each of its translates lies on the boundary of a translate of the
    fundamental domain, and _reduced_bump boxes sit strictly inside it."""
    x_lo, x_hi, y_lo, y_hi = psi.support
    omega = psi.omega
    t2p1 = T * T + 1.0
    u_min = 1.0 / math.sqrt(t2p1)
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
    n = np.maximum(np.floor((ac - g_lo - x_lo) / omega) - k0 + 1, 0)
    n = n.astype(int)
    # the next piece, which goes on from q if it is of the same row and
    # starts there, and where its spikes start among all spikes
    nxt = np.minimum(np.arange(1, len(p) + 1), len(p) - 1)
    goes_on = (row[nxt] == row) & (p[nxt] == q)
    first = np.cumsum(n) - n
    i, k = _ragged(k0, n)
    kk = k * omega
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
    # a spike that ends at q, where the next piece goes on, goes on as
    # that piece's spike of the same k if it starts at q
    ends = np.flatnonzero(keep & (ub == q) & goes_on[i])
    j, kj = nxt[i[ends]], k[ends]
    at = first[j] + (kj - k0[j]).astype(int)
    ok = (k0[j] <= kj) & (kj < k0[j] + n[j])
    ends, at = ends[ok], at[ok]
    ok = keep[at] & (ua[at] == ub[ends])
    ends, at = ends[ok], at[ok]
    # following the links twice reaches the last of up to five pieces (a
    # row has six cuts)
    last = np.arange(len(ua))
    last[ends] = at
    last = last[last]
    last = last[last]
    keep[at] = False
    return (ua[keep], ub[last[keep]], (ac - kk)[keep], (d / c)[keep],
            (c * c)[keep])


def _spike_point(u, T, off, dc, c2, x, y, tmp):
    """x, y <- the box point of the ray at u on a spike of _spikes, (off -
    w / D, u / D) with w = u T + d/c and D = c^2 (w^2 + u^2), in as many
    passes as D's expanded form takes.  off, dc and c2 are the spike's
    columns, broadcast against u; tmp is scratch of u's shape."""
    np.multiply(u, T, out=x)
    x += dc
    np.multiply(x, x, out=y)
    np.multiply(u, u, out=tmp)
    y += tmp
    y *= c2
    np.reciprocal(y, out=y)     # and multiplying: faster than two divisions
    x *= y
    np.subtract(off, x, out=x)
    y *= u
    return x, y


# nodes per evaluated block.  A pass allocates its few block buffers once
# and computes in place, so no temporary is allocated per block; 2^14
# nodes (128 KiB a buffer) ran the shear rounds faster than 2^13
_BLOCK = 1 << 14


def _crossings(psi: TestFunction, T: float):
    """(u_a, u_b, k_offset) of the ray itself crossing the box translated
    by k_offset: the translation family of the unfolded integral, in
    chunks of at most _BLOCK offsets."""
    x_lo, x_hi, y_lo, y_hi = psi.support
    omega = psi.omega
    u_lo_t = max(1.0 / math.sqrt(T * T + 1.0), y_lo)
    xe = sorted((T * u_lo_t, T * y_hi))
    k_end = math.floor((xe[1] - x_lo) / omega) + 1
    for k in range(math.ceil((xe[0] - x_hi) / omega), k_end, _BLOCK):
        kk = np.arange(k, min(k + _BLOCK, k_end)) * omega
        ea, eb = (kk + x_lo) / T, (kk + x_hi) / T
        ua = np.maximum(np.minimum(ea, eb), u_lo_t)
        ub = np.minimum(np.maximum(ea, eb), y_hi)
        keep = ub > ua
        yield ua[keep], ub[keep], kk[keep]


def _blocks(chunks, size):
    """The rows of a stream of column tuples in blocks of size rows, the
    last one shorter: the blocks do not depend on where the chunks end."""
    left = ()
    for cols in chunks:
        if left:
            cols = tuple(np.concatenate(v) for v in zip(left, cols))
        n = len(cols[0]) - len(cols[0]) % size
        for lo in range(0, n, size):
            yield tuple(v[lo:lo + size] for v in cols)
        left = tuple(v[n:] for v in cols)
    if left and len(left[0]):
        yield left


def _ray_sums(psi: TestFunction, T: float, levels):
    """The unfolded ray integral at T on the given levels of the nested
    tanh rule, all in one pass over the row chunks and the crossings, with
    the number of spikes and crossings it integrated: (sums, pieces).  A
    level's sum is over its new nodes alone, so h times the sum over
    levels 0..j is the integral on level j's rule.  Each block's sums come
    from numpy's own reductions and are added exactly, so the values do
    not depend on the row chunks."""
    box = psi.support
    # the levels side by side: one row of nodes and weights, and where
    # each level starts in it
    table = [tanh_levels()[j] for j in levels]
    xg, wg = (np.concatenate(v) for v in zip(*(t[1:] for t in table)))
    starts = np.cumsum([0] + [len(t[1]) for t in table[:-1]])
    step = max(1, _BLOCK // len(xg))    # pieces per block
    bufs = np.empty((4, step, len(xg)))
    parts = [np.zeros(len(table))]      # per block, a sum for each level

    def nodes(ua, ub):
        # the pieces' nodes U and the buffers for the box point (X, Y)
        U, X, Y, tmp = bufs[:, :len(ua)]
        half = 0.5 * (ub - ua)
        np.multiply(half[:, None], xg, out=U)
        U += 0.5 * (ua + ub)[:, None]
        return U, X, Y, tmp, half

    def add(U, X, Y, tmp, half):
        # half * bump / U at every node, summed over the block and each level
        X = _box_bump(X, Y, box, tmp)
        X /= U
        X *= half[:, None]
        parts.append(np.add.reduceat(X.sum(axis=0) * wg, starts))

    spikes = (_spikes(psi, T, *rows) for rows in _window_rows(psi, T, box[2]))
    pieces = 0
    for ua, ub, off, dc, c2 in _blocks(spikes, step):
        U, X, Y, tmp, half = nodes(ua, ub)
        _spike_point(U, T, off[:, None], dc[:, None], c2[:, None], X, Y, tmp)
        add(U, X, Y, tmp, half)
        pieces += len(ua)
    for ua, ub, kk in _blocks(_crossings(psi, T), step):
        U, X, Y, tmp, half = nodes(ua, ub)
        np.multiply(U, T, out=X)
        X -= kk[:, None]
        Y[:] = U
        add(U, X, Y, tmp, half)
        pieces += len(ua)
    return [math.fsum(v) for v in zip(*parts)], pieces


def _mu_T_unfolded(psi: TestFunction, T: float, tol: float) -> ShearSample:
    """mu_T by unfolding: refine over the nested tanh rule of
    tanh_levels, 19, 37, 73 and 145 nodes a spike.  One pass of _ray_sums
    over the row chunks runs levels 0 and 1; each later pass streams the
    chunks again for one new level while the last two rules differ by
    more than tol.  n_nodes counts the evaluations."""
    table = tanh_levels()
    sums = []           # each level's sum, as its pass gives it
    nodes = [0]

    def total(j):
        if j == len(sums):
            levels = (0, 1) if j == 0 else (j,)
            vals, pieces = _ray_sums(psi, T, levels)
            nodes[0] += pieces * sum(len(table[i][1]) for i in levels)
            sums.extend(vals)
        return table[j][0] * math.fsum(sums[:j + 1])

    # each spike is the box bump through a near-affine map, so a rung's
    # error does not grow with T: |I37 - I19| is 1e-9 to 7e-7 (lattice,
    # |T| = 10-2000 and 1e4-1e5) and 1.5e-10 to 7e-7 (thin, |T| = 10-950),
    # while the 37-node rule lands within 3e-10 of the 145-node one (1e-11
    # at T = 1e5-1e6) and the 73-node one within rounding.  Tol 1e-6 and
    # up settles on the first pass
    val, err, ok = refine(total, range(len(table)), abs_tol=tol)
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
    Gauss-Legendre pass.  Functions without profiles or support, such as
    the form observables, take the literal 2-d quadrature instead.
    InsufficientConvergenceError if either route misses tol; ValueError
    unless T is finite and positive, or unless tol is finite and at least
    1e-12.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"strip measure needs finite T > 0: got {T}")
    if not 1e-12 <= tol < math.inf:
        # below it the finest grids differ by summation rounding alone
        raise ValueError(f"strip tol {tol:g} must be finite and at least "
                         f"the 1e-12 floor")
    if psi.profiles is None or psi.support is None:
        return _strip_direct(psi, T, tol)
    return _strip_unfolded(psi, T, tol)


def _strip_direct(psi: TestFunction, T: float, tol: float) -> float:
    """Adaptive panels in y over the mean of the periodic trapezoid nodes
    k omega / nx in x, nx doubled from 1024 until two passes agree to tol:
    near y = 1/T the translates are features of width about y, which a
    fixed grid misses.  The grids nest, so each y node keeps its running
    sum, and a node seen at nx / 2 evaluates only the odd nodes."""
    y_top = _y_top(psi, tol)
    y_bot = 1.0 / T
    if y_top <= y_bot:
        return 0.0
    seen = {}       # y node -> (x nodes summed, their sum)

    def run(nx):
        def f(y):
            n, total = np.array([seen.get(v, (0, 0.0)) for v in y.tolist()]).T
            while (n < nx).any():
                m = n[n < nx].min()
                at = np.flatnonzero(n == m)
                if m == 0:      # a new node takes the whole grid
                    m2, k = nx, np.arange(nx)
                else:           # a seen one the odd nodes of the next grid
                    m2, k = 2 * m, np.arange(1, 2 * m, 2)
                x = k * (psi.omega / m2)
                # many nodes per batch call of about 2^16 points
                for i in np.array_split(at, -(-len(at) * len(x) >> 16)):
                    v = psi.batch(np.tile(x, len(i)), np.repeat(y[i], len(x)))
                    total[i] += v.reshape(len(i), len(x)).sum(axis=1)
                n[at] = m2
            seen.update(zip(y.tolist(), zip(n.tolist(), total.tolist())))
            return total / (n * y)

        return settled(adaptive(f, y_bot, y_top, abs_tol=tol, rel_tol=tol,
                                initial_edges=np.geomspace(y_bot, y_top, 200)),
                       f"direct strip measure at T = {T:g}, {nx} x nodes")

    return settled(refine(run, [1 << k for k in range(10, 17)], abs_tol=tol),
                   f"direct strip measure at T = {T:g} over x grids to tol "
                   f"{tol:g}")


def _strip_rows(psi: TestFunction, T: float):
    """The (a, c, d) chunks of the rows, c > 0, whose translate clears the
    1/T height cut somewhere in the support box: (cx + d)^2 < yT - c^2 y^2
    at some (x, y) there.  The right side peaks at y* = T / 2c^2 clipped
    to [y_lo, y_hi], and is positive somewhere only for c^2 < T / y_lo.
    The region has at most n (x_max (n + 1) + 2 sqrt(y_hi T) + 3)
    candidates, n = sqrt(T / y_lo) + 1."""
    x_lo, x_hi, y_lo, y_hi = psi.support
    xm = max(abs(x_lo), abs(x_hi))
    n = math.sqrt(T / y_lo) + 1.0
    bound = n * (xm * (n + 1.0) + 2.0 * math.sqrt(y_hi * T) + 3.0)
    if not bound <= MAX_STRIP_CANDIDATES:
        raise BudgetExceeded(f"strip measure at T = {T:g}: {bound:.3g} "
                             f"candidate rows, past the ceiling of "
                             f"{MAX_STRIP_CANDIDATES}")
    cs = np.arange(1, math.ceil(math.sqrt(T / y_lo)) + 1)
    ys = np.clip(T / (2.0 * cs * cs), y_lo, y_hi)
    reach = np.sqrt(np.maximum(ys * T - cs * cs * ys * ys, 0.0))
    span = (cs * xm + reach).astype(np.int64) + 1
    return coset_row_chunks(psi.spec, -span, span)


def _strip_panels(psi: TestFunction, T: float):
    """y-panels (p, q, c, d, top, capped, full) over which each row's
    x-window in the box is smooth, as arrays in row order, chunk by chunk.

    Row (c, d) counts where Im(g z) > 1/T, on the horoball disc
    |x + d/c|^2 + (y - top/2)^2 < (top/2)^2, top = T/c^2.  Its window
    edges -d/c +- sqrt(y (top - y)) cross the box edge x_e at the roots of
    c^2 y^2 - T y + (c x_e + d)^2 = 0, which cut [y_lo, min(y_hi, top)]
    into panels; a panel whose window misses the box is dropped.  capped
    marks the panel ending at the disc top, where the window closes like
    sqrt(top - y); full marks the panels whose window covers the box's
    whole x-range, and no capped one does.
    """
    x_lo, x_hi, y_lo, y_hi = psi.support
    panels = []
    for _, c, d in _strip_rows(psi, T):
        c, d = c.astype(float), d.astype(float)
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
                cuts.append(np.where(disc > 0.0, np.clip(r, y_lo, y_end),
                                     y_end))
        cuts = np.sort(np.column_stack(cuts), axis=1)
        p, q = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        c, d, top = (np.repeat(v, 5) for v in (c, d, top))
        # which edges bind is fixed inside a panel, so test at its middle
        m = 0.5 * (p + q)
        s = np.sqrt(np.maximum(m * (top - m), 0.0))
        keep = (q > p) & (-d / c - s < x_hi) & (-d / c + s > x_lo)
        p, q, c, d, top, s = (v[keep] for v in (p, q, c, d, top, s))
        capped = q == top
        full = (-d / c - s <= x_lo) & (-d / c + s >= x_hi) & ~capped
        panels.append((p, q, c, d, top, capped, full))
    return tuple(np.concatenate(v) for v in zip(*panels))


# (ny, nx) Gauss-Legendre nodes per panel on each rung of the strip ladder.
# Against 128 x 128 nodes at T = 10 to 3000 the x-rule sets the error: 3e-6
# to 6e-6 at nx = 16, 2e-7 to 5e-7 at 24, 6e-10 to 1.4e-9 at 40 and 8e-11
# to 1.8e-10 at 48, while ny = nx + 8 keeps the y error a seventh of it or
# less.  (48, 40) and (56, 48) differ by 9e-10 at T = 100 and 1.9e-9 at
# T = 1e5, so tol 1e-8 stops on (56, 48) at every T up to there; after
# (40, 32) instead it took one rung more from T = 3e4 on
_STRIP_RUNGS = ((24, 16), (32, 24), (48, 40), (56, 48), (72, 64), (104, 96))


def _strip_unfolded(psi: TestFunction, T: float, tol: float) -> float:
    x_lo, x_hi, y_lo, y_hi = psi.support
    px, py = psi.profiles
    p, q, c, d, top, capped, full = _strip_panels(psi, T)
    # the translate carries Im(g z) / y^2 = 1 / (y |cz + d|^2), with
    # |cz + d|^2 = c^2 ((x - x0)^2 + y^2) about the window's centre x0
    x0, c2 = -d / c, c * c
    fulls = [v[full, None] for v in (p, q - p, x0, c2)]
    parts = [v[~full, None] for v in (p, q, x0, c2, top, capped)]
    # identity translate: its height is y itself, cut at 1/T
    y_id = max(y_lo, 1.0 / T)

    def run(rung):
        ny, nx = rung
        yg, wy = gl_nodes(ny)
        xg, wx = gl_nodes(nx)
        half = 0.5 * (x_hi - x_lo)
        # a full panel's x-nodes are the box's, so px and the x-weights
        # make one fixed vector per rung
        xb = x_lo + half * (1.0 + xg)
        wpx = half * wx * px(xb)
        total = 0.0
        if y_hi > y_id:
            hy = 0.5 * (y_hi - y_id)
            ym = y_id + hy * (1.0 + yg)
            total = float(wpx.sum()) * hy * float(wy @ (py(ym) / ym))
        u, wu = 0.5 * (1.0 + yg), 0.5 * wy
        # panels per piece, whose nodes are evaluated in reused buffers
        step = max(1, (1 << 15) // (ny * nx))
        X, D, tmp = np.empty((3, step * ny * nx))
        # full panels: a node is wpx over (x - x0)^2 + y^2, whose first
        # term is fixed per panel
        for lo in range(0, len(fulls[0]), step):
            p, w, x0, c2 = (v[lo:lo + step] for v in fulls)
            y = p + w * u
            # each y-node's weight is dy and py / c^2 y
            wyn = w * wu * py(y) / (c2 * y)
            Ds = D[:y.size * nx].reshape(len(y), ny, nx)
            np.add(((xb - x0) ** 2)[:, None, :], (y * y)[:, :, None], out=Ds)
            np.divide(1.0, Ds, out=Ds)
            total += float(wyn.ravel() @ (Ds.reshape(-1, nx) @ wpx))
        # partial panels: the capped one maps by y = q - (q - p) u^2, u in
        # [0, 1], so its window sqrt(y (q - p)) u closes smoothly.  Nodes
        # are (x-node, y-node) arrays, so per-y-node factors broadcast
        # along rows
        xg = xg[:, None]
        for lo in range(0, len(parts[0]), step):
            p, q, x0, c2, top, capped = (v[lo:lo + step] for v in parts)
            w = q - p
            y = np.where(capped, q - w * u * u, p + w * u)
            s = np.sqrt(y * np.where(capped, w * u * u, top - y))
            a = np.maximum(x0 - s, x_lo)
            hx = 0.5 * (np.minimum(x0 + s, x_hi) - a)
            mid = a + hx
            # and on these the window's half-width too
            wyn = np.where(capped, 2.0 * w * u, w) * wu * hx * py(y) / (c2 * y)
            Xs, Ds, ts = (v[:y.size * nx].reshape(nx, y.size)
                          for v in (X, D, tmp))
            np.multiply(xg, hx.ravel(), out=Ds)
            np.add(Ds, mid.ravel(), out=Xs)
            Ds += (mid - x0).ravel()
            Ds *= Ds
            Ds += (y * y).ravel()
            # px at the window's nodes in place, px being the bump on the
            # box's x-side
            with np.errstate(divide="ignore", over="ignore"):
                _bump_in_place(Xs, x_lo, x_hi, ts)
            Xs /= Ds
            total += float(wyn.ravel() @ (wx @ Xs))
        return total / psi.omega

    # every panel's integrand is smooth, so Gauss-Legendre converges fast,
    # and refinement is the error handle: at tol 1e-8 the fixed-grid
    # references are met within 1.3e-10
    return settled(refine(run, _STRIP_RUNGS, abs_tol=tol),
                   f"strip measure at T = {T:g} to tol {tol:g}")


# -- horocycle data ----------------------------------------------------------

def fourier_coefficient(psi: TestFunction, m: int, y: float,
                        tol: float = 1e-9):
    """(1/omega) * integral over one period of psi(x+iy) e(-m x / omega).

    Trapezoid in x, spectrally accurate for smooth psi, grid doubling
    until stable.  Returns a float for m = 0, complex otherwise;
    ValueError unless 0 < y < inf, m is an integer and 0 < tol < inf;
    InsufficientConvergenceError if the grids never settle.
    """
    if not 0.0 < y < math.inf:
        raise ValueError(f"fourier coefficient needs 0 < y < inf, got {y}")
    try:
        m = operator.index(m)
    except TypeError:
        raise ValueError(f"Fourier mode must be an integer, "
                         f"got {m!r}") from None
    if not 0.0 < tol < math.inf:
        raise ValueError(f"fourier coefficient needs 0 < tol < inf, "
                         f"got {tol}")
    omega = psi.omega

    def run(n):
        xs = (np.arange(n) + 0.5) * (omega / n)
        vals = psi.batch(xs, np.full(n, float(y)))
        return complex(np.mean(vals * np.exp((-2j * np.pi * m / omega) * xs)))

    cur = settled(refine(run, [1 << k for k in range(10, 22)], abs_tol=tol,
                         rel_tol=tol), f"fourier coefficient {m} at y = {y:g}")
    return cur.real if m == 0 else cur


def horocycle_average(psi: TestFunction, y: float, interval,
                      tol: float = 1e-9) -> float:
    """Mean of psi over x in interval at height y, by the midpoint rule
    doubled until stable; InsufficientConvergenceError if it never is,
    ValueError unless 0 < y < inf, x0 < x1 and 0 < tol < inf."""
    if not 0.0 < y < math.inf:
        raise ValueError(f"horocycle average needs 0 < y < inf, got {y}")
    x0, x1 = interval
    if not x1 > x0:
        raise ValueError("need x0 < x1")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"horocycle average needs 0 < tol < inf, "
                         f"got {tol}")

    def run(n):
        xs = x0 + (np.arange(n) + 0.5) * ((x1 - x0) / n)
        return float(np.mean(psi.batch(xs, np.full(n, float(y)))))

    return settled(refine(run, [1 << k for k in range(11, 22)], abs_tol=tol,
                          rel_tol=tol), f"horocycle average at y = {y:g}")


def haar_mean(psi: TestFunction) -> float:
    """Mean against the normalized hyperbolic area 3/pi * dx dy / y^2 on
    the standard domain, so psl2z functions only.  Product bumps
    integrate their profiles over the box, everything else goes through
    integrate_fd, raising InsufficientConvergenceError if it does not
    converge."""
    if psi.spec.omega != 1:
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
    return 3.0 / math.pi * settled(
        integrate_fd(lambda x, y: psi.batch(x, y) / (y * y),
                     _y_top(psi, 1e-10), nx=64, n_edges=40, abs_tol=1e-11,
                     rel_tol=1e-10), "haar mean")


# -- regression against the equidistribution law -----------------------------

class RegressionResult(NamedTuple):
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
