import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from shearlab.algebra import UTBPoint, compose, mobius_act
from shearlab.groups import (PSL2Z, THIN4, BudgetExceeded, GroupSpec,
                             bottom_rows)
from shearlab import groups, measures, quadrature
from shearlab.measures import (THIN_BOX, RegistrationError, bump_profile,
                               equidistribution_regression,
                               fourier_coefficient, haar_mean,
                               horocycle_average, make_strip_bump, mu_T,
                               mu_T_strip)
from shearlab.quadrature import (InsufficientConvergenceError, adaptive,
                                 gl_nodes, refine)
from thin_scan import thin_scan


def test_bump_profile_shape():
    assert bump_profile(0.0) == pytest.approx(1.0)
    assert bump_profile(1.0) == 0.0 == bump_profile(-1.0)
    assert bump_profile(3.7) == 0.0
    t = np.linspace(-0.99, 0.99, 101)
    v = bump_profile(t)
    assert np.all(v > 0) and np.all(v <= 1.0)
    assert np.allclose(v, v[::-1])  # even
    assert np.allclose(v, np.exp(1.0 - 1.0 / (1.0 - t * t)), rtol=1e-13,
                       atol=0.0)


@pytest.mark.parametrize("box", [measures.DEFAULT_BOX, THIN_BOX])
def test_box_bump_is_the_profile_product(box):
    # the ray kernel's one exp equals px(x) * py(y), zero where they are
    x_lo, x_hi, y_lo, y_hi = box
    rng = np.random.default_rng(21)
    x = np.concatenate([rng.uniform(x_lo - 0.1, x_hi + 0.1, 1_000_000),
                        [x_lo, x_hi, x_lo, 0.5 * (x_lo + x_hi)]])
    y = np.concatenate([rng.uniform(y_lo - 0.1, y_hi + 0.1, 1_000_000),
                        [y_lo, 0.5 * (y_lo + y_hi), y_hi, y_hi]])
    px, py = measures._box_profiles(box)
    want, got = px(x) * py(y), measures._box_bump(x, y, box)
    assert np.count_nonzero(want) > 500_000
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.max(np.abs(got - want)) <= 4e-15


def _images(gs, pts):
    # the scalar Mobius map, independent of the closed form in _register
    img = [mobius_act(g, p) for g, p in zip(gs, pts)]
    return (np.array([p.x for p in pts]), np.array([p.y for p in pts]),
            np.array([q.x for q in img]), np.array([q.y for q in img]))


def test_lattice_bump_is_automorphic(lattice_bump):
    rng = np.random.default_rng(7)
    gens = PSL2Z.gen_set()
    gs, pts = [], []
    for _ in range(200):
        gs.append(compose(gens[rng.integers(len(gens))],
                          gens[rng.integers(len(gens))]))
        pts.append(UTBPoint(rng.uniform(-2, 2), math.exp(rng.uniform(-2, 2))))
    x, y, gx, gy = _images(gs, pts)
    assert np.allclose(lattice_bump.batch(gx, gy), lattice_bump.batch(x, y),
                       rtol=0.0, atol=1e-12)


def test_thin_bump_is_automorphic(thin_bump):
    rng = np.random.default_rng(8)
    gens = THIN4.gen_set()
    gs, pts = [], []
    for _ in range(200):
        gs.append(gens[rng.integers(len(gens))])
        pts.append(UTBPoint(rng.uniform(-2, 2),
                            math.exp(rng.uniform(-1.5, 1.5))))
    x, y, gx, gy = _images(gs, pts)
    assert np.allclose(thin_bump.batch(gx, gy), thin_bump.batch(x, y),
                       rtol=0.0, atol=1e-9)


def test_thin_bump_matches_the_table_scan(thin_bump):
    # the Poincare series summed over the height-128 coset table
    rng = np.random.default_rng(11)
    x = rng.uniform(-6.0, 6.0, 100_000)
    y = np.exp(rng.uniform(math.log(1e-3), math.log(8.0), 100_000))
    want = thin_scan(THIN_BOX)(x, y)
    assert np.count_nonzero(want) > 1000
    assert np.max(np.abs(thin_bump.batch(x, y) - want)) <= 1e-12


def test_thin_bump_has_no_height_floor(thin_bump):
    rng = np.random.default_rng(12)
    gens = THIN4.gen_set()
    gs = [gens[i] for i in rng.integers(len(gens), size=200)]
    pts = [UTBPoint(x, 1e-6) for x in rng.uniform(-2.0, 2.0, 200)]
    x, y, gx, gy = _images(gs, pts)
    v = thin_bump.batch(x, y)
    assert np.all(np.isfinite(v))
    assert np.allclose(thin_bump.batch(gx, gy), v, rtol=0.0, atol=1e-9)


def test_registration_rejects_non_automorphic():
    for batch in (
            lambda x, y: np.asarray(x),
            # invariant under T but not under S
            lambda x, y: np.cos(2.0 * np.pi * x) * y,
            # invariant under S but not under T
            lambda x, y: y + y / (x * x + y * y),
            # automorphic where it is defined, NaN high in the cusp
            lambda x, y: np.where(np.asarray(y) > 7.0, np.nan, 1.0)):
        fake = measures.TestFunction("broken", PSL2Z, batch=batch)
        with pytest.raises(RegistrationError):
            measures._register(fake)


def test_registration_is_two_batch_calls(lattice_bump, thin_bump):
    for tf in (lattice_bump, thin_bump):
        calls = []

        def counted(x, y, batch=tf.batch):
            calls.append(len(x))
            return batch(x, y)

        measures._register(dataclasses.replace(tf, batch=counted))
        assert calls == [1000, 1000]


def test_spec_attachment(lattice_bump, thin_bump):
    # the group is the one field; the width and the report label follow
    strip = make_strip_bump()
    assert (lattice_bump.spec, thin_bump.spec, strip.spec) == (
        PSL2Z, THIN4, None)
    assert [(f.omega, f.mode) for f in (lattice_bump, thin_bump, strip)] == [
        (1.0, "lattice"), (4.0, "thin"), (1.0, "strip")]


# -- shear integrals ---------------------------------------------------------


def test_mu_T_routes_agree(lattice_bump):
    # the spike engine takes over at |T| >= 8; force the generic panel
    # integrator on the same function and compare
    generic_only = dataclasses.replace(lattice_bump, profiles=None)
    for t in (12.0, 35.0, -12.0, -35.0):
        a = mu_T(lattice_bump, t, tol=1e-7)
        b = mu_T(generic_only, t, tol=1e-9)
        assert a.route == "unfolded" and b.route == "generic"
        assert b.tol_met and a.est_error < 1e-6
        assert a.value == pytest.approx(b.value, abs=5e-7)


def test_mu_T_routes_agree_thin(thin_bump):
    generic_only = dataclasses.replace(thin_bump, profiles=None)
    for t in (12.0, -12.0):
        a = mu_T(thin_bump, t, tol=1e-9)
        b = mu_T(generic_only, t, tol=1e-9)
        assert a.route == "unfolded" and b.route == "generic"
        assert a.value == pytest.approx(b.value, abs=1e-7)


def _ray_midpoint(psi, T, n=1 << 22, chunk=1 << 19):
    """integral of psi along the ray against du/u: midpoint rule on n
    log-spaced cells, sampling psi.batch (the folded function) directly."""
    s0 = math.log(1.0 / math.sqrt(T * T + 1.0))
    h = (math.log(psi.support[3]) - s0) / n
    total = 0.0
    for lo in range(0, n, chunk):
        u = np.exp(s0 + (np.arange(lo, min(n, lo + chunk)) + 0.5) * h)
        total += float(np.sum(psi.batch(u * T, u)))
    return total * h


_RAY = {}


def _ray_reference(psi, T):
    if T not in _RAY:
        _RAY[T] = _ray_midpoint(psi, T)
    return _RAY[T]


@pytest.mark.parametrize("T", [300.0, 1000.0])
def test_mu_T_lattice_matches_ray_reference(lattice_bump, T):
    # the spike ends used to be re-solved near a double root, leaving
    # uncovered slivers that cost 2.7e-7 at T = 300 and 1.1e-6 at T = 1000
    s = mu_T(lattice_bump, T, tol=1e-7)
    assert s.route == "unfolded" and s.tol_met
    assert abs(s.value - _ray_reference(lattice_bump, T)) < 1e-8


def test_mu_T_lattice_meets_tol_1e9(lattice_bump):
    # 34 Gauss-Legendre nodes per spike stop about 1e-9 short of the ray
    # integral at T = 300; the 60-node pass that tol 1e-9 asks for reaches it
    s = mu_T(lattice_bump, 300.0, tol=1e-9)
    assert s.route == "unfolded" and s.tol_met and s.est_error <= 1e-9
    assert abs(s.value - _ray_reference(lattice_bump, 300.0)) < 1e-9


def _uncovered(psi, T):
    """Points inside every gap, wider than 1e-14 relative, that the spikes
    and the translation intervals leave on the ray's u-range."""
    (ua, ub, *_), (ta, tb, _) = measures._spikes(psi, T)
    u_min, u_top = 1.0 / math.sqrt(T * T + 1.0), psi.support[3]
    lo = np.concatenate([ua, ta, [0.0, u_top]])
    hi = np.concatenate([ub, tb, [u_min, 2.0 * u_top]])
    order = np.argsort(lo, kind="stable")
    covered = np.maximum.accumulate(hi[order])[:-1]
    nxt = lo[order][1:]
    wide = nxt - covered > 1e-14 * nxt
    g0, g1 = covered[wide], nxt[wide]
    return (g0[:, None] + (g1 - g0)[:, None] * np.linspace(0.0, 1.0, 9)[1:-1]
            ).ravel()


def test_spikes_tile_the_support(lattice_bump, thin_bump):
    for psi, T in ((lattice_bump, 300.0), (lattice_bump, -300.0),
                   (thin_bump, 500.0)):
        u = _uncovered(psi, T)
        assert len(u) > 0
        vals = psi.batch(u * T, u)
        assert not np.any(vals > 0.0), (
            f"{psi.name} T={T}: {np.count_nonzero(vals > 0.0)} uncovered "
            f"points where the function reaches {vals.max():.3g}")


@settings(max_examples=40, deadline=None)
@given(T=st.floats(8.0, 3000.0) | st.floats(-3000.0, -8.0),
       c=st.integers(1, 400))
def test_window_rows_match_the_gcd_loop(lattice_bump, T, c):
    y_lo = lattice_bump.support[2]
    rows_c, rows_d, rows_ac = measures._window_rows(lattice_bump, T, y_lo)
    assert np.all(np.diff(rows_c) >= 0)
    peak = (math.sqrt(T * T + 1.0) + abs(T)) / (2.0 * y_lo)
    want = []
    if c <= int(peak) + 1:
        for ad in range(1, int(peak / c) + 2):
            if math.gcd(c, ad) == 1:
                d = ad if T < 0 else -ad
                want.append((d, (pow(d % c, -1, c) if c > 1 else 0) / c))
    # ascending d for either sign of T
    want.sort()
    sel = rows_c == c
    assert list(zip(rows_d[sel].tolist(), rows_ac[sel].tolist())) == want


@pytest.mark.parametrize("T", [300.0, -300.0])
def test_thin_window_rows_match_the_table_scan(thin_bump, T):
    # the rows of a height-2048 table with c <= peak + 1, d of sign
    # opposite to T and |d| <= peak / c + 1, in table order
    y_lo = thin_bump.support[2]
    peak = (math.sqrt(T * T + 1.0) + abs(T)) / (2.0 * y_lo)
    want = [(c, d, a / c) for a, _, c, d in bottom_rows(THIN4, 2048).tolist()
            if 1 <= c <= int(peak) + 1 and (d < 0 if T > 0 else d > 0)
            and abs(d) <= int(peak / c) + 1]
    got = zip(*(v.tolist() for v in measures._window_rows(thin_bump, T, y_lo)))
    assert list(got) == want


def test_thin_table_is_the_next_power_of_two(thin_bump, monkeypatch):
    # coset_rows masks the table of the least power-of-two height that
    # holds its region: here the row (c, d) = (1, d_hi), of norm^2 1 + d_hi^2
    heights = []

    def recorded(spec, height):
        heights.append(height)
        return bottom_rows(spec, height)

    monkeypatch.setattr(groups, "bottom_rows", recorded)
    for d_hi, top in ((0, 1), (1, 2), (31, 32), (32, 64), (1000, 1024),
                      (2047, 2048)):
        a, c, d = groups.coset_rows(THIN4, [-d_hi], [d_hi])
        assert heights.pop() == top
        assert c.tolist() == [1] * len(d) and abs(d).max() <= d_hi
    with pytest.raises(BudgetExceeded, match="past the cap"):
        groups.coset_rows(THIN4, [-2048], [2048])
    monkeypatch.undo()
    # thin mu_T's window region fits the height-2048 table up to T = 2149
    for T in (2040.0, 2149.0):
        assert mu_T(thin_bump, T).tol_met
    for T in (2150.0, 3500.0, 5000.0):
        with pytest.raises(BudgetExceeded):
            mu_T(thin_bump, T)


@settings(max_examples=60, deadline=None)
@given(c=st.integers(1, 10 ** 9), d=st.integers(-10 ** 9, 10 ** 9))
def test_mod_inverse_matches_pow(c, d):
    d = d if math.gcd(c, abs(d)) == 1 else 1
    cs = np.array([c, 1, 7, c], dtype=np.int64)
    ds = np.array([d, d, 3, 1], dtype=np.int64)
    want = [pow(x % m, -1, m) if m > 1 else 0
            for m, x in zip(cs.tolist(), ds.tolist())]
    assert groups._mod_inverse(ds, cs).tolist() == want


@pytest.mark.parametrize("T", [10.0, 30.0, 100.0, 300.0])
def test_strip_rows_match_the_gcd_loop(lattice_bump, T):
    # mu_T_strip sums its panels in row order, so the rows and their order
    # fix its last bits
    x_lo, x_hi, y_lo, y_hi = lattice_bump.support
    reach = math.sqrt(T * y_hi)
    xm = max(abs(x_lo), abs(x_hi))
    want = []
    for c in range(1, int(reach / y_lo) + 2):
        span = int(c * xm + reach) + 1
        want.extend((c, d) for d in range(-span, span + 1)
                    if math.gcd(c, abs(d)) == 1)
    c, d = measures._strip_rows(lattice_bump, T)
    assert list(zip(c.tolist(), d.tolist())) == want


def test_mu_T_small_radius_uses_generic(lattice_bump):
    s = mu_T(lattice_bump, 4.0)
    assert s.route == "generic"
    assert s.n_nodes > 0 and s.tol_met


def test_mu_T_stable_under_tolerance(lattice_bump):
    loose = mu_T(lattice_bump, 30.0, tol=1e-6).value
    tight = mu_T(lattice_bump, 30.0, tol=1e-10).value
    assert abs(loose - tight) < 1e-6


def test_mu_T_at_tol_1e5_runs_the_34_point_pass(lattice_bump):
    # at tol 1e-5 the ladder used to stop at the 22-point pass, 2.0e-8
    # from the tol-1e-9 value; it now goes on to 34 points, 8.2e-10 off
    loose = mu_T(lattice_bump, 30.0, tol=1e-5)
    tight = mu_T(lattice_bump, 30.0, tol=1e-9)
    assert loose.tol_met and tight.tol_met
    assert abs(loose.value - tight.value) < 5e-9


# lattice mu_T at tol 1e-7 on the (14, 22, 34, 60, 100) ladder: value,
# est_error and n_nodes; every one settled at 34
LADDER_14 = [(300.0, 0.4669351442930376, 2.80754525183724e-09, 89460),
             (1000.0, 0.5346333977587947, 1.6478671760467023e-09, 349230),
             (-500.0, 0.4916653069084711, 8.284654351431442e-09, 161840)]


@pytest.mark.parametrize("T, value, err, nodes", LADDER_14)
def test_mu_T_ladder_starts_at_22(lattice_bump, T, value, err, nodes):
    # the 14-point pass misses by 1e-5 at every T, so dropping it keeps the
    # value and the estimate and spends 22 + 34 of every 70 nodes a spike
    # took
    s = mu_T(lattice_bump, T, tol=1e-7)
    assert s.route == "unfolded" and s.tol_met
    assert s.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert s.est_error == pytest.approx(err, rel=0.0, abs=1e-14)
    assert s.n_nodes * 5 == nodes * 4


@pytest.mark.parametrize("T, tol", [
    (float("nan"), 1e-7), (float("inf"), 1e-7), (-float("inf"), 1e-7),
    (300.0, 0.0), (300.0, -1.0), (300.0, float("nan")),
    (300.0, float("inf")), (4.0, 0.0)])
def test_mu_T_rejects_non_finite_T_and_bad_tol(lattice_bump, T, tol):
    # nan and inf used to fail deep in the spike construction, and a tol
    # of 0 ran every rung to return tol_met=False
    with pytest.raises(ValueError, match="mu_T needs"):
        mu_T(lattice_bump, T, tol)


@pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan, 0.0, -3.0])
def test_mu_T_strip_rejects_non_finite_or_non_positive_T(lattice_bump, T):
    # inf used to raise OverflowError from the strip rows (lattice bump)
    # and numpy's "Geometric sequence cannot include zero" (strip bump)
    for psi in (lattice_bump, make_strip_bump()):
        with pytest.raises(ValueError, match="strip measure needs"):
            mu_T_strip(psi, T)


def test_mu_T_strip_routes_agree(lattice_bump):
    # without profiles the strip measure takes the literal 2-d quadrature
    auto = mu_T_strip(lattice_bump, 20.0)
    direct = mu_T_strip(dataclasses.replace(lattice_bump, profiles=None), 20.0)
    assert auto == pytest.approx(direct, abs=1e-6)


@pytest.mark.parametrize("T", [20.0, 40.0])
def test_direct_strip_refines_its_x_grid(lattice_bump, thin_bump, T):
    # near y = 1/T the translates are features a fixed 1024-point x grid
    # misses: that grid was 8.1e-8 (lattice) and 1.1e-6 (thin) off at T = 20
    for psi in (lattice_bump, thin_bump):
        direct = mu_T_strip(dataclasses.replace(psi, profiles=None), T)
        assert direct == pytest.approx(mu_T_strip(psi, T), rel=0.0, abs=1e-8)


def test_direct_strip_raises_when_its_x_grids_never_agree(lattice_bump,
                                                          monkeypatch):
    def unconverged(run, sizes, **tol):
        value, err, _ = refine(run, sizes[:2], **tol)
        return value, err, False

    monkeypatch.setattr(measures, "refine", unconverged)
    with pytest.raises(InsufficientConvergenceError, match="x grids"):
        mu_T_strip(dataclasses.replace(lattice_bump, profiles=None), 20.0)


@pytest.fixture(scope="module", params=[3, 5])
def width_bump(request):
    # every route reads its rows and period from the spec, so the thin box
    # pairs at widths no built-in group has
    w = request.param
    return measures._reduced_bump(THIN_BOX, f"w{w}_bump",
                                  GroupSpec(f"w{w}", w))


@pytest.mark.parametrize("T", [8.5, 20.0, -35.0, 60.0])
def test_unfolded_mu_T_at_new_widths(width_bump, T):
    got = mu_T(width_bump, T, tol=1e-9)
    want = measures._mu_T_generic(width_bump, T, 1e-9)
    assert got.route == "unfolded" and got.tol_met and want.tol_met
    assert got.value == pytest.approx(want.value, rel=0.0, abs=1e-10)


@pytest.mark.parametrize("T", [10.0, 40.0])
def test_strip_routes_agree_at_new_widths(width_bump, T):
    direct = mu_T_strip(dataclasses.replace(width_bump, profiles=None), T)
    assert mu_T_strip(width_bump, T) == pytest.approx(direct, rel=0.0,
                                                      abs=1e-8)


# fixed-grid strip values from perfbench/refs.json ("lattice_strip" and
# "thin_strip"), built by perfbench/make_refs.py
STRIP_REFS = [("lattice", 30.0, 0.3295158816447735),
              ("lattice", 100.0, 0.40131493981090044),
              ("thin", 100.0, 0.050491739397058324)]


@pytest.mark.parametrize("mode, T, ref", STRIP_REFS)
def test_mu_T_strip_meets_the_fixed_grid_values(lattice_bump, thin_bump,
                                                mode, T, ref):
    # grid doubling over the whole box missed these by 6.0e-7, 1.2e-6
    # and 7.1e-8
    psi = lattice_bump if mode == "lattice" else thin_bump
    assert mu_T_strip(psi, T, 1e-8) == pytest.approx(ref, rel=0.0, abs=1e-9)


def test_mu_T_strip_stays_small_in_memory():
    # every panel's nodes in one batch traced tens of MB
    psi = measures.make_lattice_bump()
    mu_T_strip(psi, 300.0, 1e-8)
    tracemalloc.start()
    try:
        mu_T_strip(psi, 300.0, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_mu_T_strip_raises_when_refinement_does_not_converge(
        lattice_bump, monkeypatch):
    def unconverged(run, sizes, **tol):
        value, err, _ = refine(run, sizes, **tol)
        return value, err, False

    monkeypatch.setattr(measures, "refine", unconverged)
    with pytest.raises(InsufficientConvergenceError, match="strip measure"):
        mu_T_strip(lattice_bump, 30.0, 1e-8)


def test_direct_strip_raises_when_its_pass_does_not_converge(
        lattice_bump, monkeypatch):
    def unconverged(*args, **kwargs):
        return dataclasses.replace(adaptive(*args, **kwargs), converged=False)

    monkeypatch.setattr(measures, "adaptive", unconverged)
    with pytest.raises(InsufficientConvergenceError, match="direct strip"):
        mu_T_strip(dataclasses.replace(lattice_bump, profiles=None), 20.0)


def test_mu_T_strip_rejects_tolerances_below_its_floor(lattice_bump):
    for tol in (1e-13, 0.0, float("nan")):
        with pytest.raises(ValueError, match="1e-12 floor"):
            mu_T_strip(lattice_bump, 20.0, tol)


def test_haar_mean_raises_when_its_domain_pass_does_not_converge(
        delta_psi, monkeypatch):
    def unconverged(*args, **kwargs):
        return dataclasses.replace(adaptive(*args, **kwargs), converged=False)

    monkeypatch.setattr(quadrature, "adaptive", unconverged)
    with pytest.raises(InsufficientConvergenceError, match="haar mean"):
        haar_mean(delta_psi)


def test_mu_T_strip_on_strip_function():
    # the box is one period wide at most, so the measure factors into
    # (1/omega) int px dx * int py(y)/y dy over y > max(y_lo, 1/T)
    strip = make_strip_bump()
    x_lo, x_hi, y_lo, y_hi = strip.support
    px, py = strip.profiles
    xg, wg = gl_nodes(400)
    ix = 0.5 * (x_hi - x_lo) * float(wg @ px(x_lo + 0.5 * (x_hi - x_lo)
                                             * (1.0 + xg)))
    for T in (15.0, 0.6):
        lo = max(y_lo, 1.0 / T)
        y = lo + 0.5 * (y_hi - lo) * (1.0 + xg)
        iy = 0.5 * (y_hi - lo) * float(wg @ (py(y) / y))
        assert mu_T_strip(strip, T) == pytest.approx(ix * iy / strip.omega,
                                                     rel=0.0, abs=1e-9)


# -- horocycle and Fourier data ----------------------------------------------


def test_fourier_zero_mode_is_horocycle_average(lattice_bump):
    for y in (1.5, 1.9):
        a0 = fourier_coefficient(lattice_bump, 0, y)
        assert isinstance(a0, float)
        assert a0 == pytest.approx(
            horocycle_average(lattice_bump, y, (0.0, 1.0)), abs=1e-9)


@pytest.mark.parametrize("call, what", [
    (lambda psi: fourier_coefficient(psi, 1, 1.6), "fourier coefficient"),
    (lambda psi: horocycle_average(psi, 1.6, (0.0, 1.0)), "horocycle average"),
])
def test_horocycle_data_raise_when_refinement_does_not_converge(
        lattice_bump, monkeypatch, call, what):
    def unconverged(run, sizes, **tol):
        value, err, _ = refine(run, sizes, **tol)
        return value, err, False

    monkeypatch.setattr(measures, "refine", unconverged)
    with pytest.raises(InsufficientConvergenceError, match=what):
        call(lattice_bump)


def test_fourier_against_dense_fft(lattice_bump):
    y = 1.6
    n = 1 << 14
    xs = (np.arange(n) + 0.5) / n
    vals = lattice_bump.batch(xs, np.full(n, y))
    spec = np.fft.fft(vals * np.exp(-2j * np.pi * xs * 0)) / n  # dc term
    ref1 = np.mean(vals * np.exp(-2j * np.pi * xs))
    assert fourier_coefficient(lattice_bump, 0, y) == pytest.approx(
        float(spec[0].real), abs=1e-10)
    got1 = fourier_coefficient(lattice_bump, 1, y)
    assert isinstance(got1, complex)
    assert abs(got1 - ref1) < 1e-10


def test_fourier_modes_decay(lattice_bump):
    y = 1.6
    mags = [abs(fourier_coefficient(lattice_bump, m, y)) for m in (1, 3, 6)]
    assert mags[2] < mags[1] < mags[0]
    # smooth bump: roughly exp(-c sqrt(m)), so the drop is real but slow
    assert mags[2] < 0.1 * mags[0]


def test_horocycle_average_periodic(lattice_bump):
    a = horocycle_average(lattice_bump, 1.5, (0.0, 1.0))
    b = horocycle_average(lattice_bump, 1.5, (3.0, 4.0))
    assert a == pytest.approx(b, abs=1e-9)
    with pytest.raises(ValueError):
        horocycle_average(lattice_bump, 1.5, (1.0, 1.0))


# -- Haar mean ---------------------------------------------------------------


def test_haar_mean_against_direct_quadrature(lattice_bump):
    # support sits inside the standard domain, so the folded sum equals
    # the single translate there and a plain 2-d quadrature is an
    # independent check of the product-profile route
    x_lo, x_hi, y_lo, y_hi = lattice_bump.support
    res = integrate.cubature(
        lambda p: lattice_bump.batch(p[:, 0], p[:, 1]) / p[:, 1] ** 2,
        [x_lo, y_lo], [x_hi, y_hi], atol=1e-12, rtol=1e-11)
    val, err = res.estimate, res.error
    assert err < 1e-9
    assert haar_mean(lattice_bump) == pytest.approx(3.0 / math.pi * val,
                                                    abs=1e-9)


def test_haar_mean_default_box_value(lattice_bump):
    assert haar_mean(lattice_bump) == pytest.approx(0.059321, abs=5e-6)


def test_haar_mean_rejects_thin(thin_bump):
    with pytest.raises(ValueError):
        haar_mean(thin_bump)


# -- regression --------------------------------------------------------------


def test_regression_guards(lattice_bump):
    with pytest.raises(ValueError):
        equidistribution_regression(lattice_bump, (10.0, 30.0))
    with pytest.raises(ValueError):
        equidistribution_regression(lattice_bump, (10.0, 20.0, 30.0))


def test_regression_slope_tracks_haar_mean(lattice_bump):
    res = equidistribution_regression(lattice_bump, (10.0, 30.0, 100.0, 400.0))
    target = haar_mean(lattice_bump)
    assert res.slope == pytest.approx(target, rel=0.10)
    assert res.decay_exponent > 0.1
    assert len(res.values) == 4 == len(res.residuals)
