import json
import math
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaincc

from shearlab.algebra import UTBPoint, compose, mobius_act
from shearlab.groups import (PSL2Z, THIN4, BudgetExceeded, GroupSpec,
                             bottom_rows)
from shearlab import groups, measures, quadrature
from shearlab.measures import (THIN_BOX, RegistrationError, bump_profile,
                               equidistribution_regression,
                               fourier_coefficient, haar_mean,
                               horocycle_average, mu_T, mu_T_strip)
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


def test_bump_profile_takes_scalars_and_maps_nan_to_zero():
    for t in (0.5, np.float64(0.5), np.array(0.5)):
        v = bump_profile(t)
        assert np.shape(v) == () and v == pytest.approx(math.exp(1 - 1 / 0.75))
    v = bump_profile([np.nan, -np.inf, np.inf, 0.0, -0.0])
    assert v.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
    assert bump_profile(np.nan) == 0.0
    # an edge at 0 meets a point at -0.0: the gap is -0.0, still outside
    assert measures._profile(np.array([-0.0, 0.0] * 8), 0.0, 1.0).tolist() \
        == [0.0] * 16
    assert measures._profile(np.array([0.0, -0.0] * 8), -1.0, -0.0).tolist() \
        == [0.0] * 16


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
    want = px(x) * py(y)
    got = measures._box_bump(x.copy(), y.copy(), box, np.empty_like(x))
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


def test_registration_rejects_non_automorphic_at_width_4():
    # the draws index a table of THIN4's own generators and products
    for batch in (
            # invariant under T^4 but not under S
            lambda x, y: np.cos(0.5 * np.pi * x) * y,
            # invariant under S but not under T^4
            lambda x, y: y + y / (x * x + y * y),
            # automorphic where it is defined, NaN high in the cusp
            lambda x, y: np.where(np.asarray(y) > 7.0, np.nan, 1.0)):
        fake = measures.TestFunction("broken", THIN4, batch=batch)
        with pytest.raises(RegistrationError):
            measures._register(fake)


def test_registration_is_two_batch_calls(lattice_bump, thin_bump):
    for tf in (lattice_bump, thin_bump):
        calls = []

        def counted(x, y, batch=tf.batch):
            calls.append(len(x))
            return batch(x, y)

        measures._register(tf._replace(batch=counted))
        assert calls == [1000, 1000]


def test_spec_attachment(lattice_bump, thin_bump):
    # the group is the one field; the width and the report label follow,
    # and a function without a group is refused
    assert (lattice_bump.spec, thin_bump.spec) == (PSL2Z, THIN4)
    assert [(f.omega, f.mode) for f in (lattice_bump, thin_bump)] == [
        (1.0, "lattice"), (4.0, "thin")]
    for spec in (None, "psl2z", 1):
        with pytest.raises(TypeError, match="GroupSpec"):
            measures.TestFunction("no_group", spec, batch=lattice_bump.batch)


# -- shear integrals ---------------------------------------------------------


def test_mu_T_routes_agree(lattice_bump):
    # the spike engine takes over at |T| >= 8; force the generic panel
    # integrator on the same function and compare
    generic_only = lattice_bump._replace(profiles=None)
    for t in (12.0, 35.0, -12.0, -35.0):
        a = mu_T(lattice_bump, t, tol=1e-7)
        b = mu_T(generic_only, t, tol=1e-9)
        assert a.route == "unfolded" and b.route == "generic"
        assert b.tol_met and a.est_error < 1e-6
        assert a.value == pytest.approx(b.value, abs=5e-7)


def test_mu_T_routes_agree_thin(thin_bump):
    generic_only = thin_bump._replace(profiles=None)
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
    # the 19- and 37-node rules differ by 8.4e-8 at T = 300, so tol 1e-9
    # asks for the 73-node pass, 1.1e-12 from the 37-node value
    s = mu_T(lattice_bump, 300.0, tol=1e-9)
    assert s.route == "unfolded" and s.tol_met and s.est_error <= 1e-9
    assert abs(s.value - _ray_reference(lattice_bump, 300.0)) < 1e-9


def test_mu_T_lattice_ladder_runs_every_rung(lattice_bump):
    # the 73-node rule settles 1.1e-12 from the 37-node one at T = 300, so
    # tol 1e-13 runs every level: the 19/37 pass, then 73 and 145 nodes
    # on the 1178 spikes and crossings, and the last two agree to rounding.
    # A tol below that rounding runs the same passes and stops unsettled
    s = mu_T(lattice_bump, 300.0, tol=1e-13)
    assert s.route == "unfolded" and s.tol_met
    assert s.n_nodes == 170810 == (19 + 18 + 36 + 72) * 1178
    assert s.est_error <= 1e-15
    assert abs(s.value - _ray_reference(lattice_bump, 300.0)) < 1e-14
    unsettled = mu_T(lattice_bump, 300.0, tol=1e-17)
    assert not unsettled.tol_met
    assert (unsettled.value, unsettled.n_nodes) == (s.value, s.n_nodes)


@pytest.mark.parametrize("size", [3, 50])
def test_mu_T_does_not_depend_on_the_row_chunks(lattice_bump, thin_bump,
                                               size, monkeypatch):
    # chunks of 3 and 50 rows split the row region inside c and leave
    # chunks without spikes; a row's pieces are joined inside its chunk
    # and the spikes are summed in the same fixed blocks, so every field
    # comes out bitwise equal
    cases = [(lattice_bump, T) for T in (300.0, -500.0, 1000.0)]
    cases.append((thin_bump, 500.0))
    want = [mu_T(psi, T) for psi, T in cases]
    monkeypatch.setattr(groups, "ROW_CHUNK", size)
    for (psi, T), w in zip(cases, want):
        assert mu_T(psi, T) == w


def test_mu_T_of_a_ray_that_misses_every_translate_is_zero():
    # a box 1e-4 high and 0.02 wide inside the thin domain meets neither a
    # spike nor a crossing at these radii
    psi = measures.make_thin_bump(box=(-0.01, 0.01, 1.3, 1.3001))
    for T in (8.0, -8.0, 50.0):
        s = mu_T(psi, T)
        assert (s.value, s.n_nodes, s.tol_met) == (0.0, 0, True)


def _uncovered(psi, T):
    """Points inside every gap, wider than 1e-14 relative, that the spikes
    and the translation intervals leave on the ray's u-range."""
    chunks = [measures._spikes(psi, T, *rows)
              for rows in measures._window_rows(psi, T, psi.support[2])]
    ua, ub = (np.concatenate([s[i] for s in chunks]) for i in (0, 1))
    ta, tb = (np.concatenate([c[i] for c in measures._crossings(psi, T)])
              for i in (0, 1))
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


@pytest.mark.parametrize("T", [1e6, -1e6])
def test_spike_points_match_mpmath(lattice_bump, T):
    # the box point of every first-pass node on the spikes of 20 rows with
    # c = 1 near the box's middle height, against 50 digits.  D's expanded
    # form c^2 (T^2 + 1) u^2 + 2 c d T u + d^2 sums terms of 1e11-1e12 to
    # D of about 1 here and lost up to 1.8e-4 of it; w = u T + d/c loses
    # only the rounding of u T, about 8e-11 of D
    d = -np.sign(T) * (round(abs(T) / 1.7) + np.arange(-10, 10))
    ua, ub, off, dc, c2 = measures._spikes(lattice_bump, T, np.ones(20, int),
                                           d.astype(int), np.zeros(20))
    assert len(ua) == 40 and np.all(c2 == 1.0)
    x = np.concatenate([quadrature.tanh_levels()[j][1] for j in (0, 1)])
    u = 0.5 * (ua + ub)[:, None] + 0.5 * (ub - ua)[:, None] * x
    X, Y, tmp = np.empty((3,) + u.shape)
    measures._spike_point(u, T, off[:, None], dc[:, None], c2[:, None],
                          X, Y, tmp)
    with mpmath.workdps(50):
        for i, j in np.ndindex(u.shape):
            uu = mpmath.mpf(u[i, j])
            w = uu * T + dc[i]
            D = c2[i] * (w * w + uu * uu)
            assert abs(uu / Y[i, j] / D - 1) < 1e-9
            assert abs(Y[i, j] / (uu / D) - 1) < 1e-9
            assert abs(X[i, j] - (off[i] - w / D)) < 1e-9


def _end_values(psi, T, frac):
    """The integrand bump/u at frac of every spike's and crossing's length
    from its start."""
    out = []
    for rows in measures._window_rows(psi, T, psi.support[2]):
        ua, ub, off, dc, c2 = measures._spikes(psi, T, *rows)
        u = ua + frac * (ub - ua)
        X, Y, tmp = np.empty((3, len(u)))
        measures._spike_point(u, T, off, dc, c2, X, Y, tmp)
        out.append(measures._box_bump(X, Y, psi.support, tmp) / u)
    for ua, ub, kk in measures._crossings(psi, T):
        u = ua + frac * (ub - ua)
        out.append(measures._box_bump(u * T - kk, u.copy(), psi.support,
                                      np.empty(len(u))) / u)
    return np.concatenate(out)


def test_spikes_end_where_the_bump_vanishes(lattice_bump, thin_bump):
    # the pieces that a turning point of x cut are joined, so no spike ends
    # inside the box; the split lattice pieces reached 9.3e3 there at
    # T = 1e4.  The tanh rule's convergence rests on this
    for psi, T in ((lattice_bump, 300.0), (lattice_bump, -300.0),
                   (lattice_bump, 1e4), (lattice_bump, -1e4),
                   (thin_bump, 500.0)):
        for frac in (1e-7, 1.0 - 1e-7):
            v = _end_values(psi, T, frac)
            assert len(v) > 50 and v.max() < 1e-30, (psi.name, T, frac)


@settings(max_examples=40, deadline=None)
@given(T=st.floats(8.0, 3000.0) | st.floats(-3000.0, -8.0),
       c=st.integers(1, 400))
def test_window_rows_match_the_gcd_loop(lattice_bump, T, c):
    y_lo = lattice_bump.support[2]
    rows_c, rows_d, rows_ac = (np.concatenate(v) for v in zip(
        *measures._window_rows(lattice_bump, T, y_lo)))
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
    got = zip(*(np.concatenate(v).tolist()
                for v in zip(*measures._window_rows(thin_bump, T, y_lo))))
    assert list(got) == want


def _concat(chunks):
    """The arrays of a stream of row chunks, joined column by column."""
    return tuple(np.concatenate(v) for v in zip(*chunks))


def test_thin_table_is_the_next_power_of_two(thin_bump, monkeypatch):
    # coset_row_chunks masks the table of the least power-of-two height
    # that holds its region: here the row (c, d) = (1, d_hi), of norm^2
    # 1 + d_hi^2
    heights = []

    def recorded(spec, height):
        heights.append(height)
        return bottom_rows(spec, height)

    monkeypatch.setattr(groups, "bottom_rows", recorded)
    for d_hi, top in ((0, 1), (1, 2), (31, 32), (32, 64), (1000, 1024),
                      (2047, 2048)):
        a, c, d = _concat(groups.coset_row_chunks(THIN4, [-d_hi], [d_hi]))
        assert heights.pop() == top
        assert c.tolist() == [1] * len(d) and abs(d).max() <= d_hi
    with pytest.raises(BudgetExceeded, match="past the cap"):
        list(groups.coset_row_chunks(THIN4, [-2048], [2048]))
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
    # fix its last bits.  Row c reaches |d| <= c x_max + sqrt(y T - c^2 y^2)
    # at y = T / 2c^2 clipped to the box, for c up to sqrt(T / y_lo)
    x_lo, x_hi, y_lo, y_hi = lattice_bump.support
    xm = max(abs(x_lo), abs(x_hi))
    want = []
    for c in range(1, math.ceil(math.sqrt(T / y_lo)) + 1):
        y = min(max(T / (2.0 * c * c), y_lo), y_hi)
        span = int(c * xm + math.sqrt(max(y * T - c * c * y * y, 0.0))) + 1
        want.extend((c, d) for d in range(-span, span + 1)
                    if math.gcd(c, abs(d)) == 1)
    _, c, d = _concat(measures._strip_rows(lattice_bump, T))
    assert list(zip(c.tolist(), d.tolist())) == want


def _wide_strip_rows(psi, T):
    """The strip row region before it followed the live rows: c <= sqrt(T
    y_hi) / y_lo + 1 and |d| <= c x_max + sqrt(T y_hi) + 1."""
    x_lo, x_hi, y_lo, y_hi = psi.support
    reach = math.sqrt(T * y_hi)
    cs = np.arange(1, int(reach / y_lo) + 2)
    span = (cs * max(abs(x_lo), abs(x_hi)) + reach).astype(np.int64) + 1
    return groups.coset_row_chunks(psi.spec, -span, span)


@pytest.mark.parametrize("T", [3.0, 20.0, 300.0, 3e3, 3e4])
def test_strip_rows_drop_only_rows_without_panels(lattice_bump, thin_bump,
                                                  T, monkeypatch):
    # every row the wide region adds yields no panel, so the panels, and
    # with them the strip values, keep their bits
    for psi in (lattice_bump, thin_bump):
        narrow = measures._strip_panels(psi, T)
        with monkeypatch.context() as m:
            m.setattr(measures, "_strip_rows", _wide_strip_rows)
            wide = measures._strip_panels(psi, T)
        assert all(np.array_equal(a, b) for a, b in zip(narrow, wide))


def test_thin_strip_rows_reach_past_the_wide_region():
    # the wide region's corner row needs the height-4096 table from T of
    # about 8.3e5 on; the live rows fit the height-2048 one to T = 2e6
    psi = measures.make_thin_bump()
    for T in (8.4e5, 2e6):
        with pytest.raises(BudgetExceeded):
            list(_wide_strip_rows(psi, T))
        _, c, d = _concat(measures._strip_rows(psi, T))
        assert len(c) and np.all(c * c + d * d < 2048 ** 2)


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_mu_T_strip_does_not_depend_on_the_row_chunks(lattice_bump, thin_bump,
                                                     size, monkeypatch):
    # the panels are built chunk by chunk and joined in row order, so they
    # are the same arrays at every chunk size, and so are the values
    cases = [(lattice_bump, 300.0), (lattice_bump, 3e3), (thin_bump, 300.0)]
    want = [mu_T_strip(psi, T) for psi, T in cases]
    monkeypatch.setattr(groups, "ROW_CHUNK", size)
    assert [mu_T_strip(psi, T) for psi, T in cases] == want


def test_huge_radii_raise_before_building_rows(lattice_bump, thin_bump):
    # T = 1e10 asked _window_rows for 57 GiB of row bounds, T = 1e300
    # overflowed int(peak), and the strip at T = 1e13 ran out of memory
    t0 = time.perf_counter()
    for T in (1e10, -1e10, 1e300):
        with pytest.raises(BudgetExceeded, match="row bounds, past the "):
            mu_T(lattice_bump, T)
    for psi, T in ((lattice_bump, 1e13), (thin_bump, 1e13),
                   (lattice_bump, 1e300)):
        with pytest.raises(BudgetExceeded, match="candidate rows, past the"):
            mu_T_strip(psi, T)
    assert time.perf_counter() - t0 < 0.5


def test_row_ceilings_admit_T_1e6(lattice_bump, thin_bump, monkeypatch):
    # both bumps' row regions at T = 1e6 pass either ceiling, and the thin
    # strip's at 2e6; the lattice ray's is refused from T = 1.1e7 and its
    # strip's from 3e6.  The row query is stubbed: only the region counts
    regions = []

    def region(spec, d_lo, d_hi):
        regions.append(len(d_lo))
        return iter(())

    monkeypatch.setattr(measures, "coset_row_chunks", region)
    for psi in (lattice_bump, thin_bump):
        for T in (1e6, -1e6):
            list(measures._window_rows(psi, T, psi.support[2]))
        list(measures._strip_rows(psi, 1e6))
    list(measures._strip_rows(thin_bump, 2e6))
    assert len(regions) == 7 and min(regions) > 500
    with pytest.raises(BudgetExceeded):
        list(measures._window_rows(lattice_bump, 1.1e7, 1.3))
    with pytest.raises(BudgetExceeded):
        measures._strip_rows(lattice_bump, 3e6)
    assert len(regions) == 7


def test_mu_T_small_radius_uses_generic(lattice_bump):
    s = mu_T(lattice_bump, 4.0)
    assert s.route == "generic"
    assert s.n_nodes > 0 and s.tol_met


def test_mu_T_stable_under_tolerance(lattice_bump):
    loose = mu_T(lattice_bump, 30.0, tol=1e-6).value
    tight = mu_T(lattice_bump, 30.0, tol=1e-10).value
    assert abs(loose - tight) < 1e-6


def test_mu_T_at_tol_1e5_runs_the_37_node_pass(lattice_bump):
    # tol 1e-5 stops after the first pass, levels 0 and 1 on the 85 spikes
    # and crossings at T = 30, which lands 1.3e-15 from the 73-node value
    # that tol 1e-12 asks for (the 34-point Gauss-Legendre pass it used to
    # stop on was 8.2e-10 off)
    loose = mu_T(lattice_bump, 30.0, tol=1e-5)
    tight = mu_T(lattice_bump, 30.0, tol=1e-12)
    assert loose.tol_met and tight.tol_met
    assert loose.n_nodes == 37 * 85 and tight.n_nodes == (37 + 36) * 85
    assert abs(loose.value - tight.value) < 1e-13


# lattice mu_T at tol 1e-7, settled on the first pass: value, est_error
# (|I37 - I19|) and n_nodes (37 a spike or crossing)
FIRST_PASS = [(300.0, 0.4669351432338889, 8.395444989206524e-08, 43586),
              (1000.0, 0.5346333966699848, 5.899091304328863e-08, 169719),
              (-500.0, 0.49166530562500643, 9.325253141900802e-08, 78810)]


@pytest.mark.parametrize("T, value, err, nodes", FIRST_PASS,
                         ids=["300", "1000", "-500"])
def test_mu_T_first_pass_runs_levels_0_and_1(lattice_bump, T, value, err,
                                             nodes):
    # the 37-node rule lands within 7e-12 of the ray reference, where the
    # 34-point Gauss-Legendre one that tol 1e-7 stopped on missed by 1e-9
    s = mu_T(lattice_bump, T, tol=1e-7)
    assert s.route == "unfolded" and s.tol_met
    assert s.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert s.est_error == pytest.approx(err, rel=0.0, abs=1e-14)
    assert s.n_nodes == nodes and nodes % 37 == 0
    assert abs(s.value - _ray_reference(lattice_bump, T)) < 1e-11


def test_mu_T_lattice_at_3e5_lands_on_the_converged_value(lattice_bump):
    # with D in its expanded form A u^2 + B u + C, whose terms cancel on
    # the low-c rows, the value landed 1.6e-7 off here with tol_met; the
    # reference is where the 73- and 145-node rules and Gauss-Legendre 100
    # and 160 on the joined spikes land, within 2e-12 of it
    s = mu_T(lattice_bump, 3e5, tol=1e-7)
    assert s.route == "unfolded" and s.tol_met
    assert abs(s.value - 0.875540238177) < 1e-9


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
    # inf used to raise OverflowError from the strip rows (unfolded route)
    # and numpy's "Geometric sequence cannot include zero" (direct route)
    for psi in (lattice_bump, lattice_bump._replace(profiles=None)):
        with pytest.raises(ValueError, match="strip measure needs"):
            mu_T_strip(psi, T)


def test_mu_T_strip_routes_agree(lattice_bump):
    # without profiles the strip measure takes the literal 2-d quadrature
    auto = mu_T_strip(lattice_bump, 20.0)
    direct = mu_T_strip(lattice_bump._replace(profiles=None), 20.0)
    assert auto == pytest.approx(direct, abs=1e-6)


@pytest.mark.parametrize("T", [20.0, 40.0])
def test_direct_strip_refines_its_x_grid(lattice_bump, thin_bump, T):
    # near y = 1/T the translates are features a fixed 1024-point x grid
    # misses: that grid was 8.1e-8 (lattice) and 1.1e-6 (thin) off at T = 20
    for psi in (lattice_bump, thin_bump):
        direct = mu_T_strip(psi._replace(profiles=None), T)
        assert direct == pytest.approx(mu_T_strip(psi, T), rel=0.0, abs=1e-8)


def test_direct_strip_raises_when_its_x_grids_never_agree(lattice_bump,
                                                          monkeypatch):
    def unconverged(run, sizes, **tol):
        value, err, _ = refine(run, sizes[:2], **tol)
        return value, err, False

    monkeypatch.setattr(measures, "refine", unconverged)
    with pytest.raises(InsufficientConvergenceError, match="x grids"):
        mu_T_strip(lattice_bump._replace(profiles=None), 20.0)


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
    direct = mu_T_strip(width_bump._replace(profiles=None), T)
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


def test_mu_T_strip_meets_every_fixed_grid_value(lattice_bump, thin_bump):
    # the 35 lattice and 3 thin references of perfbench/refs.json; the
    # ladder's last rung has 48 x-nodes, whose error, 1.2e-10 at T = 100,
    # sets how close they come
    refs = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "refs.json").read_text())
    for psi, table, n in ((lattice_bump, "lattice_strip", 35),
                          (thin_bump, "thin_strip", 3)):
        assert len(refs[table]) == n
        for T, (ref, _) in refs[table].items():
            assert mu_T_strip(psi, float(T), 1e-8) == pytest.approx(
                ref, rel=0.0, abs=1.5e-10), (table, T)


def _strip_rung_values(psi, T, monkeypatch):
    """The strip sum on every rung of the ladder, whatever the tol."""
    runs = []

    def every_rung(run, sizes, **tol):
        runs.extend(run(n) for n in sizes)
        return runs[-1], 0.0, True

    with monkeypatch.context() as m:
        m.setattr(measures, "refine", every_rung)
        measures._strip_unfolded(psi, T, 1e-8)
    return np.array(runs)


@pytest.mark.parametrize("T", [10.0, 100.0, 1000.0,
                               pytest.param(None, id="no-full-panel")])
def test_strip_full_windows_match_the_window_loop(lattice_bump, thin_bump,
                                                  T, monkeypatch):
    # panels whose window covers the box's x-range take the box's own
    # x-nodes and a fixed px vector; through the window loop instead, the
    # same nodes and weights give every rung within 1e-13 relative.  At
    # T just above y_lo every window is narrower than the box
    panels = measures._strip_panels

    def no_full(psi, T):
        *rest, full = panels(psi, T)
        return (*rest, np.zeros_like(full))

    width3 = measures._reduced_bump(THIN_BOX, "w3_bump", GroupSpec("w3", 3))
    for psi in (lattice_bump, thin_bump, width3):
        t = psi.support[2] + 0.05 if T is None else T
        full = panels(psi, t)[-1]
        assert len(full) and (full.any() if T else not full.any())
        split = _strip_rung_values(psi, t, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(measures, "_strip_panels", no_full)
            loop = _strip_rung_values(psi, t, monkeypatch)
        assert len(split) == len(measures._STRIP_RUNGS)
        np.testing.assert_allclose(split, loop, rtol=1e-13, atol=0.0)


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


def test_mu_T_lattice_stays_small_in_memory(lattice_bump):
    # the spikes are built and summed one row chunk at a time; building
    # every spike at once traced a 56.7 MB peak at T = 3e4
    mu_T(lattice_bump, 3e4)
    tracemalloc.start()
    try:
        mu_T(lattice_bump, 3e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


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
        return adaptive(*args, **kwargs)._replace(converged=False)

    monkeypatch.setattr(measures, "adaptive", unconverged)
    with pytest.raises(InsufficientConvergenceError, match="direct strip"):
        mu_T_strip(lattice_bump._replace(profiles=None), 20.0)


def test_mu_T_strip_rejects_tolerances_below_its_floor(lattice_bump):
    for tol in (1e-13, 0.0, float("nan")):
        with pytest.raises(ValueError, match="1e-12 floor"):
            mu_T_strip(lattice_bump, 20.0, tol)


def test_mu_T_strip_rejects_an_infinite_tol(lattice_bump):
    # tol = inf returned the first rung's value, where mu_T refuses it
    with pytest.raises(ValueError, match="must be finite"):
        mu_T_strip(lattice_bump, 30.0, math.inf)


def test_haar_mean_raises_when_its_domain_pass_does_not_converge(
        delta_psi, monkeypatch):
    def unconverged(*args, **kwargs):
        return adaptive(*args, **kwargs)._replace(converged=False)

    monkeypatch.setattr(quadrature, "adaptive", unconverged)
    with pytest.raises(InsufficientConvergenceError, match="haar mean"):
        haar_mean(delta_psi)


def test_mu_T_strip_when_no_translate_clears_the_cut(lattice_bump):
    # at T = 0.6 the 1/T cut lies inside the box and every row's horoball
    # tops out below it, so only the box itself counts and both routes
    # equal (1/omega) int px dx * int py(y)/y dy over y > 1/T
    x_lo, x_hi, y_lo, y_hi = lattice_bump.support
    px, py = lattice_bump.profiles
    T = 0.6
    assert y_lo < 1.0 / T < y_hi and not len(
        measures._strip_panels(lattice_bump, T)[0])
    xg, wg = gl_nodes(400)
    ix = 0.5 * (x_hi - x_lo) * float(wg @ px(x_lo + 0.5 * (x_hi - x_lo)
                                             * (1.0 + xg)))
    y = 1.0 / T + 0.5 * (y_hi - 1.0 / T) * (1.0 + xg)
    iy = 0.5 * (y_hi - 1.0 / T) * float(wg @ (py(y) / y))
    for psi in (lattice_bump, lattice_bump._replace(profiles=None)):
        assert mu_T_strip(psi, T) == pytest.approx(ix * iy / psi.omega,
                                                   rel=0.0, abs=1e-9)


def delta_strip_parseval(f, T):
    """mu_T_strip of Psi_f for a weight-k cusp form f by Parseval: the x
    mean of |f|^2 y^k at height y is sum a(n)^2 e^(-4 pi n y) y^k, so the
    strip measure is sum a(n)^2 (4 pi n)^-k Gamma(k, 4 pi n / T)."""
    k = f.weight
    x = 4.0 * math.pi * np.arange(1, len(f.coeffs) + 1)
    terms = (np.array(f.coeffs, dtype=float) ** 2 * x ** -float(k)
             * math.gamma(k) * gammaincc(k, x / T))
    return math.fsum(terms.tolist())


@pytest.mark.parametrize("T", [10.0, 300.0])
def test_delta_strip_meets_its_parseval_sum(delta, delta_psi, T):
    # the form observable has no box, so it takes the direct route; the
    # two land within 3.0e-15 relative at T = 10, 30, 100 and 300
    assert mu_T_strip(delta_psi, T) == pytest.approx(
        delta_strip_parseval(delta, T), rel=1e-10, abs=0.0)


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


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize("call, what", [
    (lambda psi, tol: fourier_coefficient(psi, 1, 1.6, tol),
     "fourier coefficient"),
    (lambda psi, tol: horocycle_average(psi, 1.6, (0.0, 1.0), tol),
     "horocycle average"),
])
def test_horocycle_data_refuse_a_bad_tol_before_any_work(
        lattice_bump, monkeypatch, call, what, tol):
    # NaN and -1 ran the whole grid ladder before they failed to converge
    def no_work(*args, **kwargs):
        raise AssertionError("a grid ran")

    monkeypatch.setattr(measures, "refine", no_work)
    with pytest.raises(ValueError, match=f"{what} needs 0 < tol < inf"):
        call(lattice_bump, tol)


@pytest.mark.parametrize("y", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("call, what", [
    (lambda psi, y: fourier_coefficient(psi, 1, y), "fourier coefficient"),
    (lambda psi, y: horocycle_average(psi, y, (0.0, 1.0)),
     "horocycle average"),
])
def test_horocycle_data_refuse_a_bad_height_before_any_work(
        lattice_bump, monkeypatch, call, what, y):
    # these y reached reduce_points, whose ValueError named neither the
    # caller nor y
    def no_work(*args, **kwargs):
        raise AssertionError("a grid ran")

    monkeypatch.setattr(measures, "refine", no_work)
    with pytest.raises(ValueError, match=f"^{what} needs 0 < y < inf, "
                                         f"got {y}$"):
        call(lattice_bump, y)


@pytest.mark.parametrize("m", [0.5, "1", None])
def test_fourier_mode_must_be_an_integer(lattice_bump, m):
    # a non-integer mode is no Fourier coefficient (0.5 gave a value)
    with pytest.raises(ValueError, match="Fourier mode"):
        fourier_coefficient(lattice_bump, m, 1.5)


@pytest.mark.parametrize("edge", [math.inf, math.nan])
def test_box_edges_must_be_finite(edge):
    # y_hi = inf passed the box check and failed registration with
    # "automorphy violated by nan"
    for box in ((-0.2, 0.4, 1.3, edge), (-0.2, edge, 1.3, 1.6),
                (edge, 0.4, 1.3, 1.6)):
        with pytest.raises(ValueError, match="strictly inside"):
            measures.make_lattice_bump(box=box)


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
