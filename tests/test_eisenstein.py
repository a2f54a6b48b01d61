import bisect
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import special as sps

import shearlab.eisenstein
import shearlab.measures
from shearlab.algebra import UTBPoint, compose, mobius_act
from shearlab.eisenstein import (ConvergenceError, EisensteinEvaluator,
                                 PairingError, _em_threshold,
                                 _fourier_constants, _fourier_value, _G_near,
                                 _geometric_limit, _lattice_coset_value,
                                 _regularized_E1_arr, _row_sums,
                                 _sigma_vector, _thin_coset_value,
                                 _thin_partial_heights, _thin_sums,
                                 _zeta_2s, completed_zeta, critical_exponent,
                                 eisenstein_sample, mu_eis, regularized_E1)
from shearlab.groups import (PSL2Z, THIN4, BudgetExceeded, GroupSpec,
                             WordBudget, bottom_rows)
from shearlab.measures import (DEFAULT_BOX, THIN_BOX, _reduced_bump,
                               make_lattice_bump, make_thin_bump)
from shearlab.quadrature import (InsufficientConvergenceError, gl_nodes,
                                 refine)
from shearlab.specfun import bessel_k, divisor_sigma, zeta
from specfun_oracles import em_integral_G
from word_search import enumerate_words

# mpmath, lattice sum with Kloosterman-free Fourier expansion, 30 digits
E_AT_I_S2 = 2.7842015453307912222


def test_dual_routes_hit_reference_value():
    four = eisenstein_sample(EisensteinEvaluator(route="fourier"), 1j, 2.0)
    coset = eisenstein_sample(
        EisensteinEvaluator(route="coset", max_height=2048.0), 1j, 2.0)
    assert four.route == "fourier" and coset.route == "coset"
    assert abs(four.value - E_AT_I_S2) < 1e-10
    assert abs(coset.value - E_AT_I_S2) < 1e-8
    assert abs(four.value - coset.value) < 1e-8


def test_lattice_coset_reaches_reference_at_height_8192():
    coset = eisenstein_sample(
        EisensteinEvaluator(route="coset", max_height=8192.0), 1j, 2.0)
    assert abs(coset.value - E_AT_I_S2) < 1e-12


def point_loop_lattice_value(x, y, s, omega, radius):
    """The lattice coset route as a loop over c that raises every lattice
    point inside |cz + d| <= R to the power -s: the reference for the row
    sums of _lattice_coset_value.  The row sums are accumulated with
    math.fsum; a plain += over the 82,000 rows at y = 0.05, R = 2048
    moves the error estimate by 1.3e-14 of the value."""
    r2 = radius * radius
    total = []
    half = []
    cmax = int(radius / y)
    for c in range(-cmax, cmax + 1):
        w2 = r2 - c * c * y * y
        if w2 <= 0.0:
            continue
        w = math.sqrt(w2)
        dd = np.arange(math.ceil(-c * x - w), math.floor(-c * x + w) + 1.0)
        if c == 0:
            dd = dd[dd != 0.0]
        q = (c * x + dd) ** 2 + c * c * y * y
        t = q ** (-s)
        total.append(float(t.sum()))
        half.append(float(t[q <= 0.5 * r2].sum()))
    z2 = 2.0 * zeta(2.0 * s)

    def with_tail(partial, r):
        tail = (math.pi / y) * r ** (2.0 - 2.0 * s) / (s - 1.0)
        return y ** s * (partial + tail) / z2 / omega

    vr = with_tail(math.fsum(total), radius)
    vh = with_tail(math.fsum(half), radius / math.sqrt(2.0))
    return vr, abs(vr - vh) + 1e-15 * abs(vr)


@pytest.mark.parametrize("s", [1.01, 1.3, 2.0, 5.0, 20.0, 32.0, 40.0, 50.0,
                               80.0])
def test_row_sums_match_direct_sums(s):
    # windows of 0 to 2R points at heights a from the Euler-Maclaurin
    # switch upward, and one ulp below it, where rows go point by point;
    # at large s the rows far above a0 underflow to 0 in both sums (30 a0
    # from s = 64 on, 3 a0 at s = 80)
    rng = np.random.default_rng(int(100 * s))
    a0 = _em_threshold(s)
    radius = 1024
    a = np.repeat([a0, 3.0 * a0, 30.0 * a0, np.nextafter(a0, 0.0)], 12)
    n = np.exp(rng.uniform(0.0, math.log(2 * radius), len(a))).astype(np.int64)
    for k, m in enumerate((0, 1, 2, 3, 2 * radius)):
        n[k::12] = m
    cx = rng.uniform(-1.0, 1.0, len(a))
    d_lo = -np.floor(0.5 * n) + rng.integers(-1, 2, len(a))
    got = _row_sums(cx, d_lo, n, a * a, s)
    for g, c, d, k, h in zip(got, cx, d_lo, n, a):
        u = c + np.arange(d, d + k)
        want = math.fsum(((u * u + h * h) ** -s).tolist())
        if k == 0:
            assert g == 0.0
        else:
            assert abs(g - want) <= 1e-13 * want, (k, h)


# (y, max_height, s values): every (y, max_height) pair with every s where
# the point loop is cheap; at y = 0.05 the loop takes 1-4 s per value
ROW_GRID = [(y, r, (1.01, 1.3, 2.0, 8.0))
            for y in (0.5, 1.0, 3.0) for r in (32.0, 1024.0, 2048.0)] + [
    (0.05, 32.0, (1.01, 1.3, 2.0, 8.0)), (0.05, 1024.0, (1.01,)),
    (0.05, 2048.0, (2.0,))]


@pytest.mark.parametrize("y,radius,ss", ROW_GRID)
def test_lattice_rows_match_the_point_loop(y, radius, ss):
    for s in ss:
        # the loop visits the same (c, d) at x and -x, row c for row -c
        want, want_err = point_loop_lattice_value(0.5, y, s, 1.0, radius)
        for x in (0.5, -0.5):
            got, err = _lattice_coset_value(x, y, s, radius)
            assert abs(got - want) <= 1e-13 * abs(want), (x, s)
            assert abs(err - want_err) <= 1e-14 * abs(want), (x, s)


@pytest.mark.parametrize("s", [1.01, 1.3, 2.0, 8.0, 20.0, 32.0, 40.0, 80.0])
def test_cumulative_G_matches_the_incomplete_beta(s):
    # five endpoints, whose gaps the multiples of 0.1 split, and 100
    # endpoints, against scipy's incomplete beta
    rng = np.random.default_rng(int(100 * s))
    for t in (np.array([0.0, 0.05, 0.9, 2.3, 3.0]),
              rng.uniform(0.0, 3.0, 100)):
        assert np.abs(_G_near(t, s) - em_integral_G(t, s)).max() <= 1e-15
    # 4000 endpoints, as many as a lattice call at R = 1024 and y = 0.25
    # has.  Near v = 1 and s = 1.01 betainc is itself up to 1.3e-15 off,
    # so the points farthest from it, and the ends, are checked at 30
    # digits against v 2F1(1/2, s; 3/2; -v^2)
    t = rng.uniform(0.0, 3.0, 4000)
    got = _G_near(t, s)
    gap = np.abs(got - em_integral_G(t, s))
    assert gap.max() <= 2e-15
    with mpmath.workdps(30):
        for i in {*np.argsort(gap)[-6:], np.argmin(t), np.argmax(t)}:
            v = mpmath.mpf(float(t[i]))
            want = v * mpmath.hyp2f1(0.5, s, 1.5, -v * v)
            assert abs(got[i] - float(want)) <= 2.3e-16, (t[i], s)


def _em_segments(monkeypatch):
    """Record the (u_lo, u_hi, a2) of every Euler-Maclaurin call."""
    calls = []
    orig = shearlab.eisenstein._em_row_sums

    def spy(u_lo, u_hi, a2, s):
        calls.append((u_lo, u_hi, a2))
        return orig(u_lo, u_hi, a2, s)

    monkeypatch.setattr(shearlab.eisenstein, "_em_row_sums", spy)
    return calls


# (y, R, s): at R = 32 every low row lies within |u| <= 3 _em_threshold(s),
# so its tails are empty; from R = 64 the c = 0 row (a = 0) has a tail,
# except at s = 40, whose band |u| <= 107 holds R = 100.  At R = 1024 the
# tall rows up to a = R / sqrt(10) have windows across u = 0 that reach
# past |u| = 3a, whose integral takes G(inf); math.gamma alone overflows
# there from s = 172
TAIL_GRID = [(0.5, 32.0, 2.0), (3.0, 32.0, 1.3), (1.0, 64.0, 2.0),
             (0.3, 100.0, 8.0), (1.0, 200.0, 20.0), (0.7, 300.0, 32.0),
             (1.0, 100.0, 40.0), (1.0, 1024.0, 200.0), (0.5, 1024.0, 200.0),
             (1.0, 1024.0, 1000.0)]


@pytest.mark.parametrize("y,radius,s", TAIL_GRID)
def test_lattice_tails_match_the_point_loop(y, radius, s, monkeypatch):
    calls = _em_segments(monkeypatch)
    want, want_err = point_loop_lattice_value(0.5, y, s, 1.0, radius)
    for x in (0.5, -0.5):
        got, err = _lattice_coset_value(x, y, s, radius)
        assert abs(got - want) <= 1e-13 * abs(want), x
        assert abs(err - want_err) <= 1e-14 * abs(want), x
    thr = _em_threshold(s)
    a2 = np.concatenate([a for _, _, a in calls] or [np.zeros(0)])
    if radius <= 3.0 * thr:
        assert np.all(a2 >= thr * thr)
    else:
        # the c = 0 row's tails, whose tail series holds at a = 0
        assert np.any(a2 == 0.0)


@pytest.mark.parametrize("s", [1.01, 2.0, 20.0, 32.0, 40.0, 80.0])
def test_row_sums_split_windows_at_the_band(s):
    # low rows whose windows lie wholly in one tail, cross one edge of the
    # point-by-point band |u| <= 3 _em_threshold(s), or cross both, one
    # window and two stacked windows per row
    band = 3.0 * _em_threshold(s)
    rng = np.random.default_rng(int(10 * s))
    a2 = np.square(rng.uniform(0.0, _em_threshold(s), 24))
    a2[0] = 0.0
    cx = rng.uniform(-1.0, 1.0, 24)
    d_lo = np.stack([np.floor(rng.uniform(-3.0, 1.5, 24) * band),
                     np.floor(rng.uniform(-1.2, 0.8, 24) * band)])
    n = rng.integers(1, int(4 * band), (2, 24))
    # the c = 0 row stays off u = 0
    d_lo[:, 0] = np.where(d_lo[:, 0] <= 0.0, band + 1.0, d_lo[:, 0])
    both = _row_sums(cx, d_lo, n, a2, s)
    for k in range(2):
        one = _row_sums(cx, d_lo[k], n[k], a2, s)
        assert np.allclose(one, both[k], rtol=1e-14, atol=0.0)
        for g, c, d, m, h2 in zip(one, cx, d_lo[k], n[k], a2):
            u = c + np.arange(d, d + m)
            want = math.fsum(((u * u + h2) ** -s).tolist())
            assert abs(g - want) <= 1e-13 * want, (d, m, h2)


@pytest.mark.parametrize("s", [1.01, 2.0, 20.0, 32.0, 40.0, 64.0, 80.0])
def test_row_sums_far_windows_near_three_heights(s):
    # windows wholly past |u| = 3a on either side, starting within one
    # step of it, where the tail integral's series converges slowest:
    # rows just under the Euler-Maclaurin threshold start at the band edge,
    # rows at and above it at 3a.  At s = 80 every such term underflows to
    # 0 in both sums; s = 64 is the largest s checked here where it does not
    thr = _em_threshold(s)
    a = np.repeat([np.nextafter(thr, 0.0), thr, 1.02 * thr, 1.1 * thr], 10)
    start = np.where(a < thr, 3.0 * thr, 3.0 * a)
    n = np.tile([1, 2, 5, 50, 2048], 8)
    side = np.tile(np.repeat([1.0, -1.0], 5), 4)
    cx = np.random.default_rng(int(10 * s)).uniform(-1.0, 1.0, len(a))
    # right: u_lo in (start, start + 1]; left: u_hi in [-start - 1, -start)
    d_lo = np.where(side > 0.0, np.floor(start - cx) + 1.0,
                    np.ceil(-start - cx) - n)
    got = _row_sums(cx, d_lo, n, a * a, s)
    for g, c, d, k, h in zip(got, cx, d_lo, n, a):
        u = c + np.arange(d, d + k)
        assert np.all(np.abs(u) > (3.0 * thr if h < thr else 3.0 * h))
        want = math.fsum(((u * u + h * h) ** -s).tolist())
        assert abs(g - want) <= 1e-13 * want, (d, k, h)
        assert want > 0.0 or s == 80.0


def test_auto_route_picks_by_group():
    lat = eisenstein_sample(EisensteinEvaluator(), 1j, 2.0)
    thin = eisenstein_sample(EisensteinEvaluator(spec=THIN4), 1j, 1.0)
    assert lat.route == "fourier"
    assert thin.route == "coset"


def test_theta_value_is_the_half_sum_over_odd_coprime_rows():
    # the theta group <T^2, S> is a lattice, but psl2z's closed forms are
    # not its series: auto takes the row route, and the Fourier route
    # refuses.  The reference sums y^s / |cz + d|^2s over the psl2z rows
    # (c, d) with c + d odd, halved for the width 2, plus the area integral
    # of the tail past the cut (coprime pairs with c + d odd have density
    # 4 / pi^2); it does not touch the syllable tree
    theta = GroupSpec("theta", 2)
    h = 1024.0
    rows = bottom_rows(PSL2Z, h)
    rows = rows[(rows[:, 2] + rows[:, 3]) % 2 == 1]
    c, d = rows[:, 2].astype(float), rows[:, 3].astype(float)
    got = {}
    for z, s in ((1j, 2.0), (-0.41 + 0.8j, 2.5)):
        x, y = z.real, z.imag
        terms = ((c * x + d) ** 2 + (c * y) ** 2) ** -s
        tail = (2.0 / math.pi ** 2) * (math.pi / y) * h ** (2 - 2 * s) / (s - 1)
        want = 0.5 * y ** s * (math.fsum(terms.tolist()) + tail)
        got[z] = eisenstein_sample(EisensteinEvaluator(spec=theta,
                                                       max_height=h), z, s)
        assert got[z].route == "coset"
        assert abs(got[z].value - want) < max(got[z].est_error, 1e-9)
    # not half of psl2z's value, which the Fourier route would give
    assert got[1j].value == pytest.approx(1.11368, abs=1e-5)
    assert abs(got[1j].value - 0.5 * E_AT_I_S2) > 0.25
    with pytest.raises(ConvergenceError, match="psl2z"):
        eisenstein_sample(EisensteinEvaluator(spec=theta, route="fourier"),
                          1j, 2.0)


def test_constant_term_dominates_at_large_y():
    # all oscillating modes are Bessel-suppressed by e^(-2 pi y)
    y, s = 30.0, 2.0
    phi = completed_zeta(2.0 * s - 1.0) / completed_zeta(2.0 * s)
    want = y ** s + phi * y ** (1.0 - s)
    e = EisensteinEvaluator(route="fourier")
    got = e.value(complex(0.37, y), s)
    assert got == pytest.approx(want, rel=1e-13)


def test_lattice_automorphy():
    e = EisensteinEvaluator(route="fourier")
    gens = PSL2Z.gen_set()
    g = compose(gens[0], gens[1])
    for z in (0.31 + 1.2j, -0.05 + 0.77j):
        p = UTBPoint(z.real, z.imag, 0.0)
        q = mobius_act(g, p)
        assert e.value(q, 1.7) == pytest.approx(e.value(p, 1.7), abs=1e-8)


def test_thin_automorphy_within_reported_error():
    # the coset route's truncation floor dominates here: the partial-sum
    # doubling puts the value near 1e-4 of itself, and moving the point
    # by a generator redistributes mass across the cut
    e = EisensteinEvaluator(spec=THIN4, max_height=1024.0)
    g = THIN4.gen_set()[0]
    p = UTBPoint(0.21, 1.3, 0.0)
    a = eisenstein_sample(e, p, 1.0)
    b = eisenstein_sample(e, mobius_act(g, p), 1.0)
    assert a.est_error > 0.0
    assert abs(a.value - b.value) < 5e-4
    assert abs(a.value - b.value) < 10.0 * (a.est_error + b.est_error + 1e-9)


def test_thin_truncations_agree_at_reported_scale():
    e_lo = EisensteinEvaluator(spec=THIN4, max_height=512.0)
    e_hi = EisensteinEvaluator(spec=THIN4, max_height=1024.0)
    z = 0.3 + 1.1j
    a = eisenstein_sample(e_lo, z, 1.0)
    b = eisenstein_sample(e_hi, z, 1.0)
    assert abs(a.value - b.value) < 1e-3
    assert abs(a.value - b.value) < 10.0 * (a.est_error + b.est_error)


def test_thin_partial_sums_cut_at_max_height():
    # the four cuts are top / 8, / 4, / 2 and top = max(max_height, 128):
    # the default keeps its power-of-two cuts, 2800 sums the rows that
    # 2048 leaves out, 3000 stays below the row-height cap, and every
    # height the evaluator admits up to 128 gives the value at 128
    assert _thin_partial_heights(1024.0) == (128.0, 256.0, 512.0, 1024.0)
    assert _thin_partial_heights(2800.0) == (350.0, 700.0, 1400.0, 2800.0)
    assert _thin_partial_heights(32.0) == _thin_partial_heights(128.0)
    assert {eisenstein_sample(EisensteinEvaluator(spec=THIN4, max_height=h),
                              0.1 + 1.2j, 2.0).value
            for h in (32.0, 64.0, 128.0)} == {0.5352038455771742}

    def at(height):
        e = EisensteinEvaluator(spec=THIN4, max_height=height)
        return eisenstein_sample(e, 1j, 1.0)

    v2048, v2800, v3000 = at(2048.0), at(2800.0), at(3000.0)
    assert v2800.value != v2048.value
    for v in (v2800, v3000):
        assert abs(v.value - v2048.value) < 10.0 * (v.est_error
                                                    + v2048.est_error)


def test_thin_gate_tracks_critical_exponent():
    delta = critical_exponent(THIN4)
    assert delta == pytest.approx(0.7331, abs=0.02)
    assert critical_exponent(PSL2Z) == 1.0
    e = EisensteinEvaluator(spec=THIN4)
    with pytest.raises(ConvergenceError):
        eisenstein_sample(e, 1j, delta)  # below the +0.1 margin


def word_search_ball_counts(spec, radii):
    """Elements with Frobenius norm <= R, for each R, found by the word
    search gated on the sup norm at 4 * max(radii)."""
    top = max(radii)
    res = enumerate_words(spec, budget=WordBudget(4096, 10 ** 7),
                          expand=lambda g: max(map(abs, g)) <= 4 * top)
    norm2 = sorted(sum(v * v for v in g) for g in res.elements)
    return [bisect.bisect_right(norm2, r * r) for r in radii]


def test_critical_exponent_counts_the_norm_balls():
    radii = (16.0, 32.0, 64.0, 128.0, 256.0)
    counts = word_search_ball_counts(THIN4, radii)
    assert counts == [26, 74, 210, 554, 1530]
    fit = np.polyfit(np.log(radii), np.log(counts), 1)[0] / 2.0
    assert critical_exponent(THIN4) == float(fit) == 0.7331020619649047


def test_thin_value_at_the_cusp_at_zero():
    # the cusp at 0 has normalizer S, a generator, so the series there is
    # E at S z = -1/z; the values are those the conjugated word search gave
    z, s = 0.21 + 1.3j, 1.0
    e = EisensteinEvaluator(spec=THIN4, max_height=1024.0)
    a, b = eisenstein_sample(e, z, s), eisenstein_sample(e, -1 / z, s)
    assert b.value == 0.6394280252369884
    assert eisenstein_sample(e, -1 / 1j, 1.3).value == 0.535922842507202
    # S is in the group, so 0 and infinity are one cusp with one series
    assert abs(a.value - b.value) <= min(a.est_error, b.est_error)


def test_route_guards():
    e = EisensteinEvaluator(route="fourier")
    with pytest.raises(ConvergenceError):
        eisenstein_sample(e, 1j, 1.0)  # pole
    with pytest.raises(ConvergenceError):
        eisenstein_sample(e, 1j, 0.4)
    with pytest.raises(ConvergenceError):
        eisenstein_sample(EisensteinEvaluator(route="coset"), 1j, 1.0)
    with pytest.raises(ValueError):
        EisensteinEvaluator(route="spectral")
    for bad in (8.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="max_height"):
            EisensteinEvaluator(max_height=bad)
    with pytest.raises(ValueError, match="max_mode"):
        EisensteinEvaluator(max_mode=0)
    with pytest.raises(ValueError):
        eisenstein_sample(e, 0.5 - 1.0j, 2.0)


def test_evaluator_takes_only_int_modes_and_cusps():
    # a float mode count failed later in arange or a comparison
    for bad in (2.5, 4000.0, math.nan, math.inf, True, "40"):
        with pytest.raises(ValueError, match="max_mode"):
            EisensteinEvaluator(max_mode=bad)
    assert EisensteinEvaluator(spec=THIN4, max_mode=1).max_mode == 1


def test_mode_cap_failure_is_loud():
    # a resource ceiling, like the row-height cap: the CLI exits 3
    e = EisensteinEvaluator(route="fourier", max_mode=3)
    with pytest.raises(BudgetExceeded, match="mode cap 3"):
        eisenstein_sample(e, 0.3 + 0.05j, 0.9)


def fourier_modes_oracle(x, y, s, cap=4000):
    """The Fourier route mode by mode, with scipy's K_nu: the same stopping
    rule, envelope and error estimate as the one-array route."""
    xi2 = completed_zeta(2.0 * s)
    total = y ** s + completed_zeta(2.0 * s - 1.0) / xi2 * y ** (1.0 - s)
    scale = abs(total) + 1.0
    pref = 4.0 / xi2 * math.sqrt(y)
    quiet = 0
    for n in range(1, cap + 1):
        bes = float(sps.kv(s - 0.5, 2.0 * math.pi * n * y))
        term = pref * n ** (s - 0.5) * divisor_sigma(1.0 - 2.0 * s, n) * bes
        env = abs(term)
        total += term * math.cos(2.0 * math.pi * n * x)
        quiet = quiet + 1 if env < 1e-13 * scale else 0
        if quiet == 2:
            return total, env + 1e-14 * abs(total)
    raise AssertionError("oracle needs more modes")


FOURIER_GRID = [(y, s) for y in (0.05, 0.3, 1.0, 3.0, 30.0)
                for s in (0.6, 0.9, 1.0 + 1e-4, 1.3, 2.0, 3.0)]


@pytest.mark.parametrize("x", [0.0, 0.17, -0.43])
def test_fourier_value_matches_the_mode_by_mode_oracle(x):
    for y, s in FOURIER_GRID:
        val, err = _fourier_value(x, y, s, 4000)
        want, want_err = fourier_modes_oracle(x, y, s)
        assert abs(val - want) <= 1e-13 * abs(want), (y, s)
        assert err == pytest.approx(want_err, rel=1e-10)


def test_fourier_value_makes_one_bessel_call(monkeypatch):
    calls = []

    def counting(nu, x):
        calls.append(np.size(x))
        return bessel_k(nu, x)

    monkeypatch.setattr(shearlab.eisenstein, "bessel_k", counting)
    e = EisensteinEvaluator(route="fourier")
    for y, s in FOURIER_GRID:
        eisenstein_sample(e, complex(0.17, y), s)
    assert len(calls) == len(FOURIER_GRID)
    assert min(calls) >= 3


def test_fourier_mode_count_grows_past_a_short_first_guess(monkeypatch):
    # inflating the first call's envelopes hides every cut in the first
    # guess, so the route must double its modes and land on the same sum
    calls = []

    def inflated_once(nu, x):
        calls.append(np.size(x))
        return bessel_k(nu, x) * (1e30 if len(calls) == 1 else 1.0)

    want = _fourier_value(0.17, 0.3, 1.3, 4000)
    monkeypatch.setattr(shearlab.eisenstein, "bessel_k", inflated_once)
    assert _fourier_value(0.17, 0.3, 1.3, 4000) == want
    assert calls[1] == 2 * calls[0]


def test_fourier_sigma_vector_is_built_once_per_s_and_top(monkeypatch):
    calls = []

    def counting(s, n):
        calls.append(n)
        return divisor_sigma(s, n)

    _sigma_vector.cache_clear()
    monkeypatch.setattr(shearlab.eisenstein, "divisor_sigma", counting)
    first = _fourier_value(0.17, 1.0, 1.3, 4000)
    built = len(calls)
    assert built > 0
    # another x, same (s, top): no divisor_sigma call, the same bits
    assert _fourier_value(0.17, 1.0, 1.3, 4000) == first
    _fourier_value(-0.43, 1.0, 1.3, 4000)
    assert len(calls) == built
    top = max(calls)
    sigma = _sigma_vector(1.3, top)
    assert not sigma.flags.writeable
    assert sigma.tolist() == [divisor_sigma(1.0 - 2.0 * 1.3, k)
                              for k in range(1, top + 1)]


def test_per_s_constants_give_the_bits_of_a_cold_call():
    # the grid shares its s values, so all but the first point of each s
    # read the cached constants; every value matches a cold one
    pts = [(0.17, 0.3), (-0.4, 1.1), (0.05, 2.7)]
    ss = (0.6, 1.3, 2.0, 3.0)
    cold = {}
    for x, y in pts:
        for s in ss:
            _fourier_constants.cache_clear()
            _zeta_2s.cache_clear()
            cold[x, y, s] = (_fourier_value(x, y, s, 4000),
                             _lattice_coset_value(x, y, s, 1024.0)
                             if s > 1.0 else None)
    for x, y in pts:
        for s in ss:
            assert _fourier_value(x, y, s, 4000) == cold[x, y, s][0]
            if s > 1.0:
                assert _lattice_coset_value(x, y, s,
                                            1024.0) == cold[x, y, s][1]
    for s in ss:
        xi2 = completed_zeta(2.0 * s)
        assert _fourier_constants(s) == (
            completed_zeta(2.0 * s - 1.0) / xi2, 4.0 / xi2)
        assert _zeta_2s(s) == zeta(2.0 * s)


def masked_thin_value(spec, x, y, s, max_height):
    """The thin coset value as it was summed before the rows were sorted
    by norm: the table in (c, d) order, masked by norm at every height."""
    heights = _thin_partial_heights(max_height)
    rows = bottom_rows(spec, heights[-1])
    c = rows[:, 2].astype(float)
    d = rows[:, 3].astype(float)
    n2 = c * c + d * d
    term = ((c * x + d) ** 2 + c * c * y * y) ** (-s)
    partial = [float(term[n2 <= h * h].sum()) for h in heights]
    lim_lo = _geometric_limit(*partial[:3])
    lim_hi = _geometric_limit(*partial[1:])
    val = y ** s * lim_hi / spec.omega
    return val, y ** s * abs(lim_hi - lim_lo) / spec.omega + 1e-15 * abs(val)


def sorted_thin_partials(spec, x, y, s, heights):
    """The partial sums S_h at one point, summed test-side: the rows stably
    sorted by norm, each cut's new rows summed pairwise and added on."""
    rows = bottom_rows(spec, heights[-1])
    n2 = rows[:, 2] * rows[:, 2] + rows[:, 3] * rows[:, 3]
    order = np.argsort(n2, kind="stable")
    c = rows[order, 2].astype(float)
    d = rows[order, 3].astype(float)
    term = np.power(np.square(x * c + d) + np.square(y * c), -s)
    cuts = np.searchsorted(n2[order], np.square(heights), side="right")
    partial, total, start = [], 0.0, 0
    for stop in cuts:
        total += float(term[start:stop].sum())
        partial.append(total)
        start = stop
    return partial, term, cuts


def test_thin_values_keep_the_masked_sums():
    # 200 random (z, s) at both table heights: the value is the one the
    # norm-ordered rows give, bit for bit, and the reordering moves it off
    # the sum masked by norm in table order by rounding alone, well inside
    # its error estimate
    rng = np.random.default_rng(22)
    for k in range(200):
        x, y = rng.uniform(-2.0, 2.0), math.exp(rng.uniform(-1.0, 1.5))
        s = rng.uniform(0.85, 3.0)
        h = (512.0, 1024.0)[k % 2]
        val, err = _thin_coset_value(THIN4, x, y, s, h)
        partial, _, _ = sorted_thin_partials(THIN4, x, y, s,
                                             _thin_partial_heights(h))
        lim_hi = _geometric_limit(*partial[1:])
        assert val == y ** s * lim_hi / THIN4.omega, (x, y, s, h)
        old, _ = masked_thin_value(THIN4, x, y, s, h)
        assert abs(val - old) <= 2e-14 * abs(old), (x, y, s, h)
        assert abs(val - old) <= err, (x, y, s, h)


def test_thin_partial_sums_are_near_exact():
    # every partial sum of the kernel lies within 2e-15 of the exactly
    # rounded sum of the same rows
    rng = np.random.default_rng(5)
    heights = _thin_partial_heights(1024.0)
    for _ in range(40):
        x, y = rng.uniform(-2.0, 2.0), math.exp(rng.uniform(-1.0, 1.5))
        s = rng.uniform(0.85, 3.0)
        got = _thin_sums(THIN4, heights, [x], [y], s)[:, 0]
        _, term, cuts = sorted_thin_partials(THIN4, x, y, s, heights)
        for g, stop in zip(got, cuts):
            exact = math.fsum(term[:stop])
            assert abs(g - exact) <= 2e-15 * exact, (x, y, s, stop)


@pytest.mark.parametrize("spec,box", [(THIN4, THIN_BOX),
                                      (THIN4, (-1.8, 1.8, 1.05, 3.0)),
                                      (GroupSpec("w5", 5), THIN_BOX)])
def test_thin_grid_is_the_point_kernel(spec, box):
    # the pairing grid is y / omega times the point values' partial sums
    # at s = 1, bit for bit, at every node and each of the three top cuts
    tx, ty, grids = shearlab.eisenstein._box_grid(spec, box)
    x_lo, x_hi, y_lo, y_hi = box
    lx, ly = math.log(y_lo), math.log(y_hi)
    xs = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * tx
    ys = np.exp(0.5 * (lx + ly) + 0.5 * (ly - lx) * ty)
    heights = _thin_partial_heights(1024.0)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            at = _thin_sums(spec, heights, [x], [y], 1.0)[1:, 0]
            assert [g[i, j] for g in grids] == [
                v * (y / spec.omega) for v in at], (x, y)


@pytest.mark.parametrize("route", ["fourier", "coset"])
@pytest.mark.parametrize("z,s", [(1j, math.inf), (1j, -math.inf),
                                 (1j, math.nan), (complex(math.nan, 1.0), 2.0),
                                 (complex(math.inf, 1.0), 2.0),
                                 (complex(0.0, math.inf), 2.0)])
def test_non_finite_input_is_rejected(route, z, s):
    for spec in (PSL2Z, THIN4):
        if spec is THIN4 and route == "fourier":
            continue
        e = EisensteinEvaluator(spec=spec, route=route)
        with pytest.raises(ValueError, match="needs finite x, y > 0 and s"):
            eisenstein_sample(e, z, s)


def test_non_positive_height_is_rejected():
    for y in (0.0, -1.0):
        with pytest.raises(ValueError, match="y > 0"):
            eisenstein_sample(EisensteinEvaluator(), UTBPoint(0.1, y), 2.0)


def test_values_out_of_float_range_are_convergence_errors():
    # the completed zetas of the Fourier route overflow from s = 140 or so
    four = EisensteinEvaluator(route="fourier")
    for s in (171.0, 1e6):
        with pytest.raises(ConvergenceError, match="fourier route cannot"):
            eisenstein_sample(four, 1j, s)
    # E(3i, s) ~ 3^s, past the largest float
    for e in (EisensteinEvaluator(route="coset"),
              EisensteinEvaluator(spec=THIN4)):
        with pytest.raises(ConvergenceError, match="coset route cannot"):
            eisenstein_sample(e, 3j, 700.0)


def test_lattice_value_at_very_large_s():
    # at z = i only the identity and S lift i to height 1, so E(i, s)
    # tends to 2, and from s = 200 on every other term is below its ulp
    for s in (200.0, 1000.0, 1e6):
        got = eisenstein_sample(EisensteinEvaluator(route="coset"), 1j, s)
        assert got.value == 2.0, s
        assert got.est_error <= 1e-14, s


# -- the regularized value at s = 1 ------------------------------------------


def test_regularized_value_is_invariant():
    gens = PSL2Z.gen_set()
    g = compose(gens[1], gens[0])
    for z in (0.2 + 1.5j, -0.4 + 0.9j, 0.05 + 3.0j):
        p = UTBPoint(z.real, z.imag, 0.0)
        assert regularized_E1(mobius_act(g, p)) == pytest.approx(
            regularized_E1(p), abs=1e-10)


def test_regularized_value_matches_pole_subtraction():
    # E(z, 1 + eps) = (3/pi)/eps + E~(z) + O(eps); a 2:1 Richardson pair
    # cancels the linear term
    e = EisensteinEvaluator(route="fourier")

    def reg_estimate(z, eps):
        f1 = e.value(z, 1.0 + eps) - 3.0 / (math.pi * eps)
        f2 = e.value(z, 1.0 + 0.5 * eps) - 3.0 / (math.pi * 0.5 * eps)
        return 2.0 * f2 - f1

    for z in (1j, 0.3 + 1.4j):
        assert reg_estimate(z, 1e-3) == pytest.approx(regularized_E1(z),
                                                      abs=1e-5)


def test_pole_residue():
    e = EisensteinEvaluator(route="fourier")
    for eps in (1e-3, 1e-4):
        f1 = eps * e.value(0.1 + 1.3j, 1.0 + eps)
        f2 = 0.5 * eps * e.value(0.1 + 1.3j, 1.0 + 0.5 * eps)
        assert 2.0 * f2 - f1 == pytest.approx(3.0 / math.pi, abs=1e-6)


def test_regularized_value_grows_linearly_up_the_cusp():
    # log|eta(iy)| ~ -pi y / 12 makes the regularized value ~ y + O(log y)
    ys = np.array([10.0, 20.0, 40.0, 80.0])
    vals = np.array([regularized_E1(complex(0.0, y)) for y in ys])
    slope = np.polyfit(ys, vals, 1)[0]
    assert abs(slope - 1.0) < 0.05


# -- pairings ----------------------------------------------------------------


def test_mu_eis_lattice_box(lattice_bump):
    assert mu_eis(lattice_bump, regularized=True) == pytest.approx(
        0.127459, abs=2e-5)


def test_mu_eis_thin_box(thin_bump):
    assert mu_eis(thin_bump, regularized=False) == pytest.approx(
        0.054831, abs=2e-5)


def test_mu_eis_guards(lattice_bump, thin_bump):
    with pytest.raises(PairingError):
        mu_eis(lattice_bump, regularized=False)
    with pytest.raises(PairingError):
        mu_eis(thin_bump, regularized=True)
    theta_bump = _reduced_bump(DEFAULT_BOX, "theta", GroupSpec("theta", 2))
    for regularized in (True, False):
        with pytest.raises(PairingError, match="theta"):
            mu_eis(theta_bump, regularized=regularized)


def test_thin_pairing_needs_a_box(thin_bump):
    # the pairing integrates over support: without one it raised TypeError
    for psi in (thin_bump._replace(support=None),
                thin_bump._replace(profiles=None)):
        with pytest.raises(PairingError, match="on a box"):
            mu_eis(psi, regularized=False)


def direct_lattice_pairing(psi):
    """The lattice box pairing with the regularized series evaluated at
    every Gauss-Legendre node, refined on (64, 96, 144): the reference for
    the Chebyshev-grid route of mu_eis."""
    x_lo, x_hi, y_lo, y_hi = psi.support

    def run(n):
        g, w = gl_nodes(n)
        xs = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * g
        ys = 0.5 * (y_lo + y_hi) + 0.5 * (y_hi - y_lo) * g
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        vals = psi.batch(X.ravel(), Y.ravel()).reshape(X.shape)
        core = vals * _regularized_E1_arr(X, Y) / Y ** 2
        return 0.25 * (x_hi - x_lo) * (y_hi - y_lo) * float(w @ core @ w)

    value, _, converged = refine(run, (64, 96, 144), abs_tol=1e-9,
                                 rel_tol=1e-9)
    assert converged
    return value


@pytest.mark.parametrize("box", [DEFAULT_BOX, (-0.45, 0.45, 1.01, 3.0),
                                 (-0.3, 0.2, 1.05, 6.0)])
def test_lattice_pairing_matches_the_direct_node_sum(box):
    # the regularized value interpolated from a Chebyshev grid of at most
    # 16 x 17 points against its value at every Gauss-Legendre node
    psi = make_lattice_bump(box=box)
    assert mu_eis(psi, regularized=True) == pytest.approx(
        direct_lattice_pairing(psi), rel=1e-12, abs=0.0)


def direct_thin_pairing(psi):
    """The thin box pairing with every row summed at every Gauss-Legendre
    node, 256 rows at a time, cumulatively over the rows sorted by norm:
    the reference for the Chebyshev-grid route of mu_eis."""
    x_lo, x_hi, y_lo, y_hi = psi.support
    heights = _thin_partial_heights(1024.0)
    rows = bottom_rows(psi.spec, heights[-1])
    n2 = (rows[:, 2] * rows[:, 2] + rows[:, 3] * rows[:, 3]).astype(float)
    order = np.argsort(n2, kind="stable")
    rows = rows[order]
    n2 = n2[order]

    def run(n):
        gx, wx = gl_nodes(n)
        xs = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * gx
        ys = 0.5 * (y_lo + y_hi) + 0.5 * (y_hi - y_lo) * gx
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        W = np.outer(wx, wx) * 0.25 * (x_hi - x_lo) * (y_hi - y_lo)
        base = W * psi.batch(X.ravel(), Y.ravel()).reshape(X.shape) / Y
        per_row = np.empty(len(rows))
        for lo in range(0, len(rows), 256):
            blk = rows[lo:lo + 256]
            cc = blk[:, 2].astype(float)[:, None, None]
            dd = blk[:, 3].astype(float)[:, None, None]
            den = (cc * X[None] + dd) ** 2 + (cc * Y[None]) ** 2
            per_row[lo:lo + 256] = np.sum(base[None] / den, axis=(1, 2))
        cum = np.cumsum(per_row)
        idx = np.searchsorted(n2, [h * h for h in heights], side="right") - 1
        partial = [float(cum[i]) if i >= 0 else 0.0 for i in idx]
        return _geometric_limit(*partial[1:])

    value, _, converged = refine(run, (60, 90, 135), abs_tol=1e-8,
                                 rel_tol=1e-8)
    assert converged
    return value / psi.omega


@pytest.mark.parametrize("box", [THIN_BOX, (-1.8, 1.8, 1.05, 3.0),
                                 (-0.1, 0.1, 1.05, 12.0)])
def test_thin_pairing_matches_the_direct_row_sum(box):
    # the wide box needs a 40-node x grid: at 16 nodes the pairing is
    # 8.5e-10 off, so this also checks that the grid grows with the box;
    # the tall one takes 21 nodes in log y, where 16 nodes linear in y
    # would leave it 5e-9 off
    psi = make_thin_bump(box=box)
    assert mu_eis(psi, regularized=False) == pytest.approx(
        direct_thin_pairing(psi), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("omega", [3, 5])
def test_thin_pairing_at_new_widths(omega):
    # the pairing reads its rows and its 1/omega from the spec
    psi = shearlab.measures._reduced_bump(THIN_BOX, f"w{omega}_bump",
                                          GroupSpec(f"w{omega}", omega))
    assert mu_eis(psi, regularized=False) == pytest.approx(
        direct_thin_pairing(psi), rel=1e-12, abs=0.0)


def test_thin_pairing_stays_small_in_memory(thin_bump):
    # summing every row at every node traced a 50 MB peak; the grid cache
    # is cleared so the traced call sums the rows again
    mu_eis(thin_bump, regularized=False)
    shearlab.eisenstein._box_grid.cache_clear()
    tracemalloc.start()
    try:
        mu_eis(thin_bump, regularized=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_warm_thin_pairing_reuses_its_row_sums(thin_bump, monkeypatch):
    shearlab.eisenstein._box_grid.cache_clear()
    cold = mu_eis(thin_bump, regularized=False)

    def resum(*args):
        raise AssertionError("the row sums were summed again")

    monkeypatch.setattr(shearlab.eisenstein, "_thin_sums", resum)
    assert mu_eis(thin_bump, regularized=False) == cold
    _, _, sums = shearlab.eisenstein._box_grid(thin_bump.spec,
                                               thin_bump.support)
    assert not any(s.flags.writeable for s in sums)


def test_warm_lattice_pairing_reuses_its_grid(lattice_bump, monkeypatch):
    # the regularized series is sampled once per box, on its Chebyshev
    # grid; a warm pairing only folds the quadrature weights onto it
    cold = mu_eis(lattice_bump, regularized=True)

    def reevaluate(*args):
        raise AssertionError("the regularized series was evaluated again")

    monkeypatch.setattr(shearlab.eisenstein, "_regularized_E1_arr",
                        reevaluate)
    assert mu_eis(lattice_bump, regularized=True) == cold


def test_domain_pairing_raises_when_unconverged():
    # no box, so the pairing takes the fundamental-domain route; built
    # without registration, which would reject the NaN
    psi = shearlab.measures.TestFunction(
        "nan", PSL2Z, batch=lambda x, y: np.full(np.shape(x), np.nan))
    with pytest.raises(InsufficientConvergenceError, match="did not converge"):
        mu_eis(psi, regularized=True)


@pytest.mark.parametrize("which", ["lattice", "thin"])
def test_box_pairing_raises_when_refinement_does_not_converge(
        which, lattice_bump, thin_bump, monkeypatch):
    def unconverged(run, sizes, **tol):
        value, err, _ = refine(run, sizes, **tol)
        return value, err, False

    monkeypatch.setattr(shearlab.eisenstein, "refine", unconverged)
    psi = lattice_bump if which == "lattice" else thin_bump
    with pytest.raises(InsufficientConvergenceError,
                       match="did not converge: last value"):
        mu_eis(psi, regularized=which == "lattice")
