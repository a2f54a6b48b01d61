"""Acceptance gate: thirteen end-to-end checks at their stated tolerances.

Each test prints one verdict line (run with -s to watch them stream) and
asserts the same condition, so the gate reads as a checklist:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time

import numpy as np
import pytest
from scipy import special as sps

from shearlab.algebra import FormVector, UTBPoint, mobius_act
from shearlab.counting import (OrbitQuery, coset_disparity, count_orbit,
                               fit_counting_law, identity_coset_factor)
from shearlab.eisenstein import (EisensteinEvaluator, eisenstein_sample,
                                 mu_eis, regularized_E1)
from shearlab.groups import PSL2Z, THIN4
from shearlab.measures import (equidistribution_regression,
                               fourier_coefficient, haar_mean,
                               horocycle_average, make_lattice_bump,
                               make_thin_bump, mu_T, mu_T_strip)
from shearlab.modforms import (kronecker_check, petersson_norm,
                               second_moment_lhs, second_moment_prediction,
                               sym2_L)
from shearlab.selftest import algebra_sweep, random_word
from shearlab.specfun import (EULER_GAMMA, bessel_k, divisor_sigma, gamma_fn,
                              zeta, zeta_prime)
from specfun_oracles import dedekind_eta, dedekind_eta_series, log_abs_eta

X0 = FormVector(0.0, 1.0, 0.0)


def _report(num, name, ok, detail=""):
    print(f"\n[{num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_accept_01_algebra_sweep():
    rng = random.Random(20250214)
    t0 = time.perf_counter()
    # the sweep selftest runs at 500 draws
    worst_iw, worst_disc, worst_law = algebra_sweep(rng, 10_000)
    dt = time.perf_counter() - t0
    ok = worst_iw < 1e-12 and worst_disc < 1e-9 and worst_law < 1e-9 \
        and dt < 10.0
    assert _report(1, "algebra sweep, 10^4 samples", ok,
                   f"iwasawa {worst_iw:.1e}, disc {worst_disc:.1e}, "
                   f"action law {worst_law:.1e}, {dt:.1f}s")


def test_accept_02_counting_exactness():
    # oracle: scan every integer point of the quadric, then filter by an
    # independently hand-coded generator closure
    def act_T(p, q, r):
        return (p, q + 2 * p, p + q + r)

    def act_Tinv(p, q, r):
        return (p, q - 2 * p, p - q + r)

    def act_S(p, q, r):
        return (r, -q, p)

    t0 = time.perf_counter()
    gate = 6 * 12
    seen = {(0, 1, 0)}
    frontier = [(0, 1, 0)]
    while frontier:
        nxt = []
        for v in frontier:
            for act in (act_T, act_Tinv, act_S):
                w = act(*v)
                if w not in seen and max(abs(c) for c in w) <= gate:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt

    def scan(t):
        lim = int(math.ceil(t)) - 1
        pts = set()
        for q in range(-lim, lim + 1):
            rhs = q * q - 1
            for p in range(-lim, lim + 1):
                if p == 0:
                    if rhs == 0:
                        pts.update((p, q, r) for r in range(-lim, lim + 1))
                    continue
                if rhs % (4 * p) == 0 and abs(rhs // (4 * p)) <= lim:
                    pts.add((p, q, rhs // (4 * p)))
        return {v for v in pts if max(abs(c) for c in v) < t}

    res = count_orbit(OrbitQuery(PSL2Z, X0, (4.0, 8.0, 12.0)))
    ok = all(res.saturated)
    detail = []
    for i, t in enumerate(res.t_list):
        sc = scan(t)
        ok = ok and sc <= seen and res.counts[i] == len(sc)
        detail.append(f"T={t:g}: {res.counts[i]}={len(sc)}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    assert _report(2, "counting vs brute-force oracle", ok,
                   ", ".join(detail) + f", {dt:.1f}s")


def test_accept_03_lattice_counting_law():
    t0 = time.perf_counter()
    res = count_orbit(OrbitQuery(PSL2Z, X0, (50.0, 100.0, 200.0, 400.0)))
    fit = fit_counting_law(res, "t_log_t")
    r_lin = fit_counting_law(res, "linear").residual_norm
    r_pow = fit_counting_law(res, "power").residual_norm
    ratio_lin = r_lin / fit.residual_norm
    ratio_pow = r_pow / fit.residual_norm
    dt = time.perf_counter() - t0
    ok = all(res.saturated) and fit.coefficients[0] > 0.0 \
        and fit.rel_residual_top_octave < 0.05 \
        and ratio_lin >= 2.0 and ratio_pow >= 2.0 and dt < 1800.0
    assert _report(3, "lattice growth law T log T", ok,
                   f"C1={fit.coefficients[0]:.3f}, "
                   f"top-octave {fit.rel_residual_top_octave:.2%}, "
                   f"vs linear x{ratio_lin:.1f}, vs power x{ratio_pow:.1f}, "
                   f"{dt:.1f}s")


def test_accept_04_thin_counting_law():
    res = count_orbit(OrbitQuery(THIN4, X0,
                                 (50.0, 100.0, 200.0, 400.0, 800.0)))
    fit = fit_counting_law(res, "linear")
    ratio = fit_counting_law(res, "pure_t_log_t").residual_norm \
        / fit.residual_norm
    ok = all(res.saturated) and fit.rel_residual_top_octave < 0.10 \
        and ratio >= 2.0
    assert _report(4, "thin growth law C*T", ok,
                   f"C={fit.coefficients[0]:.3f}, "
                   f"top-octave {fit.rel_residual_top_octave:.2%}, "
                   f"vs T log T x{ratio:.1f}")


def test_accept_05_coset_non_equidistribution():
    res = count_orbit(OrbitQuery(THIN4, X0, (10.0, 20.0, 40.0), q=3))
    disp = coset_disparity(res)
    ident = identity_coset_factor(res)
    ok = disp > 2.0 and ident > 2.0
    assert _report(5, "congruence coset disparity at q=3", ok,
                   f"disparity {disp:.2f}, identity coset x{ident:.2f}")


def test_accept_06_lattice_regression(lattice_bump):
    grid = (10.0, 30.0, 100.0, 300.0, 1000.0)
    reg = equidistribution_regression(lattice_bump, grid)
    hm = haar_mean(lattice_bump)
    ie = mu_eis(lattice_bump, regularized=True)
    slope_err = abs(reg.slope - hm) / hm
    icpt_err = abs(reg.intercept - ie) / abs(ie)
    ok = slope_err < 0.05 and icpt_err < 0.10 and reg.decay_exponent > 0.0
    assert _report(6, "lattice shear regression", ok,
                   f"slope off Haar {slope_err:.2%}, intercept off "
                   f"pairing {icpt_err:.2%}, decay {reg.decay_exponent:+.3f}")


def test_accept_07_thin_regression(thin_bump):
    grid = (10.0, 30.0, 100.0, 300.0, 1000.0)
    reg = equidistribution_regression(thin_bump, grid)
    ie = mu_eis(thin_bump, regularized=False)
    icpt_err = abs(reg.intercept - ie) / abs(ie)
    ok = abs(reg.slope) < 0.05 * thin_bump.peak and icpt_err < 0.10
    assert _report(7, "thin shear regression", ok,
                   f"|slope| {abs(reg.slope):.2e} vs peak {thin_bump.peak:g}, "
                   f"intercept off pairing {icpt_err:.2%}")


def test_accept_08_strip_comparison(lattice_bump):
    grid = (10.0, 30.0, 100.0, 300.0)
    gaps = [abs(mu_T(lattice_bump, t).value - mu_T_strip(lattice_bump, t))
            for t in grid]
    power = -float(np.polyfit(np.log(grid), np.log(gaps), 1)[0])
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and power > 0.0
    assert _report(8, "strip-capped comparison gap", ok,
                   "gaps " + "/".join(f"{g:.1e}" for g in gaps)
                   + f", power {power:+.2f}")


def test_accept_09_eisenstein_identities():
    e = EisensteinEvaluator(route="fourier")

    def rich(f, eps):
        return 2.0 * f(0.5 * eps) - f(eps)

    z0 = 0.2 + 1.3j
    res = rich(lambda h: h * e.value(z0, 1.0 + h), 1e-4)
    res_err = abs(res - 3.0 / math.pi)

    pts = (1j, 0.3 + 1.4j, -0.25 + 0.8j, 0.05 + 2.2j, -0.4 + 1.1j)
    reg_err = max(
        abs(rich(lambda h: e.value(z, 1.0 + h) - 3.0 / (math.pi * h), 1e-3)
            - regularized_E1(z)) for z in pts)

    four = eisenstein_sample(e, 1j, 2.0).value
    coset = eisenstein_sample(
        EisensteinEvaluator(route="coset", max_height=2048.0), 1j, 2.0).value
    dual_err = abs(four - coset)
    ok = res_err < 1e-3 and reg_err < 1e-5 and dual_err < 1e-8
    assert _report(9, "Eisenstein residue / regularized / dual route", ok,
                   f"residue {res_err:.1e}, regularized {reg_err:.1e}, "
                   f"dual {dual_err:.1e}")


def test_accept_10_eta_pairing_formula(delta):
    t0 = time.perf_counter()
    lhs, rhs, gap = kronecker_check(delta)
    dt = time.perf_counter() - t0
    ok = gap < 1e-4 and dt < 600.0
    assert _report(10, "eta-log pairing limit formula", ok,
                   f"lhs {lhs:.10f}, rhs {rhs:.10f}, gap {gap:.1e}, "
                   f"{dt:.1f}s")


def test_accept_11_second_moment(delta):
    grid = (20.0, 50.0, 100.0, 200.0)
    gaps, rels = [], []
    for t in grid:
        lhs = second_moment_lhs(delta, t)
        pred = second_moment_prediction(delta, t)
        gaps.append(abs(lhs - pred))
        rels.append(abs(lhs - pred) / pred)
    power = -float(np.polyfit(np.log(grid), np.log(gaps), 1)[0])
    # the gap changes sign inside the grid, so the decay is read off the
    # fitted power rather than pointwise ordering
    ok = power > 0.0 and rels[-1] < 0.02
    assert _report(11, "shear second moment vs prediction", ok,
                   "gaps " + "/".join(f"{g:.1e}" for g in gaps)
                   + f", power {power:+.2f}, rel@200 {rels[-1]:.2%}")


def test_accept_12_special_functions(delta):
    rng = np.random.default_rng(5)
    words = random.Random(5)
    g_ref = max(abs(gamma_fn(1.0) - 1.0),
                abs(gamma_fn(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi),
                abs(gamma_fn(12.0) - 39916800.0) / 39916800.0)
    g_rec = max(abs(gamma_fn(s + 1.0) / (s * gamma_fn(s)) - 1.0)
                for s in rng.uniform(0.1, 20.0, size=1000))

    z_ref = abs(zeta(2.0) - math.pi ** 2 / 6.0)
    # subtract the pole at the floating-point argument actually evaluated,
    # not at the nominal offset, or the 1/eps cancellation eats five digits
    sp, sm = 1.0 + 1e-6, 1.0 - 1e-6
    gamma_lim = 0.5 * ((zeta(sp) - 1.0 / (sp - 1.0))
                       + (zeta(sm) - 1.0 / (sm - 1.0)))
    z_lim = abs(gamma_lim - EULER_GAMMA)
    h = 1e-3
    fd = lambda hh: (zeta(2.0 + hh) - zeta(2.0 - hh)) / (2.0 * hh)
    z_d = abs((4.0 * fd(0.5 * h) - fd(h)) / 3.0 - zeta_prime(2.0))

    b_grid = max(
        abs(bessel_k(nu, float(x)) - float(sps.kv(nu, x)))
        / abs(float(sps.kv(nu, x)))
        for nu in (0.0, 0.5, 1.0, 1.7, 2.3, 3.0)
        for x in np.geomspace(1e-3, 100.0, 13))
    b_rec = max(
        abs(bessel_k(nu + 1.0, float(x)) - bessel_k(nu - 1.0, float(x))
            - (2.0 * nu / x) * bessel_k(nu, float(x)))
        / abs(bessel_k(nu + 1.0, float(x)))
        for nu in (0.5, 1.0, 2.0) for x in np.geomspace(0.05, 60.0, 10))

    eta_i = abs(dedekind_eta(1j)
                - gamma_fn(0.25) / (2.0 * math.pi ** 0.75))
    e_two = max(abs(dedekind_eta(z) - dedekind_eta_series(z))
                for z in (complex(rng.uniform(-0.5, 0.5),
                                  rng.uniform(0.3, 3.0))
                          for _ in range(100)))
    e_inv = 0.0
    for _ in range(1000):
        g = random_word(words, max_len=6)
        p = UTBPoint(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 3.0), 0.0)
        q = mobius_act(g, p)
        e_inv = max(e_inv, abs(
            math.log(4.0 * p.y) + 4.0 * log_abs_eta(p.x, p.y)
            - math.log(4.0 * q.y) - 4.0 * log_abs_eta(q.x, q.y)))

    sig_ok = divisor_sigma(0.0, 6) == 4.0 and divisor_sigma(1.0, 6) == 12.0 \
        and divisor_sigma(-1.0, 4) == 1.75

    res_rel = abs(petersson_norm(delta) / (math.pi / 3.0)
                  - sym2_L(delta, 1.0).completed / zeta(2.0)) \
        / (petersson_norm(delta) / (math.pi / 3.0))

    ok = g_ref < 1e-12 and g_rec < 1e-12 and z_ref < 1e-12 \
        and z_lim < 1e-9 and z_d < 1e-10 and b_grid < 1e-10 \
        and b_rec < 1e-8 and eta_i < 1e-10 and e_two < 1e-10 \
        and e_inv < 1e-10 and sig_ok and res_rel < 1e-5
    assert _report(12, "special functions and norm residue", ok,
                   f"gamma {max(g_ref, g_rec):.1e}, "
                   f"zeta {max(z_ref, z_lim, z_d):.1e}, "
                   f"bessel {max(b_grid, b_rec):.1e}, "
                   f"eta {max(eta_i, e_two, e_inv):.1e}, "
                   f"residue {res_rel:.1e}")


def test_accept_13_horocycle_decay():
    psi = make_lattice_bump(box=(-0.4, 0.4, 1.1, 3.0), name="decay_bump")
    ys = (0.1, 0.03, 0.01)
    a1 = [abs(fourier_coefficient(psi, 1, y)) for y in ys]
    a1_slope = float(np.polyfit(np.log(ys), np.log(a1), 1)[0])
    hm = haar_mean(psi)
    gaps = [abs(horocycle_average(psi, y, (0.0, 1.0)) - hm) for y in ys]
    gap_slope = float(np.polyfit(np.log(ys), np.log(gaps), 1)[0])
    thin = make_thin_bump()
    avg = horocycle_average(thin, 1e-3, (0.0, 4.0))
    ok = a1_slope > 0.0 and gap_slope > 0.0 and avg < 0.05 * thin.peak
    assert _report(13, "horocycle and Fourier decay", ok,
                   f"a1 slope {a1_slope:+.2f}, Haar-gap slope "
                   f"{gap_slope:+.2f}, thin average {avg:.1e} vs "
                   f"5% of peak {0.05 * thin.peak:g}")
