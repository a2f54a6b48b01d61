"""The invariant suites of `shearlab selftest`: each draws from the run's
numpy Generator and raises AssertionError where an invariant fails.  Only
the CLI's selftest runner imports them.  The algebra suite runs
`algebra_sweep`, which acceptance check [01] runs at 10^4 draws."""

import math
import time

import numpy as np

# all loaded before the first suite runs: peak RSS 40.4 MB, not 41.8
from .algebra import (INT_S, INT_T, FormVector, IntGroupElement, UTBPoint,
                      iwasawa_decompose, iwasawa_recompose, spin_cover)
from .counting import OrbitQuery, count_orbit
from .eisenstein import (EisensteinEvaluator, _em_threshold, _row_sums,
                         eisenstein_sample, regularized_E1)
from .groups import PSL2Z
from .modforms import delta_qexp, petersson_norm, sym2_L
from .specfun import zeta

GENS = (INT_T, INT_T.inverse(), INT_S, INT_S.inverse())


def random_word(rng, max_len=10):
    """A product of 1 to max_len generators drawn from GENS."""
    g = IntGroupElement.identity()
    for i in rng.integers(0, 4, size=int(rng.integers(1, max_len + 1))):
        g = g * GENS[i]
    return g


def algebra_sweep(rng, n):
    """(worst_iwasawa, worst_disc, worst_law) over n draws of a word g, an
    integer form v with entries in [-3, 3] and a word h: the entry error
    of g's Iwasawa round trip, the discriminant's drift under v -> v g,
    and the entry error of the right-action law v (g h) = (v g) h."""
    worst_iw = worst_disc = worst_law = 0.0
    for _ in range(n):
        g = random_word(rng)
        gr = g.to_real()
        back = iwasawa_recompose(iwasawa_decompose(gr))
        worst_iw = max(worst_iw, *(abs(a - b) for a, b in zip(back, gr)))
        v = FormVector(*(float(rng.integers(-3, 4)) for _ in range(3)))
        worst_disc = max(worst_disc, abs(spin_cover(g, v).disc() - v.disc()))
        h = random_word(rng)
        lhs, rhs = spin_cover(g * h, v), spin_cover(h, spin_cover(g, v))
        worst_law = max(worst_law, *(abs(a - b) for a, b in zip(lhs, rhs)))
    return worst_iw, worst_disc, worst_law


def _suite_algebra(rng):
    for what, err, tol in zip(("iwasawa round trip", "discriminant",
                               "right-action law"),
                              algebra_sweep(rng, 500), (1e-12, 1e-9, 1e-9)):
        if err > tol:
            raise AssertionError(f"{what} off by {err:.1e}")


def _suite_counting(_rng):
    res = count_orbit(OrbitQuery(PSL2Z, FormVector(0.0, 1.0, 0.0),
                                 (4.0, 8.0)))
    if not all(res.saturated):
        raise AssertionError("small lattice count did not saturate")
    if res.counts[0] >= res.counts[1] or res.counts[0] < 1:
        raise AssertionError(f"implausible counts {res.counts}")


def _suite_specfun(_rng):
    if abs(zeta(2.0) - math.pi ** 2 / 6.0) > 1e-12:
        raise AssertionError("zeta(2) off")
    if abs(zeta(4.0) - math.pi ** 4 / 90.0) > 1e-12:
        raise AssertionError("zeta(4) off")


def _suite_eisenstein(rng):
    def eps_reg(ev, z, eps):
        return eisenstein_sample(ev, z, 1.0 + eps).value - 3.0 / (math.pi * eps)

    p = UTBPoint(0.0, 1.0)
    a = eisenstein_sample(EisensteinEvaluator(route="fourier"), p, 2.0)
    b = eisenstein_sample(EisensteinEvaluator(route="coset"), p, 2.0)
    if abs(a.value - b.value) > 1e-8:
        raise AssertionError(f"route gap {abs(a.value - b.value):.2e}")
    # the coset route's Euler-Maclaurin rows against their direct sums
    s = 1.7
    n = rng.integers(1, 2049, size=16)
    cx = rng.uniform(-0.5, 0.5, size=16)
    d_lo = -np.floor(0.5 * n)
    a2 = _em_threshold(s) ** 2 * rng.uniform(1.0, 4.0, size=16)
    rows = _row_sums(cx, d_lo, n, a2, s)
    for got, c, d, k, h2 in zip(rows, cx, d_lo, n, a2):
        u = c + np.arange(d, d + k)
        want = math.fsum(((u * u + h2) ** -s).tolist())
        if abs(got - want) > 1e-13 * want:
            raise AssertionError(f"Euler-Maclaurin row of {k} points off "
                                 f"its direct sum by {abs(got / want - 1):.1e}")
    z = UTBPoint(0.3, 1.7)
    ev = EisensteinEvaluator(route="fourier")
    eps = 1e-3
    lim = 2.0 * eps_reg(ev, z, eps) - eps_reg(ev, z, 2.0 * eps)
    if abs(lim - regularized_E1(z)) > 1e-5:
        raise AssertionError("regularized value vs small-eps limit")


def _suite_modforms(_rng):
    f = delta_qexp(1500)
    if f.coeffs[:7] != (1, -24, 252, -1472, 4830, -6048, -16744):
        raise AssertionError("tau table mismatch")
    pet = petersson_norm(f)
    ell = sym2_L(f, 1.0)
    resid = (math.pi / 3.0) * ell.completed / zeta(2.0)
    if abs(pet - resid) > 1e-5 * pet:
        raise AssertionError("residue identity failed across routes")


SELFTEST_SUITES = (
    ("algebra", _suite_algebra),
    ("counting", _suite_counting),
    ("specfun", _suite_specfun),
    ("eisenstein", _suite_eisenstein),
    ("modforms", _suite_modforms),
)


def run_suites(seed) -> dict:
    """Each suite's outcome, "pass" or "fail: <reason>", in run order, with
    one line printed as each suite ends; seed picks the random draws."""
    rng = np.random.default_rng(seed)
    report = {}
    for name, suite in SELFTEST_SUITES:
        t0 = time.perf_counter()
        try:
            suite(rng)
        except Exception as e:
            print(f"FAIL {name} ({time.perf_counter() - t0:.1f}s): {e}")
            report[name] = f"fail: {e}"
        else:
            print(f"PASS {name} ({time.perf_counter() - t0:.1f}s)")
            report[name] = "pass"
    return report
