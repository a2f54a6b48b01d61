import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special as sps

from shearlab.specfun import (EULER_GAMMA, bessel_k, digamma, divisor_sigma,
                              gamma_fn, log_abs_eta_arr, zeta, zeta_prime)
from specfun_oracles import (bessel_k_asymptotic, bessel_k_series,
                             dedekind_eta, dedekind_eta_series, log_abs_eta)

# reference values to 20 digits
ZETA_3 = 1.2020569031595942854
ZETA_HALF = -1.4603545088095868129
ZETA_PRIME_2 = -0.93754825431584375370
GAMMA_QUARTER = 3.6256099082219083119
K0_1 = 0.42102443824070833334
K1_1 = 0.60190723019723457141
ETA_I = 0.76822542232605665900


def test_euler_gamma_value():
    assert abs(EULER_GAMMA - 0.57721566490153286061) < 1e-14


# -- gamma and digamma -------------------------------------------------------


def test_gamma_known_values():
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(gamma_fn(0.25) - GAMMA_QUARTER) < 1e-12
    assert abs(gamma_fn(12.0) - math.factorial(11)) < 1e-6 * math.factorial(11)


@given(st.floats(0.1, 20.0))
def test_gamma_recursion(s):
    assert abs(gamma_fn(s + 1.0) - s * gamma_fn(s)) \
        < 1e-12 * abs(gamma_fn(s + 1.0))


def test_gamma_complex_arguments():
    z = 2.5 + 1.5j
    lhs = complex(gamma_fn(z + 1.0))
    rhs = z * complex(gamma_fn(z))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)
    # conjugate symmetry
    assert abs(complex(gamma_fn(z.conjugate()))
               - complex(gamma_fn(z)).conjugate()) < 1e-12 * abs(lhs)


def test_digamma_known_values():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13
    assert abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0)) < 1e-13
    assert abs(digamma(12.0) - 2.4426616799758120167) < 1e-13


@given(st.floats(0.2, 30.0))
def test_digamma_recursion(s):
    assert abs(digamma(s + 1.0) - digamma(s) - 1.0 / s) < 1e-12


# -- zeta --------------------------------------------------------------------


def test_zeta_known_values():
    assert abs(zeta(2.0) - math.pi ** 2 / 6.0) < 1e-13
    assert abs(zeta(4.0) - math.pi ** 4 / 90.0) < 1e-13
    assert abs(zeta(3.0) - ZETA_3) < 1e-13
    assert abs(zeta(0.5) - ZETA_HALF) < 1e-12


def test_zeta_pole_raises():
    with pytest.raises(ZeroDivisionError):
        zeta(1.0)
    with pytest.raises(ZeroDivisionError):
        zeta_prime(1.0)


def test_zeta_accepts_integer_argument():
    assert abs(zeta(3) - zeta(3.0)) == 0.0


def test_zeta_prime_reference_and_finite_difference():
    assert abs(zeta_prime(2.0) - ZETA_PRIME_2) < 1e-12
    h = 1e-5
    fd = (zeta(2.0 + h) - zeta(2.0 - h)) / (2.0 * h)
    assert abs(zeta_prime(2.0) - fd) < 1e-9


# -- Bessel K ----------------------------------------------------------------


def test_bessel_k_integer_order_references():
    assert abs(bessel_k(0.0, 1.0) - K0_1) < 1e-12
    assert abs(bessel_k(1.0, 1.0) - K1_1) < 1e-12


@given(st.floats(0.05, 30.0))
def test_bessel_k_half_order_closed_form(x):
    exact = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
    assert abs(bessel_k(0.5, x) - exact) < 1e-11 * exact


def test_bessel_k_three_route_agreement():
    # each cross-check route in its own good regime: the ascending series
    # cancels catastrophically for large x, the asymptotic one is blind
    # for small x
    nu = 0.75
    a_small = bessel_k(nu, 2.0)
    b = bessel_k_series(nu, 2.0, terms=80)
    assert abs(a_small - b) < 1e-10 * a_small
    a_large = bessel_k(nu, 12.0)
    c = bessel_k_asymptotic(nu, 12.0)
    assert abs(a_large - c) < 1e-9 * a_large


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.7, 2.3, 2.5, 3.0])
def test_bessel_k_array_matches_scipy_and_the_scalar_call(nu):
    xs = np.geomspace(1e-3, 600.0, 41)
    arr = bessel_k(nu, xs)
    ref = sps.kv(nu, xs)
    assert np.all(np.abs(arr - ref) <= 1e-13 * ref)
    for x, v in zip(xs, arr):
        assert bessel_k(nu, float(x)) == v


def test_bessel_k_array_contract():
    assert isinstance(bessel_k(1.0, 2.0), float)
    vals = bessel_k(-1.5, np.array([[1.0, 800.0], [2.0, 745.5]]))
    assert vals.shape == (2, 2)
    assert vals[0, 1] == vals[1, 1] == 0.0
    assert vals[0, 0] == bessel_k(1.5, 1.0)
    with pytest.raises(ValueError):
        bessel_k(0.5, np.array([1.0, 0.0]))


def test_bessel_k_underflow_and_domain():
    assert bessel_k(0.5, 800.0) == 0.0
    with pytest.raises(ValueError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_k_series(1.0, 2.0)


# -- divisor sums ------------------------------------------------------------


def test_divisor_sigma_exact_small_table():
    assert divisor_sigma(1.0, 12) == 28.0
    assert divisor_sigma(0.0, 12) == 6.0
    assert divisor_sigma(3.0, 4) == 1.0 + 8.0 + 64.0


@given(st.integers(1, 400))
def test_divisor_sigma_negative_exponent_symmetry(n):
    # sigma_{-s}(n) = sigma_s(n) / n^s
    s = 1.7
    lhs = divisor_sigma(-s, n)
    rhs = divisor_sigma(s, n) / n ** s
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


# -- eta ---------------------------------------------------------------------


def test_eta_at_i():
    # Gamma(1/4) / (2 pi^(3/4))
    assert abs(dedekind_eta(1j) - ETA_I) < 1e-12


def test_eta_product_vs_series_routes():
    for z in (0.3 + 0.9j, -0.4 + 0.2j, 0.1 + 3.0j):
        a = dedekind_eta(z)
        b = dedekind_eta_series(z)
        assert abs(a - b) < 1e-12 * abs(a)


def test_eta_translation_and_inversion():
    z = 0.27 + 1.3j
    a = dedekind_eta(z + 1.0)
    b = cmath.exp(1j * math.pi / 12.0) * dedekind_eta(z)
    assert abs(a - b) < 1e-12 * abs(a)
    c = dedekind_eta(-1.0 / z)
    d = cmath.sqrt(-1j * z) * dedekind_eta(z)
    assert abs(c - d) < 1e-12 * abs(c)


def test_log_abs_eta_consistency():
    for x, y in ((0.2, 0.8), (-0.45, 0.03), (0.0, 25.0)):
        direct = math.log(abs(dedekind_eta(complex(x, y))))
        assert abs(log_abs_eta(x, y) - direct) < 1e-12 * (1.0 + abs(direct))


def test_log_abs_eta_arr_matches_scalar():
    xs = np.array([0.1, -0.3, 0.49])
    ys = np.array([0.5, 1.7, 0.9])
    arr = log_abs_eta_arr(xs, ys)
    for i in range(3):
        assert abs(arr[i] - log_abs_eta(xs[i], ys[i])) < 1e-12


def test_log_abs_eta_arr_guards_unreduced_heights():
    with pytest.raises(ValueError):
        log_abs_eta_arr(np.array([0.0]), np.array([0.01]))


def test_log_abs_eta_small_height_stability():
    # near the real line the naive product loses everything; the scalar
    # route must reduce internally and satisfy the inversion identity
    # log|eta(z)| = log|eta(-1/z)| - (1/2) log|z|
    x, y = 0.5, 1e-5
    val = log_abs_eta(x, y)
    assert math.isfinite(val)
    w = -1.0 / complex(x, y)
    expect = log_abs_eta(w.real, w.imag) - 0.5 * math.log(abs(complex(x, y)))
    assert abs(val - expect) < 1e-10 * (1.0 + abs(val))
