"""Independent routes to K_nu, Dedekind eta and the Euler-Maclaurin
integral G: the oracles that shearlab.specfun's trapezoid K_nu, its
log|eta| product sum and the coset route's cumulative G pass are checked
against.  The Bessel routes are the ascending series (small x) and the
asymptotic series (large x); eta comes from its q-product and from the
pentagonal-number series; G from the incomplete beta function."""

import cmath
import math

import numpy as np
from scipy import special as sps

from shearlab.specfun import gamma_fn


def bessel_k_series(nu: float, x: float, terms: int = 60) -> float:
    """Small-x ascending series through I_{+-nu}; cross-check route.

    Requires a non-integer order (the integer case needs a log limit this
    route deliberately does not implement).
    """
    if abs(nu - round(nu)) < 1e-6:
        raise ValueError("series route needs non-integer order")

    def bessel_i(v: float) -> float:
        tot, term = 0.0, (0.5 * x) ** v / gamma_fn(v + 1.0)
        for m in range(terms):
            tot += term
            term *= (0.25 * x * x) / ((m + 1.0) * (v + m + 1.0))
        return tot

    return 0.5 * math.pi * (bessel_i(-nu) - bessel_i(nu)) / math.sin(math.pi * nu)


def bessel_k_asymptotic(nu: float, x: float) -> float:
    """Large-x asymptotic series, truncated at its smallest term."""
    mu = 4.0 * nu * nu
    total, term = 1.0, 1.0
    for k in range(1, 30):
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) > abs(total):
            break
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return math.sqrt(0.5 * math.pi / x) * math.exp(-x) * total


def dedekind_eta(z: complex) -> complex:
    """eta(z) by the q-product, truncated when |q|^n < 1e-18.

    Intended for Im z >= ~0.01; for very low points use log_abs_eta, which
    routes through domain reduction (only |eta| is consumed downstream).
    """
    y = z.imag
    if y <= 0:
        raise ValueError("eta needs Im z > 0")
    q = cmath.exp(2j * cmath.pi * z)
    nmax = max(1, int(math.ceil(18.0 * math.log(10.0) / (2.0 * math.pi * y))))
    val = cmath.exp(2j * cmath.pi * z / 24.0)
    qn = 1.0 + 0j
    for _ in range(nmax):
        qn *= q
        val *= 1.0 - qn
    return val


def dedekind_eta_series(z: complex) -> complex:
    """Pentagonal-number series for eta; independent of the product route."""
    y = z.imag
    if y <= 0:
        raise ValueError("eta needs Im z > 0")
    # generalized pentagonal exponents k(3k-1)/2 for k = 0, +-1, +-2, ...
    total = 0.0 + 0j
    k = 0
    while True:
        added = False
        for kk in ([0] if k == 0 else [k, -k]):
            e = kk * (3 * kk - 1) // 2
            t = cmath.exp(2j * cmath.pi * z * (e + 1.0 / 24.0))
            if abs(t) > 1e-22:
                total += (-1) ** (abs(kk) % 2) * t
                added = True
        if not added and k > 0:
            break
        k += 1
    return total


def em_integral_G(v, s: float):
    """G(v) = int_0^v (1 + t^2)^-s dt = G(inf) I_x(1/2, s - 1/2), with
    x = v^2 / (1 + v^2) and G(inf) = (1/2) B(1/2, s - 1/2), elementwise
    for v >= 0, s > 1/2, from scipy's regularized incomplete beta
    function.  From v = 1 on it takes the complement, G(inf) minus
    G(inf) I_(1 - x)(s - 1/2, 1/2), with 1 - x = 1 / (1 + v^2) exact to
    rounding; G(inf) comes from scipy's gamma, which at s = 1.01 is 4e-16
    closer than its beta."""
    v = np.asarray(v, dtype=float)
    g_inf = 0.5 * math.sqrt(math.pi) * sps.gamma(s - 0.5) / sps.gamma(s)
    w = 1.0 / (1.0 + v * v)
    return np.where(v < 1.0, g_inf * sps.betainc(0.5, s - 0.5, v * v * w),
                    g_inf - g_inf * sps.betainc(s - 0.5, 0.5, w))
