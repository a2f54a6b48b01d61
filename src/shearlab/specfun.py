"""Special functions implemented from first principles on top of numpy.

Gamma and digamma use the Lanczos approximation (g = 7, 9 terms), zeta and
its derivative use Euler-Maclaurin with explicit remainder terms, K-Bessel
puts a fixed trapezoid rule on the cosh-kernel integral for a whole array
of arguments at once, and log|eta| sums the logs of its q-product.

Domains are the ones the rest of the package actually visits: real s > 0
(complex allowed right of the imaginary axis), Bessel orders 0 <= nu <= 3,
arguments 1e-3 <= x <= 600 (smaller/larger degrade gracefully).
"""

import math
import warnings

import numpy as np


# Lanczos (g = 7), published coefficient set; relative error ~1e-15 on the
# real axis right of 0.5.
_LG = 7.0
_LC = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_K_PANELS = 64  # bessel_k's trapezoid panels: within 5e-14 of K_nu


def gamma_fn(s):
    """Gamma(s) for Re s > 0 (reflection applied left of 1/2).

    Accepts float or complex scalars and numpy arrays.
    """
    s = np.asarray(s)
    scalar = s.ndim == 0
    s = np.atleast_1d(s).astype(complex)
    if np.any(s.real <= 0):
        warnings.warn("gamma_fn called left of the imaginary axis; "
                      "accuracy is only guaranteed for Re s > 0",
                      stacklevel=2)
    out = np.empty_like(s)
    small = s.real < 0.5
    # reflection for the left strip, direct Lanczos elsewhere
    if np.any(small):
        out[small] = np.pi / (np.sin(np.pi * s[small]) * _lanczos(1.0 - s[small]))
    out[~small] = _lanczos(s[~small])
    if scalar:
        v = out[0]
        return float(v.real) if abs(v.imag) < 1e-300 else complex(v)
    return out


def _lanczos(s):
    s = s - 1.0
    a = np.full_like(s, _LC[0])
    for k in range(1, 9):
        a = a + _LC[k] / (s + k)
    t = s + _LG + 0.5
    return _SQRT_2PI * t ** (s + 0.5) * np.exp(-t) * a


def digamma(s):
    """psi(s) = Gamma'(s)/Gamma(s), by differentiating the Lanczos form."""
    s = np.asarray(s)
    scalar = s.ndim == 0
    s = np.atleast_1d(s).astype(complex)
    out = np.empty_like(s)
    small = s.real < 0.5
    if np.any(small):
        out[small] = _digamma_core(1.0 - s[small]) - np.pi / np.tan(np.pi * s[small])
    out[~small] = _digamma_core(s[~small])
    if scalar:
        v = out[0]
        return float(v.real) if abs(v.imag) < 1e-300 else complex(v)
    return out


def _digamma_core(s):
    z = s - 1.0
    a = np.full_like(z, _LC[0])
    da = np.zeros_like(z)
    for k in range(1, 9):
        a = a + _LC[k] / (z + k)
        da = da - _LC[k] / (z + k) ** 2
    t = z + _LG + 0.5
    return np.log(t) + (z + 0.5) / t - 1.0 + da / a


# Bernoulli numbers B_2, B_4, ..., B_28 as floats.
_BERN = (
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
    854513.0 / 138, -236364091.0 / 2730, 8553103.0 / 6, -23749461029.0 / 870,
)

_ZETA_N = 30
_ZETA_J = 10


def zeta(s: float) -> float:
    """Riemann zeta for real s > 0, s != 1, via Euler-Maclaurin."""
    s = float(s)
    if s == 1.0:
        raise ZeroDivisionError("zeta pole at s = 1")
    N = _ZETA_N
    n = np.arange(1, N)
    total = float(np.sum(n ** (-s)))
    total += N ** (1.0 - s) / (s - 1.0)
    total += 0.5 * N ** (-s)
    # correction terms B_{2j}/(2j)! * (s)(s+1)...(s+2j-2) * N^{-s-2j+1}
    poch = s
    fact = 1.0
    for j in range(1, _ZETA_J + 1):
        fact *= (2 * j - 1) * (2 * j)
        total += _BERN[j - 1] / fact * poch * N ** (-s - 2 * j + 1.0)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return total

def zeta_prime(s: float) -> float:
    """d/ds of the same Euler-Maclaurin expansion, term by term."""
    s = float(s)
    if s == 1.0:
        raise ZeroDivisionError("zeta pole at s = 1")
    N = _ZETA_N
    lnN = math.log(N)
    n = np.arange(2, N)
    total = float(np.sum(-np.log(n) * n ** (-s)))
    total += N ** (1.0 - s) * (-lnN / (s - 1.0) - 1.0 / (s - 1.0) ** 2)
    total += -0.5 * lnN * N ** (-s)
    poch = s
    dpoch = 1.0
    fact = 1.0
    for j in range(1, _ZETA_J + 1):
        fact *= (2 * j - 1) * (2 * j)
        coef = _BERN[j - 1] / fact
        total += coef * N ** (-s - 2 * j + 1.0) * (dpoch - poch * lnN)
        # update the Pochhammer product (s)(s+1)..(s+2j) and its derivative
        a, b = s + 2 * j - 1, s + 2 * j
        dpoch = dpoch * a * b + poch * (a + b)
        poch *= a * b
    return total


def euler_gamma() -> float:
    """Euler's constant by Euler-Maclaurin on the harmonic sum."""
    N = 30
    h = float(np.sum(1.0 / np.arange(1, N + 1)))
    g = h - math.log(N) - 0.5 / N
    npow = float(N * N)
    for j in range(1, 8):
        g += _BERN[j - 1] / (2 * j * npow)
        npow *= N * N
    return g


EULER_GAMMA = euler_gamma()


def bessel_k(nu: float, x):
    """Modified Bessel K_nu(x) for a float or an array of x > 0, by the
    trapezoid rule on e^(-x) int_0^t_max exp(-x (cosh t - 1)) cosh(nu t) dt.

    The integrand is analytic in a strip, so the rule converges
    geometrically (Trefethen-Weideman 2014).  For x > 745 the value
    underflows to 0.0, which is documented behavior rather than an error.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0):
        raise ValueError("bessel_k requires x > 0")
    nu = abs(nu)  # K is even in the order
    xs = np.minimum(xa, 745.0).ravel()
    # t_max with x cosh(t) - nu t > x + 50 (integrand ~1e-22 relative)
    t = np.arccosh((xs + 50.0) / xs)
    for _ in range(4):
        t = np.arccosh((xs + 50.0 + nu * t) / xs)
    h = t / _K_PANELS
    ts = h[:, None] * np.arange(_K_PANELS + 1)
    # factor exp(-x) out so the integrand is O(1) near t = 0
    f = np.exp(-xs[:, None] * (np.cosh(ts) - 1.0)) * np.cosh(nu * ts)
    f[:, [0, -1]] *= 0.5
    out = np.where(xa.ravel() > 745.0, 0.0, np.exp(-xs) * h * f.sum(axis=1))
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


def divisor_sigma(s: float, n: int) -> float:
    """sigma_s(n) = sum of d^s over divisors d of n, exact enumeration."""
    if n < 1:
        raise ValueError("divisor_sigma needs n >= 1")
    total = 0.0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += float(d) ** s
            e = n // d
            if e != d:
                total += float(e) ** s
        d += 1
    return total


def log_abs_eta_arr(x, y) -> np.ndarray:
    """Vectorized log|eta| for points already at moderate height.

    Callers integrating over the fundamental domain reduce first, so y is
    bounded below by sqrt(3)/2 and a fixed truncation length serves all
    points at once.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ymin = float(np.min(y))
    if ymin < 0.04:
        raise ValueError("log_abs_eta_arr expects reduced points")
    nmax = max(1, int(math.ceil(19.0 * math.log(10.0) / (2.0 * math.pi * ymin))))
    n = np.arange(1, nmax + 1)
    z = (x + 1j * y)[..., None]
    qn = np.exp(2j * np.pi * z * n)
    return -np.pi * y / 12.0 + np.sum(np.log(np.abs(1.0 - qn)), axis=-1)
