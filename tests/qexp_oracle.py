"""Oracles for shearlab.modforms' q-expansion arithmetic.

The forward-sum q-series is what the Horner kernel is checked against.
It multiplies out q^n term by term and adds each a(n) q^n in increasing
n, stopping where the same tail bound the kernel uses is met.

_square_series is the Kronecker-substitution square the library used
before its FFT product: one big-integer square per series.
tau_by_squarings is the earlier route to Delta: the cube of eta by
Jacobi's identity, then three such squarings on Python integers, and
tau_by_kronecker the route before the FFT product: the library's four
int64 sparse steps to eta^12, then one such squaring.
The Moebius function by a smallest-prime-factor sieve and the sym2
coefficients summed one squarefree d at a time are the earlier loops;
the library's whole-array passes must match them bit for bit."""

import math

import numpy as np

from shearlab.modforms import _lambda_norm, _sparse_times


def qexp_forward(f, x, y):
    """sum a(n) e(n z) on arrays of points, truncated by the tail bound."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    q = np.exp(2j * math.pi * (x + 1j * y))
    qmax = math.exp(-2.0 * math.pi * float(np.min(y)))
    total = np.zeros_like(q)
    power = np.ones_like(q)
    bound = 1.0
    for n in range(1, len(f.coeffs) + 1):
        power = power * q
        bound *= qmax
        total += float(f.coeffs[n - 1]) * power
        # a(m) <= m^(weight/2 + 1) comfortably covers the Deligne range
        if (n + 1.0) ** (0.5 * f.weight + 1.0) * bound * qmax < 1e-18:
            break
    return total


def _square_series(arr, n_terms):
    """First n_terms coefficients of the square of the integer series
    arr, exactly, by Kronecker substitution: one big-integer square.

    Each coefficient becomes a w-bit digit of one integer, w a whole
    number of bytes with room for the bound m A^2 (A = max |a_i|, m
    terms) and a sign bit, so the digits of the square never carry into
    each other.  Biasing every low digit by 2^(w-1) before reducing mod
    2^(n w) makes them all non-negative, and byte slices read them off.
    """
    arr = arr[:n_terms]
    amax = max((abs(a) for a in arr), default=0)
    if amax == 0:
        return [0] * n_terms
    nb = (len(arr) * amax * amax).bit_length() // 8 + 1
    w = 8 * nb
    pos = b"".join((a if a > 0 else 0).to_bytes(nb, "little") for a in arr)
    neg = b"".join((-a if a < 0 else 0).to_bytes(nb, "little") for a in arr)
    packed = (int.from_bytes(pos, "little")
              - int.from_bytes(neg, "little"))
    half = 1 << (w - 1)
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * n_terms, "little")
    sq = (packed * packed + bias) & ((1 << (n_terms * w)) - 1)
    raw = sq.to_bytes(n_terms * nb, "little")
    return [int.from_bytes(raw[k:k + nb], "little") - half
            for k in range(0, n_terms * nb, nb)]


def tau_by_squarings(n_max):
    """tau(1..n_max) as a tuple: (eta-cube)^8 by three squarings."""
    j3 = [0] * n_max
    k = 0
    while k * (k + 1) // 2 < n_max:
        j3[k * (k + 1) // 2] = (2 * k + 1) * (-1 if k % 2 else 1)
        k += 1
    j6 = _square_series(j3, n_max)
    j12 = _square_series(j6, n_max)
    return tuple(_square_series(j12, n_max))


def tau_by_kronecker(n_max):
    """tau(1..n_max) as a tuple: eta^12 by the four int64 sparse steps by
    eta^3, then its square by Kronecker substitution."""
    k = np.arange(math.isqrt(2 * n_max) + 1, dtype=np.int64)
    c = np.where(k % 2 == 1, -(2 * k + 1), 2 * k + 1)
    j = np.zeros(n_max, dtype=np.int64)
    j[0] = 1
    for _ in range(4):
        j = _sparse_times(k * (k + 1) // 2, c, j)
    return tuple(_square_series(j.tolist(), n_max))


def _spf_sieve(m):
    spf = np.zeros(m + 1, dtype=np.int64)
    spf[1] = 1
    for p in range(2, m + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    return spf


def mobius_by_spf(m):
    """mu(0..m), one n at a time from its smallest prime factor."""
    spf = _spf_sieve(m)
    mu = np.zeros(m + 1, dtype=np.int64)
    mu[1] = 1
    for n in range(2, m + 1):
        p = spf[n]
        r = n // p
        mu[n] = 0 if r % p == 0 else -mu[r]
    return mu


def sym2_coeffs_by_loop(f):
    """Dirichlet coefficients of L(sym2 f, s), one squarefree d a pass."""
    m = len(f.coeffs)
    lam2 = _lambda_norm(f) ** 2
    mu = mobius_by_spf(m)
    b = np.zeros(m)
    for d in range(1, m + 1):
        if mu[d]:
            b[d - 1::d] += mu[d] * lam2[:m // d]
    c = np.zeros(m)
    for k in range(1, math.isqrt(m) + 1):
        c[k * k - 1::k * k] += b[:m // (k * k)]
    return c
