"""Integer points of the quadric q^2 - 4pr = D in a ball, by divisor
counting, for D = 1 and every D < 0: the oracle that the psl2z orbit
counts are checked against at large radii.  For D = 1 every integral
form lies in the orbit of (0, 1, 0) with trivial stabilizer, so the
orbit's ball count is the quadric's point count; for D < 0 the quadric
is the union of the orbits of one form per class and of their negatives.
It shares no code with the package.

For D = 1 and odd |q| >= 3 the points are (d, q, m / d) and
(-d, q, -m / d) over the divisors d of m = (q^2 - 1) / 4 =
((q - 1) / 2) ((q + 1) / 2), whose two coprime factors a
smallest-prime-factor sieve up to T / 2 factors.  For q = +-1, p r = 0,
so p = 0 or r = 0.  For D < 0 the points are the same two over the
divisors of m = (q^2 - D) / 4, for every q = D mod 2: every m is divided
at once by each prime up to T / 2, the square root of the largest, so
memory stays linear in T (a sieve up to T^2 / 4 took about 20 GB at
T = 1e5).  The cost is about T log^2 T for D = 1 and T^2 / log T array
element operations for D < 0, against T^2 for a scan of the box."""

import math
from bisect import bisect_left

import numpy as np


def _smallest_prime_factors(n):
    """spf[i] for 0 <= i <= n, with spf[0] = 0 and spf[1] = 1."""
    spf = np.arange(n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            block = spf[p * p::p]
            block[block == np.arange(p * p, n + 1, p)] = p
    return spf


def _factor(n, spf):
    """[(p, e), ...] over the prime powers p^e exactly dividing n."""
    out = []
    while n > 1:
        p, e = int(spf[n]), 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def _factor_all(ms):
    """_factor of every entry of the int64 array ms, by trial division of
    the whole array by each prime up to sqrt(max(ms)); what is left above
    1 is one more prime."""
    rest = np.array(ms, dtype=np.int64)
    out = [[] for _ in range(len(rest))]
    spf = _smallest_prime_factors(math.isqrt(int(rest.max(initial=1))))
    for p in np.flatnonzero(spf == np.arange(len(spf)))[2:].tolist():
        for i in np.flatnonzero(rest % p == 0).tolist():
            n, e = int(rest[i]), 0
            while n % p == 0:
                n //= p
                e += 1
            rest[i] = n
            out[i].append((p, e))
    for i in np.flatnonzero(rest > 1).tolist():
        out[i].append((int(rest[i]), 1))
    return out


def _divisors(factors, divs):
    """Every product of an entry of divs and a divisor of the number whose
    _factor is factors."""
    for p, e in factors:
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return divs


def quadric_counts(t_list, norm="sup", disc=1):
    """The number of points of discriminant disc (1 or negative) with sup
    (or Euclidean) norm strictly below t, for each t in t_list."""
    sup = norm == "sup"
    lim = int(math.ceil(max(t_list))) - 1  # every counted entry is <= lim
    # keys of points that come four to a key and two to a key
    four, two = [], []
    if disc == 1:
        spf = _smallest_prime_factors(max(lim // 2 + 1, 1))
        for s in range(-lim, lim + 1):  # q = +-1: (0, q, s), and (s, q, 0)
            key = max(1, abs(s)) if sup else 1 + s * s
            (two if s == 0 else four).append(key)
        qs = range(3, lim + 1, 2)
    else:
        qs = range(-disc % 2, lim + 1, 2)
        facs = _factor_all([(q * q - disc) // 4 for q in qs])
    for k, q in enumerate(qs):  # (+-d, +-q, +-m / d), p and r alike
        m = (q * q - disc) // 4
        if disc == 1:
            low = _divisors(_factor((q - 1) // 2, spf), [1])
            divs = _divisors(_factor((q + 1) // 2, spf), low)
        else:
            divs = _divisors(facs[k], [1])
        for d in divs:
            e = m // d
            key = max(d, e, q) if sup else d * d + e * e + q * q
            (four if q else two).append(key)
    four.sort()
    two.sort()
    return tuple(4 * bisect_left(four, b) + 2 * bisect_left(two, b)
                 for b in (t if sup else t * t for t in t_list))
