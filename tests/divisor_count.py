"""Integer points of the discriminant-1 quadric q^2 - 4pr = 1 in a ball,
by divisor counting: the oracle that the psl2z orbit counts of (0, 1, 0)
are checked against at large radii.  Every integral form of discriminant
1 lies in that orbit with trivial stabilizer, so the orbit's ball count
is the quadric's point count.  It shares no code with the package.

For odd |q| >= 3 the points are (d, q, m / d) and (-d, q, -m / d) over
the divisors d of m = (q^2 - 1) / 4 = ((q - 1) / 2) ((q + 1) / 2), whose
two coprime factors a smallest-prime-factor sieve up to T / 2 factors.
For q = +-1, p r = 0, so p = 0 or r = 0.  The cost is about T log^2 T,
against T^2 for a scan of the box."""

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
    return spf.tolist()


def _divisors(n, spf, divs):
    """Every product of an entry of divs and a divisor of n."""
    while n > 1:
        p, e = spf[n], 0
        while n % p == 0:
            n //= p
            e += 1
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return divs


def quadric_counts(t_list, norm="sup"):
    """The number of points with sup (or Euclidean) norm strictly below t,
    for each t in t_list."""
    sup = norm == "sup"
    lim = int(math.ceil(max(t_list))) - 1  # every counted entry is <= lim
    spf = _smallest_prime_factors(max(lim // 2 + 1, 1))
    # keys of points that come four to a key and two to a key
    four, two = [], []
    for s in range(-lim, lim + 1):  # q = +-1: (0, q, s), and (s, q, 0)
        key = max(1, abs(s)) if sup else 1 + s * s
        (two if s == 0 else four).append(key)
    for q in range(3, lim + 1, 2):  # (+-d, +-q, +-m / d), p and r alike
        m = (q * q - 1) // 4
        low = _divisors((q - 1) // 2, spf, [1])
        for d in _divisors((q + 1) // 2, spf, low):
            e = m // d
            four.append(max(d, e, q) if sup else d * d + e * e + q * q)
    four.sort()
    two.sort()
    return tuple(4 * bisect_left(four, b) + 2 * bisect_left(two, b)
                 for b in (t if sup else t * t for t in t_list))
