"""The forward-sum q-series, the oracle that shearlab.modforms' Horner
kernel is checked against.  It multiplies out q^n term by term and adds
each a(n) q^n in increasing n, stopping where the same tail bound the
kernel uses is met."""

import math

import numpy as np


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
