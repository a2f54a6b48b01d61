"""The discriminant cusp form and the sheared second moment.

Exact integer q-expansion of Delta: the cube of eta by Jacobi's
identity, its sixth, ninth and twelfth powers as sparse-times-dense
int64 products, then one exact square by FFT on limbs, its rounding
error bounded first.  Around it: weight-aware evaluation anywhere in the
upper half plane by reduction, the Petersson norm, the symmetric-square
L-function at and right of the edge, the archimedean weight for the
shear transform, the geometric second-moment integral along the ray
y(T + i), and the Kronecker-limit consistency check that ties the
log-eta pairing to the completed logarithmic derivative.

The q-series is one kernel: the tail bound at the lowest point fixes
the term count, and Horner's rule sums in place, with no temporaries
per term.  The observable reduces and sums its points in blocks of
_BLOCK.

L-values are computed from plain Dirichlet coefficients under a Gaussian
cutoff exp(-(n/X)^2).  At the edge s = 1 every shifted pole of the
Mellin kernel lands on a trivial zero of the symmetric square, so the
smoothed sum converges superpolynomially in X; away from the edge the
leading X^-2 term is removed by a two-cutoff Richardson step, and the
discarded difference doubles as the error estimate.
"""

import cmath
import math
import operator
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .algebra import point_xy
from .groups import (PSL2Z, BudgetExceeded, TestFunction, _ragged, _walk,
                     reduce_points)
from .quadrature import (InsufficientConvergenceError, adaptive, integrate_fd,
                         refine, settled)
from .specfun import (EULER_GAMMA, digamma, gamma_fn, log_abs_eta_arr,
                      zeta, zeta_prime)

__all__ = [
    "QExpansion", "LSeriesValue", "InsufficientConvergenceError",
    "delta_qexp", "eval_form", "eval_psi_f", "form_observable",
    "petersson_norm", "hecke_L", "sym2_L", "weight_W",
    "second_moment_lhs", "second_moment_prediction", "kronecker_check",
]


class QExpansion:
    """Normalized cusp form data: weight and a(1..N), with a(1) = 1.

    An immutable record but not a tuple: len(f) counts the coefficients,
    and the hash is taken once, here."""
    __slots__ = ("weight", "coeffs", "_hash")

    def __init__(self, weight: int, coeffs: tuple):
        if weight % 2 or weight < 4:
            raise ValueError("weight must be an even integer >= 4")
        if not coeffs or coeffs[0] != 1:
            raise ValueError("normalization requires a(1) = 1")
        coeffs = tuple(coeffs)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "coeffs", coeffs)
        # every lru_cache keyed on f hashes it per call: hash the 4,000
        # big-integer coefficients once here, not there
        object.__setattr__(self, "_hash", hash((weight, coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError(f"QExpansion is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QExpansion is immutable: cannot delete "
                             f"{name!r}")

    def __eq__(self, other):
        if other.__class__ is not QExpansion:
            return NotImplemented
        return (self.weight, self.coeffs) == (other.weight, other.coeffs)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"QExpansion(weight={self.weight!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):
        return QExpansion, (self.weight, self.coeffs)

    def _replace(self, **changes):
        return QExpansion(**{"weight": self.weight, "coeffs": self.coeffs,
                             **changes})

    def a(self, n: int):
        return self.coeffs[n - 1]

    def __len__(self):
        return len(self.coeffs)


_UNIT_ROUNDOFF = 2.0 ** -53  # of float64


def _series_product(a, b, n):
    """The first n coefficients of the product of the int64 series a and
    b, exactly, as Python ints: FFT convolution on limbs of sign times
    w = ceil(bits / L) bits of |a|, for the fewest L (the widest w) whose
    error Percival's bound, from the limbs' l2 norms, keeps below 1/4,
    or OverflowError before any transform.  The bound is proved for the
    radix-2 complex transform, so a value 1/4 off its integer raises too.
    One rfft per limb (one set when a is b); the shifts go back one at a
    time, joined with carries in 62-bit chunks."""
    a, b, same = a[:n], b[:n], a is b
    mags = [np.abs(x).view(np.uint64) for x in ((a,) if same else (a, b))]
    bits = max(int(x.max(initial=0)).bit_length() for x in mags)
    if min(len(a), len(b)) == 0 or bits == 0:
        return [0] * n
    m = min(n, len(a) + len(b) - 1)
    size = 1 << (len(a) + len(b) - 2).bit_length()
    k, u = size.bit_length() - 1, _UNIT_ROUNDOFF
    # (1+u)^3k (1+sqrt5 u)^(3k+1) (1+beta)^3k - 1, roots off by beta <= u,
    # 1+u per spectrum summed at a shift, 1 + 4nu for the norms' rounding
    grow = math.expm1((6 * k + bits) * math.log1p(u) + (3 * k + 1)
                      * math.log1p(math.sqrt(5) * u)) * (1 + 4 * n * u)
    for n_limbs in range(1, bits + 1):
        w = -(-bits // n_limbs)
        limbs = [[np.sign(x) * (mag >> w * i & (1 << w) - 1)
                  for i in range(n_limbs)] for x, mag in zip((a, b), mags)]
        norm = [[math.sqrt(v @ v) for v in ls] for ls in limbs]
        pairs = [[(i, s - i) for i in range(n_limbs) if 0 <= s - i < n_limbs]
                 for s in range(2 * n_limbs - 1)]
        if grow * max(sum(norm[0][i] * norm[-1][j] for i, j in p)
                      for p in pairs) < 0.25:
            break
    else:
        raise OverflowError(f"no limb width keeps {n} terms exact")
    spec = [[np.fft.rfft(v, size) for v in ls] for ls in limbs]
    del limbs, mags  # from here on only the spectra are kept
    total, carry, chunk, per = 0, 0, 0, 62 // w
    for s, p in enumerate(pairs):
        y = np.fft.irfft(sum(spec[0][i] * spec[-1][j] for i, j in p), size)
        z = np.rint(y[:m])
        if np.abs(y[:m] - z).max() >= 0.25:
            raise OverflowError(f"a product of {n} terms rounded off")
        z = z.astype(np.int64) + carry
        carry, chunk = z >> w, chunk | (z & (1 << w) - 1) << w * (s % per)
        if s % per == per - 1 or s == len(pairs) - 1:
            total += chunk.astype(object) << w * (s - s % per)
            chunk = 0
    total += carry.astype(object) << w * len(pairs)
    return total.tolist() + [0] * (n - m)


def _sparse_times(t, c, dense):
    """The first len(dense) coefficients of (sum c_k q^t_k) * dense, exactly
    in int64: one slice-add per sparse term.  Raises OverflowError unless
    max |dense| * sum |c_k| < 2^63, which bounds every partial sum."""
    n = len(dense)
    keep = t < n
    t, c = t[keep], c[keep]
    if int(np.abs(dense).max()) * int(np.abs(c).sum()) >= 1 << 63:
        raise OverflowError(f"a sparse product of {n} terms may pass int64")
    out = np.zeros(n, dtype=np.int64)
    for tk, ck in zip(t.tolist(), c.tolist()):
        out[tk:] += ck * dense[:n - tk]
    return out


@lru_cache(maxsize=8)
def _tau_tuple(n_max: int) -> tuple:
    # Delta / q = (eta-cube)^8, eta-cube sum (-1)^k (2k+1) q^(k(k+1)/2) by
    # Jacobi's identity: its about sqrt(2 n) terms multiply 1 up to
    # eta^12 in int64, and one exact FFT square finishes the job
    k = np.arange(math.isqrt(2 * n_max) + 1, dtype=np.int64)
    t = k * (k + 1) // 2
    c = np.where(k % 2 == 1, -(2 * k + 1), 2 * k + 1)
    j = np.zeros(n_max, dtype=np.int64)
    j[0] = 1
    for _ in range(4):
        j = _sparse_times(t, c, j)
    return tuple(_series_product(j, j, n_max))


def delta_qexp(n: int) -> QExpansion:
    """tau(1..n) of q prod (1-q^m)^24, exact integers: eta^12 by four
    sparse int64 steps, then its square by limb-split FFT."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"coefficient count must be an integer, "
                         f"got {n!r}") from None
    if n < 1:
        raise ValueError("need at least one coefficient")
    return QExpansion(12, _tau_tuple(n))


def _term_count(f: QExpansion, y: float) -> int:
    """Terms of f's q-series the tail bound keeps at heights y and above:
    the first n whose next term is below 1e-18.  Raises ValueError when
    f has fewer coefficients than that."""
    qmax = math.exp(-2.0 * math.pi * y)
    bound = 1.0
    for n in range(1, len(f.coeffs) + 1):
        bound *= qmax
        # a(m) <= m^(weight/2 + 1) comfortably covers the Deligne range
        if (n + 1.0) ** (0.5 * f.weight + 1.0) * bound * qmax < 1e-18:
            return n
    raise ValueError(f"{len(f.coeffs)} coefficients do not reach the "
                     f"tail bound at y = {y:.3g}")


def _qexp_eval(f: QExpansion, x, y):
    """sum a(n) e(n z) on arrays of points by Horner's rule in place, the
    term count fixed by the tail bound at the smallest y; raises
    ValueError when f has fewer coefficients than the bound needs."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = _term_count(f, float(np.min(y)))
    q = np.exp(2j * math.pi * (x + 1j * y))
    total = np.full(q.shape, float(f.coeffs[n - 1]), dtype=complex)
    for a in reversed(f.coeffs[:n - 1]):
        total *= q
        total += float(a)
    total *= q
    return total


def _psi(f: QExpansion, x, y):
    """|f|^2 y^k at points already in the fundamental domain."""
    v = _qexp_eval(f, x, y)
    return (v.real * v.real + v.imag * v.imag) * y ** f.weight


def eval_form(f: QExpansion, z) -> complex:
    """f(z) anywhere: f(z) = j^-k f(gz), where g moves z into the
    fundamental domain and j = cz + d is read off the reduction's walk."""
    x, y = point_xy(z)
    rx, ry, j = _walk([x], [y], 1, True)
    return complex(_qexp_eval(f, rx, ry)[0]) * complex(j[0]) ** (-f.weight)


def eval_psi_f(f: QExpansion, z) -> float:
    """Psi_f(z) = |f(z)|^2 Im(z)^k, evaluated through its invariance."""
    x, y = point_xy(z)
    rx, ry = reduce_points([x], [y])
    return float(_psi(f, rx, ry)[0])


# points per block of form_observable's batch, the fastest of 2^10 to 2^14
# on the ray; its 128 KiB complex temporaries sit at glibc's default mmap
# threshold, which the first free of one raises above them
_BLOCK = 1 << 13


@lru_cache(maxsize=8)
def form_observable(f: QExpansion) -> TestFunction:
    """Psi_f as a test function: cusp-decaying, no seed box, so the
    measure integrators take their generic adaptive routes."""
    k = f.weight

    def batch(xs, ys):
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        x, y = xs.ravel(), ys.ravel()
        out = np.empty(x.size)
        for lo in range(0, x.size, _BLOCK):
            rx, ry = reduce_points(x[lo:lo + _BLOCK], y[lo:lo + _BLOCK])
            out[lo:lo + _BLOCK] = _psi(f, rx, ry)
        return out.reshape(xs.shape)

    # honest sup-envelope constants: |f| <= sum |a(n)| e^(-2 pi n y) =: F(y)
    # on the reduced range, so Psi <= F(y)^2 y^k =: env(y)
    ys = np.geomspace(math.sqrt(3.0) / 2.0, 8.0, 400)
    n_idx = np.arange(1, min(len(f.coeffs), 80) + 1.0)
    absa = np.abs(np.array(f.coeffs[:len(n_idx)], dtype=float))
    fy = np.exp(-2.0 * math.pi * np.outer(ys, n_idx)) @ absa
    env = fy ** 2 * ys ** k
    alpha = 2.0
    return TestFunction(name=f"psi_form_w{k}", spec=PSL2Z, batch=batch,
                        c_psi=float((env * ys ** alpha).max()),
                        alpha_psi=alpha, support=None, profiles=None,
                        peak=float(env.max()))


def _fd_pairing(f: QExpansion, weight_fn, nx: int = 64):
    # integral over the standard fundamental domain of weight_fn * Psi_f
    # with respect to dx dy / y^2
    def g(xa, ys):
        return weight_fn(xa, ys) * _psi(f, xa, ys) / ys ** 2

    return settled(integrate_fd(g, 5.0, nx=nx, n_edges=24, abs_tol=1e-16,
                                rel_tol=1e-11), "domain pairing")


@lru_cache(maxsize=8)
def petersson_norm(f: QExpansion) -> float:
    """||f||^2 over the fundamental domain; refining the column count is
    the convergence check, the finer value is returned, and
    InsufficientConvergenceError is raised if the counts disagree."""
    one = lambda xa, ys: 1.0
    return settled(refine(lambda nx: _fd_pairing(f, one, nx), (48, 72, 108),
                          rel_tol=1e-8), "petersson norm over column counts")


# -- L-functions through Gaussian-smoothed Dirichlet series ------------------


@lru_cache(maxsize=8)
def _lambda_norm(f: QExpansion) -> np.ndarray:
    n = np.arange(1, len(f.coeffs) + 1, dtype=float)
    return np.array(f.coeffs, dtype=float) / n ** ((f.weight - 1) / 2.0)


def _mobius(m: int) -> np.ndarray:
    """mu(0..m) by a sieve over the primes up to m."""
    is_p = np.ones(m + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if is_p[p]:
            is_p[p * p::p] = False
    mu = np.ones(m + 1, dtype=np.int64)
    mu[0] = 0
    for p in np.flatnonzero(is_p).tolist():
        mu[::p] *= -1
        mu[::p * p] = 0
    return mu


@lru_cache(maxsize=8)
def _sym2_coeffs(f: QExpansion) -> np.ndarray:
    """Dirichlet coefficients of L(sym2 f, s): square lambda, divide by
    zeta via Moebius, multiply by zeta(2s) via square indices.  The
    Moebius sum is one bincount over the pairs (d, k), n = d k, listed
    d-major, so each b(n) adds its terms in increasing d."""
    m = len(f.coeffs)
    lam2 = _lambda_norm(f) ** 2
    mu = _mobius(m)
    d = np.flatnonzero(mu)
    i, j = _ragged(np.zeros(len(d), dtype=np.int64), m // d)
    b = np.bincount(d[i] * (j + 1) - 1, mu[d[i]] * lam2[j], minlength=m)
    c = np.zeros(m)
    for k in range(1, math.isqrt(m) + 1):
        c[k * k - 1::k * k] += b[:m // (k * k)]
    return c


def _smoothed_pair(coeffs: np.ndarray, s: float, x_cut: float,
                   log_weight: bool):
    n = np.arange(1, len(coeffs) + 1, dtype=float)
    base = coeffs * n ** (-s)
    if log_weight:
        base = base * np.log(n)
    hi = float(np.sum(base * np.exp(-(n / x_cut) ** 2)))
    lo = float(np.sum(base * np.exp(-(2.0 * n / x_cut) ** 2)))
    return (4.0 * hi - lo) / 3.0, hi, lo


# most relative gap between the two smoothing cutoffs of an L-value
_REL_GATE = 1e-4


def _dirichlet_value(coeffs, s, log_weight=False):
    x_cut = len(coeffs) / 6.5
    val, hi, lo = _smoothed_pair(coeffs, s, x_cut, log_weight)
    gap = abs(hi - lo)
    settled((val, gap, not gap > _REL_GATE * max(abs(hi), 1e-3)),
            f"L-value at s = {s} (cutoffs {x_cut / 2:.0f} and {x_cut:.0f}; "
            f"supply more coefficients)")
    return val, gap / 3.0 + 1e-14 * abs(val)


def hecke_L(f: QExpansion, s: float) -> float:
    """L(f, s) = sum lambda(n) n^-s in the analytic normalization."""
    if not s >= 1.0:  # NaN too
        raise ValueError("right of the critical strip only")
    val, _ = _dirichlet_value(_lambda_norm(f), s)
    return val


class LSeriesValue(NamedTuple):
    s: float
    value: float
    completed: float
    est_error: float
    cutoff: float
    l_prime: Optional[float] = None
    completed_log_deriv: Optional[float] = None


def sym2_L(f: QExpansion, s: float, want_derivative: bool = False
           ) -> LSeriesValue:
    """L(sym2 f, s) for s >= 1, optionally with the completed logarithmic
    derivative assembled from the exact digamma term plus L'/L."""
    if not s >= 1.0:  # NaN too
        raise ValueError("sym2_L needs s >= 1")
    c = _sym2_coeffs(f)
    val, err = _dirichlet_value(c, s)
    k = f.weight
    completed = (4.0 * math.pi) ** (-(s + k - 1)) * gamma_fn(s + k - 1) * val
    l_prime = None
    log_deriv = None
    if want_derivative:
        neg_lp, err2 = _dirichlet_value(c, s, log_weight=True)
        l_prime = -neg_lp
        log_deriv = (-math.log(4.0 * math.pi) + float(digamma(s + k - 1))
                     + l_prime / val)
        err = err + err2
    return LSeriesValue(s=s, value=val, completed=completed, est_error=err,
                        cutoff=len(c) / 6.5, l_prime=l_prime,
                        completed_log_deriv=log_deriv)


def weight_W(k: int, s, t: float) -> complex:
    """(2 pi)^-sigma Gamma(sigma) (1 - iT)^-sigma with sigma = s+(k-1)/2."""
    sigma = complex(s) + (k - 1) / 2.0
    if not sigma.real > 0:
        raise ValueError("need Re(s + (k-1)/2) > 0")
    g = gamma_fn(sigma)
    return (cmath.exp(-sigma * math.log(2.0 * math.pi)) * complex(g)
            * cmath.exp(-sigma * cmath.log(1.0 - 1j * t)))


# -- the second moment along the sheared ray ---------------------------------


# height from which the moment is summed termwise on the ray, in closed
# form; below it the ray meets the cusps and is integrated adaptively
_SPLIT = 0.2
# seed panels one moment may lay below _SPLIT, 3.64 T of them: this
# admits T up to 5.75e5, where the pass peaks at 873 MB in 34 s (about
# 1.47 KB per unit of T past the 31 MB import)
MAX_SEED_PANELS = 1 << 21


@lru_cache(maxsize=8)
def _ray_pairs(f: QExpansion, a: float):
    """The pairs m <= n <= N of the closed form from height a on, N the
    tail bound's term count there: the weights w = a(m) a(n), doubled off
    the diagonal, m + n and m - n as floats, and the sums of |w| over the
    pairs with m + n = 2, 3, ..., 2N."""
    n = _term_count(f, a)
    i, j = np.triu_indices(n)
    c = np.array(f.coeffs[:n], dtype=float)
    w = c[i] * c[j] * np.where(i == j, 1.0, 2.0)
    s = i + j + 2
    return (w, s.astype(float), (i - j).astype(float),
            np.bincount(s, np.abs(w))[2:])


def _ray_tail(f: QExpansion, t: float, b: float):
    """int_b^inf |f(Ty + iy)|^2 y^K dy for b >= _SPLIT, K = k - 1, in
    closed form, and a bound on its rounding error.

    Each pair m <= n of the q-series adds w Re J(lambda), where lambda =
    2 pi((m + n) - i(m - n)T) and J(lambda) = int_b^inf e^(-lambda y)
    y^K dy = e^(-lambda b) sum_{j<=K} K!/(K-j)! b^(K-j) lambda^-(j+1),
    summed by Horner's rule in 1/lambda.

    The sum's coefficients are positive and |1/lambda| <= x =
    1/(2 pi (m + n)), so a pair's terms are at most |w| e^(-b/x) x P(x),
    P the Horner polynomial.  Rounding moves them by (4K + 24) eps of
    that at most: K complex Horner steps and the final sum.  The phase
    b Im(lambda) is rounded by eps b |lambda|, which moves the pair by at
    most eps b |w| e^(-b/x) P(x).  So the bound does not grow with T.
    """
    w, s, d, w_abs = _ray_pairs(f, _SPLIT)
    big_k = f.weight - 1
    coef = [math.perm(big_k, j) * b ** (big_k - j) for j in range(big_k + 1)]
    lam = (2.0 * math.pi) * (s - 1j * t * d)
    r = 1.0 / lam
    x = 1.0 / (2.0 * math.pi * np.arange(2.0, len(w_abs) + 2.0))
    acc = np.full(lam.shape, coef[-1], dtype=complex)
    size = np.full(x.shape, coef[-1])
    for c in reversed(coef[:-1]):
        acc *= r
        acc += c
        size *= x
        size += c
    acc *= r * np.exp(-b * lam)
    size *= w_abs * np.exp(-b / x) * ((4.0 * big_k + 24.0) * x + b)
    return float(w @ acc.real), float(np.finfo(float).eps * size.sum())


def second_moment_lhs(f: QExpansion, t: float, tol: float = 1e-8) -> float:
    """integral over 0 < y of |f(Ty + iy)|^2 y^k dy/y.

    z -> -1/z sends y(T + i) to y'(-T + i) with y' = 1/(y(T^2+1)), and
    x -> -x brings that back onto the ray.  Psi_f is invariant under
    both (under x -> -x because the coefficients are real), and y -> y'
    keeps dy/y and fixes the apex u0 = 1/sqrt(T^2+1).  So the halves
    below and above u0 are equal and the moment is 2 int_{u0}^inf.

    From a = _SPLIT up (from u0 up when u0 >= a, T <= 4.9), the
    q-series converges on the ray itself, and _ray_tail sums the integral
    termwise over the pairs of the terms the tail bound keeps at a: 55 at
    a = 0.2.  Its rounding bound, at most 4e-14 of the moment, raises
    InsufficientConvergenceError when it exceeds tol times the moment.

    Below a the panels are seeded at the period crossings y =
    (n + 1/2)/T, where Ty passes a half-integer.  There the ray crosses
    the edges of the domain's translates, the Farey arcs between
    neighbours p/q and r/s, of radius 1/(2qs): at height y a period
    meets the arcs with qs < 1/(2y), about (3/pi^2) log(1/y) / y of
    them.  So each period is split into ceil(1/y) equal panels, at most
    64.  More than MAX_SEED_PANELS seed panels raise BudgetExceeded
    before any is built; an unconverged pass raises
    InsufficientConvergenceError.  ValueError unless T > 1 is finite and
    0 < tol < inf, before any work.
    """
    if not math.isfinite(t):
        raise ValueError(f"T must be finite, got {t}")
    if not t > 1.0:
        raise ValueError("the split needs T > 1")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"second moment needs 0 < tol < inf, got {tol}")
    u0 = 1.0 / math.sqrt(t * t + 1.0)
    tail, tail_err = _ray_tail(f, t, max(u0, _SPLIT))
    head = 0.0
    if u0 < _SPLIT:
        n_lo, n_hi = math.ceil(u0 * t - 0.5), math.ceil(_SPLIT * t - 0.5)
        if n_hi - n_lo > MAX_SEED_PANELS:
            raise BudgetExceeded(
                f"second moment at T = {t}: {n_hi - n_lo} periods below "
                f"y = {_SPLIT} pass the ceiling of {MAX_SEED_PANELS} seed "
                f"panels")
        crossings = (np.arange(n_lo, n_hi) + 0.5) / t
        lo = np.concatenate([[u0], crossings[crossings > u0]])
        hi = np.append(lo[1:], _SPLIT)
        # ceil(1/y) panels for the Farey arcs a period [lo, hi] meets
        m = np.minimum(np.ceil(1.0 / lo), 64).astype(int)
        if m.sum() > MAX_SEED_PANELS:
            raise BudgetExceeded(
                f"second moment at T = {t}: {m.sum()} seed panels below "
                f"y = {_SPLIT} pass the ceiling of {MAX_SEED_PANELS}")
        i, j = _ragged(np.zeros(len(m), dtype=int), m)
        psi = form_observable(f)

        def ray(ys):
            return psi.batch(t * ys, ys) / ys

        # the ray needs about 10 panels per unit of T (9.1 at T = 3e3 and
        # 11.3 at 3e4, slowly growing like log T); the cap allows twice that
        res = adaptive(ray, u0, _SPLIT, abs_tol=tol * 1e-3, rel_tol=tol,
                       initial_edges=lo[i] + (hi - lo)[i] * (j / m[i]),
                       max_panels=20000 + int(20.0 * t))
        head = settled(res, f"second moment at T = {t}: ray quadrature over "
                            f"{res.n_panels} panels to tol {tol:.0e}")
    return 2.0 * settled(
        (head + tail, tail_err, tail_err <= tol * abs(head + tail)),
        f"second moment at T = {t}: closed form to tol {tol:.0e} under its "
        f"rounding bound")


def second_moment_prediction(f: QExpansion, t: float) -> float:
    """2 (||f||^2 / vol)(log T + Lambda'/Lambda(sym2 f, 1) + gamma
    - 2 zeta'(2)/zeta(2)), the main term the moment settles on."""
    pet = petersson_norm(f)
    ell = sym2_L(f, 1.0, want_derivative=True)
    vol = math.pi / 3.0
    bracket = (math.log(t) + ell.completed_log_deriv + EULER_GAMMA
               - 2.0 * zeta_prime(2.0) / zeta(2.0))
    return 2.0 * (pet / vol) * bracket


def kronecker_check(f: QExpansion):
    """(lhs, rhs, gap) for the limit-formula identity
    <log(4y|eta|^4), Psi_f> / ||f||^2 = gamma - Lambda'/Lambda(sym2 f, 1),
    the two sides computed along fully independent routes."""
    def logw(xa, ys):
        return np.log(4.0 * ys) + 4.0 * log_abs_eta_arr(xa, ys)

    lhs = _fd_pairing(f, logw) / petersson_norm(f)
    ell = sym2_L(f, 1.0, want_derivative=True)
    rhs = EULER_GAMMA - ell.completed_log_deriv
    return lhs, rhs, abs(lhs - rhs)
