"""Computations made apart from shearlab, used to check its outputs.

Nothing in this file imports shearlab.  The quadrature references take a
test function's vectorized evaluator (its `batch`) as an argument and
integrate it on fixed grids, so they share no quadrature, unfolding or
row-table code with the program.  Orbit counts come from a scan of the
integer points of the quadric q^2 - 4pr = 1; membership in the thin
group <T^4, S> comes from a ping-pong reduction written here.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286061
CATALAN = 0.91596559417721901505
ZETA2 = math.pi ** 2 / 6.0
ZETA4 = math.pi ** 4 / 90.0
# zeta'(2) = zeta(2) (gamma + log(2 pi) - 12 log A), A Glaisher's constant
GLAISHER_LOG = 0.24875447703378426
ZETA_PRIME_2 = ZETA2 * (EULER_GAMMA + math.log(2.0 * math.pi)
                        - 12.0 * GLAISHER_LOG)


# -- orbit of (0, 1, 0) on the discriminant-1 quadric ------------------------

def quadric_points(t_max: float) -> np.ndarray:
    """Every integer (p, q, r) with q^2 - 4pr = 1 and sup norm < t_max,
    as an (n, 3) int64 array."""
    n = int(math.ceil(t_max)) - 1
    r = np.arange(-n, n + 1, dtype=np.int64)
    out = []
    for p in range(-n, n + 1):
        s = 1 + 4 * p * r
        ok = s > 0
        q = np.rint(np.sqrt(np.where(ok, s, 0).astype(float))).astype(np.int64)
        hit = ok & (q * q == s) & (q <= n)
        for sign in (1, -1):
            out.append(np.column_stack([np.full(hit.sum(), p), sign * q[hit],
                                        r[hit]]))
    pts = np.concatenate(out)
    norms = np.abs(pts).max(axis=1)
    return pts[norms < t_max]


def recover_elements(pts: np.ndarray) -> np.ndarray:
    """The unique g = (a, b, c, d) in PSL(2, Z) (c > 0, or c = 0 and a > 0)
    with (0, 1, 0) * g = (ac, ad + bc, bd), recovered by gcds."""
    p, q, r = pts[:, 0], pts[:, 1], pts[:, 2]
    ad = (q + 1) // 2
    bc = (q - 1) // 2
    c = np.gcd(p, bc)
    one = np.where(c == 0, 1, c)
    a = np.where(c == 0, 1, p // one)
    b = np.where(c == 0, r, bc // one)
    a_safe = np.where(a == 0, 1, a)
    b_safe = np.where(b == 0, 1, b)
    d = np.where(c == 0, 1, np.where(a != 0, ad // a_safe, r // b_safe))
    g = np.column_stack([a, b, c, d])
    if not (np.all(a * d - b * c == 1)
            and np.array_equal(np.column_stack([a * c, a * d + b * c, b * d]),
                               pts)):
        raise AssertionError("gcd recovery of the group element failed")
    return g


def thin_member(g: np.ndarray) -> np.ndarray:
    """Membership of each row (a, b, c, d) in <T^4, S>, by ping-pong.

    A reduced word starting with T^4k (k != 0) sends infinity outside
    |x| <= 2, one starting with S sends it inside |x| < 1.  So translate
    a/c into |x| <= 2, invert while |a/c| < 1, and reject otherwise; a
    bottom row c = 0 leaves T^b, a member iff 4 divides b.
    """
    a, b, c, d = (g[:, i].copy() for i in range(4))
    member = np.zeros(len(g), dtype=bool)
    active = np.ones(len(g), dtype=bool)
    for _ in range(256):
        idx = np.nonzero(active)[0]
        if not len(idx):
            return member
        A, B, C, D = a[idx], b[idx], c[idx], d[idx]
        top = C == 0
        member[idx[top]] = B[top] % 4 == 0
        active[idx[top]] = False
        live = ~top
        idx, A, B, C, D = idx[live], A[live], B[live], C[live], D[live]
        k = np.floor(A / (4.0 * C) + 0.5).astype(np.int64)
        A, B = A - 4 * k * C, B - 4 * k * D
        inv = np.abs(A) < np.abs(C)
        active[idx[~inv]] = False
        i = idx[inv]
        a[i], b[i], c[i], d[i] = -C[inv], -D[inv], A[inv], B[inv]
    raise AssertionError("ping-pong reduction did not terminate")


def coset_keys(g: np.ndarray, q: int) -> list:
    """The label of each element mod q: entries mod q or their negatives,
    whichever tuple is smaller."""
    plus = [tuple(row) for row in (g % q).tolist()]
    minus = [tuple(row) for row in ((-g) % q).tolist()]
    return [min(u, v) for u, v in zip(plus, minus)]


class OrbitOracle:
    """Orbit points of (0, 1, 0) with their group elements, for one group,
    out to a sup radius."""

    def __init__(self, group: str, t_max: float):
        pts = quadric_points(t_max)
        g = recover_elements(pts)
        if group == "thin4":
            keep = thin_member(g)
            pts, g = pts[keep], g[keep]
        elif group != "psl2z":
            raise ValueError(group)
        self.t_max = t_max
        self.pts = pts
        self.g = g
        self.sup = np.abs(pts).max(axis=1)
        self.sq = (pts * pts).sum(axis=1)
        self._keys = {}

    def inside(self, t: float, norm: str) -> np.ndarray:
        if t > self.t_max:
            raise ValueError("radius beyond the scanned box")
        return self.sup < t if norm == "sup" else self.sq < t * t

    def counts(self, t_list, norm: str) -> list:
        return [int(self.inside(t, norm).sum()) for t in t_list]

    def breakdown(self, t_list, norm: str, q: int) -> dict:
        """label -> per-radius counts, nonzero labels only."""
        if q not in self._keys:
            self._keys[q] = coset_keys(self.g, q)
        keys = self._keys[q]
        out = {}
        for i, t in enumerate(t_list):
            for j in np.nonzero(self.inside(t, norm))[0]:
                out.setdefault(keys[j], [0] * len(t_list))[i] += 1
        return out


# -- Eisenstein series -------------------------------------------------------

def lattice_eisenstein_i_2() -> float:
    """E(i, 2) for PSL(2, Z): sum' |m i + n|^-4 = 4 zeta(2) beta(2), and
    the coprime sum is that over 2 zeta(4)."""
    return 2.0 * ZETA2 * CATALAN / ZETA4


def _ext_gcd_arrays(c: np.ndarray, d: np.ndarray):
    """(x, y) with x c + y d = 1 for coprime pairs, elementwise."""
    old_r, r = c.copy(), d.copy()
    old_s, s = np.ones_like(c), np.zeros_like(c)
    old_t, t = np.zeros_like(c), np.ones_like(c)
    while np.any(r != 0):
        nz = r != 0
        qt = np.where(nz, old_r // np.where(nz, r, 1), 0)
        old_r, r = np.where(nz, r, old_r), np.where(nz, old_r - qt * r, r)
        old_s, s = np.where(nz, s, old_s), np.where(nz, old_s - qt * s, s)
        old_t, t = np.where(nz, t, old_t), np.where(nz, old_t - qt * t, t)
    sign = np.sign(old_r)
    return old_s * sign, old_t * sign


def thin_rows(height: float) -> np.ndarray:
    """Bottom rows (c, d) of <T^4, S>, one per coset of <T^4>, with
    c^2 + d^2 <= height^2 (c > 0, or the row (0, 1))."""
    h = int(height)
    cc, dd = np.meshgrid(np.arange(1, h + 1), np.arange(-h, h + 1),
                         indexing="ij")
    cc, dd = cc.ravel().astype(np.int64), dd.ravel().astype(np.int64)
    keep = (cc * cc + dd * dd <= height * height) & (np.gcd(cc, dd) == 1)
    cc, dd = cc[keep], dd[keep]
    # a d - b c = 1: with x c + y d = 1 take a = y, b = -x
    x, y = _ext_gcd_arrays(cc, dd)
    found = np.zeros(len(cc), dtype=bool)
    for k in range(4):
        g = np.column_stack([y + k * cc, -x + k * dd, cc, dd])
        found |= thin_member(g)
    rows = np.column_stack([cc[found], dd[found]])
    return np.vstack([[[0, 1]], rows])


def thin_eisenstein(rows: np.ndarray, x: float, y: float, s: float):
    """(1/4) sum over the rows of Im(gamma z)^s, truncated at the table
    height H, and the sum over the last dyadic block H/2 < |row| <= H.
    For s >= 2 successive blocks shrink by about 2^(1.47 - 2s) <= 0.2, so
    the block bounds the omitted tail."""
    c, d = rows[:, 0].astype(float), rows[:, 1].astype(float)
    terms = (y / ((c * x + d) ** 2 + (c * y) ** 2)) ** s / 4.0
    n2 = c * c + d * d
    return float(np.sum(terms)), float(np.sum(terms[n2 > n2.max() / 4.0]))


# -- modular forms -----------------------------------------------------------

def primes_upto(n: int) -> list:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def tau_by_recursion(n_max: int) -> list:
    """tau(1..n_max) from the logarithmic derivative of prod (1-q^n)^24:
    m b(m) = -24 sum_k sigma_1(k) b(m-k); shares nothing with the
    program's squaring route.  Quadratic; used to build the reference
    file, not during runs."""
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            sig[m] += d
    b = [1] + [0] * (n_max - 1)
    for m in range(1, n_max):
        acc = 0
        for k in range(1, m + 1):
            acc += sig[k] * b[m - k]
        b[m] = -24 * acc // m
    return b


def sigma11_mod(n_max: int, mod: int) -> list:
    """sigma_11(n) mod `mod` for n = 1..n_max."""
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        w = pow(d, 11, mod)
        for m in range(d, n_max + 1, d):
            out[m] = (out[m] + w) % mod
    return out[1:]


def hecke_euler(tau_p: dict, s: float) -> tuple:
    """L(f, s) by the Euler product over the given primes, with a bound on
    the omitted primes (|lambda(p)| <= 2)."""
    val = 1.0
    for p, t in tau_p.items():
        lam = t / p ** 5.5
        val /= 1.0 - lam * p ** -s + p ** (-2.0 * s)
    p_max = max(tau_p)
    tail = 2.0 * 2.0 * p_max ** (1.0 - s) / ((s - 1.0) * math.log(p_max))
    return val, tail * val


def sym2_euler(tau_p: dict, s: float) -> tuple:
    """L(sym2 f, s) by its Euler product: at p the factor is
    1 / ((1 - X)(1 - (lambda^2 - 2) X + X^2)), X = p^-s."""
    val = 1.0
    for p, t in tau_p.items():
        lam = t / p ** 5.5
        x = p ** -s
        val /= (1.0 - x) * (1.0 - (lam * lam - 2.0) * x + x * x)
    p_max = max(tau_p)
    tail = 2.0 * 3.0 * p_max ** (1.0 - s) / ((s - 1.0) * math.log(p_max))
    return val, tail * val


def log_abs_eta(x, y, n_terms: int = 40):
    """log|eta(x + iy)| by the product, for y >= 1."""
    x = np.asarray(x, float)[..., None]
    y = np.asarray(y, float)[..., None]
    n = np.arange(1, n_terms + 1)
    qn = np.exp(2j * np.pi * n * (x + 1j * y))
    return (-np.pi * y[..., 0] / 12.0
            + np.sum(np.log(np.abs(1.0 - qn)), axis=-1))


def regularized_e1(x, y):
    """(3/pi)(2 gamma - 2 zeta'(2)/zeta(2) - log(4 y |eta|^4))."""
    const = 2.0 * EULER_GAMMA - 2.0 * ZETA_PRIME_2 / ZETA2
    return (3.0 / math.pi) * (const - np.log(4.0 * np.asarray(y, float))
                              - 4.0 * log_abs_eta(x, y))


def haar_mean(batch, box, n: int = 96) -> float:
    """Mean of a box-supported function (box inside the standard domain)
    against 3/pi dx dy / y^2, tensor Gauss-Legendre."""
    x_lo, x_hi, y_lo, y_hi = box
    g, w = np.polynomial.legendre.leggauss(n)
    xs = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * g
    ys = 0.5 * (y_lo + y_hi) + 0.5 * (y_hi - y_lo) * g
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = batch(X.ravel(), Y.ravel()).reshape(X.shape) / Y ** 2
    return (3.0 / math.pi) * 0.25 * (x_hi - x_lo) * (y_hi - y_lo) \
        * float(w @ vals @ w)


def lattice_pairing(batch, box, n: int = 96) -> float:
    """Pairing of a box-supported function (box inside the standard domain)
    with the regularized E(z, 1) against dx dy / y^2, tensor Gauss-Legendre."""
    x_lo, x_hi, y_lo, y_hi = box
    g, w = np.polynomial.legendre.leggauss(n)
    xs = 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * g
    ys = 0.5 * (y_lo + y_hi) + 0.5 * (y_hi - y_lo) * g
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = batch(X.ravel(), Y.ravel()).reshape(X.shape)
    core = vals * regularized_e1(X, Y) / Y ** 2
    return 0.25 * (x_hi - x_lo) * (y_hi - y_lo) * float(w @ core @ w)


# -- fixed-grid quadrature references ----------------------------------------

def ray_reference(batch, t: float, u_top: float, n: int,
                  chunk: int = 1 << 18) -> float:
    """integral of batch(uT, u) du / u over 1/sqrt(T^2+1) < u < u_top,
    midpoint rule on n log-spaced cells."""
    s0 = math.log(1.0 / math.sqrt(t * t + 1.0))
    s1 = math.log(u_top)
    h = (s1 - s0) / n
    total = 0.0
    for lo in range(0, n, chunk):
        u = np.exp(s0 + (np.arange(lo, min(n, lo + chunk)) + 0.5) * h)
        total += float(np.sum(batch(u * t, u)))
    return total * h


def strip_reference(batch, omega: float, t: float, y_top: float,
                    panels: int, x_res: float, k: int = 8) -> float:
    """(1/omega) integral of batch over 0 < x < omega, 1/T < y < y_top
    against dx dy / y: Gauss-Legendre panels in log y, and at height y a
    midpoint rule in x with about x_res / y cells."""
    g, w = np.polynomial.legendre.leggauss(k)
    e = np.linspace(math.log(1.0 / t), math.log(y_top), panels + 1)
    mid, half = 0.5 * (e[:-1] + e[1:]), 0.5 * (e[1:] - e[:-1])
    s = (mid[:, None] + half[:, None] * g).ravel()
    ws = (half[:, None] * w).ravel()
    total = 0.0
    for y, wy in zip(np.exp(s), ws):
        nx = 1 << max(10, math.ceil(math.log2(x_res / y)))
        xs = (np.arange(nx) + 0.5) * (omega / nx)
        total += wy * float(np.mean(batch(xs, np.full(nx, y))))
    return total


def moment_reference(batch, t: float, n: int, chunk: int = 1 << 18) -> float:
    """integral of batch(Ty, y) dy / y over all y > 0 (both ends die
    doubly exponentially; the grid covers 1/(50(T^2+1)) < y < 50)."""
    s0 = math.log(1.0 / (50.0 * (t * t + 1.0)))
    s1 = math.log(50.0)
    h = (s1 - s0) / n
    total = 0.0
    for lo in range(0, n, chunk):
        y = np.exp(s0 + (np.arange(lo, min(n, lo + chunk)) + 0.5) * h)
        total += float(np.sum(batch(t * y, y)))
    return total * h


def log_law_slope(ts, values) -> float:
    """Least-squares slope of values against log T."""
    a = np.column_stack([np.log(np.asarray(ts, float)), np.ones(len(ts))])
    return float(np.linalg.lstsq(a, np.asarray(values, float), rcond=None)[0][0])
