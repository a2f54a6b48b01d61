import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import shearlab.modforms
import shearlab.quadrature
from qexp_oracle import (_square_series, mobius_by_spf, qexp_forward,
                         sym2_coeffs_by_loop, tau_by_kronecker,
                         tau_by_squarings)
from shearlab.algebra import UTBPoint, compose, mobius_act
from shearlab.eisenstein import mu_eis
from shearlab.groups import PSL2Z, BudgetExceeded, reduce_points
from shearlab.measures import haar_mean, mu_T
from shearlab.modforms import (InsufficientConvergenceError, QExpansion,
                               _fd_pairing, _mobius, _qexp_eval, _ray_tail,
                               _series_product, _sparse_times, _sym2_coeffs,
                               _tau_tuple,
                               delta_qexp,
                               eval_form, eval_psi_f, form_observable, hecke_L,
                               kronecker_check,
                               petersson_norm, second_moment_lhs,
                               second_moment_prediction, sym2_L, weight_W)
from shearlab.quadrature import adaptive, refine
from shearlab.specfun import EULER_GAMMA, gamma_fn, zeta, zeta_prime

# mpmath (30 digits): exact tau to 15000 terms, Gaussian cutoff with a
# three-scale Richardson pass on each sum
SYM2_AT_1 = 0.63179294572788320301
SYM2_AT_2 = 0.80587520944869742533
SYM2_LOG_DERIV = 0.35539893715742659334
COMPLETED_LOG_DERIV = 0.26703637016394781710
PETERSSON = 1.0353620568043209223e-6
KRONECKER_RHS = 0.31017929473758504351

TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920,
       534612, -370944)


def poly_mul(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            out[i + j] += ai * bj
    return out


def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def cauchy_square(arr, n_terms):
    # the plain O(n^2) truncated square the Kronecker kernel replaced
    out = [0] * n_terms
    for i, ai in enumerate(arr):
        if ai:
            lim = n_terms - i
            if lim <= 0:
                break
            for j in range(min(lim, len(arr))):
                aj = arr[j]
                if aj:
                    out[i + j] += ai * aj
    return out


def primes_upto(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return [int(p) for p in np.flatnonzero(sieve)]


@pytest.fixture(scope="module")
def delta_20k():
    return delta_qexp(20000)


def test_tau_table(delta):
    for n, t in enumerate(TAU, start=1):
        assert delta.a(n) == t


def test_tau_against_eisenstein_discriminant(delta):
    # independent route: 1728 Delta = E4^3 - E6^2 over the integers
    n = 60
    e4 = [1] + [240 * sigma(3, m) for m in range(1, n)]
    e6 = [1] + [-504 * sigma(5, m) for m in range(1, n)]
    lhs = [a - b for a, b in
           zip(poly_mul(poly_mul(e4, e4, n), e4, n), poly_mul(e6, e6, n))]
    for m in range(1, n):
        q, r = divmod(lhs[m], 1728)
        assert r == 0
        assert q == delta.a(m)


def test_tau_ramanujan_congruence(delta):
    for n in range(1, 1001):
        assert delta.a(n) % 691 == sigma(11, n) % 691


def test_tau_hecke_multiplicative(delta):
    pairs = [(m, n) for m in range(2, 64) for n in range(2, 64)
             if math.gcd(m, n) == 1 and m * n <= len(delta)]
    assert len(pairs) > 500
    for m, n in pairs:
        assert delta.a(m * n) == delta.a(m) * delta.a(n)


def test_tau_hecke_prime_power_recursion(delta):
    for p in (2, 3, 5, 7, 11):
        r = 1
        while p ** (r + 1) <= len(delta):
            assert delta.a(p ** (r + 1)) == (
                delta.a(p) * delta.a(p ** r)
                - p ** 11 * delta.a(p ** (r - 1)))
            r += 1


def test_tau_deligne_bound_at_primes(delta):
    sieve = np.ones(len(delta) + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(len(delta) ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    for p in np.flatnonzero(sieve):
        p = int(p)
        assert delta.a(p) ** 2 <= 4 * p ** 11  # exact integers throughout


def test_qexpansion_guards():
    with pytest.raises(ValueError):
        QExpansion(11, (1, -24))
    with pytest.raises(ValueError):
        QExpansion(2, (1,))
    with pytest.raises(ValueError):
        QExpansion(12, (2, -24))
    with pytest.raises(ValueError):
        delta_qexp(0)


def test_equal_expansions_share_one_cache_entry(delta):
    a = QExpansion(12, delta.coeffs[:60])
    b = QExpansion(12, list(delta.coeffs[:60]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert form_observable(a) is form_observable(b)
    c = QExpansion(12, delta.coeffs[:59])
    assert c != a and hash(c) != hash(a)
    assert form_observable(c) is not form_observable(a)


@pytest.mark.parametrize("bad", [1500.0, "1500", None])
def test_delta_qexp_needs_an_integer(bad):
    with pytest.raises(ValueError):
        delta_qexp(bad)


# -- the Kronecker-substitution square, the oracle of the FFT product ------


@pytest.mark.parametrize("length", [1, 2, 3, 17, 500])
def test_square_series_matches_cauchy(length):
    rng = random.Random(length)
    signed = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(length)]
    signed[rng.randrange(length)] = 0
    mags = [rng.randint(1, 10 ** 30) for _ in range(length)]
    negative = [-m for m in mags]
    alternating = [m if i % 2 else -m for i, m in enumerate(mags)]
    extreme = [(-1) ** i * 10 ** 30 for i in range(length)]
    for arr in (signed, negative, alternating, extreme):
        for n_terms in {1, (length + 1) // 2, length, 2 * length + 1}:
            assert (_square_series(arr, n_terms)
                    == cauchy_square(arr, n_terms))


def test_square_series_small_cases():
    assert _square_series([0, 0, 0], 3) == [0, 0, 0]
    assert _square_series([], 2) == [0, 0]
    assert _square_series([5, -1], 0) == []
    assert _square_series((1, -1), 4) == [1, -2, 1, 0]


# -- the exact FFT product ---------------------------------------------------


def random_series(rng, length):
    # both signs, runs of zeros, and magnitudes of every size up to 2^40
    out = []
    while len(out) < length:
        if rng.random() < 0.15:
            out += [0] * rng.randint(1, 20)
        else:
            size = 1 << rng.randint(0, 40)
            out.append(rng.choice((-1, 1)) * rng.randint(0, size))
    return out[:length]


@pytest.mark.parametrize("seed", range(12))
def test_series_product_matches_cauchy(seed):
    rng = random.Random(seed)
    la, lb = {0: (0, 5), 1: (1, 1), 2: (300, 300), 3: (7, 0)}.get(
        seed, (rng.randint(0, 300), rng.randint(0, 300)))
    a, b = random_series(rng, la), random_series(rng, lb)
    if seed == 2:
        a[0], b[-1] = 1 << 40, -(1 << 40)
    for x, y in ((a, b), (a, a)):
        full = poly_mul(x, y, len(x) + len(y) + 5)
        xs = np.array(x, dtype=np.int64)
        ys = xs if y is x else np.array(y, dtype=np.int64)
        for n in {0, 1, min(len(x), len(y)), len(x) + len(y) - 1,
                  len(x) + len(y) + 5}:
            if n >= 0:
                assert _series_product(xs, ys, n) == full[:n], (x is y, n)


def test_series_product_builds_the_level_one_eigenforms():
    # E4 = 1 + 240 sum sigma3(n) q^n and E6 = 1 - 504 sum sigma5(n) q^n give
    # E8 = E4^2, E10 = E4 E6 and E14 = E4^2 E6 (every space M_k of weight
    # 8, 10 and 14 is one-dimensional), and Delta times each of E4, E6,
    # E8, E10 and E14 the normalized eigenform of weight 16, 18, 20, 22
    # and 26, each space S_k one-dimensional too
    n = 7
    e4 = np.array([1] + [240 * sigma(3, m) for m in range(1, n)], np.int64)
    e6 = np.array([1] + [-504 * sigma(5, m) for m in range(1, n)], np.int64)
    delta = np.array((0,) + TAU[:n - 1], dtype=np.int64)

    def times(x, y):
        return np.array(_series_product(x, y, n), dtype=np.int64)

    e8, e10 = times(e4, e4), times(e4, e6)
    e14 = times(e8, e6)
    for e, k, c in ((e8, 7, 480), (e10, 9, -264), (e14, 13, -24)):
        assert e.tolist() == [1] + [c * sigma(k, m) for m in range(1, n)]
    assert int(np.abs(e14).max()) == 24 * sigma(13, 6) == 313495116768
    forms = {16: e4, 18: e6, 20: e8, 22: e10, 26: e14}
    forms = {k: _series_product(e, delta, n) for k, e in forms.items()}
    assert {k: f[2] for k, f in forms.items()} == {
        16: 216, 18: -528, 20: 456, 22: -288, 26: -48}
    for k, a in forms.items():
        assert a[:2] == [0, 1]
        assert a[2] * a[3] == a[6]
        assert a[4] == a[2] ** 2 - 2 ** (k - 1)


def bound_cut(u, k, n):
    """The fewest nonzeros m of two +-1 series (one limb each) for which
    Percival's bound, m (1+u)^(6k+1) (1+sqrt5 u)^(3k+1) (1 + 4 n u) - m
    at transform length 2^k, reaches 1/4."""
    grow = math.expm1((6 * k + 1) * math.log1p(u) + (3 * k + 1)
                      * math.log1p(math.sqrt(5) * u)) * (1 + 4 * n * u)
    cut = math.ceil(0.25 / grow)
    assert (cut - 1) * grow < 0.25 * (1 - 1e-9) < 0.25 * (1 + 1e-9) \
        < cut * grow
    return cut


def test_series_product_bound_refuses_before_any_transform(monkeypatch):
    # float64's bound never refuses a series that fits in memory, so the
    # unit roundoff is taken as 2^-20: two +-1 series of length 2048 go to
    # transforms of length 4096, and the bound is their nonzero count
    # times a factor near 1.5e-4
    u, length = 2.0 ** -20, 2048
    n = 2 * length - 1
    cut = bound_cut(u, 12, n)
    assert 1000 < cut < length
    monkeypatch.setattr(shearlab.modforms, "_UNIT_ROUNDOFF", u)
    rng = np.random.default_rng(5)

    def series(nnz):
        x = np.zeros(length, dtype=np.int64)
        x[rng.choice(length, nnz, replace=False)] = rng.choice([-1, 1], nnz)
        return x

    def transform(*_, **__):
        raise AssertionError("a transform ran past the bound")

    with monkeypatch.context() as m:
        m.setattr(np.fft, "rfft", transform)
        with pytest.raises(OverflowError):
            _series_product(series(cut), series(cut), n)
    # one nonzero fewer is just inside the bound, and rounds exactly
    a, b = series(cut - 1), series(cut - 1)
    assert _series_product(a, b, n) == np.convolve(a, b).tolist()


def test_series_product_raises_on_a_value_off_its_integer(monkeypatch):
    x = np.array(TAU, dtype=np.int64)
    want = poly_mul(TAU, TAU, 12)
    irfft = np.fft.irfft
    for off, exact in ((0.2, True), (0.3, False)):
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *a, **k: irfft(*a, **k) + off)
        if exact:
            assert _series_product(x, x, 12) == want
        else:
            with pytest.raises(OverflowError):
                _series_product(x, x, 12)


BIT_IDENTITY_SIZES = [1, 2, 3, 10, 1500, 4000, 6000]


@pytest.mark.parametrize("n", BIT_IDENTITY_SIZES)
def test_tau_matches_the_three_squarings(n):
    # the int64 sparse steps and one squaring give the very integers of
    # three squarings on Python integers
    assert _tau_tuple(n) == tau_by_squarings(n)


def test_tau_20k_matches_the_kronecker_square():
    # the FFT square gives the very integers of the big-integer square
    assert _tau_tuple(20000) == tau_by_kronecker(20000)


@pytest.mark.parametrize("n", BIT_IDENTITY_SIZES)
def test_sym2_coeffs_match_the_loop(n):
    # the prime sieve and one bincount give the same mu and the same bits
    # as the smallest-prime-factor sieve and the loop over squarefree d
    assert np.array_equal(_mobius(n), mobius_by_spf(n))
    f = delta_qexp(n)
    got, want = _sym2_coeffs(f), sym2_coeffs_by_loop(f)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_sparse_step_refuses_int64_overflow():
    t = np.array([0, 1, 3], dtype=np.int64)
    c = np.array([1, -3, 4], dtype=np.int64)
    # max |dense| * sum |c| = 2^63 exactly: refused before any slice-add
    dense = np.array([1 << 60, -(1 << 59), 7, 0], dtype=np.int64)
    with pytest.raises(OverflowError):
        _sparse_times(t, c, dense)
    # just below the bound: the exact product, whose last term reaches
    # 2^63 - 8 with nothing wrapped
    m = (1 << 60) - 1
    dense = np.array([m, -5, -m, m], dtype=np.int64)
    want = [0] * 4
    for tk, ck in zip(t.tolist(), c.tolist()):
        for i in range(tk, 4):
            want[i] += ck * int(dense[i - tk])
    assert want[3] == (1 << 63) - 8
    assert _sparse_times(t, c, dense).tolist() == want
    # a sparse term past the dense length neither counts toward the bound
    # nor adds anything
    far = np.array([0, 10], dtype=np.int64)
    dense = np.array([(1 << 62) + 1, 3], dtype=np.int64)
    assert _sparse_times(far, np.array([1, 1], dtype=np.int64),
                         dense).tolist() == dense.tolist()
    with pytest.raises(OverflowError):
        _sparse_times(far, np.array([2, 1], dtype=np.int64), dense)


def test_tau_prefix_is_stable():
    assert delta_qexp(4000).coeffs == delta_qexp(6000).coeffs[:4000]


def test_tau_20k_ramanujan_congruence(delta_20k):
    n_max = len(delta_20k)
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        d11 = pow(d, 11, 691)
        for m in range(d, n_max + 1, d):
            sig[m] += d11
    for n in range(1, n_max + 1):
        assert (delta_20k.a(n) - sig[n]) % 691 == 0


def test_tau_20k_multiplicative(delta_20k):
    n_max = len(delta_20k)
    checked = 0
    for m in range(2, math.isqrt(n_max) + 1):
        for n in range(m + 1, n_max // m + 1):
            if math.gcd(m, n) == 1:
                assert delta_20k.a(m * n) == delta_20k.a(m) * delta_20k.a(n)
                checked += 1
    assert checked > 45000


def test_tau_20k_prime_squares_and_deligne(delta_20k):
    primes = primes_upto(len(delta_20k))
    for p in primes:
        assert delta_20k.a(p) ** 2 <= 4 * p ** 11
        if p <= 141:
            assert delta_20k.a(p * p) == delta_20k.a(p) ** 2 - p ** 11
    assert primes[-1] > 19000


# -- evaluation --------------------------------------------------------------


def test_psi_delta_is_automorphic(delta):
    rng = np.random.default_rng(11)
    gens = PSL2Z.gen_set()
    for _ in range(50):
        g = compose(gens[rng.integers(len(gens))],
                    gens[rng.integers(len(gens))])
        p = UTBPoint(rng.uniform(-2, 2), math.exp(rng.uniform(-1.5, 1.5)), 0.0)
        a = eval_psi_f(delta, mobius_act(g, p))
        b = eval_psi_f(delta, p)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-20)


def test_modularity_cocycle(delta):
    # f(z) = (cz + d)^(-k) f(gz) checked against the raw q-series on both
    # sides, away from the reduction machinery
    z = complex(0.3, 1.4)
    gz = (z) / (z + 1.0)  # g = [[1, 0], [1, 1]]
    lhs = eval_form(delta, UTBPoint(z.real, z.imag, 0.0))
    rhs = (z + 1.0) ** (-12) * eval_form(delta, UTBPoint(gz.real, gz.imag, 0.0))
    assert abs(lhs - rhs) < 1e-14 * abs(lhs) + 1e-25


def test_eval_form_meets_psi_at_every_height(delta):
    # eval_form unwinds the walk's own factor j, so |f|^2 y^12 is Psi_f to
    # rounding however low the point; the reducing word's cz + d lost
    # digits in c x + d, up to 2.5e-2 of Psi at y near 1e-12
    rng = np.random.default_rng(7)
    xs = rng.uniform(-40.0, 40.0, 400)
    ys = np.exp(rng.uniform(math.log(1e-12), math.log(60.0), 400))
    ys[:2] = 1e-12, 60.0
    _, rys = reduce_points(xs, ys)
    tested = 0
    for x, y, ry in zip(xs, ys, rys):
        psi = eval_psi_f(delta, complex(x, y))
        # skip where |f|^2 at the reduced point underflows, Psi with it
        if psi < np.finfo(float).tiny * ry ** 12:
            continue
        assert abs(eval_form(delta, complex(x, y))) ** 2 * y ** 12 \
            == pytest.approx(psi, rel=1e-12)
        tested += 1
    assert tested > 350


def test_observable_batch_matches_scalar(delta, delta_psi):
    xs = np.array([0.1, -0.4, 1.3, 0.02])
    ys = np.array([1.1, 0.6, 2.2, 0.9])
    vals = delta_psi.batch(xs, ys)
    for i in range(len(xs)):
        assert vals[i] == pytest.approx(
            eval_psi_f(delta, UTBPoint(xs[i], ys[i], 0.0)), rel=1e-12)


def _oracle_psi(f, xs, ys):
    rx, ry = reduce_points(xs, ys)
    return np.abs(qexp_forward(f, rx, ry)) ** 2 * ry ** f.weight


def _ray_nodes(f, t, monkeypatch):
    # every node the moment's ray quadrature evaluates at radius t
    seen = []

    def recording(g, *args, **kwargs):
        def h(ys):
            seen.append(ys)
            return g(ys)
        return adaptive(h, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(shearlab.modforms, "adaptive", recording)
        second_moment_lhs(f, t)
    return np.concatenate(seen)


def test_observable_batch_matches_forward_sum_on_the_ray(delta, delta_psi,
                                                         monkeypatch):
    t = 2179.0
    ys = _ray_nodes(delta, t, monkeypatch)
    # the apex sits at 4.6e-4, where the ray is deepest in the cusps
    assert np.sum(ys - 1.0 / math.hypot(t, 1.0) < 1e-3) > 1000
    want = _oracle_psi(delta, t * ys, ys)
    assert np.max(np.abs(delta_psi.batch(t * ys, ys) - want)) \
        <= 1e-14 * np.max(want)


def test_observable_batch_matches_forward_sum_at_random_points(delta,
                                                               delta_psi):
    rng = np.random.default_rng(2179)
    xs = rng.uniform(-3.0, 3.0, 10000)
    ys = np.exp(rng.uniform(math.log(1e-4), math.log(10.0), 10000))
    want = _oracle_psi(delta, xs, ys)
    assert np.max(np.abs(delta_psi.batch(xs, ys) - want)) \
        <= 1e-14 * np.max(want)


def test_observable_batch_sees_one_block_at_a_time(delta, delta_psi,
                                                   monkeypatch):
    sizes = {"reduce_points": [], "_qexp_eval": []}
    for name in sizes:
        def spy(*args, _orig=getattr(shearlab.modforms, name),
                _seen=sizes[name]):
            _seen.append(np.size(args[-1]))   # the y array
            return _orig(*args)
        monkeypatch.setattr(shearlab.modforms, name, spy)
    block = shearlab.modforms._BLOCK
    n = 3 * block + 17
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1.0, 1.0, (n, 1))
    ys = np.exp(rng.uniform(-6.0, 1.0, (n, 1)))
    vals = delta_psi.batch(xs, ys)
    assert vals.shape == xs.shape
    for seen in sizes.values():
        assert max(seen) <= block and sum(seen) == n


def test_qexp_eval_raises_when_the_expansion_is_too_short():
    # the tail bound asks for 10 terms at the lowest reduced height
    short = delta_qexp(5)
    with pytest.raises(ValueError, match="coefficients"):
        _qexp_eval(short, np.array([0.0]), np.array([math.sqrt(3.0) / 2.0]))
    with pytest.raises(ValueError, match="coefficients"):
        form_observable(short).batch(np.array([0.45]), np.array([0.9]))
    with pytest.raises(ValueError, match="coefficients"):
        eval_psi_f(short, UTBPoint(0.0, 1.0, 0.0))
    # high in the cusp five terms are plenty
    assert _qexp_eval(short, np.array([0.0]), np.array([4.0]))[0] \
        == pytest.approx(math.exp(-8.0 * math.pi), rel=1e-9)


def test_observable_decay_envelope(delta_psi):
    # declared cusp envelope c y^-alpha must dominate the actual values
    for y in (3.0, 6.0, 20.0):
        vals = delta_psi.batch(np.linspace(-0.5, 0.5, 40), np.full(40, y))
        assert np.max(vals) <= delta_psi.c_psi * y ** -delta_psi.alpha_psi


# -- Petersson norm and the symmetric square ---------------------------------


def test_petersson_norm_value(delta):
    assert petersson_norm(delta) == pytest.approx(PETERSSON, rel=1e-10)


def test_petersson_residue_identity(delta):
    # quadrature route against the L-value route; they share no code
    lam = sym2_L(delta, 1.0).completed
    assert petersson_norm(delta) == pytest.approx(
        (math.pi / 3.0) * lam / zeta(2.0), rel=1e-9)


def test_haar_mean_of_observable_is_scaled_norm(delta, delta_psi):
    # the no-profile Haar mean reads the observable through its reducing
    # batch and cuts the domain at the cusp envelope; the norm evaluates
    # the expansion directly and cuts at y = 5.  Both integrate_fd runs
    # converge to 1e-10, so they must agree to that
    assert haar_mean(delta_psi) == pytest.approx(
        (3.0 / math.pi) * petersson_norm(delta), rel=1e-10)


def test_fd_pairing_raises_when_unconverged(delta):
    with pytest.raises(InsufficientConvergenceError):
        _fd_pairing(delta, lambda xa, ys: np.full(xa.shape, np.nan))


def test_petersson_norm_raises_when_refinement_disagrees(delta, monkeypatch):
    def unconverged(run, sizes, **tol):
        value, err, _ = refine(run, sizes, **tol)
        return value, err, False

    monkeypatch.setattr(shearlab.modforms, "refine", unconverged)
    # the cached wrapper may already hold the fixture's norm
    with pytest.raises(InsufficientConvergenceError, match="petersson"):
        petersson_norm.__wrapped__(delta)


def test_domain_integrals_make_one_adaptive_pass(delta, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(shearlab.quadrature, "adaptive", counting)
    # one coefficient short of the fixture, so petersson_norm's cache
    # holds nothing for it
    fresh = QExpansion(delta.weight, delta.coeffs[:-1])
    petersson_norm(fresh)
    assert 1 <= len(calls) <= 3       # one per refine size at most
    del calls[:]
    kronecker_check(fresh)
    assert len(calls) == 1


def test_sym2_values(delta):
    v1 = sym2_L(delta, 1.0)
    assert v1.value == pytest.approx(SYM2_AT_1, abs=1e-9)
    assert abs(v1.value - SYM2_AT_1) < max(v1.est_error, 1e-12)
    v2 = sym2_L(delta, 2.0)
    assert v2.value == pytest.approx(SYM2_AT_2, abs=1e-9)


def test_sym2_log_derivative(delta):
    v = sym2_L(delta, 1.0, want_derivative=True)
    assert v.l_prime / v.value == pytest.approx(SYM2_LOG_DERIV, abs=1e-8)
    assert v.completed_log_deriv == pytest.approx(COMPLETED_LOG_DERIV,
                                                  abs=1e-8)
    # completed pieces tie together through the Gamma factor
    assert v.completed_log_deriv == pytest.approx(
        -math.log(4.0 * math.pi) + 2.4426616799758120167 + SYM2_LOG_DERIV,
        abs=1e-8)


def test_sym2_needs_enough_coefficients():
    with pytest.raises(InsufficientConvergenceError):
        sym2_L(delta_qexp(50), 1.0)


def test_l_guards(delta):
    with pytest.raises(ValueError):
        hecke_L(delta, 0.5)
    with pytest.raises(ValueError):
        sym2_L(delta, 0.5)


def test_hecke_integral_identity(delta):
    # Mellin transform of f on the imaginary axis against the Dirichlet
    # series times its archimedean factor, independent quadrature route
    s = 2.0
    sig = s + 5.5

    def integrand(y):
        return np.array([eval_form(delta, UTBPoint(0.0, yy, 0.0)).real
                         * yy ** (sig - 1.0) for yy in np.atleast_1d(y)])

    res = adaptive(integrand, 0.05, 12.0, abs_tol=1e-15, rel_tol=1e-10,
                   initial_edges=np.geomspace(0.05, 12.0, 200))
    want = weight_W(12, s, 0.0) * hecke_L(delta, s)
    assert res.converged
    assert res.value == pytest.approx(want, rel=1e-6)


def test_weight_closed_form_and_decay():
    sig = 2.0 + 5.5
    assert weight_W(12, 2.0, 0.0) == pytest.approx(
        math.exp(-sig * math.log(2.0 * math.pi)) * gamma_fn(sig), rel=1e-14)
    assert abs(weight_W(12, 2.0, 50.0)) < 1e-3 * abs(weight_W(12, 2.0, 0.0))
    with pytest.raises(ValueError):
        weight_W(12, -6.0, 0.0)


# -- the shear second moment -------------------------------------------------


def test_second_moment_lhs_is_a_shear_pairing(delta, delta_psi):
    t = 30.0
    lhs = second_moment_lhs(delta, t)
    folded = mu_T(delta_psi, t, tol=1e-12).value \
        + mu_T(delta_psi, -t, tol=1e-12).value
    assert lhs == pytest.approx(folded, rel=1e-9)


def _ray_midpoints(psi, t, n):
    # midpoint rule in log y over 1/(50(T^2+1)) < y < 50, both halves
    s0, s1 = math.log(1.0 / (50.0 * (t * t + 1.0))), math.log(50.0)
    h = (s1 - s0) / n
    y = np.exp(s0 + (np.arange(n) + 0.5) * h)
    return h * float(np.sum(psi.batch(t * y, y)))


def test_second_moment_lhs_matches_fixed_grid_at_large_t(delta, delta_psi):
    # geometric seed panels alone let the refinement stop 1.6e-5 off here
    t = 674.4
    ref = _ray_midpoints(delta_psi, t, 1 << 17)
    assert abs(ref - _ray_midpoints(delta_psi, t, 1 << 16)) < 1e-9 * ref
    assert second_moment_lhs(delta, t) == pytest.approx(ref, rel=1e-7)


def test_second_moment_converges_at_t_1e4(delta):
    t = 1e4
    lhs = second_moment_lhs(delta, t)
    assert lhs == pytest.approx(second_moment_prediction(delta, t), rel=1e-4)


def _moment_pass(f, t, monkeypatch):
    # the moment at radius t and the QuadResult of its one adaptive pass
    results = []

    def capturing(*args, **kwargs):
        results.append(adaptive(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(shearlab.modforms, "adaptive", capturing)
    lhs = second_moment_lhs(f, t)
    (res,) = results
    return lhs, res


def test_second_moment_seeds_save_evaluations(delta, monkeypatch):
    # one seed panel per period crossing took 727,215 evaluations here
    _, res = _moment_pass(delta, 3000.0, monkeypatch)
    assert res.converged
    assert res.n_evals <= 0.8 * 727215


def test_second_moment_converges_at_t_2e4(delta, monkeypatch):
    t = 2e4
    lhs, res = _moment_pass(delta, t, monkeypatch)
    assert res.converged and res.n_panels < 20000 + 20 * t
    # measured rel_gap 2.6e-6
    assert lhs == pytest.approx(second_moment_prediction(delta, t), rel=1e-5)


def test_second_moment_raises_when_unconverged(delta):
    with pytest.raises(InsufficientConvergenceError):
        second_moment_lhs(delta, 2.0, tol=1e-300)


# the moment by one adaptive pass over [u0, 5] at the default tol
MOMENT_BY_QUADRATURE = {2.0: 5.301335065559197e-06, 4.0: 6.549761877319258e-06}


def _no_quadrature(*args, **kwargs):
    raise AssertionError("the ray quadrature ran")


@pytest.mark.parametrize("t", sorted(MOMENT_BY_QUADRATURE))
def test_second_moment_is_all_closed_form_low_in_t(delta, monkeypatch, t):
    # u0 >= _SPLIT: the closed form alone, against the quadrature it replaced
    monkeypatch.setattr(shearlab.modforms, "adaptive", _no_quadrature)
    assert second_moment_lhs(delta, t) == pytest.approx(
        MOMENT_BY_QUADRATURE[t], rel=1e-12, abs=0.0)


def test_closed_form_rounding_bound_sets_the_least_tol(delta):
    # about 2.5e-14 relative at T = 2, where the moment is all closed form
    value, err = _ray_tail(delta, 2.0, 1.0 / math.sqrt(5.0))
    assert 0.0 < err < 1e-13 * value
    second_moment_lhs(delta, 2.0, tol=1e-12)
    with pytest.raises(InsufficientConvergenceError, match="rounding"):
        second_moment_lhs(delta, 2.0, tol=1e-14)


@pytest.mark.parametrize("t", [20.0, 300.0, 3000.0])
def test_closed_form_matches_ray_quadrature(delta, delta_psi, t):
    # int_a^5 of the observable itself, seeded at the period crossings;
    # beyond y = 5 the integrand is below e^(-20 pi) y^11
    a = shearlab.modforms._SPLIT
    value, err = _ray_tail(delta, t, a)
    crossings = (np.arange(math.ceil(a * t - 0.5), 5.0 * t - 0.5) + 0.5) / t
    res = adaptive(lambda ys: delta_psi.batch(t * ys, ys) / ys, a, 5.0,
                   abs_tol=1e-22, rel_tol=1e-13, initial_edges=crossings,
                   max_panels=200000)
    assert res.converged
    assert value == pytest.approx(res.value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t", [30.0, 674.4, 3000.0])
def test_second_moment_does_not_depend_on_the_split(delta, monkeypatch, t):
    values = []
    for a in (0.1, 0.2, 0.3):
        monkeypatch.setattr(shearlab.modforms, "_SPLIT", a)
        values.append(second_moment_lhs(delta, t))
    assert max(values) - min(values) <= 1e-9 * min(values)


def test_second_moment_meets_the_references(delta):
    # the 51 fixed-grid moments of perfbench/refs.json, built by
    # perfbench/make_refs.py, at the tolerance the moment is called with
    refs = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "refs.json").read_text())["moment"]
    assert len(refs) == 51
    for t, (ref, _) in refs.items():
        assert second_moment_lhs(delta, float(t)) == pytest.approx(
            ref, rel=1e-8, abs=0.0), t


def test_second_moment_split_saves_evaluations(delta, monkeypatch):
    # the pass over [u0, 5] took 528,450 evaluations here
    _, res = _moment_pass(delta, 3000.0, monkeypatch)
    assert res.converged
    assert res.n_evals <= 0.75 * 528450


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_second_moment_needs_a_finite_t(delta, t):
    with pytest.raises(ValueError, match="finite"):
        second_moment_lhs(delta, t)


def test_second_moment_seed_ceiling(delta, monkeypatch):
    # 1e12 asks for 2e11 periods: refused before anything is built
    monkeypatch.setattr(shearlab.modforms, "adaptive", _no_quadrature)
    with pytest.raises(BudgetExceeded, match="ceiling"):
        second_moment_lhs(delta, 1e12)
    # 600 periods split into 10,935 seed panels at T = 3000
    monkeypatch.setattr(shearlab.modforms, "MAX_SEED_PANELS", 10934)
    with pytest.raises(BudgetExceeded, match="10935 seed"):
        second_moment_lhs(delta, 3000.0)


def test_second_moment_grows_with_t(delta):
    assert second_moment_lhs(delta, 50.0) > second_moment_lhs(delta, 20.0)


def test_second_moment_prediction_formula(delta):
    bracket = COMPLETED_LOG_DERIV + EULER_GAMMA \
        - 2.0 * zeta_prime(2.0) / zeta(2.0)
    for t in (20.0, 200.0):
        want = 2.0 * petersson_norm(delta) / (math.pi / 3.0) \
            * (math.log(t) + bracket)
        assert second_moment_prediction(delta, t) == pytest.approx(want,
                                                                   rel=1e-8)


def test_second_moment_guard(delta):
    with pytest.raises(ValueError):
        second_moment_lhs(delta, 1.0)


# -- the eta pairing ---------------------------------------------------------


def test_kronecker_routes_agree(delta):
    lhs, rhs, gap = kronecker_check(delta)
    assert rhs == pytest.approx(KRONECKER_RHS, abs=1e-9)
    assert gap < 1e-9
    assert gap == pytest.approx(abs(lhs - rhs), abs=1e-18)


def test_kronecker_via_eisenstein_pairing(delta, delta_psi):
    # pairing the observable with the regularized series at s = 1 must
    # reproduce the eta-log pairing up to the constant term
    lhs, _, _ = kronecker_check(delta)
    paired = (math.pi / 3.0) * mu_eis(delta_psi, regularized=True) \
        / petersson_norm(delta)
    const = 2.0 * EULER_GAMMA - 2.0 * zeta_prime(2.0) / zeta(2.0)
    assert paired == pytest.approx(const - lhs, abs=1e-6)
