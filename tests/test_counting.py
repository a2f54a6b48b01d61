import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shearlab.algebra import INT_S, FormVector, IntGroupElement
from shearlab.counting import (CountResult, FitResult, InsufficientDataError,
                               OrbitQuery, StabilizerError, coset_disparity,
                               count_orbit, fit_counting_law,
                               identity_coset_factor)
from shearlab.counting import _element, _Walk
from shearlab.groups import (PSL2Z, THIN4, GroupSpec, WordBudget,
                             coset_labels, label_codes)
from coset_oracle import label_of
from divisor_count import quadric_counts
from word_search import SearchBudgetExceeded, enumerate_words

X0 = FormVector(0.0, 1.0, 0.0)


# -- the independent oracle --------------------------------------------------
#
# hand-coded action of the two generators on form vectors: substituting
# (u, v) -> (u, u + v) and (u, v) -> (-v, u) in p u^2 + q uv + r v^2.
# No shared code with the package's spin cover.

def act_T(p, q, r):
    return (p, q + 2 * p, p + q + r)


def act_Tinv(p, q, r):
    return (p, q - 2 * p, p - q + r)


def act_S(p, q, r):
    return (r, -q, p)


def orbit_closure(t_max, gens=(act_T, act_Tinv, act_S), gate_factor=6.0):
    """All orbit vectors of (0, 1, 0) within a generous exploration box,
    by plain set-based breadth-first search on integer triples."""
    gate = gate_factor * t_max
    seen = {(0, 1, 0)}
    frontier = [(0, 1, 0)]
    while frontier:
        nxt = []
        for v in frontier:
            for act in gens:
                w = act(*v)
                if w not in seen and max(abs(c) for c in w) <= gate:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def quadric_scan(t, disc=1):
    """Integer points of q^2 - 4pr = disc with sup norm strictly below t."""
    lim = int(math.ceil(t)) - 1
    pts = set()
    for q in range(-lim, lim + 1):
        rhs = q * q - disc
        for p in range(-lim, lim + 1):
            if p == 0:
                if rhs == 0:
                    for r in range(-lim, lim + 1):
                        pts.add((p, q, r))
                continue
            if rhs % (4 * p) == 0:
                r = rhs // (4 * p)
                if abs(r) <= lim:
                    pts.add((p, q, r))
    return {v for v in pts if max(abs(c) for c in v) < t}


@pytest.fixture(scope="module")
def lattice_small():
    return count_orbit(OrbitQuery(PSL2Z, X0, (4.0, 8.0, 12.0)))


def test_count_matches_brute_force_oracle(lattice_small):
    closure = orbit_closure(12.0)
    for i, t in enumerate(lattice_small.t_list):
        scan = quadric_scan(t)
        oracle = {v for v in scan if v in closure}
        # on this quadric the orbit fills every integer point, so the
        # membership filter must not discard anything the scan found
        assert oracle == scan
        assert lattice_small.counts[i] == len(oracle)
    assert all(lattice_small.saturated)


def test_thin_counts_are_a_sub_orbit(lattice_small):
    thin = count_orbit(OrbitQuery(THIN4, X0, (4.0, 8.0, 12.0)))
    assert all(thin.saturated)
    for a, b in zip(thin.counts, lattice_small.counts):
        assert 0 < a < b
    # thin closure under the hand-coded generators: shear by 4 only
    def act_T4(p, q, r):
        return (p, q + 8 * p, 16 * p + 4 * q + r)

    def act_T4inv(p, q, r):
        return (p, q - 8 * p, 16 * p - 4 * q + r)

    closure = orbit_closure(12.0, gens=(act_T4, act_T4inv, act_S))
    for i, t in enumerate(thin.t_list):
        oracle = {v for v in quadric_scan(t) if v in closure}
        assert thin.counts[i] == len(oracle)


def test_counts_monotone_and_result_validates(lattice_small):
    assert lattice_small.counts == tuple(sorted(lattice_small.counts))
    with pytest.raises(ValueError):
        CountResult((4.0, 8.0), (10, 9), (True, True))
    # the radii take OrbitQuery's checks
    for t_list, match in [((8.0, 4.0), "strictly increasing"),
                          ((4.0, 4.0), "strictly increasing"),
                          ((4.0, math.nan), "finite"),
                          ((4.0, math.inf), "finite")]:
        with pytest.raises(ValueError, match=match):
            CountResult(t_list, (9, 10), (True, True))


def test_one_query_counted_twice_gives_equal_results():
    # the result carried the walk's wall time, so two counts of one query
    # compared unequal
    for spec in (PSL2Z, THIN4):
        for q in (None, 3):
            query = OrbitQuery(spec, X0, (4.0, 8.0, 16.0), q=q)
            assert count_orbit(query) == count_orbit(query)


def test_budget_overrun_downgrades_saturation():
    res = count_orbit(OrbitQuery(PSL2Z, X0, (40.0, 80.0),
                                 budget=WordBudget(512, 1000)))
    assert not any(res.saturated)
    with pytest.raises(InsufficientDataError):
        res.largest_saturated_index()


def test_query_validation():
    with pytest.raises(ValueError):
        OrbitQuery(PSL2Z, FormVector(0.0, 0.0, 0.0), (4.0,))
    with pytest.raises(ValueError):
        OrbitQuery(PSL2Z, X0, (8.0, 4.0))
    with pytest.raises(ValueError):
        OrbitQuery(PSL2Z, X0, (4.0,), norm="manhattan")


def test_query_rejects_non_integral_x0():
    for bad in ((0.5, 1.0, 0.0), (0.0, 1.0, 1e-9), (math.nan, 1.0, 0.0),
                (0.0, math.inf, 0.0)):
        with pytest.raises(ValueError, match="integer form vector"):
            OrbitQuery(PSL2Z, FormVector(*bad), (4.0, 8.0))
    # integral floats are accepted and count like the ints they equal
    as_float = count_orbit(OrbitQuery(PSL2Z, X0, (4.0, 8.0)))
    as_int = count_orbit(OrbitQuery(PSL2Z, FormVector(0, 1, 0), (4.0, 8.0)))
    assert as_float.counts == as_int.counts == (34, 98)


def test_query_rejects_non_finite_radii():
    # the tally compares integer keys with ceil(t) - 1, which needs a
    # finite t; huge finite radii clamp to the int64 range instead
    for bad in ((4.0, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match="finite"):
            OrbitQuery(PSL2Z, X0, bad)
    res = count_orbit(OrbitQuery(PSL2Z, X0, (-1e30, 4.0, 1e30),
                                 budget=WordBudget(64, 10 ** 4)))
    # at this gate the walk's first layer, the run T^k of the identity, is
    # endless, so the node budget cuts it: the walk keeps exactly the first
    # max_nodes elements in word-length order, T^k for k = 0, 1, -1, ...,
    # -4999, 5000, and the keys (0, 1, k) of |k| <= 3 fall below 4
    assert not any(res.saturated)
    assert res.counts == (0, 7, 10 ** 4)
    assert res.search_nodes == 10 ** 4
    assert res.search_depth == 1


def test_entries_past_int64_raise():
    # the Euclidean key of x0 itself, 1.6e19, is past int64
    big = FormVector(0, 4 * 10 ** 9, 0)
    with pytest.raises(OverflowError):
        count_orbit(OrbitQuery(PSL2Z, big, (4.0,), norm="euclidean"))


def test_stabilizer_of_x0_is_reported():
    # S fixes the form u^2 + v^2, so the identity and S reach (1, 0, 1)
    for x0 in (FormVector(1, 0, 1), FormVector(1.0, 0.0, 1.0)):
        with pytest.raises(StabilizerError) as exc:
            count_orbit(OrbitQuery(PSL2Z, x0, (4.0, 8.0)))
        assert str(exc.value) == ("vector (1, 0, 1) reached by (1, 0, 0, 1) "
                                  f"and {INT_S.entries()}")


def test_count_result_reports_search_work(lattice_small):
    # every walk element is collected; for discriminant 1 the gate is the
    # largest counted ball, so the walk collects exactly what it counts
    assert lattice_small.search_nodes == lattice_small.counts[-1]
    assert lattice_small.search_depth > 1
    # for D = 49 the gate is three times the ball and collects more
    wide = count_orbit(OrbitQuery(PSL2Z, FormVector(-3, -1, 4), (5.5,)))
    assert wide.search_nodes > wide.counts[-1]
    res = count_orbit(OrbitQuery(PSL2Z, X0, (40.0, 80.0),
                                 budget=WordBudget(512, 1000)))
    assert res.search_nodes == 1000  # a cut walk keeps exactly its budget
    assert res.search_depth >= 1


def test_euclidean_ball_is_smaller():
    sup = count_orbit(OrbitQuery(PSL2Z, X0, (8.0,)))
    euc = count_orbit(OrbitQuery(PSL2Z, X0, (8.0,), norm="euclidean"))
    assert euc.counts[0] < sup.counts[0]


# -- congruence breakdown ----------------------------------------------------


def test_coset_breakdown_partitions_total():
    res = count_orbit(OrbitQuery(PSL2Z, X0, (10.0, 20.0), q=3))
    for i in range(2):
        assert sum(c[i] for c in res.breakdown.values()) == res.counts[i]
    assert len(res.breakdown) == 12


def test_coset_disparity_lattice_near_uniform():
    res = count_orbit(OrbitQuery(PSL2Z, X0, (40.0,), q=3))
    assert coset_disparity(res) < 1.5


def test_coset_disparity_thin_exceeds_two():
    res = count_orbit(OrbitQuery(THIN4, X0, (10.0, 20.0, 40.0), q=3))
    assert coset_disparity(res) > 2.0
    assert identity_coset_factor(res) > 2.0


# -- exactness at benchmark radii ---------------------------------------------
#
# A second oracle that scales: every integer point of q^2 - 4pr = 1 in a
# sup box, by divisor search in numpy; its group element recovered by
# gcds; thin membership decided by ping-pong reduction in <T^4, S>.


def quadric_points(t, block=1 << 21):
    """(n, 3) int array of the integer points of q^2 - 4pr = 1 with sup
    norm strictly below t."""
    lim = int(math.ceil(t)) - 1
    if lim < 1:  # every point has |q| >= 1
        return np.zeros((0, 3), dtype=np.int64)
    span = np.arange(-lim, lim + 1)
    pos = np.arange(1, lim + 1)
    pts = [np.column_stack([np.zeros_like(span), np.full_like(span, s), span])
           for s in (1, -1)]  # p = 0: q = +-1, any r
    pts += [np.column_stack([s * pos, np.full_like(pos, qq), np.zeros_like(pos)])
            for s in (1, -1) for qq in (1, -1)]  # r = 0, p != 0
    # p r = (q^2 - 1) / 4 > 0 needs q odd; blocks of q keep the divisor
    # table near `block` entries
    step = 2 * max(1, block // lim)
    for q0 in range(3, lim + 1, step):
        qs = np.arange(q0, min(q0 + step, lim + 1), 2)
        n = (qs * qs - 1) // 4
        qi, pi = np.nonzero(n[:, None] % pos[None, :] == 0)
        p, r = pos[pi], n[qi] // pos[pi]
        keep = r <= lim
        for s in (1, -1):
            for sq in (1, -1):
                pts.append(np.column_stack([s * p[keep], sq * qs[qi[keep]],
                                            s * r[keep]]))
    return np.concatenate(pts).astype(np.int64)


def elements_of(pts):
    """The element g with (0, 1, 0) * g = v for each row v, in the sign
    representative c > 0 (or c = 0 and a > 0): with x0 = (0, 1, 0),
    v = (ac, ad + bc, bd) and ad - bc = 1."""
    p, q, r = pts.T
    ad, bc = (q + 1) // 2, (q - 1) // 2
    c = np.gcd(p, bc)
    cc = np.where(c == 0, 1, c)
    a = np.where(c == 0, 1, p // cc)
    b = np.where(c == 0, r, bc // cc)
    d = np.where(c == 0, 1, np.where(a != 0, ad // np.where(a == 0, 1, a), r * b))
    g = np.column_stack([a, b, c, d])
    assert np.all(a * d - b * c == 1)
    assert np.array_equal(np.column_stack([a * c, a * d + b * c, b * d]), pts)
    return g


def in_thin4(g):
    """Membership in <T^4, S> by ping-pong: an element with c > 0 lies in
    the group only if a / c is within 1/3 of a multiple of 4, so translate
    a into |a| <= 2c, invert while |a| < c, and test the translation left
    when c reaches 0."""
    a, b, c, d = (g[:, i].copy() for i in range(4))
    live = np.ones(len(g), dtype=bool)
    member = np.zeros(len(g), dtype=bool)
    while live.any():
        top = live & (c == 0)
        member[top] = b[top] % 4 == 0
        live &= c != 0
        cc = np.where(live, c, 1)
        k = (2 * a + 4 * cc) // (8 * cc)  # nearest integer to a / 4c
        a, b = a - 4 * k * cc, b - 4 * k * d
        live &= np.abs(a) < np.abs(c)
        a, b, c, d = -c, -d, a, b
        flip = c < 0
        a, b, c, d = (np.where(flip, -x, x) for x in (a, b, c, d))
    return member


def scan_counts(pts, t_list, norm):
    key = (np.abs(pts).max(axis=1) if norm == "sup"
           else (pts * pts).sum(axis=1))
    return tuple(int(np.sum(key < (t if norm == "sup" else t * t)))
                 for t in t_list)


def scan_breakdown(pts, g, t_list, norm, q):
    rows = {}
    for i, row in enumerate(g.tolist()):
        rows.setdefault(label_of(IntGroupElement(*row), q), []).append(i)
    return {lab: scan_counts(pts[sel], t_list, norm)
            for lab, sel in rows.items()}


def test_numpy_quadric_scan_matches_set_scan():
    for t in (0.5, 1.0, 1.5, 2.5, 12.0, 13.0):
        for block in (1, 30, 1 << 21):  # one q per block up to one block
            pts = quadric_points(t, block)
            assert {tuple(v) for v in pts.tolist()} == quadric_scan(t)
            assert len(pts) == len(quadric_scan(t))


def test_ping_pong_membership_matches_thin_closure():
    def act_T4(p, q, r):
        return (p, q + 8 * p, 16 * p + 4 * q + r)

    def act_T4inv(p, q, r):
        return (p, q - 8 * p, 16 * p - 4 * q + r)

    pts = quadric_points(30.0)
    closure = orbit_closure(30.0, gens=(act_T4, act_T4inv, act_S),
                            gate_factor=40.0)
    member = in_thin4(elements_of(pts))
    assert member.tolist() == [tuple(v) in closure for v in pts.tolist()]
    assert 0 < member.sum() < len(pts)


@pytest.mark.parametrize("norm", ["sup", "euclidean"])
def test_lattice_counts_exact_at_benchmark_radii(norm):
    t_list = (80.0, 120.5, 160.0, 200.25, 240.0)
    res = count_orbit(OrbitQuery(PSL2Z, X0, t_list, norm=norm, q=3))
    pts = quadric_points(t_list[-1])
    assert all(res.saturated)
    assert res.counts == scan_counts(pts, t_list, norm)
    want = scan_breakdown(pts, elements_of(pts), t_list, norm, 3)
    assert {lab: cs for lab, cs in res.breakdown.items() if any(cs)} == want
    assert len(res.breakdown) == 12


@pytest.mark.parametrize("norm", ["sup", "euclidean"])
def test_thin_counts_exact_at_benchmark_radii(norm):
    t_list = (160.0, 240.5, 480.0, 720.25, 960.0)
    res = count_orbit(OrbitQuery(THIN4, X0, t_list, norm=norm, q=3))
    pts = quadric_points(t_list[-1])
    g = elements_of(pts)
    member = in_thin4(g)
    assert all(res.saturated)
    assert res.counts == scan_counts(pts[member], t_list, norm)
    want = scan_breakdown(pts[member], g[member], t_list, norm, 3)
    assert {lab: cs for lab, cs in res.breakdown.items() if any(cs)} == want


@pytest.mark.parametrize("norm", ["sup", "euclidean"])
@pytest.mark.parametrize("spec, t_list", [
    (PSL2Z, (500.0, 1000.5, 1500.0, 2000.0)),
    (THIN4, (1500.0, 3000.5, 4500.0, 6000.0))])
def test_counts_exact_past_the_old_depth_cap(spec, t_list, norm):
    # the one-letter word search stopped at depth 4096, short of psl2z
    # above T ~ 1365 and thin4 above T ~ 5460; the walk needs a few layers
    res = count_orbit(OrbitQuery(spec, X0, t_list, norm=norm, q=3))
    pts = quadric_points(t_list[-1])
    g = elements_of(pts)
    if spec is THIN4:
        member = in_thin4(g)
        pts, g = pts[member], g[member]
    assert all(res.saturated)
    assert res.search_depth < 20
    assert res.counts == scan_counts(pts, t_list, norm)
    want = scan_breakdown(pts, g, t_list, norm, 3)
    assert {lab: cs for lab, cs in res.breakdown.items() if any(cs)} == want


# -- the psl2z walk against a divisor count at large radii -------------------
#
# Every integral form of discriminant 1 lies in the orbit of (0, 1, 0)
# with trivial stabilizer, so the psl2z counts are the quadric's point
# counts, which divisor_count.quadric_counts takes in about T log^2 T.


@pytest.mark.parametrize("norm", ["sup", "euclidean"])
def test_divisor_count_matches_quadric_scan(norm):
    t_list = (0.5, 1.0, 1.5, 2.5, 12.0, 13.0, 60.5, 240.0)
    pts = quadric_points(t_list[-1])
    assert quadric_counts(t_list, norm) == scan_counts(pts, t_list, norm)


@pytest.mark.parametrize("norm, pinned", [
    ("sup", (32354, 418394, 1391010)),
    ("euclidean", (27114, 350314, 1163834))])
def test_lattice_counts_match_divisor_count(norm, pinned):
    # the walk keeps no record of its vectors for x0 = (0, 1, 0), so each
    # element must come once: the counts are the quadric's, every collected
    # element is counted, and the classes mod 3 split the counts exactly
    t_list = (1000.0, 10000.0, 30000.0)
    res = count_orbit(OrbitQuery(PSL2Z, X0, t_list, norm=norm, q=3))
    assert all(res.saturated)
    assert res.counts == quadric_counts(t_list, norm) == pinned
    assert res.search_nodes == res.counts[-1]
    assert len(res.breakdown) == 12
    assert tuple(map(sum, zip(*res.breakdown.values()))) == res.counts


@pytest.mark.parametrize("norm", ["sup", "euclidean"])
@pytest.mark.parametrize("disc", [-4, -7, -20, -23])
def test_divisor_count_matches_quadric_scan_below_zero(norm, disc):
    t_list = (0.5, 1.0, 1.5, 2.5, 12.0, 13.0, 60.5, 240.0)
    pts = np.array(sorted(quadric_scan(t_list[-1], disc)))
    assert quadric_counts(t_list, norm, disc) == scan_counts(pts, t_list, norm)


# one form per proper class of discriminant D; every D here has h(D) <= 3
# and no form with a stabilizer in PSL2(Z), so the orbits of these forms
# and of their negatives partition the quadric, and the walk reaches each
# point through its dedup index
CLASSES = {
    -7: [(1, 1, 2)], -8: [(1, 0, 2)], -11: [(1, 1, 3)], -19: [(1, 1, 5)],
    -15: [(1, 1, 4), (2, 1, 2)], -20: [(1, 0, 5), (2, 2, 3)],
    -23: [(1, 1, 6), (2, 1, 3), (2, -1, 3)],
}


@pytest.mark.parametrize("norm", ["sup", "euclidean"])
@pytest.mark.parametrize("disc", sorted(CLASSES, reverse=True))
def test_definite_orbit_counts_match_divisor_count(norm, disc):
    t_list = (100.0, 1000.0, 3000.0)
    total = [0, 0, 0]
    for x0 in CLASSES[disc]:
        for sign in (1, -1):
            res = count_orbit(OrbitQuery(
                PSL2Z, FormVector(*(sign * c for c in x0)), t_list,
                norm=norm))
            assert all(res.saturated)
            total = [a + b for a, b in zip(total, res.counts)]
    assert tuple(total) == quadric_counts(t_list, norm, disc)


@pytest.mark.parametrize("norm, pinned", [("sup", 48812),
                                          ("euclidean", 40876)])
def test_definite_divisor_count_stays_small_at_1e4(norm, pinned):
    # m = (q^2 + 7) / 4 reaches 2.5e7 at T = 1e4: a smallest-prime-factor
    # sieve that far held about 300 MB, and about 20 GB at T = 1e5;
    # trial division by the primes up to T / 2 holds about 4 MB
    t_list = (100.0, 1000.0, 3000.0, 10000.0)
    tracemalloc.start()
    try:
        got = quadric_counts(t_list, norm, -7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
    total = [0, 0, 0, 0]
    for sign in (1, -1):
        res = count_orbit(OrbitQuery(PSL2Z, FormVector(sign, sign, 2 * sign),
                                     t_list, norm=norm))
        total = [a + b for a, b in zip(total, res.counts)]
    assert got == tuple(total) and got[-1] == pinned


# -- the walk against the word search ----------------------------------------
#
# count_orbit walks <T^omega, S> by syllables.  The reference is the
# one-letter word search it replaced: enumerate_words from the identity,
# expanding an element while its vector's key is below the same gate, and
# tallying every element it collects.  A vector reached twice means a
# stabilizer, which the walk must report as StabilizerError.


class _Repeat(Exception):
    pass


def word_search_counts(spec, x0, t_list, norm, q, factor=3.0):
    """(counts, breakdown) from the word search with its gate at factor
    times the largest ball, "stabilizer" when two elements reach one
    vector, None when the budget runs out first."""
    p0, q0, r0 = x0
    sup = norm == "sup"

    def key(v):
        return max(map(abs, v)) if sup else sum(c * c for c in v)

    x0n = key(x0) if sup else math.sqrt(key(x0))
    gate_r = factor * max(max(t_list), x0n + 1.0)
    gate = gate_r if sup else gate_r * gate_r
    seen = {x0: (1, 0, 0, 1)}

    def in_gate(g):
        a, b, c, d = g
        v = (p0 * a * a + q0 * a * c + r0 * c * c,
             2 * p0 * a * b + q0 * (a * d + b * c) + 2 * r0 * c * d,
             p0 * b * b + q0 * b * d + r0 * d * d)
        if v in seen:
            raise _Repeat
        seen[v] = g
        return key(v) < gate

    try:
        enumerate_words(spec, budget=WordBudget(4096, 200_000), expand=in_gate)
    except _Repeat:
        return "stabilizer"
    except SearchBudgetExceeded:
        return None
    bound = [t if sup else t * t for t in t_list]
    counts = tuple(sum(key(v) < b for v in seen) for b in bound)
    breakdown = {}
    for v, g in seen.items():
        lab = label_of(IntGroupElement(*g), q)
        cs = breakdown.setdefault(lab, [0] * len(t_list))
        for i, b in enumerate(bound):
            cs[i] += key(v) < b
    return counts, {lab: tuple(cs) for lab, cs in breakdown.items() if any(cs)}


def _discriminant_zero(draw):
    m, a, b = draw(st.integers(1, 3)), draw(st.integers(-3, 3)), draw(
        st.integers(-3, 3))
    return (m * a * a, 2 * m * a * b, m * b * b)


forms = st.one_of(
    st.tuples(*[st.integers(-6, 6)] * 3),  # D < 0, or D > 0 mostly non-square
    # D large against the gate, so runs split around a hole: non-square
    st.tuples(st.sampled_from([-2, -1, 1, 2]), st.integers(8, 30),
              st.integers(-3, 3)),
    st.tuples(st.just(0), st.integers(1, 25), st.integers(-9, 9)),  # D = q^2
    st.composite(_discriminant_zero)())


@given(forms, st.sampled_from([PSL2Z, THIN4, GroupSpec("theta", 2),
                              GroupSpec("w3", 3)]),
       st.sampled_from(["sup", "euclidean"]),
       st.sampled_from([2.0, 5.5, 9.0, 16.0]), st.sampled_from([1.0, 3.0]))
@example((1, 1, 3), PSL2Z, "sup", 9.0, 3.0)  # D = -11: no stabilizer
@example((1, 0, 1), THIN4, "sup", 9.0, 3.0)  # D = -4: S fixes x0
@example((1, 13, -3), THIN4, "sup", 5.5, 3.0)  # D = 181: runs split by holes
@example((1, 13, -3), PSL2Z, "euclidean", 2.0, 3.0)
# D = 156: the only repeat sits in a one-integer hole, just outside the gate
@example((1, 12, -3), PSL2Z, "sup", 2.0, 3.0)
@example((1, 16, -2), THIN4, "euclidean", 5.5, 3.0)  # D = 264, likewise
@example((0, 23, 4), PSL2Z, "sup", 5.5, 1.0)  # D = 529: holes, no stabilizer
@example((1, 2, 1), PSL2Z, "sup", 5.5, 3.0)  # D = 0: the cusp vector is fixed
@example((0, 0, 3), THIN4, "euclidean", 2.0, 1.0)  # D = 0: T^4 fixes x0
# D = 49 and 25: a walk gated at the bare ball loses in-ball points here
@example((-3, -1, 4), PSL2Z, "sup", 5.5, 1.0)
@example((-4, 3, 1), GroupSpec("theta", 2), "sup", 5.5, 1.0)
@settings(deadline=None, max_examples=200, derandomize=True)
def test_walk_matches_word_search(x0, spec, norm, t, factor):
    assume(x0 != (0, 0, 0))
    t_list = (t / 2, t)
    # factor sets only the search's gate: for D <= 1 the walk, gated at
    # the bare ball, must match the search at the ball and at three times
    # it; for D > 1 both use three times the ball
    if x0[1] * x0[1] - 4 * x0[0] * x0[2] > 1:
        factor = 3.0
    want = word_search_counts(spec, x0, t_list, norm, 3, factor)
    assume(want is not None)
    query = OrbitQuery(spec, FormVector(*x0), t_list, norm=norm, q=3)
    if want == "stabilizer":
        with pytest.raises(StabilizerError):
            count_orbit(query)
        return
    res = count_orbit(query)
    assert all(res.saturated)
    assert res.counts == want[0]
    assert {lab: cs for lab, cs in res.breakdown.items() if any(cs)} == want[1]


# -- the normal forms the walk spells ----------------------------------------
#
# The walk reaches each element once because its words are normal forms:
# T^(w k0) S T^(w k1) ... S T^(w kn) with every inner k nonzero, and for
# w = 1 neighbouring exponents of opposite signs.  Here the words are
# multiplied out by hand, apart from the walk.


def _mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _sign_rep(m):
    a, b, c, d = m
    return m if c > 0 or (c == 0 and a > 0) else (-a, -b, -c, -d)


def normal_form_words(omega, length, kmax):
    """The matrices, in the sign representative, of every normal-form word
    with at most `length` letters S and every |k| <= kmax."""
    out = []

    def extend(m, last, n):
        out.append(_sign_rep(m))
        if n == length or (n and not last):  # k = 0 past k0 ends a word
            return
        for k in range(-kmax, kmax + 1):
            if omega == 1 and last * k > 0:
                continue
            extend(_mat_mul(_mat_mul(m, (0, -1, 1, 0)), (1, omega * k, 0, 1)),
                   k, n + 1)

    for k0 in range(-kmax, kmax + 1):
        extend((1, omega * k0, 0, 1), k0, 0)
    return out


@pytest.mark.parametrize("omega, length", [(1, 6), (2, 3), (3, 3), (4, 3)])
def test_normal_form_words_spell_distinct_elements(omega, length):
    words = normal_form_words(omega, length, 4)
    assert len(set(words)) == len(words)
    if omega == 1:
        # and they spell all of PSL2(Z): every element with entries in
        # [-3, 3] is among them
        assert len(words) == 68258
        small = {_sign_rep(m) for m in itertools.product(range(-3, 4), repeat=4)
                 if m[0] * m[3] - m[1] * m[2] == 1}
        assert small <= set(words)


def test_walk_depth_counts_syllable_layers():
    full = count_orbit(OrbitQuery(PSL2Z, X0, (240.0,)))
    assert all(full.saturated) and full.search_depth > 3
    cut = count_orbit(OrbitQuery(PSL2Z, X0, (240.0,), budget=WordBudget(3)))
    assert not any(cut.saturated)
    assert cut.search_depth == 3 and cut.search_nodes < full.search_nodes
    assert cut.counts[0] < full.counts[0]
    none = count_orbit(OrbitQuery(PSL2Z, X0, (240.0,), budget=WordBudget(0)))
    assert none.counts == (0,) and not any(none.saturated)
    assert none.search_nodes == none.search_depth == 0


def test_fixed_cusp_vector_raises_instead_of_walking_forever():
    # T fixes (0, 0, 1): its run along T would be endless
    with pytest.raises(StabilizerError) as exc:
        count_orbit(OrbitQuery(PSL2Z, FormVector(0, 0, 1), (4.0,)))
    assert str(exc.value) == ("vector (0, 0, 1) reached by (1, 0, 0, 1) "
                              "and (1, 1, 0, 1)")


def test_walk_vectors_past_the_dedup_range_raise():
    # where x0 may have a stabilizer (here D = 1 - 2^22 and 1 - 4 10^6, not
    # squares) the walk packs each vector into one int64, exactly for
    # entries below 2^20, and refuses larger ones rather than let two
    # vectors collide
    with pytest.raises(OverflowError, match="2\\^20"):
        count_orbit(OrbitQuery(PSL2Z, FormVector(1, 1, 1 << 20), (4.0,)))
    # x0 is inside the range, but at a radius past 2^20 its run
    # (1, 1 + 2k, 10^6 + k + k^2) leaves it
    with pytest.raises(OverflowError, match="2\\^20"):
        count_orbit(OrbitQuery(PSL2Z, FormVector(1, 1, 10 ** 6), (1.1e6,)))
    # D = 1 is a square: no stabilizer, no packed vectors, no 2^20 range;
    # the run of x0 is (0, 1, 2^20 - j) for j = 0, 1, ..., cut by the budget
    res = count_orbit(OrbitQuery(PSL2Z, FormVector(0, 1, 1 << 20), (4.0,),
                                 budget=WordBudget(64, 10 ** 4)))
    assert res.counts == (0,) and not any(res.saturated)
    assert (res.search_nodes, res.search_depth) == (10 ** 4, 1)


def test_theta_walk_counts_are_the_psl2z_i_and_s_cosets():
    # the theta group <T^2, S> is the union of the identity and S cosets of
    # psl2z mod 2, so its walk must count what the psl2z walk puts in those
    # two classes
    t_list = (50.0, 100.0, 200.0, 400.0, 3000.0)
    theta = count_orbit(OrbitQuery(GroupSpec("theta", 2), X0, t_list))
    full = count_orbit(OrbitQuery(PSL2Z, X0, t_list, q=2)).breakdown
    two = [full[label_of(IntGroupElement.identity(), 2)],
           full[label_of(INT_S, 2)]]
    assert all(theta.saturated)
    assert theta.counts == tuple(map(sum, zip(*two)))
    assert theta.counts == (346, 794, 1794, 3930, 37986)


def test_breakdown_keys_are_the_cached_labels():
    # the breakdown lists the cached labels of the level, in code order,
    # and its per-label counts sum to the counts
    full = count_orbit(OrbitQuery(PSL2Z, X0, (10.0, 20.0), q=3))
    labels = coset_labels(PSL2Z, 3)
    assert all(a is b for a, b in zip(full.breakdown, labels))
    assert len(full.breakdown) == len(labels) == 12
    assert tuple(map(sum, zip(*full.breakdown.values()))) == full.counts


words = st.lists(st.integers(-40, 40), min_size=1, max_size=8)


@given(words, st.integers(2, 7), st.booleans())
@settings(deadline=None, max_examples=200)
def test_label_codes_match_coset_label(exps, q, negate):
    g = IntGroupElement.identity()
    for k in exps:
        g = g * IntGroupElement(1, k, 0, 1) * INT_S
    row = np.array([g.entries()], dtype=np.int64)
    code = int(label_codes(-row if negate else row, q)[0])
    digits = tuple((code // q ** k) % q for k in (3, 2, 1, 0))
    assert digits == label_of(g, q).entries


# -- growth-law fitting ------------------------------------------------------


def synthetic_counts(model_fn, t_list):
    return CountResult(tuple(t_list),
                       tuple(int(round(model_fn(t))) for t in t_list),
                       tuple(True for _ in t_list))


def test_fit_recovers_planted_t_log_t_law():
    t_list = (50.0, 100.0, 200.0, 400.0, 800.0)
    res = synthetic_counts(lambda t: 4.0 * t * math.log(t) + 2.5 * t, t_list)
    fit = fit_counting_law(res, "t_log_t")
    c1, c2 = fit.coefficients
    assert abs(c1 - 4.0) < 0.05
    assert abs(c2 - 2.5) < 0.3
    assert fit.rel_residual_top_octave < 1e-3


def test_fit_recovers_planted_linear_law():
    t_list = (50.0, 100.0, 200.0, 400.0, 800.0)
    res = synthetic_counts(lambda t: 2.25 * t, t_list)
    fit = fit_counting_law(res, "linear")
    assert abs(fit.coefficients[0] - 2.25) < 0.01
    # and the wrong model is visibly worse on the same data
    wrong = fit_counting_law(res, "pure_t_log_t")
    assert wrong.residual_norm > 10.0 * max(fit.residual_norm, 1e-9)


def test_fit_power_model_log_log():
    t_list = (50.0, 100.0, 200.0, 400.0)
    res = synthetic_counts(lambda t: 0.8 * t ** 1.37, t_list)
    fit = fit_counting_law(res, "power")
    assert abs(fit.coefficients[1] - 1.37) < 0.02


def test_fit_t_plus_t_delta_finds_exponent():
    t_list = (50.0, 100.0, 200.0, 400.0, 800.0)
    res = synthetic_counts(lambda t: 2.0 * t + 5.0 * t ** 0.73, t_list)
    fit = fit_counting_law(res, "t_plus_t_delta")
    assert fit.delta_hat is not None
    assert abs(fit.delta_hat - 0.73) < 0.08
    assert fit.predict(np.array([600.0]))[0] == pytest.approx(
        2.0 * 600.0 + 5.0 * 600.0 ** 0.73, rel=0.02)


def test_fit_requires_enough_saturated_radii():
    res = synthetic_counts(lambda t: 3.0 * t, (50.0, 100.0, 200.0))
    with pytest.raises(InsufficientDataError):
        fit_counting_law(res, "linear")
    with pytest.raises(ValueError):
        fit_counting_law(synthetic_counts(lambda t: t, (50.0, 100.0, 200.0,
                                                        400.0)), "cubic")


def test_fit_ignores_radii_below_asymptotic_floor():
    t_list = (2.0, 4.0, 50.0, 100.0, 200.0, 400.0)
    res = synthetic_counts(lambda t: 3.0 * t, t_list)
    fit = fit_counting_law(res, "linear")
    assert min(fit.t_used) >= 10.0


# -- the walk's run ends, gate test and clash test ---------------------------
#
# _Walk.runs finds each run's ends in closed form and confirms them with
# one exact test; in_gate skips its float pre-pass where a bound on the
# entries and steps shows int64 cannot overflow.  Both are checked here
# against exact integer keys, on rows of the quadric of x0.

RUN_FORMS = [(0, 1, 0), (1, 1, 1), (2, 1, 3), (1, 2, 1),  # D = 1, -3, -23, 0
             (1, 3, 1), (0, 5, 2), (1, 13, -3)]  # D = 5, 25, 181: holes


def exact_key(v, sup):
    return max(map(abs, v)) if sup else sum(c * c for c in v)


def quadric_rows(x0, omega, sup, gate, rng, n):
    """In-gate vectors x0 * g for n random words g of <T^omega, S>, and
    some with p = 0 when x0 has such: (3, m) int64, T^omega moving each."""
    reach = 3 if gate < 10 ** 4 else 40
    rows = set()
    if x0[0] == 0:  # (0, q0, r) lies on the quadric for every r
        span = min(gate, 10 ** 6)
        rows |= {(0, s * x0[1], int(r)) for s in (1, -1)
                 for r in rng.integers(-span, span + 1, 2)}
    for _ in range(40 * n):
        p, q, r = x0
        for _ in range(int(rng.integers(0, 9))):
            wk = omega * int(rng.integers(-reach, reach + 1))
            p, q, r = r, -q, p
            p, q, r = p, q + 2 * p * wk, r + wk * (q + p * wk)
        rows.add((p, q, r))
        if len(rows) >= n:
            break
    rows = [v for v in rows if exact_key(v, sup) <= gate and (v[0] or v[1])]
    return np.array(sorted(rows), dtype=np.int64).T


def keys_along(v, omega, sup, k):
    """Exact keys of v * T^(omega k) for an int64 array k (keys here stay
    far below 2^63)."""
    p, q, r = (int(c) for c in v)
    wk = omega * k
    qq, rr = q + 2 * p * wk, r + wk * (q + p * wk)
    if sup:
        return np.maximum(np.maximum(abs(p), np.abs(qq)), np.abs(rr))
    return p * p + qq * qq + rr * rr


@pytest.mark.parametrize("omega", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("norm", ["sup", "euclidean"])
@pytest.mark.parametrize("large", [False, True])
def test_run_ends_match_a_brute_force_scan(omega, norm, large):
    # radius 60 keeps every confirmation inside in_gate's int64 bound; at
    # radius 1.2e6 (sup) or 1e5 (Euclidean) the rows' entries and long runs
    # take it past the bound, onto the float pre-pass
    sup = norm == "sup"
    radius = (12 * 10 ** 5 if sup else 10 ** 5) if large else 60
    gate = radius if sup else radius * radius
    rng = np.random.default_rng(omega * 7 + radius)
    for x0 in RUN_FORMS:
        walk = _Walk(x0, omega, gate, sup, WordBudget(4096, 10 ** 9))
        vecs = quadric_rows(x0, omega, sup, gate, rng, 40)
        lo, hi, gap, gap_k = walk.runs(vecs)
        holes = {}
        for i, v in enumerate(vecs.T.tolist()):
            assert lo[i] <= 0 <= hi[i]
            k = np.arange(lo[i] - 1, hi[i] + 2)
            inside = keys_along(v, omega, sup, k) <= gate
            assert inside[1:-1].all() and not inside[0] and not inside[-1], v
            # the integer nearest k*, from the sign-normalised row
            p, q, r = v if (v[0] > 0 or (v[0] == 0 and v[1] > 0)) else (
                [-c for c in v])
            num, t = (r, q * omega) if p == 0 else (q, 2 * p * omega)
            near = math.floor(Fraction(-num, t) + Fraction(1, 2))
            hole = keys_along(v, omega, sup, np.arange(near - 1, near + 2)) > gate
            if hole.tolist() == [False, True, False]:
                holes[i] = near
        assert dict(zip(gap.tolist(), gap_k.tolist())) == holes
        if x0[1] ** 2 - 4 * x0[0] * x0[2] <= 1:
            assert not holes  # no hole for D <= 1


@pytest.mark.parametrize("sup, omega, top, steps, fast", [
    (True, 1, 2 ** 10, 2 ** 8, True), (True, 3, 2 ** 16, 2 ** 10, True),
    (True, 1, 2 ** 36, 2 ** 12, False), (True, 5, 2 ** 30, 2 ** 14, False),
    (False, 1, 2 ** 6, 2 ** 4, True), (False, 2, 2 ** 8, 2 ** 5, True),
    (False, 1, 2 ** 20, 2 ** 6, False), (False, 4, 2 ** 12, 2 ** 10, False)])
def test_in_gate_is_exact_on_both_sides_of_its_bound(sup, omega, top, steps,
                                                     fast):
    # the bound: largest entry times (1 + omega |k|)^2 for the sup key, and
    # three times its square for the Euclidean key, below 2^60; past it
    # some keys pass 2^63, and the float pre-pass keeps them out
    bound = top * (1 + omega * steps) ** 2
    assert ((bound if sup else 3 * bound * bound) < 2 ** 60) == fast
    rng = np.random.default_rng(top + steps)
    vecs = rng.integers(-top, top + 1, (3, 400))
    vecs[:, 0] = top
    k = rng.integers(-steps, steps + 1, (2, 400))
    k[:, 0] = steps
    want = [[exact_key(_shift_exact(v, omega * int(kk)), sup)
             for v, kk in zip(vecs.T.tolist(), row)] for row in k.tolist()]
    gate = min(int(np.median(want)), 2 ** 59)
    got = _Walk((0, 1, 0), omega, gate, sup, WordBudget()).in_gate(vecs, k)
    assert got.tolist() == [[key <= gate for key in row] for row in want]
    assert 0 < got.sum() < got.size


def _shift_exact(v, wk):
    p, q, r = v
    return p, q + 2 * p * wk, r + wk * (q + p * wk)


@given(st.lists(st.integers(-30, 30), min_size=0, max_size=6),
       st.tuples(*[st.integers(-9, 9)] * 3))
@settings(deadline=None, max_examples=200)
def test_element_is_recovered_from_its_vector_and_first_column(exps, x0):
    # the index keeps only (a, c); with the vector that names the element
    a, b, c, d = 1, 0, 0, 1
    for k in exps:  # g T^k S = (b + a k, -a, d + c k, -c)
        a, b, c, d = b + a * k, -a, d + c * k, -c
    if c < 0 or (c == 0 and a < 0):
        a, b, c, d = -a, -b, -c, -d
    p0, q0, r0 = x0
    vec = (p0 * a * a + q0 * a * c + r0 * c * c,
           2 * p0 * a * b + q0 * (a * d + b * c) + 2 * r0 * c * d,
           p0 * b * b + q0 * b * d + r0 * d * d)
    assume(vec[0] or vec[1])
    assert _element(x0, vec, (a, c)) == (a, b, c, d)


@pytest.mark.parametrize("x0, spec, message", [
    # D = -3 and -4: elliptic stabilizers of order 3 and 2, met where the
    # first holder is an element of an earlier layer, read from the index
    ((7, 5, 1), PSL2Z, "vector (1, 1, 1) reached by (0, -1, 1, 3) and "
                       "(-1, 0, 2, -1)"),
    ((5, 4, 1), GroupSpec("theta", 2), "vector (1, 0, 1) reached by "
                                       "(0, -1, 1, 2) and (-1, 0, 2, -1)"),
    # D = -4 with both holders in one layer
    ((2, 2, 1), PSL2Z, "vector (1, 2, 2) reached by (0, -1, 1, 2) and "
                       "(-1, -1, 1, 0)")])
def test_definite_form_with_a_stabilizer_raises(x0, spec, message):
    for norm in ("sup", "euclidean"):
        with pytest.raises(StabilizerError) as exc:
            count_orbit(OrbitQuery(spec, FormVector(*x0), (50.0,), norm=norm))
        if norm == "sup":
            assert str(exc.value) == message


@pytest.mark.parametrize("spec", [PSL2Z, THIN4, GroupSpec("w3", 3)])
@pytest.mark.parametrize("norm", ["sup", "euclidean"])
def test_walks_with_and_without_labels_count_alike(spec, norm):
    # the walk keeps label codes only when q is set; nothing else moves
    # D = 1, -11 and 529, none with a stabilizer; the last has holes
    for x0 in ((0, 1, 0), (1, 1, 3), (0, 23, 4)):
        t_list = (60.0, 150.0, 400.0)
        bare = count_orbit(OrbitQuery(spec, FormVector(*x0), t_list, norm=norm))
        for q in (2, 5):
            lab = count_orbit(OrbitQuery(spec, FormVector(*x0), t_list,
                                         norm=norm, q=q))
            assert lab.counts == bare.counts
            assert (lab.search_nodes, lab.search_depth, lab.saturated) == (
                bare.search_nodes, bare.search_depth, bare.saturated)
            assert tuple(map(sum, zip(*lab.breakdown.values()))) == bare.counts


def test_query_rejects_an_empty_radius_list():
    with pytest.raises(ValueError, match="at least one radius"):
        OrbitQuery(PSL2Z, X0, ())


def test_query_rejects_levels_past_the_coset_ceiling():
    # |PSL2(Z/40000)| is about 4.6e13; the query refuses it in closed form
    # instead of enumerating the labels when the count starts
    # a level must be an int: True would count at level 1 and 3.0 give
    # float entries
    t0 = time.perf_counter()
    for q in (0, 127, 40000, True, 3.0, "3", 2.5, np.int64(3)):
        with pytest.raises(ValueError):
            OrbitQuery(PSL2Z, X0, (4.0,), q=q)
    assert time.perf_counter() - t0 < 1.0
