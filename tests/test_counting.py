import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearlab.algebra import INT_S, FormVector, IntGroupElement
from shearlab.counting import (CountResult, FitResult, InsufficientDataError,
                               OrbitQuery, StabilizerError, coset_disparity,
                               count_orbit, fit_counting_law,
                               identity_coset_factor, label_codes)
from shearlab.groups import PSL2Z, THIN4, CosetLabel, WordBudget

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


def quadric_scan(t):
    """Integer points of q^2 - 4pr = 1 with sup norm strictly below t."""
    lim = int(math.ceil(t)) - 1
    pts = set()
    for q in range(-lim, lim + 1):
        rhs = q * q - 1
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
        CountResult((4.0, 8.0), (10, 9), (True, True), 0.0)


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
    with pytest.raises(ValueError):
        OrbitQuery(PSL2Z, X0, (4.0,), coset_filter=(1, 0, 0, 1))


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
    assert res.counts[:2] == (0, 34)
    assert res.counts[2] == res.search_nodes - 1  # the node over budget


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
    # every search node is collected, and the gate keeps more than the
    # counted ball
    assert lattice_small.search_nodes > lattice_small.counts[-1]
    assert lattice_small.search_depth > 1
    res = count_orbit(OrbitQuery(PSL2Z, X0, (40.0, 80.0),
                                 budget=WordBudget(512, 1000)))
    assert res.search_nodes > 1000
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


def quadric_points(t):
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
    qs = np.arange(3, lim + 1, 2)  # p r = (q^2 - 1) / 4 > 0 needs q odd
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
    labels = [CosetLabel.of(IntGroupElement(*map(int, row)), q) for row in g]
    out = {}
    for lab in set(labels):
        sel = np.array([x == lab for x in labels])
        out[lab] = scan_counts(pts[sel], t_list, norm)
    return out


def test_numpy_quadric_scan_matches_set_scan():
    for t in (0.5, 1.0, 1.5, 2.5, 12.0, 13.0):
        assert {tuple(v) for v in quadric_points(t).tolist()} == quadric_scan(t)
        assert len(quadric_points(t)) == len(quadric_scan(t))


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


def test_coset_filter_keeps_one_label():
    full = count_orbit(OrbitQuery(THIN4, X0, (40.0, 80.0), q=3))
    ident = CosetLabel.identity(3)
    one = count_orbit(OrbitQuery(THIN4, X0, (40.0, 80.0), q=3,
                                 coset_filter=ident))
    assert one.counts == full.breakdown[ident]
    assert one.breakdown[ident] == full.breakdown[ident]
    assert all(not any(cs) for lab, cs in one.breakdown.items() if lab != ident)


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
    assert digits == CosetLabel.of(g, q).entries


# -- growth-law fitting ------------------------------------------------------


def synthetic_counts(model_fn, t_list):
    return CountResult(tuple(t_list),
                       tuple(int(round(model_fn(t))) for t in t_list),
                       tuple(True for _ in t_list), 0.0)


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
