import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shearlab import groups
from shearlab.algebra import INT_S, INT_T, IntGroupElement
from shearlab.groups import (MAX_COSETS, PSL2Z, THIN4, BudgetExceeded,
                             GroupSpec, WordBudget, bottom_rows, check_level,
                             coset_row_chunks, coset_space, label_codes,
                             label_entries, psl2_order, reduce_points)
from coset_oracle import coset_closure
from word_search import SearchBudgetExceeded, enumerate_words

# -- specs -------------------------------------------------------------------


def test_psl2z_is_lattice_thin4_is_not():
    assert PSL2Z.lattice and not THIN4.lattice


def test_spec_json_round_trip():
    for spec in (PSL2Z, THIN4):
        again = GroupSpec.from_json(spec.to_json())
        assert again == spec
    assert THIN4.to_json() == '{"name": "thin4", "omega": 4}'


def test_gen_set_contains_inverses():
    gens = PSL2Z.gen_set()
    for g in gens:
        assert g.inverse() in gens


def test_spec_facts_follow_from_the_width():
    assert (PSL2Z.omega, THIN4.omega) == (1, 4)
    for omega, lattice in ((1, True), (2, True), (3, False), (4, False)):
        spec = GroupSpec("w", omega)
        assert spec.lattice is lattice
        assert spec.gen_set() == (IntGroupElement(1, omega, 0, 1),
                                  IntGroupElement(1, -omega, 0, 1), INT_S)
    for bad in (0, -1, 2.0, True, "4", None):
        with pytest.raises(ValueError, match="omega"):
            GroupSpec("bad", bad)


@pytest.mark.parametrize("text", [
    '{"name": "g", "generators": [[[1, 4], [0, 1]], [[0, -1], [1, 0]]], '
    '"lattice": false, "cusps": [{"point": "inf", "width": 4.0}]}',
    '{"name": "g", "generators": 5}',
    '{"name": "g"}', '{"name": "g", "omega": 0}', '{"name": "g", "omega": -3}',
    '{"name": "g", "omega": 2.5}', '{"name": "g", "omega": 4.0}',
    '{"name": "g", "omega": true}', '{"name": "g", "omega": "4"}',
    '{"name": "g", "omega": 4, "lattice": false}', '{"name": [4], "omega": 4}',
    '[4]', '4',
])
def test_spec_json_names_the_width(text):
    with pytest.raises(ValueError, match="omega"):
        GroupSpec.from_json(text)


# -- word enumeration --------------------------------------------------------


def frob2(g):
    """Squared Frobenius norm of an element tuple, in exact integers."""
    return sum(v * v for v in g)


def test_enumerate_words_small_ball_dedup():
    res = enumerate_words(PSL2Z, expand=lambda g: frob2(g) < 12 ** 2)
    assert res.saturated
    keys = list(res.elements)
    assert len(keys) == len(set(keys))
    assert (1, 0, 0, 1) in res.elements
    assert INT_S.entries() in res.elements and INT_T.entries() in res.elements


def test_enumerate_words_tuples_are_sign_representatives():
    res = enumerate_words(THIN4, expand=lambda g: frob2(g) < 40 ** 2)
    assert all(type(g) is tuple and IntGroupElement(*g).entries() == g
               for g in res.elements)


def test_word_budget_takes_ints_at_least_zero():
    # a negative budget walked nothing and reported counts of 0
    for bad in (-5, -1, 2.0, 1.5, math.nan, True, None, "10"):
        for kw in ({"max_depth": bad}, {"max_nodes": bad}):
            with pytest.raises(ValueError, match="integers >= 0"):
                WordBudget(**kw)
    assert WordBudget(0) == WordBudget(0, 10 ** 7)
    assert WordBudget(0, 0).max_nodes == 0


def test_enumerate_words_budget_carries_partial():
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_words(PSL2Z, budget=WordBudget(max_depth=512, max_nodes=50),
                        expand=lambda g: frob2(g) < 10 ** 18)
    assert len(exc.value.partial.elements) > 0
    assert not exc.value.partial.saturated


def test_thin_words_are_a_strict_subgroup_sample():
    # compare the saturated interiors; the raw element lists also hold the
    # boundary layer one generator step past the gate, and a thin shear
    # step lands much farther out than a unit shear does
    gate = lambda g: frob2(g) < 30 ** 2
    def ball(spec):
        found = enumerate_words(spec, expand=gate).elements
        return {g for g in found if gate(g)}
    thin, full = ball(THIN4), ball(PSL2Z)
    assert thin < full
    assert INT_T.entries() not in thin  # the shear by 1 is not in the thin group


# -- fundamental domain reduction --------------------------------------------

points = st.tuples(st.floats(-40.0, 40.0), st.floats(1e-6, 60.0))


def _exact_height(x, y):
    """Height of the reduction of the double point x + iy and the bottom
    row (c, d) of the reducing element, in exact rational arithmetic on
    the word: each step re-evaluates g z."""
    X, Y = Fraction(x), Fraction(y)
    a, b, c, d = 1, 0, 0, 1
    while True:
        den = (c * X + d) ** 2 + c * c * Y * Y
        gx = ((a * X + b) * (c * X + d) + a * c * Y * Y) / den
        gy = Y / den
        n = math.floor(gx + Fraction(1, 2))
        a, b, gx = a - n * c, b - n * d, gx - n
        if gx * gx + gy * gy >= 1:
            return float(gy), c, d
        a, b, c, d = -c, -d, a, b


@given(points)
@settings(deadline=None)
def test_reduce_factor_is_the_exact_bottom_row(pt):
    x, y = pt
    rx, ry, j = groups._walk([x], [y], 1, True)
    assert np.array_equal((rx, ry), reduce_points([x], [y]))
    _, c, d = _exact_height(x, y)
    cz_d = complex(c * Fraction(x) + d, c * Fraction(y))
    # the walk magnifies the rounding of x by about Y / y, Y the reduced
    # height
    tol = 1e-9 + 5e-15 * ry[0] / y
    assert min(abs(j[0] - cz_d), abs(j[0] + cz_d)) < tol * abs(cz_d)


# heights from the domain down to below the underflow of y^2
heights = (st.floats(1e-6, 60.0)
           | st.floats(-320.0, -6.0).map(lambda e: 10.0 ** e))


@given(st.floats(-40.0, 40.0), heights)
@example(0.3, 1e-310)
@example(0.5, 1e-310)
@settings(deadline=None)
def test_reduce_points_matches_scalar_height(x, y):
    try:
        rx, ry = reduce_points(np.array([x]), np.array([y]))
    except ValueError:
        # only where y^2 underflows to a subnormal or 0
        assert y * y < np.finfo(float).tiny
        return
    # the reduction magnifies the rounding of x by about 1/y, so exact
    # arithmetic pins the height only while 1e-15 / y is small; heights
    # agree even when boundary points pick different representatives
    if y >= 1e-13:
        exact, _, _ = _exact_height(x, y)
        assert abs(ry[0] - exact) <= (1e-12 + 1e-15 / y) * exact


@pytest.mark.parametrize("y", [1e-310, 1e-200, 1.4e-154])
@pytest.mark.parametrize("x", [0.0, 0.3, 0.5])
def test_reduce_points_raises_below_normal_squares(x, y):
    # below 2^-511 y^2 is subnormal or 0, where the walk would take
    # 0.3 + 1e-310 i to y = 877.5 (exact arithmetic: 3.08e277), and
    # 0.5 + 1e-310 i through 200 inversions and a division by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="normal float"):
            reduce_points([x], [y])


@pytest.mark.parametrize("y", [1.5e-154, 2e-154, 1e-150])
def test_reduce_points_reduces_just_above_normal_squares(y):
    x = np.concatenate([np.linspace(-40.0, 40.0, 2000),
                        [0.0, 0.3, 0.5, 1.0 / 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rx, ry = reduce_points(x, np.full(len(x), y))
    assert np.all(np.abs(rx) <= 0.5)
    assert np.all(rx * rx + ry * ry >= 1.0 - 1e-15)


def _reduce_points_whole_array(x, y, omega, max_steps=200):
    # the reduction before compaction: every step translates all points
    # and inverts the masked ones in place
    x = np.array(x, dtype=float, copy=True)
    y = np.array(y, dtype=float, copy=True)

    def translate():
        np.subtract(x, omega * np.floor(x / omega + 0.5), out=x)

    for _ in range(max_steps):
        translate()
        r2 = x * x + y * y
        mask = r2 < 1.0 - 1e-15
        if not np.any(mask):
            break
        inv = 1.0 / r2[mask]
        x[mask] = -x[mask] * inv
        y[mask] = y[mask] * inv
    translate()
    return x, y


def _sample(y_scale, omega):
    rng = np.random.default_rng(int(-math.log10(y_scale)))
    x = rng.uniform(-50.0, 50.0, 20000)
    y = y_scale * np.exp(rng.uniform(-3.0, 3.0, 20000))
    # edges where one translation is not yet idempotent
    half = 0.5 * omega
    x[:4] = (half - 2.0 ** -54, half - 2.0 ** -53, half,
             5 * half - 2.0 ** -52)
    return x, y


# the width-1 cases keep their ids from before the width was a parameter;
# width 2 goes low in test_reduce_points_raises_near_the_theta_cusp
@pytest.mark.parametrize("y_scale, omega", [
    pytest.param(s, w, id=f"{s}" if w == 1 else f"{s}-omega{w}")
    for w in (1, 2, 3, 4) for s in (1.0, 1e-3, 1e-8, 1e-100)
    if w != 2 or s == 1.0])
def test_reduce_points_matches_whole_array_loop_bitwise(y_scale, omega):
    x, y = _sample(y_scale, omega)
    rx, ry = reduce_points(x, y, omega)
    wx, wy = _reduce_points_whole_array(x, y, omega)
    assert np.array_equal(rx, wx) and np.array_equal(ry, wy)
    # inside |x| <= omega/2, |z| >= 1, the domain of <T^omega, S>
    assert np.all(np.abs(rx) <= 0.5 * omega)
    assert np.all(rx * rx + ry * ry >= 1.0 - 1e-15)


@pytest.mark.parametrize("y_scale", [1e-3, 1e-8])
def test_reduce_points_raises_near_the_theta_cusp(y_scale):
    # the theta group's domain has a cusp at +-1, and a point near it
    # creeps toward its end one inversion at a time: about 1/y of them
    x, y = _sample(y_scale, 2)
    wx, wy = _reduce_points_whole_array(x, y, 2)
    stuck = wx * wx + wy * wy < 1.0 - 1e-15
    assert stuck.any()
    with pytest.raises(ValueError):
        reduce_points(x, y, 2)
    rx, ry = reduce_points(x[~stuck], y[~stuck], 2)
    assert np.array_equal(rx, wx[~stuck]) and np.array_equal(ry, wy[~stuck])


@pytest.mark.parametrize("x, y", [(None, 1e-310), (None, 0.0), (None, -1.0),
                                  (None, math.nan), (math.nan, 0.5),
                                  (math.inf, 0.5), (-math.inf, 0.5)])
def test_reduce_points_raises_rather_than_return_unreduced(x, y):
    # at y = 1e-310, y^2 underflows: the whole-array loop returned 848 of
    # these points still inside the unit disc
    xs = np.random.default_rng(3).uniform(-0.5, 0.5, 1000)
    if x is not None:
        xs[7] = x
    with pytest.raises(ValueError):
        reduce_points(xs, np.full(1000, y))


# -- congruence structure ----------------------------------------------------


def test_coset_label_kills_sign():
    # g and -g are one element of PSL2, so they get one code at every level
    g = np.array([[1, 2, 0, 1], [-1, -2, 0, -1],
                  [4, 7, 5, 9], [-4, -7, -5, -9]])
    for q in range(1, 12):
        codes = label_codes(g, q)
        assert codes[0] == codes[1] and codes[2] == codes[3], q


@pytest.mark.parametrize("spec", [PSL2Z, THIN4, GroupSpec("theta", 2),
                                  GroupSpec("w3", 3)])
def test_coset_space_codes_match_the_object_closure(spec):
    for q in range(1, 25):
        space = coset_space(spec, q)
        assert space.dtype == np.int64 and not space.flags.writeable
        digits = np.stack([space // q ** k % q for k in (3, 2, 1, 0)], axis=1)
        assert (label_entries(space, q) == digits).all()
        # sorted codes are the labels' entries in lexicographic order
        assert [tuple(e) for e in digits.tolist()] == sorted(
            lab.entries for lab in coset_closure(spec, q)), q


def test_coset_space_sizes():
    # |PSL(2, Z/3)| = 12, and the level-3 thin image is all of it since
    # the width-4 shear reduces to the width-1 shear mod 3; at level 2
    # the shear generator dies and only the inversion survives
    assert len(coset_space(PSL2Z, 3)) == 12
    assert len(coset_space(THIN4, 3)) == 12
    assert len(coset_space(THIN4, 2)) < len(coset_space(PSL2Z, 2))


def test_psl2_order_counts_the_psl2z_labels():
    # SL2(Z) maps onto SL2(Z/q), so the psl2z labels are all of PSL2(Z/q)
    for q in range(1, 25):
        assert len(coset_space(PSL2Z, q)) == psl2_order(q), q
        assert len(coset_space(THIN4, q)) <= psl2_order(q)
    assert psl2_order(40) == 23040


def test_coset_space_refuses_levels_past_its_ceiling():
    # every level up to 126 fits MAX_COSETS (126 has 653,184 labels), 127
    # does not (1,024,128); the check is closed form, so a level whose
    # enumeration would never finish is refused at once
    assert psl2_order(126) <= MAX_COSETS < psl2_order(127)
    assert max(q for q in range(1, 200) if psl2_order(q) <= MAX_COSETS) == 144
    t0 = time.perf_counter()
    for q in (127, 40000, 10 ** 18):
        with pytest.raises(ValueError, match="congruence classes"):
            coset_space(PSL2Z, q)
    for q in (0, -3):
        with pytest.raises(ValueError, match="level must be"):
            check_level(q)
    assert time.perf_counter() - t0 < 1.0
    check_level(126)
    # a level that is no int is refused, also where the cache holds the
    # int it equals (True == 1, 3.0 == 3)
    coset_space(PSL2Z, 1), coset_space(PSL2Z, 3)
    for q in (True, 3.0, "3", 2.5):
        with pytest.raises(ValueError, match="level must be an integer"):
            coset_space(PSL2Z, q)


# -- bottom rows -------------------------------------------------------------


def brute_force_coprime_rows(height):
    rows = set()
    h = int(height)
    for c in range(0, h + 1):
        for d in range(-h, h + 1):
            if c * c + d * d > height * height or (c, d) == (0, 0):
                continue
            if math.gcd(c, abs(d)) != 1:
                continue
            if c > 0 or (c == 0 and d > 0):
                rows.add((c, d))
    return rows


def test_bottom_rows_lattice_exact_cutoff():
    for h in (30.0, 65.0, 128.0):  # (33, 56) lies on the circle of radius 65
        rows = bottom_rows(PSL2Z, h)
        got = [(int(c), int(d)) for _, _, c, d in rows]
        assert len(got) == len(set(got))
        assert set(got) == brute_force_coprime_rows(h)
        # completeness of the full matrices: each row is a genuine element,
        # with a = d^-1 mod c in [0, c) (a = 1 on the identity row (0, 1))
        a, b, c, d = rows.T
        assert np.all(a * d - b * c == 1)
        assert np.all((a >= 0) & ((a < c) | (c == 0)))


def test_bottom_rows_sorted_and_write_protected():
    rows = bottom_rows(PSL2Z, 20.0)
    order = np.lexsort((rows[:, 3], rows[:, 2]))
    assert np.all(order == np.arange(len(rows)))
    with pytest.raises(ValueError):
        rows[0, 0] = 99


def test_bottom_rows_cache_key_mixes_int_and_float():
    a = bottom_rows(PSL2Z, 16)
    b = bottom_rows(PSL2Z, 16.0)
    assert a is b


def test_bottom_rows_keep_the_first_representative_found():
    # breadth first, so each row keeps its shortest word: S T^(4k), not a
    # translate of it found deeper in the search
    assert bottom_rows(THIN4, 5.0).tolist() == [
        [1, 0, 0, 1], [0, -1, 1, -4], [0, -1, 1, 0], [0, -1, 1, 4],
        [-1, 0, 4, -1], [1, 0, 4, 1]]


def word_search_rows(spec, height):
    """bottom_rows as the word search built them: enumerate_words gated on
    the sup norm at 4 * height, and the first representative found of
    every row in the disc, sorted by row."""
    gate = 4 * height
    res = enumerate_words(spec, budget=WordBudget(4096, 10 ** 7),
                          expand=lambda g: max(map(abs, g)) <= gate)
    reps = {}
    for a, b, c, d in res.elements:
        if c * c + d * d <= height * height:
            reps.setdefault((c, d), (a, b))
    out = np.array([(a, b, c, d) for (c, d), (a, b) in reps.items()],
                   dtype=np.int64).reshape(-1, 4)
    return out[np.lexsort((out[:, 3], out[:, 2]))]


# rows such as (16, 63) and (32, 255) lie exactly on the circles of
# radius 65 and 257, where the ends of a run are decided by the exact check
@pytest.mark.parametrize("h", [5.0, 32.0, 65.0, 100.0, 128.0, 257.0, 300.5,
                               512.0, 1024.0, 1025.0, 2048.0])
def test_syllable_tree_matches_word_search(h):
    rows = bottom_rows(THIN4, h)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, word_search_rows(THIN4, h))


@given(st.floats(0.5, 700.0))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_syllable_tree_matches_word_search_at_any_height(h):
    assert np.array_equal(bottom_rows(THIN4, h), word_search_rows(THIN4, h))


def test_bottom_rows_need_translation_and_inversion():
    # every spec is <T^omega, S>, so the tree serves every width: its rows
    # are the word search's over T^omega, T^-omega and S
    for omega in (2, 3, 5):
        spec = GroupSpec(f"w{omega}", omega)
        assert np.array_equal(bottom_rows(spec, 64.0),
                              word_search_rows(spec, 64.0))


@pytest.mark.parametrize("h", [64.0, 1000.0])
def test_theta_rows_are_the_odd_coprime_rows(h):
    # the theta group <T^2, S> is the matrices congruent to 1 or S mod 2,
    # whose bottom rows are the coprime (c, d) with c + d odd; the psl2z
    # rows come from the closed form, not the tree
    theta = bottom_rows(GroupSpec("theta", 2), h)[:, 2:]
    full = bottom_rows(PSL2Z, h)[:, 2:]
    odd = full[(full[:, 0] + full[:, 1]) % 2 == 1]
    assert len(theta) == {64.0: 2610, 1000.0: 636558}[h]
    assert np.array_equal(theta, odd)


def test_bottom_rows_cap_raises_at_once():
    t0 = time.perf_counter()
    for spec in (THIN4, PSL2Z):
        for h in (4096.0, 5000.0, 8192.0):
            with pytest.raises(BudgetExceeded, match=f"height {h:g} "):
                bottom_rows(spec, h)
    assert time.perf_counter() - t0 < 0.1
    # just below the cap, where the word search ran out of depth, the tree
    # still builds
    assert len(bottom_rows(THIN4, 4095.0)) > len(bottom_rows(THIN4, 2048.0))


def _region_rows(spec, d_lo, d_hi):
    """(a, c, d) lists of the region's rows by independent routes: for
    psl2z the coprime pairs with a = d^-1 mod c, for thin4 a scan of the
    height-256 table, which holds every region the test below draws."""
    if spec.omega == 1:
        rows = [(pow(d, -1, c), c, d) for c in range(1, len(d_lo) + 1)
                for d in range(int(d_lo[c - 1]), int(d_hi[c - 1]) + 1)
                if math.gcd(c, abs(d)) == 1]
    else:
        rows = [(a, c, d) for a, _, c, d in bottom_rows(THIN4, 256).tolist()
                if 1 <= c <= len(d_lo) and d_lo[c - 1] <= d <= d_hi[c - 1]]
    return [list(v) for v in zip(*rows)] or [[], [], []]


# each example patches ROW_CHUNK in its own monkeypatch context
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d_lo=st.lists(st.integers(-60, 60), max_size=40),
       width=st.integers(-3, 90), size=st.sampled_from([1, 3, 7, 50, 2048]),
       spec=st.sampled_from([PSL2Z, THIN4]), seed=st.integers(0, 2 ** 32 - 1))
def test_row_chunks_concatenate_to_the_region_query(d_lo, width, size, spec,
                                                    seed, monkeypatch):
    # the region's rows in order of c and then d, in non-empty chunks of
    # at most ROW_CHUNK rows; d-ranges of up to 90 candidates split inside
    # a c
    d_lo = np.array(d_lo, dtype=np.int64)
    d_hi = d_lo + np.random.default_rng(seed).integers(-3, width + 1,
                                                      len(d_lo))
    with monkeypatch.context() as m:
        m.setattr(groups, "ROW_CHUNK", size)
        chunks = list(coset_row_chunks(spec, d_lo, d_hi))
    assert all(0 < len(c) <= size for _, c, _ in chunks)
    got = [np.concatenate([ch[i] for ch in chunks] or [np.zeros(0, int)])
           for i in range(3)]
    assert [g.tolist() for g in got] == _region_rows(spec, d_lo, d_hi)


def test_bottom_rows_thin_subset_of_lattice():
    thin = {tuple(r) for r in bottom_rows(THIN4, 24.0)[:, 2:].tolist()}
    full = {tuple(r) for r in bottom_rows(PSL2Z, 24.0)[:, 2:].tolist()}
    assert thin <= full
    assert (0, 1) in thin  # identity row
    # thin rows repeat under left translation by the width-4 shear, so the
    # row (c, d) determines a coset of the cusp stabilizer
    assert len(thin) < len(full)
