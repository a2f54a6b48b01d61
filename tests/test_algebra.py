import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearlab.algebra import (INT_S, INT_T, FormVector, GroupElement,
                              IntGroupElement, UTBPoint, compose,
                              iwasawa_decompose, iwasawa_recompose,
                              mobius_act, spin_cover)

GENS = (INT_S, INT_S.inverse(), INT_T, INT_T.inverse())

words = st.lists(st.integers(0, 3), min_size=0, max_size=14)


def word_to_element(w):
    g = IntGroupElement.identity()
    for k in w:
        g = g * GENS[k]
    return g


reals = st.floats(-20.0, 20.0, allow_nan=False)
heights = st.floats(0.01, 50.0, allow_nan=False)


# -- group elements and Iwasawa ----------------------------------------------


def test_int_element_determinant_guard():
    with pytest.raises(ValueError):
        IntGroupElement(1, 0, 0, 2)
    with pytest.raises(ValueError):
        GroupElement(1.0, 0.0, 0.0, -1.0)


def test_sign_representatives_are_canonical():
    g = IntGroupElement(-1, 0, 0, -1)
    assert g.entries() == (1, 0, 0, 1)
    h = IntGroupElement(0, 1, -1, 0)
    assert h.c > 0


@given(words)
def test_iwasawa_round_trip(w):
    g = word_to_element(w).to_real()
    back = iwasawa_recompose(iwasawa_decompose(g))
    assert back.isclose(g, 1e-12)


@given(reals, heights, st.floats(-math.pi, math.pi))
def test_iwasawa_of_nak_recovers_coordinates(x, y, theta):
    g = compose(compose(GroupElement.n(x), GroupElement.a_diag(y)),
                GroupElement.k(theta))
    iw = iwasawa_decompose(g)
    assert abs(iw.x - x) <= 1e-9 * (1.0 + abs(x))
    assert abs(iw.y - y) <= 1e-9 * y
    # theta lands in [-pi/2, pi/2): same rotation up to the center
    d = (iw.theta - theta) / math.pi
    assert abs(d - round(d)) < 1e-9


def test_iwasawa_base_point_matches_mobius_image():
    g = word_to_element([2, 0, 2, 2, 1]).to_real()
    iw = iwasawa_decompose(g)
    p = mobius_act(g, UTBPoint(0.0, 1.0, 0.0))
    assert abs(p.x - iw.x) < 1e-12
    assert abs(p.y - iw.y) < 1e-12


# -- Mobius action -----------------------------------------------------------


@given(words, words, reals, heights)
def test_mobius_action_composes(w1, w2, x, y):
    g, h = word_to_element(w1), word_to_element(w2)
    p = UTBPoint(x, y, 0.3)
    lhs = mobius_act(g * h, p)
    rhs = mobius_act(g, mobius_act(h, p))
    assert abs(lhs.x - rhs.x) < 1e-6 * (1.0 + abs(lhs.x))
    assert abs(lhs.y - rhs.y) < 1e-6 * lhs.y
    d = (lhs.theta - rhs.theta) / (2.0 * math.pi)
    assert abs(d - round(d)) < 1e-6


@given(reals, heights)
def test_mobius_preserves_distance(x, y):
    def dist(p, q):  # cosh d = 1 + |z1 - z2|^2 / (2 y1 y2)
        return math.acosh(1.0 + ((p.x - q.x) ** 2 + (p.y - q.y) ** 2)
                          / (2.0 * p.y * q.y))

    g = word_to_element([0, 2, 2, 0, 3]).to_real()
    p1, p2 = UTBPoint(x, y), UTBPoint(0.5, 2.0)
    d1 = dist(p1, p2)
    d2 = dist(mobius_act(g, p1), mobius_act(g, p2))
    assert abs(d1 - d2) < 1e-9 * (1.0 + d1)


def test_utb_point_needs_positive_height():
    with pytest.raises(ValueError):
        UTBPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        UTBPoint(0.0, -1.0)


def test_theta_wraps_into_pm_pi():
    p = UTBPoint(0.0, 1.0, 7.5)
    assert -math.pi <= p.theta < math.pi


# -- quadric action ----------------------------------------------------------


@given(words)
def test_spin_cover_preserves_discriminant(w):
    g = word_to_element(w)
    v = FormVector(0.0, 1.0, 0.0)
    assert abs(spin_cover(g, v).disc() - v.disc()) < 1e-9


@given(words, words)
def test_spin_cover_right_action_law(w1, w2):
    g, h = word_to_element(w1), word_to_element(w2)
    v = FormVector(2.0, 1.0, -3.0)
    lhs = spin_cover(g * h, v)
    rhs = spin_cover(h, spin_cover(g, v))
    err = max(abs(a - b) for a, b in zip(lhs.entries(), rhs.entries()))
    assert err < 1e-9 * (1.0 + lhs.sup_norm())


def test_spin_cover_fixes_center():
    v = FormVector(1.0, 0.5, -2.0)
    minus_id = GroupElement(-1.0, 0.0, 0.0, -1.0)  # normalizes to +id
    assert spin_cover(minus_id, v).entries() == v.entries()


def test_spin_cover_integer_orbit_stays_integral():
    g = word_to_element([2, 0, 1, 2, 2, 0])
    v = spin_cover(g, FormVector(0.0, 1.0, 0.0))
    for entry in v.entries():
        assert entry == int(entry)


# -- the acceptance-scale random sweep ---------------------------------------


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_algebra_sweep_seeded(seed):
    # one compact draw per example; the full 10^4-sample timing version
    # lives in the acceptance suite
    rng = np.random.default_rng(seed)
    g = word_to_element(rng.integers(0, 4, size=10).tolist())
    gr = g.to_real()
    assert iwasawa_recompose(iwasawa_decompose(gr)).isclose(gr, 1e-12)
    v = spin_cover(g, FormVector(0.0, 1.0, 0.0))
    assert abs(v.disc() - 1.0) < 1e-9
