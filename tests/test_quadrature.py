import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearlab import modforms, quadrature
from shearlab.quadrature import (InsufficientConvergenceError, adaptive,
                                 gl_nodes, integrate_fd, refine)


def test_modforms_reexports_the_convergence_error():
    # imports from either module catch the strip measure's raise
    assert modforms.InsufficientConvergenceError is \
        InsufficientConvergenceError


def test_adaptive_smooth_exponential():
    res = adaptive(np.exp, 0.0, 1.0)
    assert res.converged
    assert abs(res.value - (math.e - 1.0)) < 1e-13
    assert abs(res.value - (math.e - 1.0)) <= max(res.est_error, 1e-14)


def test_adaptive_handles_narrow_spike():
    # width-1e-3 Gaussian; a coarse seed grid gives the refinement loop a
    # panel whose nodes see the tails, and it has to do the rest
    c, w = 0.3137, 1e-3

    def f(x):
        return np.exp(-((x - c) / w) ** 2)

    res = adaptive(f, 0.0, 1.0, abs_tol=1e-16, rel_tol=1e-12,
                   initial_edges=np.linspace(0.0, 1.0, 21))
    assert abs(res.value - w * math.sqrt(math.pi)) < 1e-11 * w


def test_adaptive_initial_edges_respected():
    def f(x):
        return np.where(x < 1.0, x, 3.0 - x)  # kink at 1

    res = adaptive(f, 0.0, 2.0, initial_edges=[0.0, 1.0, 2.0])
    assert abs(res.value - 2.0) < 1e-12


def test_adaptive_splits_seed_panels_without_overlap():
    # the cusp sits on the seed edge 1/4, so both panels beside it are
    # bisected again and again; a split that moved the right panel's left
    # end along with the left panel's right end would count a piece twice
    res = adaptive(lambda x: np.sqrt(np.abs(x - 0.25)), 0.0, 1.0,
                   abs_tol=1e-13, rel_tol=1e-13,
                   initial_edges=np.linspace(0.0, 1.0, 5))
    assert res.converged
    assert abs(res.value - (0.25 ** 1.5 + 0.75 ** 1.5) / 1.5) < 1e-12


@pytest.mark.parametrize("seeds", [
    [0.5, 0.25, 0.5, 0.25, 0.75, 0.5],          # repeats
    [0.0, 1.0, 0.3, 0.0, 1.0],                  # seeds at a and b
    [1.7, -0.3, 0.6, 0.2, 0.6, -2.0, 0.9],      # unsorted, some outside
    [],
    np.round(np.random.default_rng(5).uniform(-0.2, 1.2, 400), 2),
])
def test_seed_edges_are_np_unique_bit_for_bit(seeds):
    got = quadrature._seed_edges(0.0, 1.0, seeds)
    want = np.unique(np.clip(np.concatenate([[0.0, 1.0], seeds]), 0.0, 1.0))
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_adaptive_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, about 20 ms of every
    # process that integrates adaptively
    code = ("import sys, numpy as np\n"
            "from shearlab.quadrature import adaptive\n"
            "adaptive(np.exp, 0.0, 1.0, initial_edges=[0.5, 0.25, 0.5])\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(quadrature.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def test_adaptive_reports_nonconvergence():
    calls = {"n": 0}

    def f(x):
        calls["n"] += 1
        return np.abs(x - math.sqrt(0.5) + 1e-9) ** -0.999 * 1e-6

    res = adaptive(f, 0.0, 1.0, abs_tol=1e-300, rel_tol=1e-300,
                   max_panels=40)
    assert not res.converged
    assert res.n_evals > 0


def _within_tolerance(res, exact, abs_tol, rel_tol):
    return abs(res.value - exact) <= max(abs_tol, rel_tol * abs(exact)) \
        + 1e-15 * abs(exact)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(0.05, 0.95), log_w=st.floats(math.log(3e-3), math.log(0.3)),
       rel_tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_adaptive_gaussian_within_tolerance(c, log_w, rel_tol):
    # the 21 seed panels put K15 nodes closer than the narrowest width
    w = math.exp(log_w)
    exact = 0.5 * w * math.sqrt(math.pi) * (math.erf((1.0 - c) / w)
                                            + math.erf(c / w))
    res = adaptive(lambda x: np.exp(-((x - c) / w) ** 2), 0.0, 1.0,
                   abs_tol=1e-15, rel_tol=rel_tol,
                   initial_edges=np.linspace(0.0, 1.0, 21))
    assert res.converged
    assert _within_tolerance(res, exact, 1e-15, rel_tol)


@settings(max_examples=40, deadline=None)
@given(k=st.floats(1.0, 400.0), b=st.floats(0.5, 3.0),
       rel_tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_adaptive_cosine_within_tolerance(k, b, rel_tol):
    res = adaptive(lambda x: np.cos(k * x), 0.0, b, abs_tol=1e-13,
                   rel_tol=rel_tol)
    assert res.converged
    assert _within_tolerance(res, math.sin(k * b) / k, 1e-13, rel_tol)


@settings(max_examples=30, deadline=None)
@given(max_panels=st.integers(1, 300))
def test_adaptive_cap_reports_nonconvergence(max_panels):
    # sqrt has an endpoint singularity in its derivative, so no panel
    # count meets a zero tolerance
    res = adaptive(np.sqrt, 0.0, 1.0, abs_tol=0.0, rel_tol=0.0,
                   max_panels=max_panels)
    assert not res.converged
    assert res.n_panels == max_panels
    assert res.n_evals == 15 * (2 * max_panels - 1)
    assert res.est_error > 0.0


def test_adaptive_many_periods_in_few_calls():
    # 2000 periods from a single panel: each round splits every panel
    # that carries the excess error, so the panel count doubles per call
    # until the oscillation is resolved
    k = 2.0 * math.pi * 2000.3
    calls = []

    def f(x):
        calls.append(len(x))
        return np.cos(k * x)

    res = adaptive(f, 0.0, 1.0)
    assert res.converged
    assert len(calls) <= 40
    assert abs(res.value - math.sin(k) / k) <= 1e-12


def test_gl_nodes_integrate_polynomials_exactly():
    x, w = gl_nodes(8)
    # degree 15 is the exactness edge for 8 nodes
    for k in range(0, 16):
        val = float(np.sum(w * x ** k))
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(val - exact) < 1e-13


def test_refine_stops_at_first_agreeing_pair():
    calls = []

    def run(n):
        calls.append(n)
        return 1.0 + 1e-3 / n ** 4

    val, err, ok = refine(run, (10, 20, 40, 80), abs_tol=1e-6)
    assert ok
    assert calls == [10, 20]
    assert val == run(20)
    assert err == abs(run(20) - run(10))


def test_refine_reports_exhausted_sequence():
    vals = {1: 1.0, 2: 2.0, 3: 4.0}
    val, err, ok = refine(vals.__getitem__, (1, 2, 3), abs_tol=1e-3,
                          rel_tol=1e-3)
    assert not ok
    assert val == 4.0
    assert err == 2.0


def test_refine_relative_threshold():
    # the gap 3e-3 passes only on the relative term 1.01e-3 * |3.0|
    vals = {1: 3.003, 2: 3.0}
    assert not refine(vals.__getitem__, (1, 2), abs_tol=1e-3)[2]
    assert refine(vals.__getitem__, (1, 2), rel_tol=1.01e-3)[2]


def test_integrate_fd_hyperbolic_area():
    # area of the standard domain below y_top against dx dy / y^2
    for y_top in (3.0, 10.0):
        res = integrate_fd(lambda x, y: 1.0 / y ** 2, y_top, nx=64,
                           n_edges=20, abs_tol=1e-15, rel_tol=1e-14)
        assert res.converged
        assert abs(res.value - (math.pi / 3.0 - 1.0 / y_top)) < 1e-12


def test_integrate_fd_column_dependent_integrand():
    # x^2 dx dy / y^2 differs from column to column, so a column weight or
    # arc height taken from the wrong column shows
    for y_top in (3.0, 10.0):
        res = integrate_fd(lambda x, y: x * x / y ** 2, y_top, nx=64,
                           n_edges=20, abs_tol=1e-16, rel_tol=1e-14)
        want = math.pi / 6.0 - math.sqrt(3.0) / 4.0 - 1.0 / (12.0 * y_top)
        assert res.converged
        assert abs(res.value - want) < 5e-16
