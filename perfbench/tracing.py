"""Spans and counters recorded around shearlab's public functions.

Wrappers are set on module attributes for the length of a traced phase
and removed afterwards; shearlab's source is not touched.  Where a layer
is reached only through another, the wrapper goes on the name the
calling module binds (shearlab.counting.enumerate_words,
shearlab.modforms.adaptive, ...), because that is the name the caller
looks up at call time.  A target that no longer exists is recorded as
absent and its metrics read 0.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# lru_caches whose hits and misses are reported: (module, attribute)
CACHES = (
    ("groups", "bottom_rows"), ("measures", "_thin_table"),
    ("modforms", "_tau_tuple"), ("modforms", "petersson_norm"),
    ("modforms", "form_observable"), ("eisenstein", "critical_exponent"),
    ("quadrature", "gl_nodes"),
)


class Tracer:
    """Span seconds (with the part covered by child spans) and counters."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.seconds[name] += dt
            self.child[name] += frame[0]
            if self._stack:
                self._stack[-1][0] += dt

    def self_seconds(self, name):
        return self.seconds[name] - self.child[name]

    def count(self, name, n=1):
        self.counts[name] += n


def cache_counts(sl) -> dict:
    """(hits, misses) of each reported cache; the cache objects are read
    from their defining modules before any wrapper shadows them."""
    out = {}
    for mod, attr in CACHES:
        fn = getattr(getattr(sl, mod), attr, None)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            ci = info()
            out[f"{mod}.{attr}"] = (ci.hits, ci.misses)
    return out


class Patches:
    """Installs wrappers and puts the original attributes back."""

    def __init__(self):
        self._saved = []
        self.absent = []

    def wrap(self, module, attr, make):
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(orig))
        self._saved.append((module, attr, orig))

    def undo(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()


def install(tr: Tracer, sl) -> Patches:
    """Wrap every traced entry point of the freshly imported package `sl`."""
    pt = Patches()
    originals = {f"{m}.{a}": getattr(getattr(sl, m), a, None)
                 for m, a in CACHES}

    def spanned(name):
        return lambda orig: (lambda *a, **k: tr.span(name, orig, *a, **k))

    def words(from_counting):
        def make(orig):
            def w(*a, **k):
                try:
                    res = tr.span("groups.enumerate_words", orig, *a, **k)
                except Exception as e:
                    part = getattr(e, "partial", None)
                    if part is not None:
                        tr.count("groups.enumerate_words.nodes", part.nodes)
                    raise
                tr.count("groups.enumerate_words.nodes", res.nodes)
                if from_counting:
                    tr.count("counting.search_nodes", res.nodes)
                return res
            return w
        return make

    for mod, counting in (("groups", False), ("counting", True),
                          ("eisenstein", False)):
        pt.wrap(getattr(sl, mod), "enumerate_words", words(counting))

    def spin(orig):
        def w(*a, **k):
            tr.counts["algebra.spin_cover.calls"] += 1
            return orig(*a, **k)
        return w
    pt.wrap(sl.counting, "spin_cover", spin)

    def count_orbit(orig):
        def w(*a, **k):
            res = tr.span("counting.count_orbit", orig, *a, **k)
            tr.count("counting.orbit_points", res.counts[-1])
            return res
        return w
    pt.wrap(sl.counting, "count_orbit", count_orbit)

    rows_cache = originals["groups.bottom_rows"]

    def bottom_rows(orig):
        def w(*a, **k):
            before = rows_cache.cache_info().misses if rows_cache else 0
            res = tr.span("groups.bottom_rows", orig, *a, **k)
            if rows_cache and rows_cache.cache_info().misses > before:
                tr.count("groups.bottom_rows.rows", len(res))
            return res
        return w
    for mod in ("measures", "eisenstein"):
        pt.wrap(getattr(sl, mod), "bottom_rows", bottom_rows)

    pt.wrap(sl.measures, "make_thin_bump", spanned("measures.make_thin_bump"))
    pt.wrap(sl.eisenstein, "critical_exponent",
            spanned("eisenstein.critical_exponent"))

    def mu_t(orig):
        def w(psi, *a, **k):
            res = tr.span(f"measures.mu_T.{psi.mode}", orig, psi, *a, **k)
            tr.count("measures.mu_T.nodes", res.n_nodes)
            return res
        return w
    pt.wrap(sl.measures, "mu_T", mu_t)
    pt.wrap(sl.measures, "mu_T_strip", spanned("measures.mu_T_strip"))

    for name in ("delta_qexp", "second_moment_lhs", "petersson_norm",
                 "sym2_L"):
        pt.wrap(sl.modforms, name, spanned(f"modforms.{name}"))

    def adaptive(orig):
        def w(f, *a, **k):
            def timed(x):
                return tr.span("quadrature.adaptive.integrand", f, x)
            res = tr.span("quadrature.adaptive", orig, timed, *a, **k)
            tr.count("quadrature.adaptive.evals", res.n_evals)
            tr.count("quadrature.adaptive.unconverged", not res.converged)
            return res
        return w

    def points(name):
        def make(orig):
            def w(x, *a, **k):
                tr.count(name, np.size(x))
                return orig(x, *a, **k)
            return w
        return make

    for mod in ("measures", "modforms", "eisenstein"):
        pt.wrap(getattr(sl, mod), "adaptive", adaptive)
    for mod in ("measures", "modforms"):
        pt.wrap(getattr(sl, mod), "reduce_points",
                points("groups.reduce_points.points"))
    for mod in ("eisenstein", "modforms"):
        pt.wrap(getattr(sl, mod), "log_abs_eta_arr",
                points("specfun.log_abs_eta_arr.points"))

    def sample(orig):
        def w(e, *a, **k):
            route = e.route
            if route == "auto":
                route = "fourier" if e.spec.lattice else "coset"
            if route == "coset":
                route = "coset_lattice" if e.spec.lattice else "coset_thin"
            return tr.span(f"eisenstein.{route}", orig, e, *a, **k)
        return w
    pt.wrap(sl.eisenstein, "eisenstein_sample", sample)
    pt.wrap(sl.eisenstein, "mu_eis", spanned("eisenstein.mu_eis"))

    def bessel(orig):
        def w(*a, **k):
            tr.counts["specfun.bessel_k.calls"] += 1
            return tr.span("specfun.bessel_k", orig, *a, **k)
        return w
    pt.wrap(sl.eisenstein, "bessel_k", bessel)
    return pt


def layer_values(tr: Tracer, cache_delta: dict) -> dict:
    """Per-layer metric values of one traced phase, by metric name."""
    s, c = tr.seconds, tr.counts
    out = {
        "groups.enumerate_words.s": s["groups.enumerate_words"],
        "groups.enumerate_words.nodes": c["groups.enumerate_words.nodes"],
        "algebra.spin_cover.calls": c["algebra.spin_cover.calls"],
        "counting.count_orbit.self_s": tr.self_seconds("counting.count_orbit"),
        "counting.orbit_points": c["counting.orbit_points"],
        "counting.search_nodes": c["counting.search_nodes"],
        "groups.bottom_rows.s": s["groups.bottom_rows"],
        "groups.bottom_rows.rows": c["groups.bottom_rows.rows"],
        "measures.make_thin_bump.s": s["measures.make_thin_bump"],
        "eisenstein.critical_exponent.s": s["eisenstein.critical_exponent"],
        "measures.mu_T.lattice.s": s["measures.mu_T.lattice"],
        "measures.mu_T.thin.s": s["measures.mu_T.thin"],
        "measures.mu_T.nodes": c["measures.mu_T.nodes"],
        "measures.mu_T_strip.s": s["measures.mu_T_strip"],
        "modforms.delta_qexp.s": s["modforms.delta_qexp"],
        "modforms.second_moment_lhs.s": s["modforms.second_moment_lhs"],
        "modforms.petersson_norm.s": s["modforms.petersson_norm"],
        "modforms.sym2_L.s": s["modforms.sym2_L"],
        "quadrature.adaptive.self_s": tr.self_seconds("quadrature.adaptive"),
        "quadrature.adaptive.evals": c["quadrature.adaptive.evals"],
        "quadrature.adaptive.unconverged": c["quadrature.adaptive.unconverged"],
        "groups.reduce_points.points": c["groups.reduce_points.points"],
        "eisenstein.fourier.s": s["eisenstein.fourier"],
        "eisenstein.coset_lattice.s": s["eisenstein.coset_lattice"],
        "eisenstein.coset_thin.s": s["eisenstein.coset_thin"],
        "eisenstein.mu_eis.s": s["eisenstein.mu_eis"],
        "specfun.bessel_k.calls": c["specfun.bessel_k.calls"],
        "specfun.bessel_k.s": s["specfun.bessel_k"],
        "specfun.log_abs_eta_arr.points": c["specfun.log_abs_eta_arr.points"],
    }
    for key, (hits, misses) in cache_delta.items():
        out[f"{key}.hits"] = hits
        out[f"{key}.misses"] = misses
    return out
