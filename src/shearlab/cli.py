"""Batch front end: one experiment per process, results as CSV files
plus a run manifest.

Subcommands map onto the library's headline computations:

  count        orbit ball counts for a group scenario
  coset-count  the same counts split by congruence coset
  fit          growth-law fits on a previously written counts file
  shear        mu_T, its strip approximant, and their gap over a T grid
  eisenstein   point values with route and error estimate
  moment       geometric second moment against its log-law prediction
  kronecker    the limit-formula consistency check
  selftest     fast invariant sweep across the modules

Every file-writing run produces `<out>` plus `<out stem>.manifest.json`
holding the resolved configuration, package version, and wall time.
Identical configuration gives byte-identical CSV output; only the
manifest timestamp and wall time vary.  selftest --seed picks its
randomized sweep.  Exit codes: 0 success, 2 bad configuration, an
unreadable --in file or an --out that names a directory or lies in a
missing or unwritable one (nothing written), 3 budget or tolerance
exhausted (manifest flagged partial; a run stopped by the error lists no
outputs and records the error text).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .algebra import (INT_S, INT_T, FormVector, UTBPoint, iwasawa_decompose,
                      iwasawa_recompose, spin_cover)
from .counting import (FIT_MODELS, CountResult, InsufficientDataError,
                       OrbitQuery, StabilizerError, count_orbit,
                       fit_counting_law)
from .eisenstein import (EisensteinEvaluator, _em_threshold, _row_sums,
                         eisenstein_sample, regularized_E1)
from .groups import BUILTINS, PSL2Z, BudgetExceeded, GroupSpec, WordBudget
from .measures import make_lattice_bump, make_thin_bump, mu_T, mu_T_strip
from .modforms import (InsufficientConvergenceError, delta_qexp,
                       form_observable, kronecker_check, petersson_norm,
                       second_moment_lhs, second_moment_prediction, sym2_L)
from .specfun import zeta

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3

# sym2_L(delta_qexp(n), 1) with its derivative converges from n = 1389 on
QEXP_N_MIN = 1500


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return "%.12g" % float(x)


def _floats(text: str) -> tuple:
    try:
        out = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")
    if not out:
        raise ConfigError("empty number list")
    return out


def _complexes(text: str) -> tuple:
    try:
        out = tuple(complex(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated complex values "
                          f"like 0.2+1.4j, got {text!r}")
    if not out or any(z.imag <= 0 for z in out):
        raise ConfigError("evaluation points need positive imaginary part")
    return out


def _x0(text: str) -> FormVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"x0 needs three components, got {text!r}")
    return FormVector(*(float(v) for v in parts))


def _group(name: str) -> GroupSpec:
    if name in BUILTINS:
        return BUILTINS[name]
    if os.path.isfile(name):
        try:
            return GroupSpec.from_json(open(name).read())
        except ValueError as e:
            raise ConfigError(f"bad group file {name!r}: {e}")
    raise ConfigError(f"unknown group {name!r}: use psl2z, thin4, or a "
                      f"JSON spec path")


def _psi(tag: str):
    if tag == "bump:default":
        return make_lattice_bump()
    if tag == "bump:thin":
        return make_thin_bump()
    if tag == "delta":
        return form_observable(delta_qexp(4000))
    raise ConfigError(f"unknown test function {tag!r}: use bump:default, "
                      f"bump:thin, or delta")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _write_manifest(out_path: str, cfg: dict, columns: dict, wall: float,
                    partial: bool, extra: dict | None = None):
    stem, _ = os.path.splitext(out_path)
    doc = {
        "config": cfg,
        "columns": columns,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "wall_time_s": round(wall, 3),
        "partial": partial,
        "outputs": [os.path.basename(out_path)],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        doc.update(extra)
    with open(stem + ".manifest.json", "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# -- subcommand runners ------------------------------------------------------


def _cmd_count(ns) -> int:
    spec = _group(ns.group)
    x0 = _x0(ns.x0)
    t_list = _floats(ns.T)
    budget = WordBudget(ns.budget_words, ns.budget_nodes)
    q = None if ns.q is None else int(ns.q)
    t0 = time.perf_counter()
    try:
        query = OrbitQuery(spec, x0, t_list, norm=ns.norm, q=q, budget=budget)
    except ValueError as e:
        raise ConfigError(str(e))
    try:
        res = count_orbit(query)
    except OverflowError as e:
        raise ConfigError(f"orbit outgrows the exact int64 tally: {e}")

    per_coset = ns.cmd == "coset-count"
    header = ["T", "count", "saturated"]
    columns = {
        "T": f"ball radius, {ns.norm} norm on form vectors",
        "count": "exact number of orbit points x0*gamma in the open ball",
        "saturated": "1 if the syllable walk closed within its budget",
    }
    labels = list(res.breakdown) if per_coset else []  # in entry order
    for lab in labels:
        tag = "coset_" + "_".join(str(v) for v in lab.entries)
        header.append(tag)
        columns[tag] = (f"orbit points in the congruence class "
                        f"{lab.entries} mod {q}")
    rows = []
    for i, t in enumerate(res.t_list):
        row = [t, res.counts[i], res.saturated[i]]
        row += [res.breakdown[lab][i] for lab in labels]
        rows.append(row)

    _write_csv(ns.out, header, rows)
    partial = not all(res.saturated)
    _write_manifest(ns.out, _echo(ns), columns, time.perf_counter() - t0,
                    partial, {"search_nodes": res.search_nodes,
                              "search_depth": res.search_depth})
    return EXIT_BUDGET if partial else EXIT_OK


def _cmd_fit(ns) -> int:
    t0 = time.perf_counter()
    try:
        with open(ns.infile, newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, ValueError, csv.Error) as e:
        raise ConfigError(f"cannot read counts file {ns.infile!r}: {e}")
    header = rows[0] if rows else []
    if "T" not in header or "count" not in header:
        raise ConfigError(f"{ns.infile!r} lacks T/count columns")
    it, ic = header.index("T"), header.index("count")
    try:
        data = [(float(r[it]), int(r[ic])) for r in rows[1:]]
    except (IndexError, ValueError) as e:
        raise ConfigError(f"bad row in counts file {ns.infile!r}: {e}")
    if len(data) < 2:
        raise ConfigError("need at least two count rows to fit")
    try:
        counts = CountResult(tuple(t for t, _ in data),
                             tuple(c for _, c in data),
                             tuple(True for _ in data), 0.0)
    except ValueError as e:
        raise ConfigError(f"counts file is not a valid growth table: {e}")
    models = FIT_MODELS if ns.model == "all" else (ns.model,)
    doc = {"t_list": [t for t, _ in data], "counts": [c for _, c in data],
           "models": {}}
    for m in models:
        try:
            fit = fit_counting_law(counts, m)
        except InsufficientDataError as e:
            # a short table is still a valid artifact; the report says why
            # no law could be fitted from it
            doc["models"][m] = {"error": str(e)}
            continue
        doc["models"][m] = {
            "coefficients": list(fit.coefficients),
            "residual_norm": fit.residual_norm,
            "rel_residual_top_octave": fit.rel_residual_top_octave,
            "delta_hat": fit.delta_hat,
            "t_used": list(fit.t_used),
        }
    with open(ns.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_manifest(ns.out, _echo(ns),
                    {m: "least-squares fit report" for m in doc["models"]},
                    time.perf_counter() - t0, False)
    return EXIT_OK


def _cmd_shear(ns) -> int:
    psi = _psi(ns.psi)
    t_list = _floats(ns.T)
    t0 = time.perf_counter()
    rows = []
    partial = False
    for t in t_list:
        sample = mu_T(psi, t, tol=ns.tol)
        strip = mu_T_strip(psi, t, tol=min(ns.tol, 1e-8))
        rows.append([t, sample.value, strip, abs(sample.value - strip),
                     sample.est_error, sample.route])
        partial = partial or not sample.tol_met
    header = ["T", "mu_T", "mu_T_strip", "gap", "est_error", "route"]
    columns = {
        "T": "shear parameter",
        "mu_T": "sheared-ray measure of the test function",
        "mu_T_strip": "strip-capped horoball approximant of mu_T",
        "gap": "|mu_T - mu_T_strip|, the stage-one comparison residual",
        "est_error": "quadrature error estimate for mu_T",
        "route": "evaluation route the integrator chose",
    }
    _write_csv(ns.out, header, rows)
    _write_manifest(ns.out, _echo(ns), columns, time.perf_counter() - t0,
                    partial)
    return EXIT_BUDGET if partial else EXIT_OK


def _cmd_eisenstein(ns) -> int:
    spec = _group(ns.group)
    zs = _complexes(ns.z)
    ss = _floats(ns.s)
    ev = EisensteinEvaluator(spec=spec, cusp_index=ns.cusp, route=ns.route,
                             max_mode=ns.max_mode, max_height=ns.max_height)
    t0 = time.perf_counter()
    rows = []
    for z in zs:
        for s in ss:
            sample = eisenstein_sample(ev, UTBPoint(z.real, z.imag), s)
            rows.append([z.real, z.imag, s, sample.value, sample.route,
                         sample.est_error])
    header = ["x", "y", "s", "value", "route", "est_error"]
    columns = {
        "x": "real part of the evaluation point",
        "y": "imaginary part of the evaluation point",
        "s": "spectral parameter",
        "value": "cusp-normalized Eisenstein value E(z, s)",
        "route": "fourier or coset, whichever evaluated",
        "est_error": "tail and truncation estimate",
    }
    _write_csv(ns.out, header, rows)
    _write_manifest(ns.out, _echo(ns), columns, time.perf_counter() - t0,
                    False)
    return EXIT_OK


def _check_qexp_n(ns) -> None:
    if ns.qexp_n < QEXP_N_MIN:
        raise ConfigError(f"--qexp-n below {QEXP_N_MIN} cannot reach the "
                          f"L-value tolerances")


def _cmd_moment(ns) -> int:
    _check_qexp_n(ns)
    t_list = _floats(ns.T)
    if any(t <= 1.0 for t in t_list):
        raise ConfigError("moment grid needs T > 1")
    t0 = time.perf_counter()
    f = delta_qexp(ns.qexp_n)
    rows = []
    for t in t_list:
        lhs = second_moment_lhs(f, t)
        pred = second_moment_prediction(f, t)
        rows.append([t, lhs, pred, abs(lhs - pred),
                     abs(lhs - pred) / abs(lhs)])
    header = ["T", "lhs", "prediction", "gap", "rel_gap"]
    columns = {
        "T": "shear parameter of the ray y(T + i)",
        "lhs": "geometric second-moment integral of |f|^2 y^k on the ray",
        "prediction": "2(||f||^2/vol)(log T + completed log-derivative "
                      "+ gamma - 2 zeta'(2)/zeta(2))",
        "gap": "absolute difference",
        "rel_gap": "gap relative to lhs",
    }
    _write_csv(ns.out, header, rows)
    _write_manifest(ns.out, _echo(ns), columns, time.perf_counter() - t0,
                    False)
    return EXIT_OK


def _cmd_kronecker(ns) -> int:
    _check_qexp_n(ns)
    t0 = time.perf_counter()
    f = delta_qexp(ns.qexp_n)
    lhs, rhs, gap = kronecker_check(f)
    doc = {"lhs_eta_pairing": lhs, "rhs_l_function": rhs, "gap": gap,
           "qexp_n": ns.qexp_n}
    with open(ns.out, "w") as f_out:
        json.dump(doc, f_out, indent=2, sort_keys=True)
        f_out.write("\n")
    _write_manifest(ns.out, _echo(ns),
                    {"lhs_eta_pairing": "eta-weighted Petersson pairing "
                                        "over the fundamental domain",
                     "rhs_l_function": "gamma minus the completed "
                                       "symmetric-square log-derivative",
                     "gap": "absolute difference"},
                    time.perf_counter() - t0, False)
    return EXIT_OK


# -- selftest ----------------------------------------------------------------


def _suite_algebra(rng):
    gens = [INT_S, INT_S.inverse(), INT_T, INT_T.inverse()]
    x0 = FormVector(0.0, 1.0, 0.0)
    for _ in range(500):
        g = INT_S.identity()
        for k in rng.integers(0, 4, size=int(rng.integers(1, 12))):
            g = g * gens[k]
        gr = g.to_real()
        back = iwasawa_recompose(iwasawa_decompose(gr))
        if not back.isclose(gr, 1e-12):
            raise AssertionError(f"iwasawa round trip failed at {g.entries()}")
        v = spin_cover(g, x0)
        if abs(v.disc() - x0.disc()) > 1e-9:
            raise AssertionError("spin cover moved the discriminant")
        h = gens[int(rng.integers(0, 4))]
        lhs, rhs = spin_cover(g * h, x0), spin_cover(h, spin_cover(g, x0))
        if max(abs(a - b) for a, b in zip(lhs.entries(), rhs.entries())) > 1e-9:
            raise AssertionError("right-action law failed")


def _suite_counting(_rng):
    res = count_orbit(OrbitQuery(PSL2Z, FormVector(0.0, 1.0, 0.0),
                                 (4.0, 8.0)))
    if not all(res.saturated):
        raise AssertionError("small lattice count did not saturate")
    if res.counts[0] >= res.counts[1] or res.counts[0] < 1:
        raise AssertionError(f"implausible counts {res.counts}")


def _suite_specfun(_rng):
    if abs(zeta(2.0) - math.pi ** 2 / 6.0) > 1e-12:
        raise AssertionError("zeta(2) off")
    if abs(zeta(4.0) - math.pi ** 4 / 90.0) > 1e-12:
        raise AssertionError("zeta(4) off")


def _suite_eisenstein(rng):
    p = UTBPoint(0.0, 1.0)
    a = eisenstein_sample(EisensteinEvaluator(route="fourier"), p, 2.0)
    b = eisenstein_sample(EisensteinEvaluator(route="coset"), p, 2.0)
    if abs(a.value - b.value) > 1e-8:
        raise AssertionError(f"route gap {abs(a.value - b.value):.2e}")
    # the coset route's Euler-Maclaurin rows against their direct sums
    s = 1.7
    n = rng.integers(1, 2049, size=16)
    cx = rng.uniform(-0.5, 0.5, size=16)
    d_lo = -np.floor(0.5 * n)
    a2 = _em_threshold(s) ** 2 * rng.uniform(1.0, 4.0, size=16)
    rows = _row_sums(cx, d_lo, n, a2, s)
    for got, c, d, k, h2 in zip(rows, cx, d_lo, n, a2):
        u = c + np.arange(d, d + k)
        want = math.fsum(((u * u + h2) ** -s).tolist())
        if abs(got - want) > 1e-13 * want:
            raise AssertionError(f"Euler-Maclaurin row of {k} points off "
                                 f"its direct sum by {abs(got / want - 1):.1e}")
    z = UTBPoint(0.3, 1.7)
    ev = EisensteinEvaluator(route="fourier")
    eps = 1e-3
    lim = 2.0 * _eps_reg(ev, z, eps) - _eps_reg(ev, z, 2.0 * eps)
    if abs(lim - regularized_E1(z)) > 1e-5:
        raise AssertionError("regularized value vs small-eps limit")


def _eps_reg(ev, z, eps):
    return eisenstein_sample(ev, z, 1.0 + eps).value - 3.0 / (math.pi * eps)


def _suite_modforms(_rng):
    f = delta_qexp(1500)
    if f.coeffs[:7] != (1, -24, 252, -1472, 4830, -6048, -16744):
        raise AssertionError("tau table mismatch")
    pet = petersson_norm(f)
    ell = sym2_L(f, 1.0)
    resid = (math.pi / 3.0) * ell.completed / zeta(2.0)
    if abs(pet - resid) > 1e-5 * pet:
        raise AssertionError("residue identity failed across routes")


SELFTEST_SUITES = (
    ("algebra", _suite_algebra),
    ("counting", _suite_counting),
    ("specfun", _suite_specfun),
    ("eisenstein", _suite_eisenstein),
    ("modforms", _suite_modforms),
)


def _cmd_selftest(ns) -> int:
    rng = np.random.default_rng(ns.seed)
    failures = 0
    report = {}
    t_all = time.perf_counter()
    for name, suite in SELFTEST_SUITES:
        t0 = time.perf_counter()
        try:
            suite(rng)
            dt = time.perf_counter() - t0
            print(f"PASS {name} ({dt:.1f}s)")
            report[name] = "pass"
        except Exception as e:
            dt = time.perf_counter() - t0
            print(f"FAIL {name} ({dt:.1f}s): {e}")
            report[name] = f"fail: {e}"
            failures += 1
    if ns.out:
        with open(ns.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        _write_manifest(ns.out, _echo(ns),
                        {k: "suite outcome" for k in report},
                        time.perf_counter() - t_all, failures > 0)
    return EXIT_OK if failures == 0 else 1


# -- argument plumbing -------------------------------------------------------

# argparse defaults stay None so a JSON config file can fill unset flags;
# the real fallbacks live here
DEFAULTS = {
    "count": {"group": "psl2z", "x0": "0,1,0", "T": "4,8,16", "norm": "sup",
              "q": None, "budget_words": 4096, "budget_nodes": 10 ** 7,
              "out": "counts.csv"},
    "coset-count": {"group": "psl2z", "x0": "0,1,0", "T": "10,20,40",
                    "norm": "sup", "q": 3, "budget_words": 4096,
                    "budget_nodes": 10 ** 7, "out": "coset_counts.csv"},
    "fit": {"infile": "counts.csv", "model": "all", "out": "fit.json"},
    "shear": {"psi": "bump:default", "T": "10,30,100,300", "tol": 1e-7,
              "out": "shear.csv"},
    "eisenstein": {"group": "psl2z", "z": "1j", "s": "2", "route": "auto",
                   "cusp": 0, "max_mode": 4000, "max_height": 1024.0,
                   "out": "eisenstein.csv"},
    "moment": {"T": "20,50,100,200", "qexp_n": 4000, "out": "moment.csv"},
    "kronecker": {"qexp_n": 4000, "out": "kronecker.json"},
    "selftest": {"out": None},
}

RUNNERS = {
    "count": _cmd_count,
    "coset-count": _cmd_count,
    "fit": _cmd_fit,
    "shear": _cmd_shear,
    "eisenstein": _cmd_eisenstein,
    "moment": _cmd_moment,
    "kronecker": _cmd_kronecker,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shearlab",
        description="orbit counting, sheared-ray measures, Eisenstein "
                    "values, and second-moment experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON file of flag defaults")
        p.add_argument("--out", default=None, help="output path")
        return p

    for name in ("count", "coset-count"):
        p = add(name, "orbit ball counts" if name == "count"
                else "orbit counts split by congruence coset")
        p.add_argument("--group", default=None)
        p.add_argument("--x0", default=None, help="form vector p,q,r")
        p.add_argument("--T", default=None, help="radii, comma separated")
        p.add_argument("--norm", choices=("sup", "euclidean"), default=None)
        p.add_argument("--q", type=int, default=None, help="congruence level")
        p.add_argument("--budget-words", dest="budget_words", type=int,
                       default=None,
                       help="most search layers, each one syllable "
                            "S T^(w k)")
        p.add_argument("--budget-nodes", dest="budget_nodes", type=int,
                       default=None,
                       help="most group elements the search collects")

    p = add("fit", "growth-law fits on a counts CSV")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--model", choices=FIT_MODELS + ("all",), default=None)

    p = add("shear", "mu_T and its strip approximant over a T grid")
    p.add_argument("--psi", default=None,
                   help="bump:default, bump:thin, or delta")
    p.add_argument("--T", default=None)
    p.add_argument("--tol", type=float, default=None)

    p = add("eisenstein", "Eisenstein values on a (z, s) grid")
    p.add_argument("--group", default=None)
    p.add_argument("--z", default=None, help="points like 0.2+1.4j, comma "
                                             "separated")
    p.add_argument("--s", default=None, help="spectral parameters")
    p.add_argument("--route", choices=("auto", "fourier", "coset"),
                   default=None)
    p.add_argument("--cusp", type=int, default=None)
    p.add_argument("--max-mode", dest="max_mode", type=int, default=None)
    p.add_argument("--max-height", dest="max_height", type=float,
                   default=None)

    p = add("moment", "second moment vs prediction over a T grid")
    p.add_argument("--T", default=None)
    p.add_argument("--qexp-n", dest="qexp_n", type=int, default=None)

    p = add("kronecker", "limit-formula check for the discriminant form")
    p.add_argument("--qexp-n", dest="qexp_n", type=int, default=None)

    p = add("selftest", "run the fast invariant suites")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the randomized sweep")
    return parser


def _config_value(flag: argparse.Action, val):
    """A config value as its flag's parser gives it: an int (not a bool),
    a float from any number, or a string, among the flag's choices."""
    kind = flag.type or str
    if not (type(val) is kind or kind is float and type(val) is int):
        what = {int: "an integer", float: "a number", str: "a string"}[kind]
        raise ConfigError(f"config value {flag.dest} = {val!r} must be {what}")
    if flag.choices is not None and val not in flag.choices:
        raise ConfigError(f"config value {flag.dest} = {val!r} is not one "
                          f"of {sorted(flag.choices)}")
    return kind(val)


def _resolve(ns, parser: argparse.ArgumentParser) -> None:
    defaults = dict(DEFAULTS[ns.cmd])
    if ns.config is not None:
        try:
            with open(ns.config) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {ns.config!r}: {e}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {ns.config!r} is not a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigError(f"config keys {sorted(unknown)} not valid "
                              f"for {ns.cmd!r}")
        sub = next(a for a in parser._actions if a.dest == "cmd")
        flags = {a.dest: a for a in sub.choices[ns.cmd]._actions}
        # null leaves a key at its default
        defaults.update((k, _config_value(flags[k], v))
                        for k, v in loaded.items() if v is not None)
    for key, val in defaults.items():
        if getattr(ns, key, None) is None:
            setattr(ns, key, val)
    if ns.cmd != "selftest" and ns.out is None:
        raise ConfigError("an output path is required")
    if ns.out is not None:
        # checked before any work, which an unwritable path would throw away
        folder = os.path.dirname(ns.out) or "."
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigError(f"cannot write {ns.out!r}: {folder!r} is not "
                              f"a writable directory")
        if os.path.isdir(ns.out):
            raise ConfigError(f"cannot write {ns.out!r}: it is a directory")


def _echo(ns) -> dict:
    skip = {"cmd", "config"}
    cfg = {k: v for k, v in sorted(vars(ns).items()) if k not in skip}
    cfg["subcommand"] = ns.cmd
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        _resolve(ns, parser)
        return RUNNERS[ns.cmd](ns)
    except (ValueError, StabilizerError) as e:
        # bad configuration: ConfigError is a ValueError; a stabilizer of x0
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetExceeded, InsufficientConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        if ns.out:
            _write_manifest(ns.out, _echo(ns), {}, time.perf_counter() - t0,
                            True, {"error": str(e), "outputs": []})
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
