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
randomized sweep.  Each flag's default is declared once, in the parser.
A --config JSON file, keyed by the flags' dest names, sets the
subcommand's defaults and may set every flag it takes, selftest's seed
included; a flag given on the command line beats the file.  Exit codes:
0 success, 1 a failed selftest suite, 2 bad configuration, an unreadable
--in file or an --out that names a directory or lies in a missing or
unwritable one (nothing written), 3 budget or tolerance exhausted
(manifest flagged partial; a run stopped by the error lists no outputs
and records the error text).

Each runner imports what it uses, so a process loads only its
subcommand's modules (`count`: algebra, groups and counting), which
saves 15-60 ms a run (median 36 ms) where no bytecode cache is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time

from . import __version__

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


def _x0(text: str):
    from .algebra import FormVector
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"x0 needs three components, got {text!r}")
    return FormVector(*(float(v) for v in parts))


def _group(name: str):
    from .groups import BUILTINS, GroupSpec
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
    from .measures import make_lattice_bump, make_thin_bump
    if tag == "bump:default":
        return make_lattice_bump()
    if tag == "bump:thin":
        return make_thin_bump()
    if tag == "delta":
        from .modforms import delta_qexp, form_observable
        return form_observable(delta_qexp(4000))
    raise ConfigError(f"unknown test function {tag!r}: use bump:default, "
                      f"bump:thin, or delta")


def _write_json(path: str, doc: dict):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_manifest(ns, columns: dict, t0: float, partial: bool,
                    extra: dict | None = None):
    import numpy as np
    doc = {
        "config": _echo(ns),
        "columns": columns,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "partial": partial,
        "outputs": [os.path.basename(ns.out)],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        doc.update(extra)
    _write_json(os.path.splitext(ns.out)[0] + ".manifest.json", doc)


def _write_table(ns, columns: dict, rows, t0: float, partial: bool,
                 extra: dict | None = None) -> int:
    """The CSV, headed by the column names, and its manifest."""
    with open(ns.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(list(columns))
        for row in rows:
            w.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    _write_manifest(ns, columns, t0, partial, extra)
    return EXIT_BUDGET if partial else EXIT_OK


# -- subcommand runners ------------------------------------------------------


def _cmd_count(ns) -> int:
    from .counting import OrbitQuery, count_orbit
    from .groups import WordBudget
    spec = _group(ns.group)
    x0 = _x0(ns.x0)
    t_list = _floats(ns.T)
    budget = WordBudget(ns.budget_words, ns.budget_nodes)
    q = ns.q if ns.cmd == "coset-count" else None
    t0 = time.perf_counter()
    try:
        query = OrbitQuery(spec, x0, t_list, norm=ns.norm, q=q, budget=budget)
    except ValueError as e:
        raise ConfigError(str(e))
    try:
        res = count_orbit(query)
    except OverflowError as e:
        raise ConfigError(f"orbit outgrows the exact int64 tally: {e}")

    columns = {
        "T": f"ball radius, {ns.norm} norm on form vectors",
        "count": "exact number of orbit points x0*gamma in the open ball",
        "saturated": "1 if the syllable walk closed within its budget",
    }
    labels = [] if q is None else list(res.breakdown)  # in entry order
    for lab in labels:
        tag = "coset_" + "_".join(str(v) for v in lab.entries)
        columns[tag] = (f"orbit points in the congruence class "
                        f"{lab.entries} mod {q}")
    rows = []
    for i, t in enumerate(res.t_list):
        row = [t, res.counts[i], res.saturated[i]]
        row += [res.breakdown[lab][i] for lab in labels]
        rows.append(row)
    return _write_table(ns, columns, rows, t0, not all(res.saturated),
                        {"search_nodes": res.search_nodes,
                         "search_depth": res.search_depth})


def _cmd_fit(ns) -> int:
    from .counting import (FIT_MODELS, CountResult, InsufficientDataError,
                           fit_counting_law)
    if ns.model not in FIT_MODELS + ("all",):
        raise ConfigError(f"unknown model {ns.model!r}: use one of "
                          f"{', '.join(FIT_MODELS)}, or all")
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
    js = header.index("saturated") if "saturated" in header else None
    try:
        data = [(float(r[it]), int(r[ic]), "1" if js is None else r[js])
                for r in rows[1:]]
    except (IndexError, ValueError) as e:
        raise ConfigError(f"bad row in counts file {ns.infile!r}: {e}")
    if len(data) < 2:
        raise ConfigError("need at least two count rows to fit")
    if any(s not in ("0", "1") for _, _, s in data):
        raise ConfigError(f"saturated in {ns.infile!r} must be 0 or 1")
    t_list, counts, saturated = zip(*data)
    try:
        table = CountResult(t_list, counts, tuple(s == "1" for s in saturated))
    except ValueError as e:
        raise ConfigError(f"counts file is not a valid growth table: {e}")
    models = FIT_MODELS if ns.model == "all" else (ns.model,)
    doc = {"t_list": list(t_list), "counts": list(counts), "models": {}}
    for m in models:
        try:
            fit = fit_counting_law(table, m)
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
    _write_json(ns.out, doc)
    _write_manifest(ns, {m: "least-squares fit report" for m in doc["models"]},
                    t0, False)
    return EXIT_OK


def _cmd_shear(ns) -> int:
    from .measures import mu_T, mu_T_strip
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
    columns = {
        "T": "shear parameter",
        "mu_T": "sheared-ray measure of the test function",
        "mu_T_strip": "strip-capped horoball approximant of mu_T",
        "gap": "|mu_T - mu_T_strip|, the stage-one comparison residual",
        "est_error": "quadrature error estimate for mu_T",
        "route": "evaluation route the integrator chose",
    }
    return _write_table(ns, columns, rows, t0, partial)


def _cmd_eisenstein(ns) -> int:
    from .algebra import UTBPoint
    from .eisenstein import EisensteinEvaluator, eisenstein_sample
    spec = _group(ns.group)
    zs = _complexes(ns.z)
    ss = _floats(ns.s)
    ev = EisensteinEvaluator(spec=spec, route=ns.route, max_mode=ns.max_mode,
                             max_height=ns.max_height)
    t0 = time.perf_counter()
    rows = []
    for z in zs:
        for s in ss:
            sample = eisenstein_sample(ev, UTBPoint(z.real, z.imag), s)
            rows.append([z.real, z.imag, s, sample.value, sample.route,
                         sample.est_error])
    columns = {
        "x": "real part of the evaluation point",
        "y": "imaginary part of the evaluation point",
        "s": "spectral parameter",
        "value": "cusp-normalized Eisenstein value E(z, s)",
        "route": "fourier or coset, whichever evaluated",
        "est_error": "tail and truncation estimate",
    }
    return _write_table(ns, columns, rows, t0, False)


def _check_qexp_n(ns) -> None:
    if ns.qexp_n < QEXP_N_MIN:
        raise ConfigError(f"--qexp-n below {QEXP_N_MIN} cannot reach the "
                          f"L-value tolerances")


def _cmd_moment(ns) -> int:
    from .modforms import (delta_qexp, second_moment_lhs,
                           second_moment_prediction)
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
    columns = {
        "T": "shear parameter of the ray y(T + i)",
        "lhs": "geometric second-moment integral of |f|^2 y^k on the ray",
        "prediction": "2(||f||^2/vol)(log T + completed log-derivative "
                      "+ gamma - 2 zeta'(2)/zeta(2))",
        "gap": "absolute difference",
        "rel_gap": "gap relative to lhs",
    }
    return _write_table(ns, columns, rows, t0, False)


def _cmd_kronecker(ns) -> int:
    from .modforms import delta_qexp, kronecker_check
    _check_qexp_n(ns)
    t0 = time.perf_counter()
    f = delta_qexp(ns.qexp_n)
    lhs, rhs, gap = kronecker_check(f)
    _write_json(ns.out, {"lhs_eta_pairing": lhs, "rhs_l_function": rhs,
                         "gap": gap, "qexp_n": ns.qexp_n})
    _write_manifest(ns, {"lhs_eta_pairing": "eta-weighted Petersson pairing "
                                            "over the fundamental domain",
                         "rhs_l_function": "gamma minus the completed "
                                           "symmetric-square log-derivative",
                         "gap": "absolute difference"}, t0, False)
    return EXIT_OK


def _cmd_selftest(ns) -> int:
    from .selftest import run_suites
    t0 = time.perf_counter()
    report = run_suites(ns.seed)
    failed = any(v != "pass" for v in report.values())
    if ns.out:
        _write_json(ns.out, report)
        _write_manifest(ns, {k: "suite outcome" for k in report}, t0, failed)
    return 1 if failed else EXIT_OK


# -- argument plumbing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shearlab",
        description="orbit counting, sheared-ray measures, Eisenstein "
                    "values, and second-moment experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, run, out, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON file of flag defaults")
        p.add_argument("--out", default=out, help="output path")
        return p

    for name, out, radii, help_text in (
            ("count", "counts.csv", "4,8,16", "orbit ball counts"),
            ("coset-count", "coset_counts.csv", "10,20,40",
             "orbit counts split by congruence coset")):
        p = add(name, _cmd_count, out, help_text)
        p.add_argument("--group", default="psl2z")
        p.add_argument("--x0", default="0,1,0", help="form vector p,q,r")
        p.add_argument("--T", default=radii, help="radii, comma separated")
        p.add_argument("--norm", choices=("sup", "euclidean"), default="sup")
        p.add_argument("--budget-words", type=int, default=4096,
                       help="most search layers, each one syllable "
                            "S T^(w k)")
        p.add_argument("--budget-nodes", type=int, default=10 ** 7,
                       help="most group elements the search collects")
    # p is coset-count's parser: only it writes a breakdown mod q
    p.add_argument("--q", type=int, default=3, help="congruence level")

    p = add("fit", _cmd_fit, "fit.json", "growth-law fits on a counts CSV")
    p.add_argument("--in", dest="infile", default="counts.csv")
    # checked by _cmd_fit, so that building the parser loads no counting
    p.add_argument("--model", default="all",
                   help="a growth law of counting.FIT_MODELS, or all")

    p = add("shear", _cmd_shear, "shear.csv",
            "mu_T and its strip approximant over a T grid")
    p.add_argument("--psi", default="bump:default",
                   help="bump:default, bump:thin, or delta")
    p.add_argument("--T", default="10,30,100,300")
    p.add_argument("--tol", type=float, default=1e-7)

    p = add("eisenstein", _cmd_eisenstein, "eisenstein.csv",
            "Eisenstein values on a (z, s) grid")
    p.add_argument("--group", default="psl2z")
    p.add_argument("--z", default="1j", help="points like 0.2+1.4j, comma "
                                             "separated")
    p.add_argument("--s", default="2", help="spectral parameters")
    p.add_argument("--route", choices=("auto", "fourier", "coset"),
                   default="auto")
    p.add_argument("--max-mode", type=int, default=4000)
    p.add_argument("--max-height", type=float, default=1024.0)

    p = add("moment", _cmd_moment, "moment.csv",
            "second moment vs prediction over a T grid")
    p.add_argument("--T", default="20,50,100,200")
    p.add_argument("--qexp-n", type=int, default=4000)

    p = add("kronecker", _cmd_kronecker, "kronecker.json",
            "limit-formula check for the discriminant form")
    p.add_argument("--qexp-n", type=int, default=4000)

    p = add("selftest", _cmd_selftest, None, "run the fast invariant suites")
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


def _resolve(ns, parser: argparse.ArgumentParser,
             argv) -> argparse.Namespace:
    """ns again, parsed with the --config file's values as the
    subcommand's defaults: a flag beats the file, the file the default."""
    if ns.config is not None:
        try:
            with open(ns.config) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {ns.config!r}: {e}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {ns.config!r} is not a JSON object")
        cmds = next(a for a in parser._actions if a.dest == "cmd")
        sub = cmds.choices[ns.cmd]
        flags = {a.dest: a for a in sub._actions
                 if a.dest not in ("help", "config")}
        unknown = set(loaded) - set(flags)
        if unknown:
            raise ConfigError(f"config keys {sorted(unknown)} not valid "
                              f"for {ns.cmd!r}")
        # null leaves a key at its default
        sub.set_defaults(**{k: _config_value(flags[k], v)
                            for k, v in loaded.items() if v is not None})
        ns = parser.parse_args(argv)
    if ns.out is not None:
        # checked before any work, which an unwritable path would throw away
        folder = os.path.dirname(ns.out) or "."
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigError(f"cannot write {ns.out!r}: {folder!r} is not "
                              f"a writable directory")
        if os.path.isdir(ns.out):
            raise ConfigError(f"cannot write {ns.out!r}: it is a directory")
    return ns


def _echo(ns) -> dict:
    cfg = {k: v for k, v in sorted(vars(ns).items())
           if k not in ("cmd", "config", "run")}
    cfg["subcommand"] = ns.cmd
    return cfg


def _loaded(*names: str) -> tuple:
    """The package's classes named "module.Class" whose modules are loaded:
    only a loaded module can have raised its error, so an except clause
    that reads them once an error propagates needs no import."""
    found = (f"{__package__}.{name}".rsplit(".", 1) for name in names)
    return tuple(getattr(sys.modules[mod], cls) for mod, cls in found
                 if mod in sys.modules)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as -0.12+0.75j or -1,1,0 as an option, so
    # one that starts with a minus and a digit or dot joins its flag first
    for i in range(len(argv) - 1, 0, -1):
        if (argv[i - 1] in ("--z", "--x0", "--T", "--s")
                and re.match(r"-[0-9.]", argv[i])):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser = build_parser()
    ns = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        ns = _resolve(ns, parser, argv)
        return ns.run(ns)
    except _loaded("groups.BudgetExceeded",
                   "quadrature.InsufficientConvergenceError") as e:
        print(f"error: {e}", file=sys.stderr)
        if ns.out:
            _write_manifest(ns, {}, t0, True, {"error": str(e), "outputs": []})
        return EXIT_BUDGET
    except (ValueError, *_loaded("counting.StabilizerError")) as e:
        # bad configuration: ConfigError is a ValueError; a stabilizer of x0
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
