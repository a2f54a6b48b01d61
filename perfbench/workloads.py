"""The four workloads: operation lists, set-up, and output checks.

Each workload turns the seed into one round of operations.  A run replays
that round a fixed number of times, so every run of a workload attempts
the same operations and the known-fault operations (fixed inputs, not
drawn from the seed) are the same share of every run.  Seeded inputs are
stratified (one draw per stratum of a fixed candidate list or interval),
so the total work of a round barely moves with the seed.

The program is reached only through module attributes looked up at call
time (`sl.measures.mu_T(...)`), so the traced run's wrappers see every
call.  Checks run after the operation phase and compare against the
computations in oracles.py and the fixed-grid tables in refs.json.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import grids
import oracles

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    fault: str = ""     # the known fault this operation carries, if any


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


def _strata(rng, n, lo, hi, log=False):
    """One uniform draw from each of n equal strata of [lo, hi]."""
    u = (np.arange(n) + rng.random(n)) / n
    if log:
        return [float(lo * (hi / lo) ** v) for v in u]
    return [float(lo + (hi - lo) * v) for v in u]


def _pick_rotation(rng, candidates):
    """One candidate from each run of PHASES consecutive ones, the offset
    turning by one from run to run: every offset is used equally often
    along the range, so the total cost moves little with the seed, unlike
    a shifted grid."""
    p, k = int(rng.integers(grids.PHASES)), grids.PHASES
    return [candidates[g * k + (p + g) % k] for g in range(len(candidates) // k)]


def load_refs():
    return json.loads((HERE / "refs.json").read_text())


def _ref(refs, table, t, tol):
    value, err = refs[table][repr(float(t))]
    if err > 0.1 * tol:
        raise RuntimeError(f"{table} reference at T={t} carries error "
                           f"{err:.1e}, too coarse for tol {tol:g}")
    return value


class Workload:
    name = ""
    nominal_round_s = 1.0   # round time on the reference machine
    min_rounds = 3          # replays each operation gets at least
    in_process = True       # False: operations run as child processes

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def prepare(self):
        """Untimed input preparation, once per run."""
        self.refs = load_refs()

    def plan(self, rng) -> list:
        raise NotImplementedError

    def begin_round(self, i):
        """Called before each round of operations."""

    def setup(self, sl):
        raise NotImplementedError

    def run(self, state, op):
        raise NotImplementedError

    def check(self, state, ops, outs):
        """(reason or None per operation, list of run-level problems)."""
        raise NotImplementedError


# -- orbit -------------------------------------------------------------------

class Orbit(Workload):
    """count_orbit queries on psl2z and thin4; word search and tally."""
    name = "orbit"
    nominal_round_s = 6.0

    def plan(self, rng):
        # the seed moves each largest radius inside its stratum and the
        # ladder's spacing; the norm and the coset level follow the stratum,
        # so every seed has the same mix of query shapes
        ops = []
        for group, n, lo, hi in (("psl2z", 12, 80.0, 240.0),
                                 ("thin4", 28, 160.0, 960.0)):
            for i, t_max in enumerate(_strata(rng, n, lo, hi, log=True)):
                norm = ("sup", "euclidean")[i % 2]
                q = 3 if i % 4 == 1 else None
                ratio = float(rng.uniform(1.5, 1.7))
                ladder = tuple(round(t_max / ratio ** j, 3)
                               for j in reversed(range(6)))
                ops.append(Op("count_orbit", (group, norm, ladder, q)))
        return _shuffled(rng, ops)

    def setup(self, sl):
        for spec in (sl.groups.PSL2Z, sl.groups.THIN4):
            sl.groups.coset_space(spec, 3)
        return sl

    def run(self, sl, op):
        group, norm, ladder, q = op.args
        spec = sl.groups.PSL2Z if group == "psl2z" else sl.groups.THIN4
        query = sl.counting.OrbitQuery(spec, sl.algebra.FormVector(0, 1, 0),
                                       ladder, norm=norm, q=q)
        return sl.counting.count_orbit(query)

    def check(self, sl, ops, outs):
        top = {}
        for op in ops:
            group, _, ladder, _ = op.args
            top[group] = max(top.get(group, 0.0), ladder[-1])
        orc = {g: oracles.OrbitOracle(g, t + 1.0) for g, t in top.items()}
        return [self._check_one(orc, op, out) for op, out in zip(ops, outs)], []

    @staticmethod
    def _check_one(orc, op, res):
        group, norm, ladder, q = op.args
        o = orc[group]
        if not all(res.saturated):
            return "search did not saturate"
        want = o.counts(ladder, norm)
        if list(res.counts) != want:
            return f"counts {list(res.counts)} != scan {want}"
        if q is None:
            return None
        got = {lab.entries: list(v) for lab, v in res.breakdown.items()
               if any(v)}
        if got != o.breakdown(ladder, norm, q):
            return "coset breakdown differs from the scan"
        sums = [sum(v[i] for v in res.breakdown.values())
                for i in range(len(ladder))]
        if sums != list(res.counts):
            return "coset breakdown does not sum to the counts"
        return None


# -- shear -------------------------------------------------------------------

# The lattice unfolded routes miss their references by up to 4.5e-6 below
# T = 2000 (faults b and c), so the lattice operations outside the fault
# operations are given tol 1e-5; the faults are carried by the fault
# operations, at tolerances where they show every time.
LATTICE_TOL = 1e-5
THIN_TOL = 1e-7


class Shear(Workload):
    """Warm mu_T on the lattice and thin bumps and mu_T_strip on the
    lattice bump; spikes, Gauss-Legendre passes and the strip row loop."""
    name = "shear"
    nominal_round_s = 1.1

    def plan(self, rng):
        # the lattice radii are a fixed even log grid: the log-law check
        # needs even spacing (picks per stratum let the pre-asymptotic
        # wobble below T = 30 move the fitted slope by up to 7.5%).  The
        # strip radii are fixed too: whether the strip's grid refinement
        # runs changes its cost by up to 2x between neighbouring radii,
        # and those operations set the round's tail
        ops = [Op("mu_T.lattice", (t, LATTICE_TOL))
               for t in grids.LATTICE_T[::grids.PHASES]]
        ops += [Op("mu_T_strip.lattice", (t, LATTICE_TOL))
                for t in grids.STRIP_T[::grids.PHASES]]
        ops += [Op("mu_T.thin", (t, THIN_TOL))
                for t in _pick_rotation(rng, grids.THIN_T)]
        ops += [Op("mu_T.lattice", (t, 1e-7), "b") for t in grids.FAULT_B_T]
        ops += [Op("mu_T_strip.lattice", (t, 1e-8), "c")
                for t in grids.FAULT_C_T]
        return _shuffled(rng, ops)

    def setup(self, sl):
        m = sl.measures
        state = {"sl": sl, "lattice": m.make_lattice_bump(),
                 "thin": m.make_thin_bump()}
        # one call per route at the top of each range builds the thin row
        # table and every Gauss-Legendre rule the operations use
        m.mu_T(state["thin"], max(grids.THIN_T), THIN_TOL)
        m.mu_T(state["lattice"], max(grids.FAULT_B_T), 1e-7)
        m.mu_T_strip(state["lattice"], max(grids.FAULT_C_T), 1e-8)
        return state

    def run(self, state, op):
        fn, mode = op.kind.split(".")
        t, tol = op.args
        return getattr(state["sl"].measures, fn)(state[mode], t, tol)

    def check(self, state, ops, outs):
        reasons = []
        lattice = {}
        for op, out in zip(ops, outs):
            fn, mode = op.kind.split(".")
            t, tol = op.args
            table = f"{mode}_{'ray' if fn == 'mu_T' else 'strip'}"
            ref = _ref(self.refs, table, t, tol)
            value = out.value if fn == "mu_T" else out
            if fn == "mu_T" and not out.tol_met:
                reasons.append("reports tol_met=False")
            elif abs(value - ref) > tol:
                reasons.append(f"misses the fixed-grid value by "
                               f"{abs(value - ref):.2e} > tol {tol:g}")
            else:
                reasons.append(None)
            if op.kind == "mu_T.lattice" and not op.fault:
                lattice[t] = value
        lat = state["lattice"]
        haar = oracles.haar_mean(lat.batch, lat.support)
        slope = oracles.log_law_slope(list(lattice), list(lattice.values()))
        problems = []
        if abs(slope - haar) > 0.05 * haar:
            problems.append(f"log-law slope {slope:.5f} is more than 5% "
                            f"off the Haar mean {haar:.5f}")
        return reasons, problems


# -- spectral ----------------------------------------------------------------

# second_moment_lhs misses the ray quadrature by up to 1.6e-5 relative
# (T = 674) although it is called with tol 1e-8; the check allows 5e-5
MOMENT_RTOL = 5e-5


def _zs(rng, n, x_lo, x_hi):
    ys = _strata(rng, n, 0.5, 3.0, log=True)
    xs = rng.uniform(x_lo, x_hi, n)
    return tuple((float(x), y) for x, y in zip(xs, ys))


class Spectral(Workload):
    """Warm second moments, Eisenstein grids by both routes, pairings and
    L-values; modforms, eisenstein, specfun and quadrature.adaptive."""
    name = "spectral"
    nominal_round_s = 5.8

    def plan(self, rng):
        # fixed moment radii: they are the costliest operations, and which
        # of them lands at the tail rank moved with the seed's picks
        ops = [Op("moment", (t,)) for t in grids.MOMENT_T[::grids.PHASES]]
        for _ in range(7):
            ops.append(Op("eis.fourier", (_zs(rng, 6, -0.5, 0.5),
                                          tuple(_strata(rng, 3, 1.2, 3.0)))))
            ops.append(Op("eis.coset_lattice",
                          (_zs(rng, 2, -0.5, 0.5),
                           tuple(_strata(rng, 2, 1.3, 3.0)))))
        for _ in range(8):
            # s >= 2, where the row-sum oracle's last block bounds its tail
            ops.append(Op("eis.coset_thin", (_zs(rng, 8, -2.0, 2.0),
                                             tuple(_strata(rng, 3, 2.0, 3.0)))))
        ops += [Op("mu_eis.lattice", ()), Op("mu_eis.thin", ())]
        for _ in range(2):
            ops.append(Op("sym2_L", tuple(_strata(rng, 6, 1.0, 3.0))))
            ops.append(Op("hecke_L", tuple(_strata(rng, 6, 1.5, 4.0))))
        return _shuffled(rng, ops)

    def setup(self, sl):
        mf, ei, me = sl.modforms, sl.eisenstein, sl.measures
        f = mf.delta_qexp(4000)
        st = {
            "sl": sl, "f": f,
            "lattice": me.make_lattice_bump(), "thin": me.make_thin_bump(),
            "fourier": ei.EisensteinEvaluator(route="fourier"),
            "coset_lattice": ei.EisensteinEvaluator(route="coset"),
            "coset_thin": ei.EisensteinEvaluator(spec=sl.groups.THIN4),
        }
        mf.form_observable(f)
        mf.petersson_norm(f)
        mf.sym2_L(f, 1.0, want_derivative=True)
        mf.hecke_L(f, 2.0)
        # thin coset route: critical exponent and the height-1024 table
        ei.eisenstein_sample(st["coset_thin"], sl.algebra.UTBPoint(0.0, 1.0),
                             2.0)
        ei.mu_eis(st["lattice"], True)
        ei.mu_eis(st["thin"], False)
        return st

    def run(self, st, op):
        sl, f = st["sl"], st["f"]
        mf, ei = sl.modforms, sl.eisenstein
        if op.kind == "moment":
            return mf.second_moment_lhs(f, op.args[0])
        if op.kind.startswith("eis."):
            ev = st[op.kind[4:]]
            zs, ss = op.args
            return [ei.eisenstein_sample(ev, sl.algebra.UTBPoint(x, y), s)
                    for x, y in zs for s in ss]
        if op.kind.startswith("mu_eis."):
            mode = op.kind[7:]
            return ei.mu_eis(st[mode], mode == "lattice")
        if op.kind == "sym2_L":
            return [mf.sym2_L(f, s).value for s in op.args]
        return [mf.hecke_L(f, s) for s in op.args]

    def check(self, st, ops, outs):
        f = st["f"]
        rng = np.random.default_rng(self.seed + 1)
        ctx = {"rows": oracles.thin_rows(600.0)}
        tau = oracles.tau_by_recursion(len(f.coeffs))
        ctx["tau_p"] = {p: tau[p - 1] for p in oracles.primes_upto(len(tau))}
        reasons = [self._check_one(st, ctx, rng, op, out)
                   for op, out in zip(ops, outs)]
        return reasons, self._check_form(st, tau)

    def _check_form(self, st, tau):
        sl, f = st["sl"], st["f"]
        problems = []
        coeffs = list(f.coeffs)
        if coeffs != tau:
            problems.append("tau table differs from the recursion")
        sig = oracles.sigma11_mod(len(coeffs), 691)
        if any((t - s) % 691 for t, s in zip(coeffs, sig)):
            problems.append("tau(n) = sigma_11(n) mod 691 fails")
        for p in oracles.primes_upto(len(coeffs)):
            if coeffs[p - 1] ** 2 > 4 * p ** 11:
                problems.append(f"|tau({p})| exceeds 2 p^(11/2)")
        pet = sl.modforms.petersson_norm(f)
        lam = sl.modforms.sym2_L(f, 1.0).completed
        resid = (math.pi / 3.0) * lam / oracles.ZETA2
        if abs(pet - resid) > 1e-9 * pet:
            problems.append(f"Petersson norm {pet!r} vs residue {resid!r}")
        return problems

    def _check_one(self, st, ctx, rng, op, out):
        sl, f = st["sl"], st["f"]
        ei = sl.eisenstein
        UTB = sl.algebra.UTBPoint
        if op.kind == "moment":
            t = op.args[0]
            ref = _ref(self.refs, "moment", t, MOMENT_RTOL * 1e-5)
            if abs(out - ref) > MOMENT_RTOL * ref:
                return f"off the ray quadrature by {abs(out - ref) / ref:.1e}"
            pred = sl.modforms.second_moment_prediction(f, t)
            if abs(out - pred) > 0.02 * abs(out):
                return f"off the prediction by {abs(out - pred) / out:.1%}"
            return None
        if op.kind.startswith("eis."):
            zs, ss = op.args
            route = op.kind[4:]
            pts = [(x, y, s) for x, y in zs for s in ss]
            for (x, y, s), smp in zip(pts, out):
                if route == "coset_lattice":
                    other = ei.eisenstein_sample(st["fourier"], UTB(x, y), s)
                    what = "fourier route"
                else:
                    gx, gy = _moved(rng, x, y, 4 if route == "coset_thin" else 1)
                    other = ei.eisenstein_sample(st[route], UTB(gx, gy), s)
                    what = "value at a group translate"
                # the coset routes' est_error can understate their error
                # (by 130x on the lattice near s = 1.5), hence the floor
                floor = {"fourier": 1e-11, "coset_lattice": 1e-6,
                         "coset_thin": 1e-5}[route]
                tol = 4.0 * (smp.est_error + other.est_error) \
                    + floor * abs(smp.value)
                if abs(smp.value - other.value) > tol:
                    return (f"E({x:.3f}+{y:.3f}i, {s:.3f}) differs from the "
                            f"{what} by {abs(smp.value - other.value):.1e}")
                if route == "coset_thin" and s >= 2.0:
                    val, block = oracles.thin_eisenstein(ctx["rows"], x, y, s)
                    if abs(smp.value - val) > block + 4.0 * smp.est_error + 1e-12:
                        return (f"thin E({x:.3f}+{y:.3f}i, {s:.3f}) off the "
                                f"row sum by {abs(smp.value - val):.1e}")
            return None
        if op.kind == "mu_eis.lattice":
            lat = st["lattice"]
            ref = oracles.lattice_pairing(lat.batch, lat.support)
            return None if abs(out - ref) <= 1e-9 else \
                f"off the tensor-grid pairing by {abs(out - ref):.1e}"
        if op.kind == "mu_eis.thin":
            t = max(grids.THIN_T)
            ref = _ref(self.refs, "thin_ray", t, THIN_TOL)
            return None if abs(out - ref) <= 0.10 * abs(out) else \
                f"more than 10% off the thin shear value at T={t:g}"
        euler = oracles.sym2_euler if op.kind == "sym2_L" else oracles.hecke_euler
        for s, v in zip(op.args, out):
            if s >= 1.5:
                ref, tail = euler(ctx["tau_p"], s)
                if abs(v - ref) > tail + 1e-9:
                    return f"{op.kind}({s:.3f}) off the Euler product"
        return None


def _moved(rng, x, y, width):
    """A random element of <T^width, S> applied to x + iy, kept at height
    >= 0.3 so the Fourier route converges there."""
    z0 = complex(x, y)
    while True:
        z = z0
        for _ in range(int(rng.integers(2, 6))):
            if rng.random() < 0.5:
                z = -1.0 / z
            else:
                z = z + width * int(rng.choice([-2, -1, 1, 2]))
        if z.imag >= 0.3 and abs(z - z0) > 1e-3:
            return z.real, z.imag


# -- cli ---------------------------------------------------------------------

# (label, arguments after `shearlab`, known fault); DEFAULTS unless noted
CLI_OPS = (
    ("count", ["count"], ""),
    ("coset-count", ["coset-count"], ""),
    ("fit", ["fit"], ""),
    ("shear", ["shear"], "b,c"),
    ("eisenstein", ["eisenstein"], ""),
    ("moment", ["moment"], ""),
    ("kronecker", ["kronecker"], ""),
    ("selftest", ["selftest", "--out", "selftest.json"], ""),
    ("count-thin4", ["count", "--group", "thin4"], ""),
    ("shear-thin4", ["shear", "--psi", "bump:thin"], "d"),
    ("eisenstein-thin4", ["eisenstein", "--group", "thin4"], ""),
    ("moment-qexp6000", ["moment", "--qexp-n", "6000"], ""),
    ("shear-thin4-T3500", ["shear", "--psi", "bump:thin", "--T", "3500"], "a"),
)
FIT_T = (25.0, 50.0, 100.0, 200.0, 400.0)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


@dataclass
class CliResult:
    returncode: int
    workdir: Path
    stderr: str


class Cli(Workload):
    """One fresh `shearlab` process per operation, the way experiments are
    run: imports, q-expansions and row tables are paid every time."""
    name = "cli"
    nominal_round_s = 25.0
    min_rounds = 2          # a round takes 25 s
    in_process = False

    def prepare(self):
        super().prepare()
        self.work = HERE / "results" / "cli-work"
        self.env = child_env(self.root)
        orc = oracles.OrbitOracle("psl2z", max(FIT_T) + 1.0)
        self.fit_rows = list(zip(FIT_T, orc.counts(FIT_T, "sup")))
        self.round = 0

    def plan(self, rng):
        ops = []
        for label, args, fault in CLI_OPS:
            if label == "selftest":
                args = args + ["--seed", str(self.seed)]
            ops.append(Op(label, tuple(args), fault))
        return _shuffled(rng, ops)

    def setup(self, sl):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        startup = self.startup()
        return {"startup_s": startup}

    def startup(self) -> float:
        """Wall time of a child that only imports shearlab.cli."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import shearlab.cli"],
                       env=self.env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def begin_round(self, i):
        self.round = i

    def run(self, state, op):
        d = self.work / f"r{self.round}" / op.kind
        d.mkdir(parents=True)
        if op.kind == "fit":
            with open(d / "counts.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["T", "count", "saturated"])
                w.writerows([t, c, 1] for t, c in self.fit_rows)
        proc = subprocess.run(
            [sys.executable, "-m", "shearlab.cli", *op.args], cwd=d,
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=150)
        return CliResult(proc.returncode, d, proc.stderr.decode()[-400:])

    def check(self, state, ops, outs):
        ctx = {"psl2z": oracles.OrbitOracle("psl2z", 41.0),
               "thin4": oracles.OrbitOracle("thin4", 41.0),
               "rows": oracles.thin_rows(600.0)}
        return [self._check_one(ctx, op, out) for op, out in zip(ops, outs)], []

    @staticmethod
    def manifest(out: CliResult):
        found = sorted(out.workdir.glob("*.manifest.json"))
        return json.loads(found[0].read_text()) if found else None

    def _check_one(self, ctx, op, out):
        man = self.manifest(out)
        if op.fault == "a":
            # documented: exit 3 with a partial manifest
            if out.returncode == 3 and man is not None and man["partial"]:
                return None
            last = out.stderr.strip().splitlines()[-1:] or [""]
            return (f"exit {out.returncode}, "
                    f"{'no manifest' if man is None else 'manifest'}: "
                    f"{last[0][:120]}")
        if out.returncode != 0:
            return f"exit {out.returncode}: {out.stderr.strip()[-200:]}"
        if man is None or man["partial"] is not False:
            return "no manifest with partial: false"
        try:
            check = getattr(self, "_out_" + op.args[0].replace("-", "_"))
            return check(ctx, op, out.workdir)
        except (OSError, KeyError, ValueError, IndexError) as e:
            return f"unreadable output: {e!r}"

    @staticmethod
    def _rows(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def _out_count(self, ctx, op, d):
        group = "thin4" if "thin4" in op.args else "psl2z"
        rows = self._rows(d / "counts.csv")
        ts = [float(r["T"]) for r in rows]
        got = [int(r["count"]) for r in rows]
        if any(r["saturated"] != "1" for r in rows):
            return "unsaturated radius"
        want = ctx[group].counts(ts, "sup")
        return None if got == want else f"counts {got} != scan {want}"

    def _out_coset_count(self, ctx, op, d):
        rows = self._rows(d / "coset_counts.csv")
        ts = [float(r["T"]) for r in rows]
        want = ctx["psl2z"].breakdown(ts, "sup", 3)
        got = {}
        for col in rows[0]:
            if col.startswith("coset_"):
                vals = [int(r[col]) for r in rows]
                if any(vals):
                    got[tuple(int(v) for v in col[6:].split("_"))] = vals
        if got != want:
            return "coset columns differ from the scan"
        if any(sum(int(r[c]) for c in r if c.startswith("coset_"))
               != int(r["count"]) for r in rows):
            return "coset columns do not sum to the count"
        return None

    def _out_fit(self, ctx, op, d):
        doc = json.loads((d / "fit.json").read_text())
        ts = [t for t, _ in self.fit_rows]
        ys = [c for _, c in self.fit_rows]
        if doc["t_list"] != ts or doc["counts"] != ys:
            return "fit report does not echo its input"
        t = np.array(ts)
        a = np.column_stack([t * np.log(t), t])
        want = np.linalg.lstsq(a, np.array(ys, float), rcond=None)[0]
        got = np.array(doc["models"]["t_log_t"]["coefficients"])
        if np.max(np.abs(got - want) / np.abs(want)) > 1e-9:
            return f"t_log_t coefficients {got} != least squares {want}"
        return None

    def _out_shear(self, ctx, op, d):
        mode = "thin" if "bump:thin" in op.args else "lattice"
        for r in self._rows(d / "shear.csv"):
            t = float(r["T"])
            checks = [("mu_T", f"{mode}_ray", 1e-7)]
            if repr(t) in self.refs[f"{mode}_strip"]:
                checks.append(("mu_T_strip", f"{mode}_strip", 1e-8))
            for col, table, tol in checks:
                miss = abs(float(r[col]) - _ref(self.refs, table, t, tol))
                if miss > tol:
                    return (f"{col} at T={t:g} misses the fixed-grid value "
                            f"by {miss:.1e} > {tol:g}")
        return None

    def _out_eisenstein(self, ctx, op, d):
        (r,) = self._rows(d / "eisenstein.csv")
        x, y, s, v = (float(r[k]) for k in ("x", "y", "s", "value"))
        if "thin4" in op.args:
            ref, block = oracles.thin_eisenstein(ctx["rows"], x, y, s)
            tol = block + 4.0 * float(r["est_error"]) + 1e-12
        else:
            ref, tol = oracles.lattice_eisenstein_i_2(), 1e-10
        return None if abs(v - ref) <= tol else \
            f"E = {v!r}, independent value {ref!r}"

    def _out_moment(self, ctx, op, d):
        for r in self._rows(d / "moment.csv"):
            t, lhs, pred = (float(r[k]) for k in ("T", "lhs", "prediction"))
            ref = _ref(self.refs, "moment", t, MOMENT_RTOL * 1e-5)
            if abs(lhs - ref) > MOMENT_RTOL * ref:
                return f"lhs at T={t:g} off the ray quadrature"
            if abs(lhs - pred) > 0.02 * lhs:
                return f"lhs at T={t:g} more than 2% off the prediction"
        return None

    def _out_kronecker(self, ctx, op, d):
        doc = json.loads((d / "kronecker.json").read_text())
        gap = abs(doc["lhs_eta_pairing"] - doc["rhs_l_function"])
        return None if gap <= 1e-6 else f"limit-formula gap {gap:.1e}"

    def _out_selftest(self, ctx, op, d):
        doc = json.loads((d / "selftest.json").read_text())
        bad = [k for k, v in doc.items() if v != "pass"]
        return f"suites failed: {bad}" if bad else None


WORKLOADS = {w.name: w for w in (Orbit, Shear, Spectral, Cli)}
