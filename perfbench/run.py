"""Run one shearlab benchmark workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; shearlab is imported from ./src and the
`cli` workload starts `python3 -m shearlab.cli` with that on PYTHONPATH.
Metric names, units and directions come from ./BENCHMARK.json.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics (from a separate traced pass) with --trace 1.  Details
of the run, every operation's time and verdict, go to
perfbench/results/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import os

# one process, one thread: set before numpy is imported, inherited by the
# cli workload's child processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "SHEARLAB_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("algebra", "groups", "counting", "measures", "eisenstein",
           "modforms", "quadrature", "specfun")
SETUP_REPEATS = 3

# The machine this was tuned on changes speed in phases lasting from under
# a second to tens of seconds: the same operation takes up to 1.8 times as
# long, in CPU time as well, and fixed interpreter work slows with it.  So a probe of such work is timed
# before every operation, and each time is scaled by PROBE_REF_S over the
# probe time around it.  Times then read as seconds at the speed where
# the probe takes PROBE_REF_S (a fast phase of that machine).  Over
# 5-second blocks this cut the spread of mu_T times from 11% to 2% and
# of count_orbit times from 19% to 8%; a numpy probe did not help.
PROBE_REF_S = 5.5e-4


def probe() -> float:
    """Best of three timings of a fixed piece of interpreter work.  The
    cyclic collector is off while it runs, so its time does not depend on
    the size of the heap."""
    best = math.inf
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            seen, acc = {}, 0
            for i in range(1500):
                key = (i, 3 * i + 1, i & 15)
                seen[key] = acc
                acc += key[1] * key[2] - (acc >> 3)
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def calibrate(raw, probes):
    """Scale each time by the median of its own probe and its neighbours'.
    Wider windows, in operations or in seconds, tracked the speed worse."""
    return [t * PROBE_REF_S / statistics.median(probes[max(0, i - 1):i + 2])
            for i, t in enumerate(raw)]


def import_package(src: Path):
    """A fresh import of shearlab from src: every lru_cache starts empty."""
    for name in [m for m in sys.modules
                 if m == "shearlab" or m.startswith("shearlab.")]:
        del sys.modules[name]
    gc.collect()
    pkg = importlib.import_module("shearlab")
    if Path(pkg.__file__).resolve().parent != (src / "shearlab").resolve():
        raise RuntimeError(f"imported shearlab from {pkg.__file__}, "
                           f"not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"shearlab.{m}")
                              for m in MODULES})


def run_rounds(wl, state, plan, n_rounds, first=0):
    """Time every operation of n_rounds replays of the plan; rounds are
    numbered from `first`.  Returns operations, outputs, calibrated
    times, raw times and probe times."""
    ops, outs, raw, probes = [], [], [], []
    for r in range(first, first + n_rounds):
        wl.begin_round(r)
        for op in plan:
            probes.append(probe())
            t0 = time.perf_counter()
            try:
                out = wl.run(state, op)
            except Exception as e:  # an operation that raises has failed
                out = e
                e.trace = traceback.format_exc(limit=4)
            raw.append(time.perf_counter() - t0)
            ops.append(op)
            outs.append(out)
    return ops, outs, calibrate(raw, probes), raw, probes


def judge(wl, state, ops, outs):
    """Verdict per operation, run-level problems, and correctness: a
    failure of an operation without a known fault makes the run incorrect;
    known faults only count as failed."""
    idx = [i for i, o in enumerate(outs) if not isinstance(o, Exception)]
    reasons = [f"raised {type(o).__name__}: {o}"
               if isinstance(o, Exception) else None for o in outs]
    checked, problems = wl.check(state, [ops[i] for i in idx],
                                 [outs[i] for i in idx])
    for i, r in zip(idx, checked):
        reasons[i] = r
    unexpected = [f"{op.kind}{op.args}: {r}" for op, r in zip(ops, reasons)
                  if r and not op.fault]
    for msg in unexpected + problems:
        print(f"check failed: {msg}", file=sys.stderr)
    for op, r in zip(ops, reasons):
        if op.fault and not r:
            print(f"known fault {op.fault} no longer shows: {op.kind}",
                  file=sys.stderr)
    return reasons, problems, not unexpected and not problems


def op_stats(times, n_plan):
    """Latency and throughput from each operation's best replay: a
    replay in a slow phase that the probe does not fully correct for
    then does not count."""
    best = sorted(min(times[i::n_plan]) for i in range(n_plan))
    n = len(best)
    # the highest percentile with ten operations above it; with fewer
    # than 40 operations that would be no tail, so take the 90th
    tail = best[n - 11] if n >= 40 else best[math.ceil(0.9 * n) - 1]
    return {"op_p50_s": statistics.median(best), "op_tail_s": tail,
            "ops_per_s": n / sum(best)}


def end_to_end(wl, plan, n_rounds, src):
    setup, setup_raw = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        before = [probe() for _ in range(3)]
        t0 = time.perf_counter()
        sl = import_package(src) if wl.in_process else None
        state = wl.setup(sl)
        dt = time.perf_counter() - t0
        speed = statistics.median(before + [probe() for _ in range(3)])
        setup_raw.append(dt)
        setup.append(dt * PROBE_REF_S / speed)
    ops, outs, times, raw, probes = run_rounds(wl, state, plan, n_rounds)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    values = {"setup_s": statistics.median(setup),
              **op_stats(times, len(plan)), "peak_rss_mb": peak_mb}
    detail = {"setup_s": setup, "setup_raw_s": setup_raw,
              "raw": op_stats(raw, len(plan)), "raw_times": raw,
              "probes": probes}
    return values, detail, ops, outs, times, state


def _delta(after, before):
    return {k: (after[k][0] - before.get(k, (0, 0))[0],
                after[k][1] - before.get(k, (0, 0))[1]) for k in after}


def traced_phase(sl, fn):
    """Run fn with every wrapper installed; (result, layer values, absent)."""
    tr = tracing.Tracer()
    before = tracing.cache_counts(sl)
    pt = tracing.install(tr, sl)
    try:
        result = fn()
    finally:
        pt.undo()
    values = tracing.layer_values(tr, _delta(tracing.cache_counts(sl), before))
    return result, values, pt.absent


def per_layer(wl, plan, n_rounds, src):
    """One traced set-up, an untimed warm-up round, then untraced and
    traced rounds alternately, half as many pairs as an untraced run has
    rounds.  A layer value is its set-up part plus its median per traced
    round."""
    n_rounds = max(1, n_rounds // 2)
    if wl.in_process:
        sl = import_package(src)
        state, setup_vals, absent = traced_phase(sl, lambda: wl.setup(sl))
        # the first round after set-up runs slower; keep it out of both
        run_rounds(wl, state, plan, 1, -1)
    else:
        sl, state, setup_vals, absent = None, wl.setup(None), {}, []
    ops, outs, plain, traced, rounds = [], [], [], [], []
    for i in range(n_rounds):
        t_plain = run_rounds(wl, state, plan, 1, 2 * i)[2]
        if wl.in_process:
            (o, u, t_traced, _, _), vals, absent = traced_phase(
                sl, lambda: run_rounds(wl, state, plan, 1, 2 * i + 1))
        else:
            o, u, t_traced, raw, _ = run_rounds(wl, state, plan, 1, 2 * i + 1)
            vals = cli_layer_values(wl, o, u, raw)
        plain += t_plain
        traced += t_traced
        ops += o
        outs += u
        rounds.append(vals)
    values = {k: setup_vals.get(k, 0.0) + statistics.median(r[k] for r in rounds)
              for k in rounds[0]}
    if wl.in_process:
        nodes = values.pop("counting.search_nodes")
        values["counting.useful_ratio"] = \
            values["counting.orbit_points"] / nodes if nodes else 0.0
    else:
        values["cli.startup_s"] = statistics.median(
            wl.startup() for _ in range(SETUP_REPEATS))
    values["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
    detail = {"setup": setup_vals, "rounds": rounds, "absent": absent}
    for name in absent:
        print(f"trace target absent: {name}", file=sys.stderr)
    return values, detail, ops, outs, traced, state


def cli_layer_values(wl, ops, outs, times):
    vals = {}
    for op, out, t in zip(ops, outs, times):
        vals[f"cli.{op.kind}.s"] = t
        man = None if isinstance(out, Exception) else wl.manifest(out)
        vals[f"cli.{op.kind}.manifest_wall_s"] = \
            man["wall_time_s"] if man else 0.0
    return vals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "shearlab" / "__init__.py").is_file():
        print(f"error: no shearlab package under {src}; run from the root "
              "of a shearlab checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))

    wl = WORKLOADS[args.workload](args.seed, root)
    wl.prepare()
    plan = wl.plan(np.random.default_rng(args.seed))
    n_rounds = max(wl.min_rounds, math.ceil(args.seconds / wl.nominal_round_s))
    measure = per_layer if args.trace else end_to_end
    values, detail, ops, outs, times, state = measure(wl, plan, n_rounds, src)
    reasons, problems, correct = judge(wl, state, ops, outs)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    extra = set(values) - {m["name"] for m in wanted}
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": bool(correct), "attempted": len(ops),
              "failed": sum(r is not None for r in reasons),
              "metrics": metrics}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": n_rounds,
        "result": result, "detail": detail, "problems": problems,
        "operations": [{"kind": op.kind, "args": repr(op.args),
                        "fault": op.fault, "seconds": t, "verdict": r}
                       for op, t, r in zip(ops, times, reasons)],
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=repr) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
