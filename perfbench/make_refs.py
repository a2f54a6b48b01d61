"""Rebuild perfbench/refs.json, the fixed-grid reference values the shear,
spectral and cli workloads check against.

    python3 perfbench/make_refs.py            # from the repository root

Each reference is computed at two resolutions; the file keeps the finer
value and the difference as its error estimate, and the run refuses a
reference whose error is not well below the tolerance it is used with.
Takes about ten minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import grids  # noqa: E402
import oracles  # noqa: E402


def main() -> int:
    from shearlab.measures import make_lattice_bump, make_thin_bump
    from shearlab.modforms import delta_qexp, form_observable

    lat, thin = make_lattice_bump(), make_thin_bump()
    moment_psi = form_observable(delta_qexp(400))

    def ray(psi):
        return lambda t, n: oracles.ray_reference(psi.batch, t, psi.support[3], n)

    def strip(psi):
        return lambda t, n: oracles.strip_reference(
            psi.batch, psi.omega, t, psi.support[3], n, float(n))

    def moment(t, n):
        return oracles.moment_reference(moment_psi.batch, t, n)

    # (integrand, coarse resolution, fine resolution)
    plans = {
        "lattice_ray": (ray(lat), 1 << 21, 1 << 22),
        "thin_ray": (ray(thin), 1 << 20, 1 << 21),
        "lattice_strip": (strip(lat), 256, 512),
        "thin_strip": (strip(thin), 256, 512),
        "moment": (moment, 1 << 19, 1 << 20),
    }
    out = {"doc": "value and error estimate per T; rebuilt by "
                  "perfbench/make_refs.py"}
    for name, (fn, n_lo, n_hi) in plans.items():
        table = {}
        t0 = time.perf_counter()
        for t in grids.REFERENCE_SETS[name]:
            lo, hi = fn(t, n_lo), fn(t, n_hi)
            table[repr(float(t))] = [hi, abs(hi - lo)]
        out[name] = table
        worst = max(e for _, e in table.values())
        print(f"{name}: {len(table)} values, worst error {worst:.1e}, "
              f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)
    (HERE / "refs.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
