"""Input grids shared by the workloads and make_refs.py.

Seeded operations draw their radii from these fixed candidate lists, so
that every value they can produce has a precomputed reference in
refs.json.  Each list is a log grid of PHASES points per stratum; the
seed picks one point per stratum (workloads._pick_rotation), so the
work of a round moves by only a few percent between seeds.  The lattice
shear radii are the fixed grid LATTICE_T[::PHASES].  Changing a list
means rebuilding the references with `python3 perfbench/make_refs.py`.
"""

import numpy as np


def _grid(lo, hi, n):
    return tuple(float(f"{v:.4g}") for v in np.geomspace(lo, hi, n))


PHASES = 4

# shear: two decades of T, inside the thin row tables' reach (the thin
# list stops below 1000 so one height-1024 table serves every value)
LATTICE_T = _grid(10.0, 2000.0, 16 * PHASES)
THIN_T = _grid(10.0, 950.0, 16 * PHASES)
STRIP_T = _grid(10.0, 150.0, 8 * PHASES)
# spectral: the second moment from the pre-asymptotic range to T = 3000
MOMENT_T = _grid(20.0, 3000.0, 12 * PHASES)

# fixed inputs of the known faults, independent of the seed
FAULT_B_T = (300.0, 1000.0)     # lattice mu_T at tol 1e-7
FAULT_C_T = (30.0, 100.0)       # lattice mu_T_strip at tol 1e-8

# the CLI's DEFAULTS grids
CLI_SHEAR_T = (10.0, 30.0, 100.0, 300.0)
CLI_MOMENT_T = (20.0, 50.0, 100.0, 200.0)
CLI_THIN_STRIP_T = (10.0, 30.0, 100.0)   # T = 300 would need a finer grid

REFERENCE_SETS = {
    "lattice_ray": sorted(set(LATTICE_T + FAULT_B_T + CLI_SHEAR_T)),
    "thin_ray": sorted(set(THIN_T + CLI_SHEAR_T)),
    "lattice_strip": sorted(set(STRIP_T + FAULT_C_T + CLI_SHEAR_T)),
    "thin_strip": sorted(CLI_THIN_STRIP_T),
    "moment": sorted(set(MOMENT_T + CLI_MOMENT_T)),
}
