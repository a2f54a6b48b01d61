"""A coset-table scan of the thin bump: the oracle that make_thin_bump's
batch is checked against.  It shares no code with reduce_points.

The Poincare series of the box profile over THIN4 is summed directly over
the translates whose bottom row (c, d) is in bottom_rows(THIN4, 128), the
cached height-128 table, which covers every translate that can reach the
box from heights above about 8.2e-4 (for the thin default box); lower
queries raise.
"""

import numpy as np

from shearlab.groups import THIN4, bottom_rows
from shearlab.measures import _box_profiles

ROWS = 80.0  # row height the scan needs; the height-128 table holds it


def thin_scan(box):
    """batch(x, y) of the thin bump on box, by scanning the row table."""
    x_lo, x_hi, y_lo, y_hi = box
    px, py = _box_profiles(box)
    table = bottom_rows(THIN4, 128)
    nz = table[table[:, 2] != 0]
    cc, dd = nz[:, 2].astype(float), nz[:, 3].astype(float)
    acs = nz[:, 0] / cc
    # a translate with row (c, d) reaches the box only if |cz+d|^2 <= y/y_lo;
    # for wrapped |x| <= 2 that keeps sqrt(c^2+d^2) under ~sqrt(5/(y*y_lo))
    y_floor = 5.0 / (y_lo * (ROWS - 4.0) ** 2)

    def batch(x, y):
        x = np.mod(np.asarray(x, dtype=float) + 2.0, 4.0) - 2.0
        y = np.asarray(y, dtype=float)
        if np.any(y < y_floor):
            raise ValueError(f"the scan needs a taller row table below "
                             f"y = {y_floor:g}")
        out = px(x) * py(y)
        for lo in range(0, len(x), 4096):
            sl = slice(lo, min(lo + 4096, len(x)))
            xs, ys = x[sl], y[sl]
            live = cc * cc <= 1.0 / (ys.min() * y_lo)
            c, d, ac = cc[live], dd[live], acs[live]
            den = (np.multiply.outer(c, xs) + d[:, None]) ** 2 + \
                np.multiply.outer(c * c, ys * ys)
            yr = ys[None, :] / den
            i, j = np.nonzero(yr > y_lo)
            if len(i):
                gx = ac[i] - (c[i] * xs[j] + d[i]) / (c[i] * den[i, j])
                gx = np.mod(gx + 2.0, 4.0) - 2.0
                np.add.at(out, sl.start + j, px(gx) * py(yr[i, j]))
        return out

    return batch
