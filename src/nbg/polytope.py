"""Constraint polytopes over the parameters of a solution family.

A family of solutions base + sum_k t_k * directions[k] is clipped to its
feasible region by rows (value, coefs), each meaning

    value + coefs . t >= 0.

One-parameter regions are intervals and are computed exactly; larger
regions go to linear programming, which runs in float HiGHS; one LP finds
every implicit equality of a region at once. scipy is imported on the
first LP call, so importing the package stays light.
"""

from __future__ import annotations

from fractions import Fraction

from . import numeric

#: float coefficients smaller than this count as zero in the zero-slope rule
SLOPE_TOLERANCE = 1e-13


def _is_zero(coef) -> bool:
    return coef == 0 or (not numeric.is_exact_scalar(coef)
                         and abs(float(coef)) < SLOPE_TOLERANCE)


def interval(rows, tol=0):
    """Feasible range (lo, hi) of t for one-parameter rows, or None.

    The range is empty, and None is returned, when a zero-slope row has
    value below -tol or when lo exceeds hi by more than tol. Exact rows
    give exact end points. Rows of a support family bound t on both
    sides, since a kernel direction sums to zero on its support; a side
    left unbounded collapses onto the other one.
    """
    lo = hi = None
    for value, (slope,) in rows:
        if _is_zero(slope):
            if value < -tol:
                return None
            continue
        if isinstance(value, int):
            value = Fraction(value)
        bound = -value / slope
        if slope > 0:
            lo = bound if lo is None or bound > lo else lo
        else:
            hi = bound if hi is None or bound < hi else hi
    lo = lo if lo is not None else hi
    hi = hi if hi is not None else lo
    if lo is None or lo - hi > tol:
        return None
    return lo, hi


def minimize(rows, objective):
    """Minimise objective . t over the rows by float linear programming.

    Returns (minimum, minimiser) as HiGHS reports them, or None when the
    program is infeasible, unbounded or fails.
    """
    from scipy.optimize import linprog
    import numpy as np

    a_ub = np.array([[-float(c) for c in coefs] for _, coefs in rows])
    b_ub = np.array([float(value) for value, _ in rows])
    res = linprog(objective, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * len(objective), method="highs")
    if res.status != 0:
        return None
    return res.fun, res.x


def feasible(rows, dim) -> bool:
    """Whether some t satisfies every row (float linear programming)."""
    return minimize(rows, [0.0] * dim) is not None


def implicit_equalities(rows, tol=0):
    """Indices of the rows that hold with equality over the whole region,
    in row order, or None when the region is empty or the LP fails.

    A row free of parameters with value below -tol empties the region,
    which needs no LP (the zero-slope rule of `interval`). Otherwise one
    float LP in (t free, theta >= 1, 0 <= y <= 1) decides every row
    (Freund, Roundy & Todd, MIT Sloan WP 1674-85, 1985):

        maximise sum y_i  subject to  y_i <= value_i * theta + coefs_i . t.

    (t, theta) is feasible exactly when t / theta lies in the region. An
    implicit equality keeps y_i <= 0; every other row is positive at a
    relative interior point, which a large enough theta scales until all
    of them reach y_i = 1. So the optimal y is 0 on the implicit
    equalities and 1 elsewhere, and y_i < 1/2 tells them apart.
    """
    if any(value < -tol and all(_is_zero(c) for c in coefs) for value, coefs in rows):
        return None
    from scipy.optimize import linprog
    import numpy as np

    m, d = len(rows), len(rows[0][1])
    # columns: t, theta, y
    region = [[-float(c) for c in coefs] + [-float(value)] for value, coefs in rows]
    a_ub = np.hstack([np.array(region), np.eye(m)])
    objective = [0.0] * (d + 1) + [-1.0] * m
    bounds = [(None, None)] * d + [(1, None)] + [(0, 1)] * m
    res = linprog(objective, A_ub=a_ub, b_ub=np.zeros(m), bounds=bounds,
                  method="highs")
    if res.status != 0:
        return None
    return [i for i, y in enumerate(res.x[d + 1:]) if y < 0.5]
