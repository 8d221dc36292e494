"""Constraint polytopes over the parameters of a solution family.

A family of solutions base + sum_k t_k * directions[k] is clipped to its
feasible region by rows (value, coefs), each meaning

    value + coefs . t >= 0.

One-parameter regions are intervals and are computed exactly; larger
regions go to linear programming, which runs in float HiGHS. scipy is
imported on the first LP call, so importing the package stays light.
"""

from __future__ import annotations

from fractions import Fraction

from . import numeric

#: float slopes smaller than this count as zero in the interval rule
SLOPE_TOLERANCE = 1e-13


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
        if slope == 0 or (not numeric.is_exact_scalar(slope)
                          and abs(float(slope)) < SLOPE_TOLERANCE):
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


def maximum(rows, value, coefs):
    """Largest value + coefs . t over the rows, or None when the program
    fails or is unbounded (float linear programming)."""
    found = minimize(rows, [-float(c) for c in coefs])
    if found is None:
        return None
    return float(value) - float(found[0])
