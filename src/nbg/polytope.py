"""Constraint polytopes over the parameters of a solution family.

A family of solutions base + sum_k t_k * directions[k] is clipped to its
feasible region by rows (value, coefs), each meaning

    value + coefs . t >= 0.

One-parameter regions are intervals, decided by one rule for every
scalar kind: each bound is a pair (numerator, positive denominator),
pairs are compared by cross-multiplication, and only the two end points
are divided, so rational rows give exact Fraction end points. Bounded
regions are the convex hull of their vertices, which `vertices` lists
by solving each choice of d rows as equalities, again by one rule for
every scalar kind. Larger exact regions (every entry an int, a Fraction
or in Q(sqrt 5)) are decided by Fourier-Motzkin elimination alone: it
finds whether the region is empty and names the rows that hold with
equality over all of it, with no float step, and raises past a row cap.
Larger float regions go to the one linear program, which runs in float
HiGHS and finds every implicit equality at once. scipy is imported on
the first LP call, so importing the package, and solving exact games,
never load it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import numeric
from .errors import NbgError
from .linalg import solve_linear_system

#: implicit_equalities raises NbgError when a Fourier-Motzkin step would
#: keep more rows than this; family regions stay near their starting row
#: count, while random dense rows can grow doubly exponentially
ELIMINATION_ROW_CAP = 200


def _zero_test(rows):
    """is_zero(coef) for the coefficients of `rows`: 0, or at most
    numeric.ZERO_SHARE times the largest |float coefficient| of the rows."""
    cut = numeric.ZERO_SHARE * max((abs(c) for _, coefs in rows for c in coefs
                                    if isinstance(c, float)), default=0.0)
    return lambda coef: coef == 0 or abs(coef) <= cut


def interval(rows, tol=0):
    """Feasible range (lo, hi) of t for one-parameter rows, or None.

    Each bound -value/slope is kept as a pair (numerator, positive
    denominator), and pairs are compared by cross-multiplication, so
    int, Fraction, float and Q(sqrt 5) rows take one rule. Only the two
    end points are divided, by `numeric.quotient`. The range is empty,
    and None is returned, when a row of zero slope (`_zero_test`) has
    value below -tol or when lo exceeds hi by more than tol. Rows of a
    support family bound t on both sides, since a kernel direction sums
    to zero on its support; a side left unbounded collapses onto the
    other one. Rows that bound t on neither side raise ValueError.
    """
    lo = hi = None
    is_zero = _zero_test(rows)
    for value, (slope,) in rows:
        if is_zero(slope):
            if value < -tol:
                return None
            continue
        if slope > 0:
            if lo is None or -value * lo[1] > lo[0] * slope:
                lo = (-value, slope)
        elif hi is None or value * hi[1] < hi[0] * -slope:
            hi = (value, -slope)
    if lo is None and hi is None:
        raise ValueError("the rows bound the parameter on neither side")
    lo = lo or hi
    hi = hi or lo
    if lo[0] * hi[1] - hi[0] * lo[1] > tol * lo[1] * hi[1]:
        return None
    return numeric.quotient(*lo), numeric.quotient(*hi)


def vertices(rows, tol=0):
    """Yield the vertices of the region of the rows, each once, as tuples t.

    Each d-subset of the rows, taken in `itertools.combinations` order,
    is solved as equalities by `solve_linear_system`, and a unique
    solution at which every row holds within `tol` is a vertex: it is
    fixed by d independent tight rows (Schrijver, Theory of Linear and
    Integer Programming, 1986, section 8.5). Exact rows at tol 0 give
    exact vertices. A bounded region is the convex hull of its vertices,
    so it is empty exactly when none is yielded. Exact rational rows are
    scaled to integers once, which moves no vertex and spares each solve
    its own scaling.
    """
    if tol == 0 and numeric.rational_types({type(v) for value, coefs in rows
                                            for v in (value, *coefs)}):
        rows = [(ints[0], ints[1:]) for ints in
                (numeric.integer_row((value, *coefs))[0] for value, coefs in rows)]
    seen = set()
    for subset in itertools.combinations(rows, len(rows[0][1])):
        solved = solve_linear_system([list(coefs) for _, coefs in subset],
                                     [-value for value, _ in subset])
        if solved.status != "unique" or solved.solution in seen:
            continue
        t = solved.solution
        if all(value + sum(c * x for c, x in zip(coefs, t)) >= -tol for value, coefs in rows):
            seen.add(t)
            yield t


def _lp_rows(rows):
    """(A, b, s): the rows as A u <= b in u = t / s. implicit_equalities
    sends only float rows here. HiGHS's feasibility tolerances are
    absolute, so each row whose largest |entry| passes 1 is first divided
    by the power of two within a factor of two of it, which moves no
    implicit equality and keeps rows with entries near 10^14 from reading
    as infeasible. Rows are never scaled up: a row of float rounding
    noise, such as a flat row of value -3e-17, stays within the LP's
    tolerance. Then s, the power of two within a factor of two of
    max|value| / max|coef| (1 if either is 0), brings values that scale
    with r to the coefficients' size, exactly: a game scaled by 2^k poses
    the same LP."""
    scaled = []
    for value, coefs in rows:
        row = [float(value), *map(float, coefs)]
        size = max(1.0, numeric.power_of_two_ratio(max(map(abs, row)), 1.0))
        scaled.append([v / size for v in row])
    a = [[-c for c in row[1:]] for row in scaled]
    values = [row[0] for row in scaled]
    s = numeric.power_of_two_ratio(max(map(abs, values), default=0.0),
                                   max((abs(c) for row in a for c in row), default=0.0))
    return a, [v / s for v in values], s


def _violates_flat_row(rows, tol) -> bool:
    """The zero-slope rule of `interval`: a row free of parameters with
    value below -tol empties the region."""
    is_zero = _zero_test(rows)
    return any(value < -tol and all(map(is_zero, coefs)) for value, coefs in rows)


def _fourier_motzkin(rows):
    """The implicit equalities of the region of exact rows (int, Fraction
    or Q(sqrt 5) entries) by Fourier-Motzkin elimination (Schrijver,
    Theory of Linear and Integer Programming, 1986, section 12.2): the
    sorted indices of every row that a combination free of parameters and
    of value 0 uses, "empty" when such a combination is negative, or None
    when a step would keep more than ELIMINATION_ROW_CAP rows.

    Rational rows are scaled to integers, and rows with a Q(sqrt 5) entry
    kept as they are. Each sum is divided by its gcd when it is a row of
    ints, else by the absolute value of its first nonzero coefficient,
    and keeps the mask of its own input rows. Each step eliminates the
    parameter with the fewest pairs of a positive and a negative
    coefficient, and the sum of a pair cancels it; after k steps no sum of
    more than k + 1 input rows is made (Chernikov, USSR Comput. Math.
    Math. Phys. 5, 1965). The verdict stays that of plain elimination.
    The sums free of parameters span the cone {lambda >= 0 : lambda^T A =
    0}, and the rule keeps its extreme rays, which have minimal supports.
    So "empty", and the union of the supports of the sums of value 0, stay
    the same: on a nonempty region a row is an implicit equality exactly
    when a sum of value 0 uses it.
    """
    equal, sums = 0, []
    for i, (value, coefs) in enumerate(rows):
        row = (value, *coefs)
        kinds = {type(v) for v in row}
        if kinds != {int} and numeric.rational_types(kinds):
            row, _ = numeric.integer_row(row)
        sums.append((row, 1 << i))
    columns = list(range(1, len(rows[0][1]) + 1)) if rows else []
    steps = 0
    while True:
        live = {}
        for row, mask in sums:
            if any(c != 0 for c in row[1:]):
                if all(type(v) is int for v in row):
                    g = math.gcd(*row)
                    row = tuple(v // g for v in row)
                else:
                    # quotient keeps int / int exact, where / gives a float
                    scale = abs(next(c for c in row[1:] if c != 0))
                    row = tuple(numeric.quotient(v, scale) for v in row)
                # a dict keeps one copy of each (row, mask), in a fixed order
                live[row, mask] = None
            elif row[0] < 0:
                return "empty"
            elif row[0] == 0:
                equal |= mask
        if not live:
            return [i for i in range(len(rows)) if equal >> i & 1]
        signs = {}
        for col in columns:
            pos = [(row, mask) for row, mask in live if row[col] > 0]
            neg = [(row, mask) for row, mask in live if row[col] < 0]
            signs[col] = pos, neg
        col = min(columns, key=lambda c: len(signs[c][0]) * len(signs[c][1]))
        pos, neg = signs[col]
        columns.remove(col)
        steps += 1
        sums = [(row, mask) for row, mask in live if row[col] == 0]
        sums += [([-q[col] * u + p[col] * v for u, v in zip(p, q)], p_mask | q_mask)
                 for p, p_mask in pos for q, q_mask in neg
                 if (p_mask | q_mask).bit_count() <= steps + 1]
        if len(sums) > ELIMINATION_ROW_CAP:
            return None


def implicit_equalities(rows, tol=0):
    """Indices of the rows that hold with equality over the whole region,
    in row order, or None when the region is empty.

    Exact rows are decided by `_fourier_motzkin`, which gives None on an
    empty region and otherwise the implicit equalities it names; `tol`
    serves float rows only. On float rows, a row free of parameters with
    value below -tol empties the region, which needs no LP (the
    zero-slope rule of `interval`); otherwise one float LP in (t free,
    theta >= 1, 0 <= y <= 1) decides every row (Freund, Roundy & Todd,
    MIT Sloan WP 1674-85, 1985):

        maximise sum y_i  subject to  y_i <= value_i * theta + coefs_i . t.

    (t, theta) is feasible exactly when t / theta lies in the region. An
    implicit equality keeps y_i <= 0; every other row is positive at a
    relative interior point, which a large enough theta scales until all
    of them reach y_i = 1. So the optimal y is 0 on the implicit
    equalities and 1 elsewhere, and y_i < 1/2 tells them apart. The LP
    runs in the u of `_lp_rows`, which leaves the equalities as they are.
    When HiGHS neither solves the LP nor proves it infeasible, elimination
    decides exact Fraction copies of the float rows instead. Elimination
    past ELIMINATION_ROW_CAP raises NbgError.
    """
    if numeric.all_exact(v for value, coefs in rows for v in (value, *coefs)):
        found = _fourier_motzkin(rows)
    elif _violates_flat_row(rows, tol):
        return None
    else:
        from scipy.optimize import linprog

        m, d = len(rows), len(rows[0][1])
        # columns: u, theta, y
        a_ub = [row + [-value] + [float(k == i) for k in range(m)]
                for i, (row, value) in enumerate(zip(*_lp_rows(rows)[:2]))]
        objective = [0.0] * (d + 1) + [-1.0] * m
        bounds = [(None, None)] * d + [(1, None)] + [(0, 1)] * m
        res = linprog(objective, A_ub=a_ub, b_ub=[0.0] * m, bounds=bounds, method="highs")
        if res.status == 2:
            return None
        if res.status == 0:
            return [i for i, y in enumerate(res.x[d + 1:]) if y < 0.5]
        found = _fourier_motzkin([(Fraction(float(value)), [Fraction(float(c)) for c in coefs])
                                  for value, coefs in rows])
    if found is None:
        raise NbgError(f"elimination passed {ELIMINATION_ROW_CAP} rows")
    return None if found == "empty" else found
