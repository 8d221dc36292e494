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
every scalar kind. Larger regions are decided by Fourier-Motzkin
elimination: it finds whether the region is empty and names the rows
that hold with equality over all of it, exactly on exact rows (every
entry an int, a Fraction or in Q(sqrt 5)) and within one slack rule on
float rows, and raises past a row cap.
"""

from __future__ import annotations

import itertools
import math

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


def _float_sum(p, q, col):
    """The sum of float rows p and q that cancels column col, where p[col]
    > 0 > q[col]. An entry within numeric.ZERO_SHARE of the larger of the
    two terms it adds is rounding noise, and is 0; the value is a plain
    sum, left to the slack rule of `_fourier_motzkin`."""
    a, b = -q[col], p[col]
    out = [a * p[0] + b * q[0]]
    for u, v in zip(p[1:], q[1:]):
        x, y = a * u, b * v
        out.append(0.0 if abs(x + y) <= numeric.ZERO_SHARE * max(abs(x), abs(y)) else x + y)
    return out


def _fourier_motzkin(rows, tol=0):
    """The implicit equalities of the region of the rows by Fourier-Motzkin
    elimination (Schrijver, Theory of Linear and Integer Programming, 1986,
    section 12.2): the sorted indices of every row that a combination free
    of parameters and of value 0 uses, "empty" when such a combination is
    negative, or None when a step would keep more than ELIMINATION_ROW_CAP
    rows.

    Exact rows (int, Fraction or Q(sqrt 5) entries) are decided at
    tolerance 0. Rational rows are scaled to integers, and rows with a
    Q(sqrt 5) entry kept as they are. Each sum is divided by its gcd when
    it is a row of ints, else by the absolute value of its first nonzero
    coefficient.

    Float rows take one slack rule. A coefficient that `_zero_test` reads
    as 0 is 0, each row and each sum with a parameter is divided by its
    largest |coefficient|, and `_float_sum` zeroes the coefficients that
    a sum cancels. Each row carries two more entries, which every sum
    combines like its values: its weight w, 1 on an input row, and the
    size m of the values it adds, |value| on an input row. A point that meets every
    row within tol meets a sum within tol * w, and the rounding of a sum's
    value is taken to be at most numeric.ROUNDING_TOLERANCE * m, 256
    machine epsilons of what it adds. So a sum free of parameters whose
    value is below -(tol * w + ROUNDING_TOLERANCE * m) empties the region,
    and one within that slack of 0 counts as 0. Rows and tol times a power
    of two take the same steps.

    Each sum keeps the mask of its own input rows. Each step eliminates
    the parameter with the fewest pairs of a positive and a negative
    coefficient, and the sum of a pair cancels it; after k steps no sum of
    more than k + 1 input rows is made (Chernikov, USSR Comput. Math.
    Math. Phys. 5, 1965). The verdict stays that of plain elimination.
    The sums free of parameters span the cone {lambda >= 0 : lambda^T A =
    0}, and the rule keeps its extreme rays, which have minimal supports.
    So "empty", and the union of the supports of the sums of value 0, stay
    the same: on a nonempty region a row is an implicit equality exactly
    when a sum of value 0 uses it.
    """
    floating = not numeric.all_exact(v for value, coefs in rows for v in (value, *coefs))
    if floating:
        is_zero = _zero_test(rows)
        # (value, coefficients, weight, size)
        sums = [((float(value), *(0.0 if is_zero(c) else float(c) for c in coefs),
                  1.0, abs(float(value))), 1 << i) for i, (value, coefs) in enumerate(rows)]
    else:
        sums = []
        for i, (value, coefs) in enumerate(rows):
            row = (value, *coefs)
            kinds = {type(v) for v in row}
            if kinds != {int} and numeric.rational_types(kinds):
                row, _ = numeric.integer_row(row)
            sums.append((row, 1 << i))
    equal = 0
    columns = list(range(1, len(rows[0][1]) + 1)) if rows else []
    steps = 0
    while True:
        live = {}
        for row, mask in sums:
            if any(row[c] for c in columns):
                if floating:
                    scale = max(abs(row[c]) for c in columns)
                    row = tuple(v / scale for v in row)
                elif all(type(v) is int for v in row):
                    g = math.gcd(*row)
                    row = tuple(v // g for v in row)
                else:
                    # quotient keeps int / int exact, where / gives a float
                    scale = abs(next(c for c in row[1:] if c != 0))
                    row = tuple(numeric.quotient(v, scale) for v in row)
                # a dict keeps one copy of each (row, mask), in a fixed order
                live[row, mask] = None
                continue
            slack = tol * row[-2] + numeric.ROUNDING_TOLERANCE * row[-1] if floating else 0
            if row[0] < -slack:
                return "empty"
            if row[0] <= slack:
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
        sums += [(_float_sum(p, q, col) if floating
                  else [-q[col] * u + p[col] * v for u, v in zip(p, q)], p_mask | q_mask)
                 for p, p_mask in pos for q, q_mask in neg
                 if (p_mask | q_mask).bit_count() <= steps + 1]
        if len(sums) > ELIMINATION_ROW_CAP:
            return None


def implicit_equalities(rows, tol=0):
    """Indices of the rows that hold with equality over the whole region,
    in row order, or None when the region is empty, as `_fourier_motzkin`
    decides them for every scalar kind: exactly on exact rows, and within
    `tol` and the rounding of its sums on float rows. Elimination past
    ELIMINATION_ROW_CAP raises NbgError."""
    found = _fourier_motzkin(rows, tol)
    if found is None:
        raise NbgError(f"elimination passed {ELIMINATION_ROW_CAP} rows")
    return None if found == "empty" else found
