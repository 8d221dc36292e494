"""Dense linear algebra, generic over the package's scalar types.

These routines accept floats, ints and Fractions, and the Q(sqrt 5)
field, which is what lets the solvers offer exact and approximate modes
through one interface. Rational matrices are eliminated in integers,
fraction-free; float and Q(sqrt 5) matrices by Gauss-Jordan with
largest-magnitude pivots. Matrices are plain lists of lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import numeric

_PIVOT_TOLERANCE = 1e-12

#: matrix kinds: every entry int or Fraction; some entry in Q(sqrt 5) and
#: the rest exact; some entry inexact (float, bool, NumPy scalar, ...)
_RATIONAL, _QUADRATIC, _FLOAT = "rational", "quadratic", "float"


def _classify(rows):
    kinds = {type(v) for row in rows for v in row}
    if any(issubclass(t, bool) for t in kinds):
        return _FLOAT
    if all(issubclass(t, (int, Fraction)) for t in kinds):
        return _RATIONAL
    if all(issubclass(t, (int, Fraction, numeric.QuadExt)) for t in kinds):
        return _QUADRATIC
    return _FLOAT


def _zero_test_for(rows, kind):
    if kind != _FLOAT:
        return lambda v: v == 0
    scale = max((abs(float(v)) for row in rows for v in row), default=1.0)
    threshold = _PIVOT_TOLERANCE * max(scale, 1.0)
    return lambda v: abs(float(v)) <= threshold


def _bareiss(rows):
    """Fraction-free Gauss-Jordan elimination of a rational matrix.

    Each row is scaled to integers by the lcm of its denominators; then
    every row other than the pivot row takes the one-step Bareiss update
    (piv * a - f * b) // prev, whose division is exact (Bareiss, Math.
    Comp. 22, 1968). Returns (m, pivots, p): the integer rows, the pivot
    columns and the last pivot p. Pivot row k of the reduced row echelon
    form is m[k] / p, and the rows past the pivots are zero.
    """
    m = []
    for row in rows:
        scale = math.lcm(*{v.denominator for v in row})
        m.append([v.numerator * (scale // v.denominator) for v in row])
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    prev = 1
    for col in range(n_cols):
        row = len(pivots)
        if row == n_rows:
            break
        best = next((i for i in range(row, n_rows) if m[i][col]), None)
        if best is None:
            continue
        m[row], m[best] = m[best], m[row]
        top = m[row]
        pivot = top[col]
        for i in range(n_rows):
            if i == row:
                continue
            factor = m[i][col]
            if factor:
                m[i] = [(pivot * a - factor * b) // prev for a, b in zip(m[i], top)]
            elif pivot != prev:
                m[i] = [pivot * a // prev for a in m[i]]
        pivots.append(col)
        prev = pivot
    return m, pivots, prev


def _eliminate(m, is_zero, kind):
    """Gauss-Jordan elimination with largest-magnitude pivots, in place,
    for float and Q(sqrt 5) matrices. Returns the pivot columns."""
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        # choose the pivot: largest magnitude keeps float mode stable and is
        # deterministic for exact scalars too
        best, best_size = None, None
        for i in range(row, n_rows):
            if not is_zero(m[i][col]):
                size = abs(float(m[i][col]))
                if best is None or size > best_size:
                    best, best_size = i, size
        if best is None:
            continue
        m[row], m[best] = m[best], m[row]
        pivot = m[row][col]
        if kind == _FLOAT:
            m[row] = [v / pivot for v in m[row]]
        else:
            # int / int is float division; an exact inverse keeps rows exact
            inverse = Fraction(1) / pivot
            m[row] = [v * inverse for v in m[row]]
        for i in range(n_rows):
            if i != row and not is_zero(m[i][col]):
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
    return pivots


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns).

    Rational matrices are reduced by fraction-free integer elimination;
    Q(sqrt 5) matrices by exact largest-magnitude pivoting. Every entry
    of an exact result is a Fraction or a QuadExt. Float matrices use
    largest-magnitude pivoting with a zero threshold scaled to the
    largest entry.
    """
    m = [list(row) for row in rows]
    if not m:
        return m, []
    kind = _classify(m)
    if kind == _RATIONAL:
        m, pivots, last = _bareiss(m)
        return [[Fraction(v, last) for v in row] for row in m], pivots
    pivots = _eliminate(m, _zero_test_for(m, kind), kind)
    if kind == _QUADRATIC:
        # rows past the pivots are exact zeros; an all-zero input row was
        # never touched and may still hold int 0
        m[len(pivots):] = [[Fraction(0)] * len(row) for row in m[len(pivots):]]
    return m, pivots


@dataclass(frozen=True)
class LinearSolution:
    """Solution set of A x = b.

    status is one of "unique", "family", "none". For a family, `solution`
    is one particular solution and `basis` spans the kernel of A.
    """

    status: str
    solution: tuple | None
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


def solve_linear_system(a_rows, rhs) -> LinearSolution:
    """Solve A x = b, classifying the solution set exactly when possible.

    Entries of the particular solution and the basis at pivot columns come
    from the reduced rows (Fractions for rational input); free columns hold
    the literal 0 and 1 (0.0 and 1.0 for float input).
    """
    if len(a_rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if not a_rows:
        return LinearSolution("unique", (), ())
    n_cols = len(a_rows[0])
    augmented = [list(row) + [b] for row, b in zip(a_rows, rhs)]
    kind = _classify(augmented)
    if kind == _RATIONAL:
        m, pivots, last = _bareiss(augmented)

        def entry(i, col):
            return Fraction(m[i][col], last)
    else:
        pivots = _eliminate(augmented, _zero_test_for(augmented, kind), kind)

        def entry(i, col):
            return augmented[i][col]
    if n_cols in pivots:
        return LinearSolution("none", None, ())
    zero = 0.0 if kind == _FLOAT else 0
    particular = [zero] * n_cols
    for i, col in enumerate(pivots):
        particular[col] = entry(i, n_cols)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for free in free_cols:
        direction = [zero] * n_cols
        direction[free] = zero + 1
        for i, col in enumerate(pivots):
            direction[col] = -entry(i, free)
        basis.append(tuple(direction))
    status = "unique" if not basis else "family"
    return LinearSolution(status, tuple(particular), tuple(basis))


def determinant(rows):
    """Determinant by fraction-free Bareiss elimination.

    Exact over Fractions and Q(sqrt 5); over floats it behaves like ordinary
    Gaussian elimination with the divisions folded in.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    kind = _classify(rows)
    # int / int is float division; the Bareiss divisions need Fractions
    m = [[Fraction(v) if kind != _FLOAT and isinstance(v, int) else v for v in row]
         for row in rows]
    is_zero = _zero_test_for(m, kind)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if is_zero(m[k][k]):
            swap = next((i for i in range(k + 1, n) if not is_zero(m[i][k])), None)
            if swap is None:
                return 0 * m[0][0]
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matvec(rows, vector):
    return [sum(a * x for a, x in zip(row, vector)) for row in rows]
