"""Dense linear algebra, generic over the package's scalar types.

These routines accept floats, ints and Fractions, and the Q(sqrt 5)
field, which is what lets the solvers offer exact and approximate modes
through one interface. Matrices are plain lists of lists. Each routine
eliminates a matrix once, fraction-free in integers for rational
matrices and by Gauss-Jordan with largest-magnitude pivots for float
and Q(sqrt 5) ones; a determinant is read off that elimination.

The fraction-free elimination takes rows of ints as they are, and
scales other rational rows by the lcm of their denominators. It
eliminates forward, rescaling a row only when it is used, and then
back-substitutes, so every pivot row ends equal to the last pivot times
the reduced row: a rational solution comes out as integer numerators
over that one denominator (Bareiss, Math. Comp. 22, 1968).
`LinearSolution` hands every solution on in that one form, float and
Q(sqrt 5) ones as their values over 1, and builds the values only when
they are read.

`bareiss_step` and `bareiss_solution` split that elimination into its
steps, so that systems which share their first pivots, such as the
support systems of `equilibrium._SupportPass`, share those steps too.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import numeric

#: matrix kinds: every entry int or Fraction; some entry in Q(sqrt 5) and
#: the rest exact; some entry inexact (float, bool, NumPy scalar, ...)
_RATIONAL, _QUADRATIC, _FLOAT = "rational", "quadratic", "float"


def _classify(kinds):
    if numeric.rational_types(kinds):
        return _RATIONAL
    if any(issubclass(t, bool) for t in kinds):
        return _FLOAT
    if all(issubclass(t, (int, Fraction, numeric.QuadExt)) for t in kinds):
        return _QUADRATIC
    return _FLOAT


def _zero_test_for(rows, kind, width):
    """is_zero(value, column): on floats, relative to the largest entry of
    the first `width` columns (the coefficients) or of the rest."""
    if kind != _FLOAT:
        return lambda v, col: v == 0
    left = max((abs(float(v)) for row in rows for v in row[:width]), default=0.0)
    right = max((abs(float(v)) for row in rows for v in row[width:]), default=0.0)
    return lambda v, col: abs(float(v)) <= numeric.ZERO_SHARE * (left if col < width else right)


def _bareiss(rows, ints=False):
    """Fraction-free elimination of a rational matrix, forward then back.

    Rows of ints (`ints`) are reduced as they are, in place; otherwise each
    row is scaled to integers by the lcm of its denominators. Forward, a
    row below pivot p with f in its column takes (p * a - f * b) // prev
    right of that column, an exact division (Bareiss, Math. Comp. 22,
    1968). A row with f = 0 is left as it is: the one-step factors it
    skips telescope, so its next update divides by the prev it last saw,
    and as the pivot row it is first scaled by prev over that. Back (Nakos,
    Turner & Williams, SIGSAM Bull. 31(3), 1997), pivot row i becomes
    (p * U_i - sum_{j>i} U_i[c_j] * R_j) // U_i[c_i] on its free columns.
    Returns (m, pivots, p, sign, scale): the integer rows, the pivot
    columns c, the last pivot p, the row-swap parity and the product of
    the row scales. Pivot row k of the reduced row echelon form is m[k] /
    p, and the rows past the pivots are zero. When the n rows pivot in
    the first n columns, those have determinant sign*p/scale.
    """
    m, scales = rows, 1
    if not ints:
        m = []
        for row in rows:
            ints_row, scale = numeric.integer_row(row)
            scales *= scale
            m.append(ints_row)
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    prev = sign = 1
    seen = [1] * n_rows  # the prev that row i last saw
    for col in range(n_cols):
        row = len(pivots)
        if row == n_rows:
            break
        best = next((i for i in range(row, n_rows) if m[i][col]), None)
        if best is None:
            continue
        if best != row:
            m[row], m[best] = m[best], m[row]
            seen[row], seen[best] = seen[best], seen[row]
            sign = -sign
        top = m[row]
        if seen[row] != prev:  # the pivot row is brought up to date
            top[col:] = [a * prev // seen[row] for a in top[col:]]
        pivot, tail = top[col], top[col + 1:]
        for i in range(row + 1, n_rows):
            below = m[i]
            factor = below[col]
            if factor:
                below[col + 1:] = [(pivot * a - factor * b) // seen[i]
                                   for a, b in zip(below[col + 1:], tail)]
                seen[i] = pivot
        pivots.append(col)
        prev = pivot
    m[len(pivots):] = [[0] * n_cols for _ in range(len(pivots), n_rows)]
    free = [c for c in range(n_cols) if c not in pivots]
    for k in reversed(range(len(pivots))):
        upper, col = m[k], pivots[k]
        done = [(upper[c], m[j]) for j, c in enumerate(pivots[k + 1:], k + 1) if upper[c]]
        reduced = [0] * n_cols
        reduced[col] = prev
        for c in free:
            if c > col:
                reduced[c] = (prev * upper[c] - sum([f * r[c] for f, r in done])) // upper[col]
        m[k] = reduced
    return m, pivots, prev, sign, scales


def bareiss_step(rows, top, col, prev):
    """One fraction-free step on integer rows that end in a coefficient
    column and the right-hand side: pivot p = top[col], and each row
    becomes (p * a - f * b) // prev with f = row[col], on its first `col`
    columns and its last two; the columns from `col` up to those two are
    dropped. prev is the pivot of the step before (1 at the first). Every
    entry stays a minor of the input (Bareiss, Math. Comp. 22, 1968), so
    it does not depend on which other rows and columns are kept, and the
    division is exact whether or not p is zero."""
    pivot, tail = top[col], top[:col] + top[-2:]
    return [[(pivot * a - row[col] * b) // prev for a, b in zip(row[:col] + row[-2:], tail)]
            for row in rows]


def bareiss_solution(columns, tops, last):
    """The unique solution of a square integer system that `bareiss_step`
    has brought to triangular form, or None when it is singular.

    The last pivot comes first: tops[i] is the row that pivoted in column
    columns[i], indexed by column, with entries in columns[:i], and it
    ends in its entry in the column that `last` pivots in and its
    right-hand side. last ends in (det, b), det the last pivot. Back
    substitution multiplies through by det, so each quotient is Cramer's
    integer numerator and exact. Returns the numerators in the order of
    `columns`, then that of the last column, over |det|, as a unique
    `LinearSolution` whose pivots are every column."""
    det, last_num = last[-2], last[-1]
    if not det:
        return None
    done = []
    for col, top in zip(columns, tops):
        done.append((col, (det * top[-1] - top[-2] * last_num
                           - sum([top[c] * num for c, num in done])) // top[col]))
    nums = [num for _, num in done] + [last_num]
    if det < 0:
        det, nums = -det, [-num for num in nums]
    return LinearSolution("unique", range(len(nums)), det, tuple(nums), ())


def _eliminate(m, is_zero, kind):
    """Gauss-Jordan elimination with largest-magnitude pivots, in place,
    for float and Q(sqrt 5) matrices. Returns the pivot columns and the
    product of the pivots, negated once per row swap."""
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    product = 1.0 if kind == _FLOAT else Fraction(1)
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        # choose the pivot: largest magnitude keeps float mode stable and is
        # deterministic for exact scalars too
        best, best_size = None, None
        for i in range(row, n_rows):
            if not is_zero(m[i][col], col):
                size = abs(float(m[i][col]))
                if best is None or size > best_size:
                    best, best_size = i, size
        if best is None:
            continue
        if best != row:
            m[row], m[best] = m[best], m[row]
            product = -product
        pivot = m[row][col]
        product = product * pivot
        if kind == _FLOAT:
            m[row] = [v / pivot for v in m[row]]
        else:
            # int / int is float division; an exact inverse keeps rows exact
            inverse = Fraction(1) / pivot
            m[row] = [v * inverse for v in m[row]]
        # rows above are already divided by their pivots, so the zero test,
        # sized by the whole matrix, is for the rows below
        for i in range(n_rows):
            if i < row and m[i][col] != 0 or i > row and not is_zero(m[i][col], col):
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
    return pivots, product


def _reduce(m, width):
    """Eliminate the nonempty matrix m once, with the kernel for its kind,
    reading its first `width` columns as the coefficients.

    Returns (kind, pivots, reduced, last, det). Row i < len(pivots) of the
    reduced row echelon form is reduced[i] / last: for rational matrices
    the integer rows of `_bareiss` over its last pivot, which may be
    negative; for float and Q(sqrt 5) matrices, which are reduced in
    place, the reduced rows themselves and last = 1. det() is the
    determinant of the first n = len(m) columns, zero unless the n-th
    pivot is column n - 1.
    """
    kinds = {type(v) for row in m for v in row}
    kind = _classify(kinds)
    n = len(m)
    if kind == _RATIONAL:
        m, pivots, last, sign, scale = _bareiss(m, kinds == {int})
        if pivots[n - 1:n] != [n - 1]:
            sign = 0
        return kind, pivots, m, last, lambda: Fraction(sign * last, scale)
    pivots, product = _eliminate(m, _zero_test_for(m, kind, width), kind)
    if pivots[n - 1:n] != [n - 1]:
        product = 0.0 if kind == _FLOAT else Fraction(0)
    return kind, pivots, m, 1, lambda: product


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns).

    Every entry of an exact result is a Fraction or a QuadExt. Float
    matrices use a zero threshold scaled to the largest entry.
    """
    m = [list(row) for row in rows]
    if not m:
        return m, []
    kind, pivots, reduced, last, _ = _reduce(m, len(m[0]))
    if kind == _RATIONAL:
        # rows past the pivots are zero but may still hold int 0
        return [[Fraction(v, last) if i < len(pivots) else Fraction(0) for v in row]
                for i, row in enumerate(reduced)], pivots
    if kind == _QUADRATIC:
        m = [[v if i < len(pivots) else Fraction(0) for v in row]
             for i, row in enumerate(m)]
    return m, pivots


class LinearSolution:
    """Solution set of A x = b.

    status is one of "unique", "family", "none". For a family, `solution`
    is one particular solution and `basis` spans the kernel of A.

    A consistent system carries both vectors as `numerators` and
    `basis_numerators` over one positive `denominator`. For rational
    input the numerators are integers and the denominator is the last
    pivot of the fraction-free elimination, with its sign moved onto the
    numerators; for float and Q(sqrt 5) input the numerators are the
    values themselves over 1. A free column holds 0, or the denominator
    itself in its own basis vector. `solution` and `basis` are built on
    first read: entries at pivot columns by `numeric.quotient` (Fractions
    for rational input), free columns the literal 0 and 1 (0.0 and 1.0
    for float input). For "none" the numerators and `solution` are None
    and `basis` is ().

    Equality, hashing and repr go by (status, solution, basis).
    """

    def __init__(self, status, pivots, denominator, numerators, basis_numerators):
        self.status, self._pivots = status, pivots
        self.denominator, self.numerators = denominator, numerators
        self.basis_numerators = basis_numerators

    def _values(self, vector):
        den, pivots = self.denominator, self._pivots
        # a free column holds 0 or den: the literal 0 or 1
        return tuple(numeric.quotient(v, den) if col in pivots else v // den
                     for col, v in enumerate(vector))

    @functools.cached_property
    def solution(self):
        return None if self.numerators is None else self._values(self.numerators)

    @functools.cached_property
    def basis(self) -> tuple:
        return tuple(self._values(vec) for vec in self.basis_numerators)

    @property
    def dimension(self) -> int:
        return len(self.basis_numerators)

    def _key(self):
        return self.status, self.solution, self.basis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"LinearSolution(status={self.status!r}, solution={self.solution!r},"
                f" basis={self.basis!r})")


def _solve(a_rows, rhs):
    """solve_linear_system plus the det() of its elimination."""
    if len(a_rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if not a_rows:
        return LinearSolution("unique", [], 1, (), ()), lambda: 1
    n_cols = len(a_rows[0])
    kind, pivots, reduced, last, det = _reduce(
        [list(row) + [b] for row, b in zip(a_rows, rhs)], n_cols)
    if n_cols in pivots:
        return LinearSolution("none", pivots, None, None, ()), det
    free_cols = [c for c in range(n_cols) if c not in pivots]
    # entries stay numerators over the last pivot (1 off the rationals),
    # whose sign moves onto them; a free column's 1 is then the
    # denominator itself
    sign = -1 if last < 0 else 1
    zero = 0.0 if kind == _FLOAT else 0
    den = sign * last
    particular = [zero] * n_cols
    for i, col in enumerate(pivots):
        particular[col] = sign * reduced[i][n_cols]
    basis = []
    for free in free_cols:
        direction = [zero] * n_cols
        direction[free] = den + zero
        for i, col in enumerate(pivots):
            direction[col] = -sign * reduced[i][free]
        basis.append(tuple(direction))
    return LinearSolution("family" if free_cols else "unique", pivots, den,
                          tuple(particular), tuple(basis)), det


def solve_linear_system(a_rows, rhs) -> LinearSolution:
    """Solve A x = b, classifying the solution set exactly when possible.

    The particular solution and the basis come as numerators over one
    positive denominator, integers over the last pivot for rational input
    and the values over 1 otherwise; `solution` and `basis` are built
    from them when read (see `LinearSolution`).
    """
    return _solve(a_rows, rhs)[0]


def solve_with_determinant(a_rows, rhs):
    """(solve_linear_system(A, b), determinant of the square A), both from
    the one elimination of (A | b); a float entry in b makes it float."""
    n = len(a_rows)
    if any(len(row) != n for row in a_rows):
        raise ValueError("determinant needs a square matrix")
    solution, det = _solve(a_rows, rhs)
    return solution, det()


def determinant(rows):
    """Determinant, exact over rationals (a Fraction) and Q(sqrt 5); over
    floats the signed product of the largest-magnitude pivots, 0.0 when a
    column has no pivot above the zero threshold. det of [] is 1."""
    return solve_with_determinant(rows, [0] * len(rows))[1]


def matvec(rows, vector):
    return [sum(a * x for a, x in zip(row, vector)) for row in rows]
