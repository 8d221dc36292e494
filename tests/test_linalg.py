"""Exact linear algebra against numpy, a cofactor-expansion oracle and a
textbook Fraction elimination."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nbg import (PHI, QuadExt, determinant, linalg, matvec, rref, solve_linear_system,
                 solve_with_determinant)
from util import cofactor_determinant, gauss_jordan_bareiss


def random_fraction_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 4))
             for _ in range(cols)] for _ in range(rows)]


class TestRref:
    def test_identity_fixed_point(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        reduced, pivots = rref(rows)
        assert reduced == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert pivots == [0, 1, 2]

    def test_random_exact_matrices_have_correct_rank(self):
        rng = random.Random(3)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            rows = random_fraction_matrix(rng, m, n)
            reduced, pivots = rref(rows)
            rank = np.linalg.matrix_rank(
                np.array([[float(v) for v in row] for row in rows]))
            assert len(pivots) == rank
            # pivot columns carry a unit vector
            for k, col in enumerate(pivots):
                for i in range(m):
                    assert reduced[i][col] == (1 if i == k else 0)

    def test_row_space_is_preserved(self):
        rng = random.Random(4)
        for _ in range(30):
            rows = random_fraction_matrix(rng, 3, 4)
            reduced, _ = rref(rows)
            a = np.array([[float(v) for v in row] for row in rows])
            b = np.array([[float(v) for v in row] for row in reduced])
            stacked = np.vstack([a, b])
            assert np.linalg.matrix_rank(stacked) == pytest.approx(
                np.linalg.matrix_rank(a))

    def test_mixed_int_and_fraction_rows_stay_exact(self):
        # regression: int/int pivots must not decay to float division
        rows = [[1, 1, Fraction(1, 2)], [0, 1, 1]]
        reduced, pivots = rref(rows)
        for row in reduced:
            for value in row:
                assert isinstance(value, (int, Fraction))
        assert pivots == [0, 1]

    def test_float_matrices_use_scaled_zero_threshold(self):
        rows = [[1e8, 2e8], [1e8, 2e8 + 1e-9]]
        _, pivots = rref(rows)
        assert len(pivots) == 1


class TestSolve:
    def test_unique_solution_matches_numpy(self):
        rng = random.Random(9)
        count = 0
        while count < 40:
            n = rng.randint(1, 5)
            a = random_fraction_matrix(rng, n, n)
            if determinant([list(r) for r in a]) == 0:
                continue
            count += 1
            x_expected = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(n)]
            rhs = matvec(a, x_expected)
            result = solve_linear_system(a, rhs)
            assert result.status == "unique"
            assert list(result.solution) == x_expected
            assert all(isinstance(v, Fraction) for v in result.solution)

    def test_family_basis_spans_the_kernel(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(2, 5)
            m = rng.randint(1, n - 1)
            a = random_fraction_matrix(rng, m, n)
            x_any = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rhs = matvec(a, x_any)
            result = solve_linear_system(a, rhs)
            assert result.status == "family"
            rank = np.linalg.matrix_rank(
                np.array([[float(v) for v in row] for row in a]))
            assert result.dimension == n - rank
            assert len(result.basis) == result.dimension
            # particular solution solves the system, basis vectors kill it
            assert matvec(a, list(result.solution)) == rhs
            for vec in result.basis:
                assert all(v == 0 for v in matvec(a, list(vec)))

    def test_inconsistent_system(self):
        a = [[1, 1], [2, 2]]
        result = solve_linear_system(a, [1, 3])
        assert result.status == "none"
        assert result.solution is None

    def test_overdetermined_consistent(self):
        a = [[1, 0], [0, 1], [1, 1]]
        result = solve_linear_system(a, [2, 3, 5])
        assert result.status == "unique"
        assert list(result.solution) == [2, 3]

    def test_quadext_entries(self):
        a = [[PHI, 1], [1, -1]]
        rhs = [1, 0]
        result = solve_linear_system(a, rhs)
        assert result.status == "unique"
        x = list(result.solution)
        assert PHI * x[0] + x[1] == 1
        assert x[0] - x[1] == 0

    @pytest.mark.parametrize("r", [1.0, 2.0 ** 40])
    def test_float_pivots_are_judged_at_the_coefficient_scale(self, r):
        # the support system of vertices 1 and 2 of float path alpha = 0.5,
        # n = 3, in (x_1, x_2, c) with total mass r: a large r must not
        # make the unit pivots count as zero
        a = [[1.0, -0.5, -1.0], [-0.5, 1.0, -1.0], [1.0, 1.0, 0.0]]
        result = solve_linear_system(a, [0.0, 0.0, r])
        assert result.status == "unique"
        assert result.solution == (r / 2, r / 2, r / 4)

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -60])
    def test_float_residuals_are_judged_at_the_right_hand_side_scale(self, scale):
        # x = scale and x = 2 scale: a small right-hand side must not make
        # the residual count as zero
        assert solve_linear_system([[1.0], [1.0]], [scale, 2 * scale]).status == "none"

    def test_float_systems_match_numpy(self):
        rng = random.Random(33)
        for _ in range(30):
            n = rng.randint(2, 5)
            a = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
            if abs(np.linalg.det(np.array(a))) < 1e-6:
                continue
            rhs = [rng.uniform(-3, 3) for _ in range(n)]
            result = solve_linear_system([list(r) for r in a], list(rhs))
            assert result.status == "unique"
            expected = np.linalg.solve(np.array(a), np.array(rhs))
            for got, want in zip(result.solution, expected):
                assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


class TestDeterminant:
    def test_against_cofactor_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_fraction_matrix(rng, n, n)
            assert determinant([list(r) for r in a]) == cofactor_determinant(a)

    def test_mixed_int_fraction_exact(self):
        a = [[1, Fraction(1, 2)], [2, 1]]
        value = determinant(a)
        assert value == 0
        assert not isinstance(value, float)

    def test_quadext_determinant(self):
        # det [[phi, 1], [1, phi]] = phi^2 - 1 = -phi
        a = [[PHI, 1], [1, PHI]]
        assert determinant(a) == -PHI

    def test_float_matches_numpy(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(1, 5)
            a = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
            got = determinant([list(r) for r in a])
            assert got == pytest.approx(np.linalg.det(np.array(a)),
                                        rel=1e-8, abs=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            determinant([[1, 2, 3], [4, 5, 6]])


def reference_rref(rows):
    """Gauss-Jordan over Fractions with first-nonzero pivots: the unique
    reduced row echelon form, found independently of nbg.linalg."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(len(m[0])):
        row = len(pivots)
        best = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if best is None:
            continue
        m[row], m[best] = m[best], m[row]
        m[row] = [v / m[row][col] for v in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
    return m, pivots


scalars = st.one_of(st.integers(-9, 9),
                    st.fractions(min_value=-9, max_value=9, max_denominator=60))


@st.composite
def matrices(draw, max_rows=5, max_cols=5, entries=scalars, square=False):
    """Matrices of `entries` (by default mixed int/Fraction); some rows are
    combinations of the rows above them, so rank deficiency is common."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = n_rows if square else draw(st.integers(1, max_cols))
    m = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    for i in range(1, n_rows):
        if draw(st.booleans()):
            coefs = [draw(entries) for _ in range(i)]
            m[i] = [sum(c * m[k][j] for k, c in enumerate(coefs)) for j in range(n_cols)]
    return m


@settings(max_examples=150)
@given(matrices(), st.data())
def test_consistent_rational_systems(a, data):
    n_cols = len(a[0])
    x0 = data.draw(st.lists(scalars, min_size=n_cols, max_size=n_cols))
    rhs = matvec(a, x0)
    result = solve_linear_system(a, rhs)
    _, pivots = reference_rref(a)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    assert result.status == ("family" if free_cols else "unique")
    assert result.dimension == n_cols - len(pivots)
    assert matvec(a, list(result.solution)) == rhs
    # free columns hold the literal 0 and 1, pivot columns Fractions
    assert [result.solution[c] for c in free_cols] == [0] * len(free_cols)
    assert all(type(result.solution[c]) is int for c in free_cols)
    assert all(type(result.solution[c]) is Fraction for c in pivots)
    for free, vec in zip(free_cols, result.basis):
        assert all(v == 0 for v in matvec(a, list(vec)))
        assert [vec[c] for c in free_cols] == [int(c == free) for c in free_cols]
        assert all(type(vec[c]) is int for c in free_cols)
        assert all(type(vec[c]) is Fraction for c in pivots)


@settings(max_examples=150)
@given(matrices(), st.data())
def test_inconsistent_rational_systems(a, data):
    rhs = data.draw(st.lists(scalars, min_size=len(a), max_size=len(a)))
    coefs = data.draw(st.lists(scalars, min_size=len(a), max_size=len(a)))
    # a combination of the rows whose right-hand side is off by one
    a = a + [[sum(c * row[j] for c, row in zip(coefs, a)) for j in range(len(a[0]))]]
    rhs = rhs + [sum(c * b for c, b in zip(coefs, rhs)) + 1]
    result = solve_linear_system(a, rhs)
    assert result.status == "none"
    assert result.solution is None and result.basis == ()


@settings(max_examples=150)
@given(matrices(), st.randoms(use_true_random=False))
def test_rref_is_the_unique_reduced_form(a, rng):
    reduced, pivots = rref(a)
    assert (reduced, pivots) == reference_rref(a)
    assert all(type(v) is Fraction for row in reduced for v in row)
    assert rref(reduced) == (reduced, pivots)
    # row swaps and nonzero row scalings keep the row space
    scales = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 60)) for _ in a]
    shuffled = [[v * scale for v in row] for row, scale in zip(rng.sample(a, len(a)), scales)]
    assert rref(shuffled) == (reduced, pivots)


@st.composite
def elimination_matrices(draw):
    """Rational matrices of up to 9 rows and 10 columns, all ints or with
    Fractions, dense or three entries in five zero. A row may be the sum
    of two others, and its last entry then one more, which makes the last
    column an inconsistent right-hand side."""
    n_rows, n_cols = draw(st.integers(1, 9)), draw(st.integers(1, 10))
    values = st.integers(-9, 9) if draw(st.booleans()) else scalars
    sparse = draw(st.booleans())
    m = [[0 if sparse and draw(st.integers(0, 4)) < 3 else draw(values)
          for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n_rows)))[:3]
        m[k] = [a + b for a, b in zip(m[i], m[j])]
        m[k][-1] += draw(st.integers(0, 1))
    return m


@settings(max_examples=300)
@given(elimination_matrices())
# the row swapped onto pivot row 2 skipped the two pivots before it
@example([[2, 1, 0, 3, 1], [4, 5, 1, 1, 2], [6, 3, 0, 9, 4], [0, 0, 0, 7, 5]])
# the systems (A | b) of the negative-last-pivot test below
@example([[-3, 2]])
@example([[1, 2, 1], [3, 4, 1]])
@example([[1, 2, 1, 1], [3, 4, 1, Fraction(1, 2)]])
def test_bareiss_matches_the_gauss_jordan_oracle(m):
    expected = gauss_jordan_bareiss(m)
    assert linalg._bareiss([list(row) for row in m]) == expected
    if all(type(v) is int for row in m for v in row):
        assert linalg._bareiss([list(row) for row in m], True) == expected
    reduced, pivots, last, _, _ = expected
    assert rref(m) == ([[Fraction(v, last) if i < len(pivots) else Fraction(0) for v in row]
                        for i, row in enumerate(reduced)], pivots)
    k = min(len(m), len(m[0]))
    square = [row[:k] for row in m[:k]]
    _, pivots, last, sign, scale = gauss_jordan_bareiss(square)
    assert determinant(square) == (Fraction(sign * last, scale) if len(pivots) == k else 0)


quadratic_scalars = st.one_of(scalars, st.sampled_from([PHI, -PHI, 2 * PHI, PHI * PHI]),
                              st.builds(lambda p, q: p * PHI + q, scalars, scalars))


@settings(max_examples=60)
@given(matrices(max_rows=4, max_cols=4, entries=quadratic_scalars), st.data())
def test_consistent_quadratic_systems(a, data):
    x0 = data.draw(st.lists(quadratic_scalars, min_size=len(a[0]), max_size=len(a[0])))
    rhs = matvec(a, x0)
    result = solve_linear_system(a, rhs)
    assert result.status in ("unique", "family")
    assert matvec(a, list(result.solution)) == rhs
    for vec in result.basis:
        assert all(v == 0 for v in matvec(a, list(vec)))
    reduced, pivots = rref(a)
    assert result.dimension == len(a[0]) - len(pivots)
    assert rref(reduced) == (reduced, pivots)


#: multiples of 1/4 are exact binary floats, so float combinations of rows
#: are exactly singular and a nonsingular matrix keeps its pivots far above
#: the zero threshold
float_scalars = st.integers(-36, 36).map(lambda k: k / 4)
ENTRY_KINDS = {"rational": scalars, "quadratic": quadratic_scalars, "float": float_scalars}


@pytest.mark.parametrize("kind", ["rational", "quadratic"])
@settings(max_examples=40)
@given(data=st.data())
def test_determinant_is_the_alternating_cofactor_expansion(kind, data):
    a = data.draw(matrices(max_rows=4, entries=ENTRY_KINDS[kind], square=True))
    det = determinant(a)
    assert det == cofactor_determinant(a)
    if len(a) > 1:
        i, j = data.draw(st.lists(st.integers(0, len(a) - 1), min_size=2,
                                  max_size=2, unique=True))
        swapped = list(a)
        swapped[i], swapped[j] = a[j], a[i]
        assert determinant(swapped) == -det


@pytest.mark.parametrize("kind", ["rational", "quadratic", "float"])
@settings(max_examples=40)
@given(data=st.data())
def test_determinant_vanishes_exactly_when_the_solve_is_not_unique(kind, data):
    entries = ENTRY_KINDS[kind]
    a = data.draw(matrices(max_rows=4, entries=entries, square=True))
    rhs = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    det = determinant(a)
    solution = solve_linear_system(a, rhs)
    assert (det == 0) == (solution.status != "unique")
    assert solve_with_determinant(a, rhs) == (solution, det)
    if kind == "float":
        assert type(det) is float


def test_solve_with_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        solve_with_determinant([[1, 2, 3], [4, 5, 6]], [1, 2])
    assert solve_with_determinant([], []) == (solve_linear_system([], []), 1)


def test_matvec():
    assert matvec([[1, 2], [3, 4]], [5, 6]) == [17, 39]
    assert matvec([], []) == []


def rebuilt_from_numerators(nums, den):
    return tuple(Fraction(v, den) for v in nums)


@settings(max_examples=200)
@given(matrices(), st.booleans(), st.data())
def test_rational_solutions_hand_over_integer_numerators(a, consistent, data):
    n_cols = len(a[0])
    if consistent:
        rhs = matvec(a, data.draw(st.lists(scalars, min_size=n_cols, max_size=n_cols)))
    else:
        rhs = data.draw(st.lists(scalars, min_size=len(a), max_size=len(a)))
    result = solve_linear_system(a, rhs)
    if result.status == "none":
        assert result.numerators is result.solution is None
        assert result.basis_numerators == result.basis == ()
        return
    den = result.denominator
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in result.numerators)
    assert all(type(v) is int for vec in result.basis_numerators for v in vec)
    assert len(result.basis_numerators) == result.dimension
    # the numerators over the denominator are the solution and the basis
    assert rebuilt_from_numerators(result.numerators, den) == result.solution
    assert tuple(rebuilt_from_numerators(vec, den) for vec in result.basis_numerators) \
        == result.basis
    # free columns hold 0, or den in their own basis vector: the literals 0 and 1
    _, pivots = reference_rref(a)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    assert [result.numerators[c] for c in free_cols] == [0] * len(free_cols)
    assert all(type(result.solution[c]) is int for c in free_cols)
    for free, nums, vec in zip(free_cols, result.basis_numerators, result.basis):
        assert [nums[c] for c in free_cols] == [den * (c == free) for c in free_cols]
        assert [vec[c] for c in free_cols] == [int(c == free) for c in free_cols]
        assert all(type(vec[c]) is int for c in free_cols)


@pytest.mark.parametrize("a, rhs", [([[-3]], [2]),
                                    ([[1, 2], [3, 4]], [1, 1]),
                                    ([[1, 2, 1], [3, 4, 1]], [1, Fraction(1, 2)])])
def test_a_negative_last_pivot_moves_its_sign_onto_the_numerators(a, rhs):
    _, _, last, _, _ = linalg._bareiss([list(row) + [b] for row, b in zip(a, rhs)])
    assert last < 0
    result = solve_linear_system(a, rhs)
    assert result.denominator == -last
    assert rebuilt_from_numerators(result.numerators, result.denominator) == result.solution
    assert matvec(a, list(result.solution)) == rhs
    for nums, vec in zip(result.basis_numerators, result.basis):
        assert rebuilt_from_numerators(nums, result.denominator) == vec
        assert all(v == 0 for v in matvec(a, list(vec)))


@pytest.mark.parametrize("kind", ["quadratic", "float"])
@settings(max_examples=40)
@given(data=st.data())
def test_float_and_quadratic_solutions_are_their_own_numerators(kind, data):
    entries = ENTRY_KINDS[kind]
    a = data.draw(matrices(max_rows=4, entries=entries))
    rhs = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    # a matrix of rational entries only is solved as a rational one
    if kind == "quadratic":
        rhs[0] = rhs[0] + PHI
        # a drawn -PHI plus a rational cancels the sqrt 5 part
        assume(isinstance(rhs[0], QuadExt))
    result = solve_linear_system(a, rhs)
    assert result == solve_linear_system(a, rhs)
    assert len(result.basis) == result.dimension
    # off the rationals the denominator is 1 and the numerators are the values
    if result.status == "none":
        assert result.numerators is result.solution is None
        assert result.basis_numerators == result.basis == ()
        return
    assert result.denominator == 1
    assert result.numerators == result.solution
    assert result.basis_numerators == result.basis
