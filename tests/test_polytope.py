"""Constraint polytopes: the exact interval rule, Fourier-Motzkin
elimination, the LP wrappers, and the guard that keeps every linear
program behind nbg.polytope."""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nbg
from nbg import PHI, NbgError, polytope
from util import per_row_equalities, region_class


class TestInterval:
    def test_empty(self):
        # t >= 2 and t <= 1
        assert polytope.interval([(-2, [1]), (1, [-1])]) is None

    def test_single_point(self):
        assert polytope.interval([(-1, [1]), (1, [-1])]) == (1, 1)

    def test_proper_interval(self):
        rows = [(Fraction(1, 2), [1]), (3, [-2]), (Fraction(5, 2), [-1])]
        assert polytope.interval(rows) == (Fraction(-1, 2), Fraction(3, 2))

    def test_violated_zero_slope_row(self):
        rows = [(0, [1]), (1, [-1]), (Fraction(-1, 3), [0])]
        assert polytope.interval(rows) is None
        assert polytope.interval(rows, tol=Fraction(1, 2)) == (0, 1)

    def test_float_tolerance(self):
        # a float slope below the zero threshold counts as a flat row
        rows = [(0.0, [1.0]), (1.0, [-1.0]), (-1e-12, [1e-15])]
        assert polytope.interval(rows, tol=1e-9) == (0.0, 1.0)
        # lo exceeds hi, but by less than the tolerance
        assert polytope.interval([(-1.0, [1.0]), (1.0 - 1e-12, [-1.0])],
                                 tol=1e-9) is not None

    def test_int_values_stay_exact(self):
        lo, hi = polytope.interval([(1, [3]), (2, [-3])])
        assert (lo, hi) == (Fraction(-1, 3), Fraction(2, 3))
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)

    def test_one_sided_rows_collapse(self):
        assert polytope.interval([(-1, [1]), (-3, [1])]) == (3, 3)

    def test_rows_bounding_neither_side(self):
        # every t satisfies these rows, so no interval describes them
        for rows in ([(1, [0])], [(0, [0]), (2, [0.0])], []):
            with pytest.raises(ValueError, match="neither side"):
                polytope.interval(rows)
        # a violated flat row still empties the region
        assert polytope.interval([(-1, [0])]) is None
        assert polytope.interval([(1, [0]), (-1, [0])]) is None


class TestLinearPrograms:
    # triangle t1, t2 >= 0, t1 + t2 <= 1
    TRIANGLE = [(0, [1, 0]), (0, [0, 1]), (1, [-1, -1])]

    def test_feasible(self):
        empty = self.TRIANGLE + [(-2, [1, 1])]
        assert polytope.feasible(self.TRIANGLE)
        assert not polytope.feasible(empty)
        assert polytope.minimize(self.TRIANGLE, [0, 0]) is not None
        assert polytope.minimize(empty, [0, 0]) is None
        # float rows take the LP, flat rows the zero-slope rule
        assert polytope.feasible([(float(v), [float(c) for c in coefs])
                                  for v, coefs in self.TRIANGLE])
        assert not polytope.feasible([(-1, [0, 0])])

    def test_implicit_equalities(self):
        assert polytope.implicit_equalities(self.TRIANGLE) == []
        # t1 + t2 <= 0 pins the triangle to its corner (0, 0)
        corner = self.TRIANGLE + [(0, [-1, -1])]
        assert polytope.implicit_equalities(corner) == [0, 1, 3]
        # an unbounded region, and a flat row that holds at zero
        assert polytope.implicit_equalities(self.TRIANGLE[:2] + [(0, [0, 0])]) == [2]
        assert polytope.implicit_equalities(self.TRIANGLE + [(-2, [1, 1])]) is None

    def test_a_failed_lp_is_decided_by_elimination(self):
        # HiGHS can end with neither a solution nor a proof of
        # infeasibility (status 4, "model_status Unknown")
        def floats(rows):
            return [(float(v), [float(c) for c in coefs]) for v, coefs in rows]

        corner = self.TRIANGLE + [(0, [-1, -1])]
        failed = mock.Mock(return_value=SimpleNamespace(status=4))
        with mock.patch("scipy.optimize.linprog", failed):
            assert polytope.implicit_equalities(corner) == [0, 1, 3]
            assert polytope.implicit_equalities(floats(corner)) == [0, 1, 3]
            assert polytope.implicit_equalities(floats(self.TRIANGLE)) == []
            assert polytope.implicit_equalities(floats(self.TRIANGLE + [(-2, [1, 1])])) is None
            with pytest.raises(NbgError, match="elimination passed 200 rows"):
                polytope.implicit_equalities(cap_rows(random.Random(3)))
        assert failed.call_count == 5

    def test_minimize_reports_the_minimiser(self):
        value, t = polytope.minimize(self.TRIANGLE, [1.0, -1.0])
        assert value == pytest.approx(-1.0)
        assert list(t) == pytest.approx([0.0, 1.0])


small = st.integers(min_value=-6, max_value=6)
positive = st.integers(min_value=1, max_value=6)


@st.composite
def family_rows(draw):
    """One-parameter rows shaped like a support family's: bounded on both
    sides, plus a few flat rows."""
    lows = draw(st.lists(st.tuples(small, positive), min_size=1, max_size=4))
    highs = draw(st.lists(st.tuples(small, positive), min_size=1, max_size=4))
    flats = draw(st.lists(small, max_size=2))
    rows = [(v, [s]) for v, s in lows] + [(v, [-s]) for v, s in highs]
    rows += [(v, [0]) for v in flats]
    return draw(st.permutations(rows))


@settings(max_examples=150)
@given(family_rows())
def test_interval_agrees_with_lp(rows):
    bounds = polytope.interval(rows)
    assert (bounds is not None) == (polytope.minimize(rows, [0]) is not None)
    assert (bounds is not None) == polytope.feasible(rows)
    # both sides are bounded, so a region is full-dimensional exactly
    # when its interval has positive length
    expected = ("empty" if bounds is None
                else "full" if bounds[0] < bounds[1] else "pinched")
    assert polytope._fourier_motzkin(rows) == expected
    assert region_class(rows) == expected
    if bounds is not None:
        for t in bounds:
            assert isinstance(t, Fraction)
            assert all(value + coefs[0] * t >= 0 for value, coefs in rows)


def division_interval(rows, tol):
    """The interval rule that `polytope.interval` used on float and
    Q(sqrt 5) rows before it kept bounds as pairs: each bound -value/slope
    divided out at once and compared as a value."""
    lo = hi = None
    for value, (slope,) in rows:
        if polytope._is_zero(slope):
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
    if lo - hi > tol:
        return None
    return lo, hi


quadratic = st.builds(lambda p, q: p + q * PHI, small, small)


@st.composite
def one_parameter_rows(draw, scalars):
    rows = draw(st.lists(st.tuples(scalars, scalars), min_size=1, max_size=7))
    assume(any(slope != 0 for _, slope in rows))
    return [(value, [slope]) for value, slope in rows]


@settings(max_examples=200)
@given(one_parameter_rows(quadratic), st.sampled_from([0, Fraction(1, 2), 1]))
def test_pair_rule_matches_division_on_quadratic_rows(rows, tol):
    bounds = polytope.interval(rows, tol)
    expected = division_interval(rows, tol)
    assert bounds == expected
    if bounds is not None:
        assert [type(t) for t in bounds] == [type(t) for t in expected]


@settings(max_examples=200)
@given(one_parameter_rows(small.map(float)))
def test_pair_rule_matches_division_on_small_integer_float_rows(rows):
    # the cross products of small integers are exact floats, and the two
    # rules divide the same end points
    bounds = polytope.interval(rows, 0)
    assert bounds == division_interval(rows, 0)
    if bounds is not None:
        assert all(type(t) is float for t in bounds)


entry = st.one_of(small, st.fractions(min_value=-6, max_value=6,
                                      max_denominator=4))


@st.composite
def planted_rows(draw):
    """Rows in 1 to 4 parameters with planted implicit equalities: a row
    next to its negation, and a row that is minus the sum of two others."""
    dim = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(entry, st.lists(entry, min_size=dim, max_size=dim))
    rows = draw(st.lists(row, max_size=7))
    if draw(st.booleans()):
        value, coefs = draw(row)
        rows += [(value, coefs), (-value, [-c for c in coefs])]
    if draw(st.booleans()):
        (v1, c1), (v2, c2) = draw(row), draw(row)
        rows += [(v1, c1), (v2, c2),
                 (-v1 - v2, [-a - b for a, b in zip(c1, c2)])]
    if not rows:
        rows = [draw(row)]
    return dim, draw(st.permutations(rows))


def with_solver_noise(rows):
    """`implicit_equalities` with every y HiGHS returns moved 1e-7 towards
    1/2, the slack its default feasibility tolerance allows."""
    import scipy.optimize

    linprog = scipy.optimize.linprog

    def noisy(*args, **kwargs):
        res = linprog(*args, **kwargs)
        if res.status == 0:
            ys = res.x[-len(rows):]
            ys += 1e-7 * np.sign(0.5 - ys)
        return res

    with mock.patch.object(scipy.optimize, "linprog", noisy):
        return polytope.implicit_equalities(rows)


def check_against_highs(rows):
    """Every verdict on `rows` against the HiGHS oracles. Returns the
    region's class and the implicit equalities found."""
    expected = region_class(rows)
    if polytope._rational(rows):
        assert polytope._fourier_motzkin(rows) in (None, expected)
    assert polytope.feasible(rows) == (expected != "empty")
    found = polytope.implicit_equalities(rows)
    assert (found is None) == (expected == "empty")
    if found is not None:
        assert found == per_row_equalities(rows)
    return expected, found


@settings(max_examples=200, deadline=None)
@given(planted_rows())
# a pinched region on which HiGHS reports status 4 ("model_status
# Unknown"), so its rows and their float copy are decided by elimination
@example((3, [(0, [0, -1, 0]), (0, [1, -1, 0]), (2, [-1, 1, -1]), (0, [0, -1, 0]),
              (-1, [-1, -4, 2]), (5, [-1, 2, 0]), (0, [-1, 1, 2]), (1, [-1, 1, -1]),
              (-1, [1, -1, 1])]))
def test_implicit_equalities_match_the_per_row_rule(drawn):
    _, rows = drawn
    expected, found = check_against_highs(rows)
    assert with_solver_noise(rows) == found
    # a float copy of every region takes the LP, empty and full ones too
    floats = [(float(value), [float(c) for c in coefs]) for value, coefs in rows]
    assert check_against_highs(floats) == (expected, found)
    assert with_solver_noise(floats) == found


def cap_rows(rng, pinned=False):
    """16 rows in 6 parameters with 8 positive and 8 negative coefficients
    in every column, which grow the first elimination step to 64 rows and
    the second past the cap; `pinned` makes row 1 the negation of row 0."""
    columns = [rng.sample([rng.randint(1, 6) for _ in range(8)]
                          + [-rng.randint(1, 6) for _ in range(8)], 16)
               for _ in range(6)]
    rows = [(rng.randint(-2, 6), [column[i] for column in columns])
            for i in range(16)]
    if pinned:
        value, coefs = rows[0]
        rows[1] = (-value, [-c for c in coefs])
    return rows


def test_row_cap_leaves_the_verdict_to_the_lp():
    rng = random.Random(3)
    verdicts = set()
    for k in range(6):
        rows = cap_rows(rng, pinned=k % 2)
        assert polytope._fourier_motzkin(rows) is None
        verdicts.add(check_against_highs(rows)[0])
    assert verdicts == {"empty", "full", "pinched"}


class TestSingleLpSite:
    def test_linprog_only_in_polytope(self):
        package = Path(nbg.__file__).parent
        users = sorted(path.name for path in package.glob("*.py")
                       if "linprog" in path.read_text(encoding="utf-8"))
        assert users == ["polytope.py"]

    def test_import_leaves_scipy_optimize_unloaded(self):
        src = str(Path(nbg.__file__).parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import nbg; "
                "print('scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_import_loads_no_scipy_module(self):
        package = Path(nbg.__file__).parent
        users = sorted(path.name for path in package.glob("*.py")
                       if "scipy" in path.read_text(encoding="utf-8"))
        assert users == ["polytope.py"]
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import nbg.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code, str(package.parent)],
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]"
