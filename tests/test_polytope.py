"""Constraint polytopes: the exact interval rule, region vertices, the
implicit equalities that Fourier-Motzkin elimination names, the
implicit-equality LP, and the guard that keeps the one linear program
behind nbg.polytope."""

import ast
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
from util import lp_minimum, per_row_equalities, region_class


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

    def test_float_slopes_are_zero_relative_to_their_rows(self):
        # 0 <= t <= 1 in rows of size 2^-50: no slope is small next to
        # the others, and a slope below 1e-12 of theirs is zero
        tiny = 2.0 ** -50
        rows = [(0.0, [tiny]), (tiny, [-tiny])]
        assert polytope.interval(rows) == (0.0, 1.0)
        assert polytope.interval(rows + [(-1e-20, [1e-13 * tiny])], tol=1e-9) == (0.0, 1.0)

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


# triangle t1, t2 >= 0, t1 + t2 <= 1
TRIANGLE = [(0, [1, 0]), (0, [0, 1]), (1, [-1, -1])]


class TestVertices:
    def test_triangle(self):
        found = list(polytope.vertices(TRIANGLE))
        assert found == [(0, 0), (0, 1), (1, 0)]
        assert all(type(t) in (int, Fraction) for vertex in found for t in vertex)

    def test_pinched_region(self):
        # t1 + t2 <= 0 pins the triangle to its corner
        assert list(polytope.vertices(TRIANGLE + [(0, [-1, -1])])) == [(0, 0)]

    def test_empty_region(self):
        assert list(polytope.vertices(TRIANGLE + [(-2, [1, 1])])) == []

    def test_degenerate_vertex_is_yielded_once(self):
        # t1 >= t2 makes three rows tight at the origin
        rows = TRIANGLE + [(0, [1, -1])]
        assert list(polytope.vertices(rows)) == [
            (0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 2))]

    def test_float_rows_hold_within_the_slack(self):
        # t1 >= 0.1, t2 >= 0.2, t1 + t2 <= 0.3: one point, where
        # 0.3 - (0.1 + 0.2) rounds to -5.6e-17
        rows = [(-0.1, [1.0, 0.0]), (-0.2, [0.0, 1.0]), (0.3, [-1.0, -1.0])]
        assert list(polytope.vertices(rows)) == []
        found = list(polytope.vertices(rows, 1e-12))
        assert found
        for vertex in found:
            assert vertex == pytest.approx((0.1, 0.2), abs=1e-15)

    def test_quadratic_rows(self):
        rows = TRIANGLE[:2] + [(PHI, [-1, -1])]
        assert list(polytope.vertices(rows)) == [(0, 0), (0, PHI), (PHI, 0)]


class TestLinearPrograms:
    def test_implicit_equalities(self):
        assert polytope.implicit_equalities(TRIANGLE) == []
        # t1 + t2 <= 0 pins the triangle to its corner (0, 0)
        corner = TRIANGLE + [(0, [-1, -1])]
        assert polytope.implicit_equalities(corner) == [0, 1, 3]
        # an unbounded region, and a flat row that holds at zero
        assert polytope.implicit_equalities(TRIANGLE[:2] + [(0, [0, 0])]) == [2]
        assert polytope.implicit_equalities(TRIANGLE + [(-2, [1, 1])]) is None

    def test_rows_with_large_integer_entries_are_scaled_for_the_lp(self):
        # the rows of a pinched face of an exact game with denominators 29
        # and 39, each D * den times its row in t: the segment t2 = 0,
        # 0 <= t1 <= 1, which HiGHS reads as empty on the unscaled rows
        big = 379610664429672
        rows = [(big, [-big, 641411122657032]), (0, [big, 0]), (0, [0, 0]),
                (0, [0, -1021021787086704]), (0, [0, big]), (0, [0, 0])]
        # every entry is below 2^53, so the float copy is the same region,
        # and it takes the LP
        floats = [(float(value), [float(c) for c in coefs]) for value, coefs in rows]
        assert polytope.implicit_equalities(floats) == [2, 3, 4, 5]
        # the int rows are decided by elimination, with no LP
        with mock.patch("scipy.optimize.linprog", side_effect=AssertionError):
            assert polytope.implicit_equalities(rows) == [2, 3, 4, 5]

    def test_a_flat_row_of_rounding_noise_is_not_scaled_up(self):
        # a float family's rows, the last a zero-slope row whose value is
        # rounding noise below zero: scaled to its own size it would read
        # as a violated row and empty the region
        rows = [(0.2, [0.0, 0.0]), (0.49999999999999994, [0.0, 0.0]),
                (0.30000000000000004, [-1.0, -1.0]), (0.0, [1.0, 0.0]), (0.0, [0.0, 1.0]),
                (-2.7755575615628914e-17, [0.0, 0.0])]
        assert polytope.implicit_equalities(rows, 1e-9) == [5]

    def test_a_failed_lp_is_decided_by_elimination(self):
        # HiGHS can end with neither a solution nor a proof of
        # infeasibility (status 4, "model_status Unknown")
        def floats(rows):
            return [(float(v), [float(c) for c in coefs]) for v, coefs in rows]

        corner = TRIANGLE + [(0, [-1, -1])]
        failed = mock.Mock(return_value=SimpleNamespace(status=4))
        # the exact corner is decided by elimination and never reaches
        # the LP; the float rows and the exact rows past the cap do
        with mock.patch("scipy.optimize.linprog", failed):
            assert polytope.implicit_equalities(corner) == [0, 1, 3]
            assert polytope.implicit_equalities(floats(corner)) == [0, 1, 3]
            assert polytope.implicit_equalities(floats(TRIANGLE)) == []
            assert polytope.implicit_equalities(floats(TRIANGLE + [(-2, [1, 1])])) is None
            with pytest.raises(NbgError, match="elimination passed 200 rows"):
                polytope.implicit_equalities(cap_rows(random.Random(3)))
        assert failed.call_count == 4


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
    assert (bounds is not None) == (lp_minimum(rows, [0]) is not None)
    assert (bounds is not None) == (next(polytope.vertices(rows), None) is not None)
    # both sides are bounded, so a region is full-dimensional exactly
    # when its interval has positive length
    expected = ("empty" if bounds is None
                else "full" if bounds[0] < bounds[1] else "pinched")
    assert region_class(rows) == expected
    assert polytope._fourier_motzkin(rows) == (
        "empty" if bounds is None else per_row_equalities(rows))
    if bounds is not None:
        for t in bounds:
            assert isinstance(t, Fraction)
            assert all(value + coefs[0] * t >= 0 for value, coefs in rows)


def division_interval(rows, tol):
    """The interval rule that `polytope.interval` used on float and
    Q(sqrt 5) rows before it kept bounds as pairs: each bound -value/slope
    divided out at once and compared as a value."""
    lo = hi = None
    is_zero = polytope._zero_test(rows)
    for value, (slope,) in rows:
        if is_zero(slope):
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
    equalities = "empty" if expected == "empty" else per_row_equalities(rows)
    if polytope._rational(rows):
        assert polytope._fourier_motzkin(rows) in (None, equalities)
    found = polytope.implicit_equalities(rows)
    assert found == (None if expected == "empty" else equalities)
    return expected, found


@settings(max_examples=200, deadline=None)
@given(planted_rows())
# a pinched region on which HiGHS reports status 4 ("model_status
# Unknown"), so its float copy, like its rows, is decided by elimination
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


@pytest.mark.parametrize("kind, n", [("path", 8), ("cycle", 9)])
def test_elimination_names_the_equalities_of_every_pinched_family_region(kind, n):
    # exact pinched regions are decided by elimination alone; it names the
    # rows that the HiGHS per-row oracle finds on each region the solver
    # meets (path n = 7 and cycle n = 8 at alpha = 1 meet none, these
    # meet 10 and 39)
    answers = []
    decide = polytope.implicit_equalities

    def recorded(rows, tol=0):
        answers.append((rows, decide(rows, tol)))
        return answers[-1][1]

    with mock.patch.object(polytope, "implicit_equalities", recorded):
        nbg.solve_affine_by_supports(nbg.make_family(kind, Fraction(1), n=n))
    pinched = [(rows, found) for rows, found in answers
               if found and any(any(rows[i][1]) for i in found)]
    assert len(pinched) == {"path": 10, "cycle": 39}[kind]
    for rows, found in pinched:
        assert per_row_equalities(rows) == found


def imported_packages(path):
    """The top-level packages that the module at `path` imports anywhere."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    return {module.split(".")[0] for module in modules}


class TestSingleLpSite:
    def test_linprog_only_in_polytope(self):
        package = Path(nbg.__file__).parent
        users = sorted(path.name for path in package.glob("*.py")
                       if "linprog" in path.read_text(encoding="utf-8"))
        assert users == ["polytope.py"]
        # one call, in implicit_equalities
        tree = ast.parse((package / "polytope.py").read_text(encoding="utf-8"))
        callers = [function.name for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef)
                   for node in ast.walk(function)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "linprog"]
        assert callers == ["implicit_equalities"]

    def test_equilibrium_imports_neither_numpy_nor_scipy(self):
        path = Path(nbg.__file__).parent / "equilibrium.py"
        assert not imported_packages(path) & {"numpy", "scipy"}

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
        # nor any numpy module, which scipy would bring
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import nbg.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
        out = subprocess.run([sys.executable, "-c", code, str(package.parent)],
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_exact_solve_loads_no_scipy_module(self):
        # path alpha = 1, n = 8 meets 25 regions of two or more parameters,
        # 10 of them pinched, and elimination decides each of them
        package = Path(nbg.__file__).parent
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import nbg; "
                "from fractions import Fraction; "
                "nbg.solve_affine_by_supports(nbg.make_family('path', Fraction(1), n=8)); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code, str(package.parent)],
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_no_module_imports_numpy(self):
        for path in Path(nbg.__file__).parent.glob("*.py"):
            assert "numpy" not in imported_packages(path), path.name
