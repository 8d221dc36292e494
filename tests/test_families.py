"""Named graph families: closed forms, determinants, rules, scans."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbg import linalg
from nbg import (PHI, EquilibriumFamily, EquilibriumPoint, Game,
                 UnsupportedGameError, bipartite_closed_form, braess_game,
                 check_rules, classify, conjecture_scan, cycle_closed_form,
                 cycle_matrix, determinant, digraph_to_nbg, directed_triangle,
                 family_cost_range, influence_from_triples, is_exact_scalar,
                 make_family, path_closed_form, path_matrix,
                 solve_affine_by_supports, star_closed_form, underlying_graph,
                 uniform_cost_matrix, uniform_cost_solve, verify_equilibrium)
from nbg.games import affine
from util import (cofactor_determinant, contained_in_solution_set,
                  families_of, point_masses, random_affine_symmetric_game,
                  same_equilibrium_set)


class TestMakeFamily:
    def test_path_structure(self):
        game = make_family("path", Fraction(1, 3), n=4)
        assert game.n == 4 and game.r == 1
        assert all(f == affine(1, 0) for f in game.vertex_costs)
        cls = classify(game)
        assert cls.label == "alpha-uniform"
        assert cls.symmetric is True
        assert cls.alpha == Fraction(1, 3)
        graph = underlying_graph(game)
        assert graph.neighbors(0) == [1]
        assert graph.neighbors(1) == [0, 2]
        assert graph.neighbors(3) == [2]

    def test_cycle_wraps_around(self):
        game = make_family("cycle", Fraction(1, 3), n=5)
        graph = underlying_graph(game)
        assert graph.neighbors(0) == [1, 4]
        assert graph.neighbors(4) == [0, 3]

    def test_star_centre_is_last(self):
        game = make_family("star", Fraction(1, 2), n=5)
        graph = underlying_graph(game)
        assert graph.neighbors(4) == [0, 1, 2, 3]
        assert graph.neighbors(0) == [4]

    def test_bipartite_sides(self):
        game = make_family("complete_bipartite", Fraction(1, 4), p=3, q=2)
        assert game.n == 5
        graph = underlying_graph(game)
        for i in range(3):
            assert graph.neighbors(i) == [3, 4]
        for j in (3, 4):
            assert graph.neighbors(j) == [0, 1, 2]

    def test_mass_parameter_passes_through(self):
        game = make_family("path", Fraction(1, 2), r=Fraction(2), n=3)
        assert game.r == 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_family("path", Fraction(1, 2), n=0)
        with pytest.raises(ValueError):
            make_family("cycle", Fraction(1, 2), n=2)
        with pytest.raises(ValueError):
            make_family("complete_bipartite", Fraction(1, 2), p=1, q=2)
        with pytest.raises(ValueError):
            make_family("star", Fraction(1, 2), n=1)
        with pytest.raises(ValueError):
            make_family("clique", Fraction(1, 2), n=3)
        with pytest.raises(ValueError):
            make_family("path", Fraction(-1, 2), n=3)


class TestUniformCostSystem:
    def test_matrix_layout(self):
        alpha = Fraction(1, 3)
        game = make_family("path", alpha, n=3)
        matrix, rhs = uniform_cost_matrix(game)
        assert matrix == (
            (1, alpha, 0, -1),
            (alpha, 1, alpha, -1),
            (0, alpha, 1, -1),
            (1, 1, 1, 0),
        )
        assert rhs == (0, 0, 0, 1)
        assert [list(row) for row in matrix] == path_matrix(3, alpha)

    @pytest.mark.parametrize("alpha", [0, Fraction(1, 4), Fraction(1, 2), 1, 0.3, PHI],
                             ids=["0", "1/4", "1/2", "1", "0.3", "phi"])
    def test_path_and_cycle_matrices_are_uniform_cost_matrices(self, alpha):
        for kind, build, n_min in (("path", path_matrix, 1), ("cycle", cycle_matrix, 3)):
            for n in range(n_min, 12):
                matrix, _ = uniform_cost_matrix(make_family(kind, alpha, n=n))
                assert [list(row) for row in matrix] == build(n, alpha)

    def test_refuses_non_normal_games(self):
        with pytest.raises(UnsupportedGameError):
            uniform_cost_matrix(braess_game(Fraction(1, 2)))
        with pytest.raises(UnsupportedGameError):
            uniform_cost_solve(braess_game(Fraction(1, 2)))

    def test_graph_kind_is_read_off_the_influence_graph(self):
        for kind, n, want in (("path", 1, "path"), ("path", 2, "path"), ("path", 5, "path"),
                              ("cycle", 3, "cycle"), ("cycle", 4, "cycle"),
                              ("star", 4, "general")):
            system = uniform_cost_solve(make_family(kind, Fraction(1, 3), n=n))
            assert system.kind == want
        # a path through the vertices out of order is no labelled path
        game = Game.graphical(3, 1, [affine(1, 0)] * 3, influence_from_triples(
            3, [(0, 2, 1), (2, 0, 1), (2, 1, 1), (1, 2, 1)]))
        assert uniform_cost_solve(game).kind == "general"

    def test_unique_solution_with_pinned_vector(self):
        game = make_family("path", Fraction(1, 4), n=6)
        system = uniform_cost_solve(game)
        assert system.status == "unique"
        assert system.determinant != 0
        assert system.masses == tuple(
            Fraction(k, 76) for k in (15, 11, 12, 12, 11, 15))
        assert system.cost == Fraction(71, 304)
        assert system.nonnegative is True

    def test_singular_inconsistent_system(self):
        game = make_family("path", Fraction(3, 4), n=3)
        system = uniform_cost_solve(game)
        assert system.status == "none"
        assert system.determinant == 0
        assert system.masses is None

    def test_unique_but_negative_solution(self):
        game = make_family("path", Fraction(9, 10), n=3)
        system = uniform_cost_solve(game)
        assert system.status == "unique"
        assert system.masses == (Fraction(-1, 6), Fraction(4, 3), Fraction(-1, 6))
        assert system.cost == Fraction(31, 30)
        assert system.nonnegative is False

    def test_family_solution_satisfies_the_system(self):
        game = make_family("cycle", Fraction(1, 2), n=6)
        system = uniform_cost_solve(game)
        assert system.status == "family"
        assert system.determinant == 0
        assert len(system.directions) == 1
        assert system.nonnegative is True
        vector = list(system.base_masses) + [system.base_cost]
        for row, want in zip(system.matrix, system.rhs):
            assert sum(a * v for a, v in zip(row, vector)) == want
        direction, cost_dir = system.directions[0]
        assert cost_dir == 0
        for row in system.matrix:
            assert sum(a * v for a, v in zip(row, list(direction) + [cost_dir])) == 0


PATH_DETS = {
    2: lambda a: 2 - 2 * a,
    3: lambda a: 3 - 4 * a,
    4: lambda a: 2 * (a * a + a - 1) * (a - 2),
    5: lambda a: (a + 1) * (a - 1) * (a * a + 8 * a - 5),
}

CYCLE_DETS = {
    3: lambda a: 3 * (1 - a) ** 2,
    4: lambda a: 4 * (1 - 2 * a),
    5: lambda a: 5 * (1 - a - a * a) ** 2,
    6: lambda a: 6 * (1 + a) ** 2 * (1 - a) ** 2 * (1 - 2 * a),
}


class TestDeterminants:
    def test_path_polynomials(self):
        for n, poly in PATH_DETS.items():
            for k in range(10):
                alpha = Fraction(k, 7)
                det = determinant(path_matrix(n, alpha))
                assert det == poly(alpha)
                assert det == cofactor_determinant(path_matrix(n, alpha))

    def test_cycle_polynomials(self):
        for n, poly in CYCLE_DETS.items():
            for k in range(10):
                alpha = Fraction(k, 7)
                det = determinant(cycle_matrix(n, alpha))
                assert det == poly(alpha)
                assert det == cofactor_determinant(cycle_matrix(n, alpha))

    def test_golden_ratio_roots(self):
        assert determinant(path_matrix(4, PHI)) == 0
        assert determinant(cycle_matrix(5, PHI)) == 0
        assert determinant(path_matrix(4, Fraction(61803, 100000))) != 0

    def test_size_guards(self):
        with pytest.raises(ValueError):
            path_matrix(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            cycle_matrix(2, Fraction(1, 2))


class TestPathClosedForms:
    def test_odd_paths_at_one_half(self):
        for n in (3, 5, 7):
            closed = path_closed_form(n, Fraction(1, 2))
            assert len(closed) == 1
            point = closed[0]
            share = Fraction(2, n + 1)
            assert point.cost == share
            for i, mass in enumerate(point.x.masses):
                assert mass == (share if i % 2 == 0 else 0)
            game = make_family("path", Fraction(1, 2), n=n)
            assert verify_equilibrium(game, point.x).is_equilibrium
            assert same_equilibrium_set(solve_affine_by_supports(game), closed)

    def test_even_paths_at_one_half(self):
        for n in (4, 6):
            closed = path_closed_form(n, Fraction(1, 2))
            game = make_family("path", Fraction(1, 2), n=n)
            system = uniform_cost_solve(game)
            assert system.status == "unique"
            assert closed[0].x.masses == system.masses
            assert closed[0].cost == system.cost
            assert same_equilibrium_set(solve_affine_by_supports(game), closed)

    def test_ten_vertex_path_pinned_vector(self):
        closed = path_closed_form(10, Fraction(1, 2))
        point = closed[0]
        assert point.x.masses == tuple(
            Fraction(k, 30) for k in (5, 1, 4, 2, 3, 3, 2, 4, 1, 5))
        assert point.cost == Fraction(11, 60)
        game = make_family("path", Fraction(1, 2), n=10)
        assert verify_equilibrium(game, point.x).is_equilibrium
        system = uniform_cost_solve(game)
        assert system.masses == point.x.masses

    def test_alpha_one_remainder_two_gives_family(self):
        closed = path_closed_form(5, Fraction(1))
        assert len(closed) == 1
        family = closed[0]
        assert isinstance(family, EquilibriumFamily)
        assert family.dimension == 1
        assert family.interval == (0, Fraction(1, 2))
        assert family.cost_base == Fraction(1, 2)
        game = make_family("path", Fraction(1), n=5)
        solved = solve_affine_by_supports(game)
        assert contained_in_solution_set(game, solved, closed)

    def test_alpha_one_point_cases_are_contained(self):
        game4 = make_family("path", Fraction(1), n=4)
        closed4 = path_closed_form(4, Fraction(1))
        assert point_masses(closed4) == {(Fraction(1, 2), 0, 0, Fraction(1, 2))}
        solved4 = solve_affine_by_supports(game4)
        assert contained_in_solution_set(game4, solved4, closed4)
        # the solver knows strictly more at alpha = 1: the support-{1,3}
        # equilibrium sits inside one of its families
        extra = (Fraction(1, 2), 0, Fraction(1, 2), 0)
        assert verify_equilibrium(game4, extra).is_equilibrium
        assert any(f.contains(extra) is not None for f in families_of(solved4))
        # exact game, exact clipping: no float may leak into the intervals
        for fam in families_of(solved4):
            assert all(is_exact_scalar(t) for t in fam.interval)

        game6 = make_family("path", Fraction(1), n=6)
        closed6 = path_closed_form(6, Fraction(1))
        assert point_masses(closed6) == {
            (0, Fraction(1, 2), 0, 0, Fraction(1, 2), 0)}
        assert contained_in_solution_set(
            game6, solve_affine_by_supports(game6), closed6)

    def test_covered_coefficients_only(self):
        with pytest.raises(ValueError):
            path_closed_form(4, Fraction(1, 3))
        with pytest.raises(ValueError):
            path_closed_form(0, Fraction(1, 2))


class TestCycleClosedForms:
    def test_odd_cycle_at_one_half_is_uniform(self):
        closed = cycle_closed_form(5, Fraction(1, 2))
        assert len(closed) == 1
        assert closed[0].x.masses == (Fraction(1, 5),) * 5
        assert closed[0].cost == Fraction(2, 5)
        game = make_family("cycle", Fraction(1, 2), n=5)
        assert same_equilibrium_set(solve_affine_by_supports(game), closed)

    def test_even_cycle_at_one_half_is_alternating_family(self):
        closed = cycle_closed_form(6, Fraction(1, 2))
        family = closed[0]
        assert isinstance(family, EquilibriumFamily)
        assert family.interval == (0, Fraction(1, 3))
        assert family.contains((Fraction(1, 6),) * 6) is not None
        game = make_family("cycle", Fraction(1, 2), n=6)
        assert same_equilibrium_set(solve_affine_by_supports(game), closed)

    def test_cycle_at_one_off_multiple_of_three(self):
        closed = cycle_closed_form(4, Fraction(1))
        assert len(closed) == 1
        assert closed[0].x.masses == (Fraction(1, 4),) * 4
        assert closed[0].cost == Fraction(3, 4)
        game = make_family("cycle", Fraction(1), n=4)
        solved = solve_affine_by_supports(game)
        assert contained_in_solution_set(game, solved, closed)
        assert (Fraction(1, 2), 0, Fraction(1, 2), 0) in point_masses(solved)

    def test_cycle_at_one_multiple_of_three(self):
        closed = cycle_closed_form(6, Fraction(1))
        family = closed[0]
        assert isinstance(family, EquilibriumFamily)
        assert family.dimension == 2
        assert family.interval is None
        assert family.contains((Fraction(1, 6),) * 6) is not None
        game = make_family("cycle", Fraction(1), n=6)
        solved = solve_affine_by_supports(game)
        for params in ((Fraction(0), Fraction(0)),
                       (Fraction(1, 2), Fraction(0)),
                       (Fraction(1, 6), Fraction(1, 6)),
                       (Fraction(1, 4), Fraction(1, 8))):
            member = family.point_at(params)
            assert verify_equilibrium(game, member.x).is_equilibrium
            assert any(f.contains(member.x.masses) is not None
                       for f in families_of(solved))

    def test_cost_range_without_constraints_matches_the_solver_family(self):
        # the closed-form family carries no constraints, so its range is
        # read over its nonnegative masses; the solver's family over the
        # same support carries its stored constraints
        (closed,) = cycle_closed_form(6, Fraction(1))
        assert closed.constraints == ()
        game = make_family("cycle", Fraction(1), n=6)
        (solver,) = [f for f in families_of(solve_affine_by_supports(game))
                     if f.support == closed.support and f.dimension == 2]
        assert solver.constraints
        assert family_cost_range(closed) == family_cost_range(solver)

    def test_covered_coefficients_only(self):
        with pytest.raises(ValueError):
            cycle_closed_form(5, Fraction(1, 4))
        with pytest.raises(ValueError):
            cycle_closed_form(2, Fraction(1, 2))


class TestBipartiteAndStar:
    def test_interior_point_values(self):
        closed = bipartite_closed_form(3, 2, Fraction(1, 10))
        assert len(closed) == 1
        point = closed[0]
        a, b = Fraction(4, 19), Fraction(7, 38)
        assert point.x.masses == (a, a, a, b, b)
        assert point.cost == Fraction(47, 190)

    def test_side_points_at_large_coupling(self):
        closed = bipartite_closed_form(3, 2, Fraction(1, 2))
        assert point_masses(closed) == {
            (0, 0, 0, Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0, 0)}

    def test_balanced_sides_family(self):
        closed = bipartite_closed_form(2, 2, Fraction(1, 2))
        assert len(closed) == 1
        family = closed[0]
        assert isinstance(family, EquilibriumFamily)
        assert family.contains(
            (Fraction(1, 8), Fraction(1, 8), Fraction(3, 8), Fraction(3, 8))) is not None

    def test_integer_alpha_is_coerced(self):
        closed = bipartite_closed_form(2, 2, 1)
        assert point_masses(closed) == {
            (Fraction(1, 4),) * 4,
            (0, 0, Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2), 0, 0)}

    def test_matches_solver_on_a_grid(self):
        shapes = ((2, 1), (2, 2), (3, 2), (3, 3))
        alphas = (Fraction(1, 5), Fraction(1, 2), Fraction(1), Fraction(3))
        for p, q in shapes:
            for alpha in alphas:
                game = make_family("complete_bipartite", alpha, p=p, q=q)
                solved = solve_affine_by_supports(game)
                closed = bipartite_closed_form(p, q, alpha)
                assert same_equilibrium_set(solved, closed), (p, q, alpha)

    def test_star_pinned_points(self):
        closed = star_closed_form(5, Fraction(2))
        assert point_masses(closed) == {
            (Fraction(1, 11),) * 4 + (Fraction(7, 11),),
            (0, 0, 0, 0, Fraction(1)),
            (Fraction(1, 4),) * 4 + (Fraction(0),)}
        labels = {p.label for p in closed}
        assert "only the centre charged" in labels
        assert "only the leaves charged" in labels

        single = star_closed_form(5, Fraction(1, 5))
        assert len(single) == 1
        assert single[0].x.masses == (Fraction(4, 17),) * 4 + (Fraction(1, 17),)
        assert single[0].cost == Fraction(21, 85)

    def test_star_matches_solver(self):
        for n in (4, 5):
            for alpha in (Fraction(1, 5), Fraction(2)):
                game = make_family("star", alpha, n=n)
                assert same_equilibrium_set(
                    solve_affine_by_supports(game),
                    star_closed_form(n, alpha)), (n, alpha)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bipartite_closed_form(1, 2, Fraction(1, 2))
        with pytest.raises(ValueError, match=r"alpha must be nonnegative, got -1/2$"):
            bipartite_closed_form(2, 1, Fraction(-1, 2))
        with pytest.raises(ValueError):
            star_closed_form(1, Fraction(1, 2))


class TestCheckRules:
    def test_isolated_and_single_neighbour_violations(self):
        game = make_family("path", Fraction(1, 3), n=4)
        x = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
        violations = check_rules(game, x)
        assert {v.rule for v in violations} == {1, 2}
        by_rule = {v.rule: v for v in violations}
        assert by_rule[1].vertices == (3,)
        assert "vertex 4" in by_rule[1].detail
        assert by_rule[2].vertices == (2, 1)
        assert "vertex 3" in by_rule[2].detail

    def test_single_neighbour_passes_at_alpha_one(self):
        game = make_family("path", Fraction(1), n=4)
        x = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
        assert {v.rule for v in check_rules(game, x)} == {1}

    def test_threshold_violation(self):
        game = make_family("star", Fraction(1, 5), n=5)
        x = (Fraction(1, 4),) * 4 + (Fraction(0),)
        violations = check_rules(game, x)
        assert [v.rule for v in violations] == [3]
        assert "1/4" in violations[0].detail
        assert violations[0].vertices == (4, 0, 1, 2, 3)

    def test_tightness_requires_equal_neighbour_masses(self):
        game = make_family("star", Fraction(1, 4), n=5)
        balanced = (Fraction(1, 4),) * 4 + (Fraction(0),)
        assert check_rules(game, balanced) == []
        skewed = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                  Fraction(1, 8), Fraction(0))
        rules = {v.rule for v in check_rules(game, skewed)}
        assert 3 in rules and 4 in rules
        assert any("equal mass" in v.detail
                   for v in check_rules(game, skewed) if v.rule == 3)

    def test_tightness_forbids_charged_neighbours_of_neighbours(self):
        game = make_family("path", Fraction(1, 2), n=5)
        x = (Fraction(1, 4), Fraction(1, 4), Fraction(0),
             Fraction(1, 4), Fraction(1, 4))
        violations = [v for v in check_rules(game, x) if v.rule == 3]
        assert violations
        assert any("no charged neighbours" in v.detail for v in violations)

    def test_shared_neighbourhood_mass_rule(self):
        game = make_family("complete_bipartite", Fraction(1, 3), p=2, q=2)
        x = (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        violations = check_rules(game, x)
        assert [v.rule for v in violations] == [4]
        assert violations[0].vertices == (0, 1)
        assert "vertices 1 and 2" in violations[0].detail

    def test_equilibria_pass_clean(self):
        cases = [("path", n, alpha)
                 for n in (3, 4, 5, 6)
                 for alpha in (Fraction(1, 2), Fraction(1))]
        cases += [("cycle", n, alpha)
                  for n in (4, 5, 6)
                  for alpha in (Fraction(1, 2), Fraction(1))]
        for kind, n, alpha in cases:
            game = make_family(kind, alpha, n=n)
            closed = (path_closed_form(n, alpha) if kind == "path"
                      else cycle_closed_form(n, alpha))
            for item in closed:
                if isinstance(item, EquilibriumFamily):
                    if item.dimension > 1:
                        points = [item.point_at((Fraction(1, 8), Fraction(1, 8)))]
                    else:
                        points = item.sample_points(3)
                else:
                    points = [item]
                for point in points:
                    assert check_rules(game, point.x) == [], (kind, n, alpha)

    def test_refuses_games_outside_scope(self):
        rng = random.Random(139)
        with pytest.raises(UnsupportedGameError):
            check_rules(random_affine_symmetric_game(rng, 3), (1, 0, 0))
        with pytest.raises(UnsupportedGameError):
            check_rules(digraph_to_nbg(directed_triangle(), 2),
                        (Fraction(1, 3),) * 3)


class TestConjectureScan:
    def test_paths_below_one_half_are_clear(self):
        grid = [Fraction(k, 10) for k in range(5)]
        report = conjecture_scan("path", range(2, 10), grid)
        assert report.family == "path"
        assert len(report.rows) == 40
        assert report.all_clear
        assert report.counterexamples == ()
        for row in report.rows:
            assert row.unique and row.nonnegative
            assert not row.counterexample
            assert sum(row.masses) == 1
            if row.alpha == 0:
                assert row.determinant == row.n
                assert row.cost == Fraction(1, row.n)

    def test_cycles_below_one_half_are_clear(self):
        grid = [Fraction(k, 10) for k in range(5)]
        report = conjecture_scan("cycle", range(3, 10), grid)
        assert report.all_clear
        for row in report.rows:
            assert row.masses == (Fraction(1, row.n),) * row.n

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            conjecture_scan("path", [3], [Fraction(1, 2)])
        with pytest.raises(ValueError):
            conjecture_scan("path", [3], [Fraction(-1, 10)])
        with pytest.raises(ValueError):
            conjecture_scan("star", [3], [Fraction(1, 10)])


#: scan coefficients in [0, 1/2): exact rationals and floats
scan_alphas = st.one_of(st.fractions(min_value=0, max_value=Fraction(9, 20),
                                     max_denominator=20),
                        st.floats(min_value=0, max_value=0.49))


@settings(max_examples=40)
@given(st.sampled_from(["path", "cycle"]), st.integers(3, 9), scan_alphas,
       st.one_of(st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=8),
                 st.floats(min_value=0.01, max_value=3)))
def test_reported_determinants_are_the_matrix_determinants(kind, n, alpha, coupling):
    matrix = path_matrix(n, alpha) if kind == "path" else cycle_matrix(n, alpha)
    (row,) = conjecture_scan(kind, [n], [alpha]).rows
    assert row.determinant == determinant(matrix)
    system = uniform_cost_solve(make_family(kind, coupling, n=n))
    assert system.determinant == determinant([list(r) for r in system.matrix])


def test_each_equal_costs_matrix_is_eliminated_once(monkeypatch):
    calls = []
    for name in ("_bareiss", "_eliminate"):
        kernel = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *args, kernel=kernel: calls.append(1) or kernel(*args))
    report = conjecture_scan("path", range(2, 7), [Fraction(1, 10), 0.3])
    assert len(calls) == len(report.rows) == 10
    for alpha in (Fraction(1, 4), 0.25, 1):
        calls.clear()
        uniform_cost_solve(make_family("cycle", alpha, n=5))
        assert len(calls) == 1


class TestPinnedPathVectors:
    def test_six_vertices(self):
        for alpha, scale, masses, cost in (
                (Fraction(1, 4), 76, (15, 11, 12, 12, 11, 15), Fraction(71, 304)),
                (Fraction(1, 3), 38, (8, 5, 6, 6, 5, 8), Fraction(29, 114))):
            game = make_family("path", alpha, n=6)
            found = solve_affine_by_supports(game)
            assert len(found) == 1
            point = found[0]
            assert isinstance(point, EquilibriumPoint)
            assert point.x.masses == tuple(Fraction(k, scale) for k in masses)
            assert point.cost == cost

    def test_seven_vertices(self):
        game = make_family("path", Fraction(1, 3), n=7)
        found = solve_affine_by_supports(game)
        assert len(found) == 1
        assert found[0].x.masses == tuple(
            Fraction(k, 71) for k in (13, 8, 10, 9, 10, 8, 13))
        assert found[0].cost == Fraction(47, 213)

        system = uniform_cost_solve(make_family("path", Fraction(1, 4), n=7))
        assert system.masses == tuple(
            Fraction(k, 240) for k in (41, 30, 33, 32, 33, 30, 41))
        assert system.cost == Fraction(97, 480)
        game = make_family("path", Fraction(1, 4), n=7)
        assert verify_equilibrium(game, system.masses).is_equilibrium
