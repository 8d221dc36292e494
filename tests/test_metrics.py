"""Social costs, optimum search, and anarchy/stability ratios."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbg import metrics, polytope
from nbg import (EquilibriumFamily, Game, UnsupportedGameError, affine,
                 affine_coefficients, braess_game, constant, cost_degree,
                 dilemma_game, gamma_for_class, influence_from_triples,
                 make_family, min_social_cost, polynomial, potential,
                 potential_maximum_game, price_report, social_costs,
                 solve_affine_by_supports, stability_gap_game,
                 unbounded_anarchy_game)
from nbg.equilibrium import _SupportPass
from util import (random_affine_game, random_affine_symmetric_game,
                  random_linear_symmetric_game, random_masses,
                  utilitarian_oracle)


class TestSocialCosts:
    def test_hand_computed_pair(self):
        game = potential_maximum_game()
        pair = social_costs(game, (Fraction(1, 4), Fraction(3, 4)))
        assert pair.utilitarian == Fraction(31, 16)
        assert pair.egalitarian == 2

    def test_egalitarian_ignores_uncharged_vertices(self):
        game = potential_maximum_game()
        pair = social_costs(game, (Fraction(1), Fraction(0)))
        # vertex 2 would cost 2 but carries no mass
        assert pair.utilitarian == 1
        assert pair.egalitarian == 1

    def test_integer_input_stays_exact(self):
        pair = social_costs(make_family("path", 1, n=2), (1, 0))
        assert pair.utilitarian == 1
        assert type(pair.utilitarian) is Fraction

    def test_utilitarian_never_exceeds_egalitarian(self):
        rng = random.Random(127)
        for _ in range(150):
            n = rng.randint(2, 5)
            game = random_affine_game(rng, n)
            masses = random_masses(rng, n)
            pair = social_costs(game, masses)
            assert pair.utilitarian == utilitarian_oracle(game, masses)
            assert pair.utilitarian <= pair.egalitarian

    def test_both_collapse_to_common_cost_at_equilibria(self):
        rng = random.Random(131)
        for _ in range(20):
            n = rng.randint(2, 4)
            game = random_affine_symmetric_game(rng, n)
            for found in solve_affine_by_supports(game):
                points = (found.sample_points(3)
                          if isinstance(found, EquilibriumFamily) else [found])
                for point in points:
                    pair = social_costs(game, point.x)
                    assert pair.utilitarian == point.cost
                    assert pair.egalitarian == point.cost

    def test_linear_symmetric_utilitarian_is_twice_the_potential(self):
        rng = random.Random(137)
        for _ in range(20):
            n = rng.randint(2, 5)
            game = random_linear_symmetric_game(rng, n)
            masses = random_masses(rng, n)
            pair = social_costs(game, masses)
            assert pair.utilitarian == 2 * potential(game, masses).value


class TestMinSocialCost:
    def test_affine_face_enumeration_is_exact(self):
        result = min_social_cost(braess_game(Fraction(1, 2)))
        assert result.value == 1
        assert result.exact
        assert result.method == "faces"
        assert result.x.masses == (Fraction(1), Fraction(0))

    def test_matches_dense_line_scan_on_curved_game(self):
        game = dilemma_game()
        result = min_social_cost(game, "utilitarian")
        best = min(utilitarian_oracle(game, (Fraction(k, 2000), 1 - Fraction(k, 2000)))
                   for k in range(2001))
        assert float(result.value) == pytest.approx(float(best), abs=1e-6)
        assert float(result.value) == pytest.approx(0.0, abs=1e-9)
        assert not result.exact

    def test_egalitarian_descent_on_a_curved_game(self):
        # C1 = x1^2, C2 = x2, C3 = x3: the worst cost is least where all
        # three equal 1/4, at (1/2, 1/4, 1/4); with three vertices no line
        # scan runs, so the smooth-max descent has to find it
        game = Game.graphical(3, 1, [polynomial((0, 0, 1)), affine(1, 0), affine(1, 0)],
                              influence_from_triples(3, []))
        result = min_social_cost(game, "egalitarian")
        assert abs(result.value - 0.25) <= 1e-6
        assert result.method == "descent"
        assert not result.exact

    def test_face_optimum_skips_descent(self, monkeypatch):
        # C4 at alpha = 1/2: descent used to land one ulp below the exact
        # face optimum 1/2 and turn the report into an estimate
        def no_descent(*args, **kwargs):
            raise AssertionError("utilitarian descent ran on an affine game")

        game = make_family("cycle", Fraction(1, 2), n=4)
        monkeypatch.setattr(metrics, "multistart_minimize", no_descent)
        result = min_social_cost(game)
        assert result.value == Fraction(1, 2)
        assert result.exact
        assert result.method == "faces"
        monkeypatch.undo()
        report = price_report(game)
        assert report.optimum_u == Fraction(1, 2)
        assert report.exact["optimum_u"] and report.exact["poa_u"]

    def test_egalitarian_is_exact_without_descent(self, monkeypatch):
        def no_descent(*args, **kwargs):
            raise AssertionError("egalitarian descent ran on an affine game")

        monkeypatch.setattr(metrics, "multistart_minimize", no_descent)
        result = min_social_cost(braess_game(Fraction(1, 2)), "egalitarian")
        assert result.value == 1
        assert result.exact
        assert result.method == "supports"

    @pytest.mark.parametrize("which", ["utilitarian", "egalitarian"])
    def test_optimum_is_compared_exactly(self, which):
        # the two constant costs are the same double; a float comparison
        # kept the first, dearer vertex
        game = Game.graphical(
            2, 1, [constant(1 + Fraction(1, 10 ** 20)), constant(1)],
            influence_from_triples(2, []))
        result = min_social_cost(game, which)
        assert result.value == 1
        assert result.exact
        assert result.x.masses == (0, 1)
        report = price_report(game)
        assert report.optimum_u == report.optimum_e == 1
        assert report.best_equilibrium_cost == 1

    @pytest.mark.parametrize("which", ["utilitarian", "egalitarian"])
    def test_descent_path_flags_egalitarian_estimates(self, which, monkeypatch):
        # C_i = x_i: every vertex costs 1 under both measures; 17 vertices
        # exceed the support cap and send the search down the descent path,
        # and with no descent results a simplex vertex wins
        descents = []

        def no_results(*args, **kwargs):
            descents.append(args)
            return []

        monkeypatch.setattr(metrics, "multistart_minimize", no_results)
        game = Game.graphical(17, 1, [affine(1, 0)] * 17,
                              influence_from_triples(17, []))
        result = min_social_cost(game, which)
        assert len(descents) == 1
        assert result.method == "vertex"
        assert result.value == 1
        assert result.x.masses == (1,) + (0,) * 16
        # descent-path egalitarian values are always flagged as estimates
        assert result.exact == (which == "utilitarian")

    def test_exact_up_to_the_support_cap(self, monkeypatch):
        def no_descent(*args, **kwargs):
            raise AssertionError("descent ran within the support cap")

        monkeypatch.setattr(metrics, "multistart_minimize", no_descent)
        # 13 vertices: above the cap of 12 that the optima once had
        game = Game.graphical(13, 1, [affine(1, 0)] * 13,
                              influence_from_triples(13, []))
        result = min_social_cost(game, "egalitarian")
        assert result.value == Fraction(1, 13)
        assert result.exact and result.method == "supports"

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            min_social_cost(braess_game(Fraction(1, 2)), "median")


class TestPriceReport:
    def test_anarchy_family_ratio(self):
        for alpha in (2, 5, 9):
            report = price_report(unbounded_anarchy_game(Fraction(alpha)))
            assert report.poa_u == Fraction(1 + alpha, 2)
            assert report.pos_u == 1
            assert report.optimum_u == 1
            assert report.worst_equilibrium_cost == Fraction(1 + alpha, 2)
            assert report.best_equilibrium_cost == 1
            assert report.exact["poa_u"] and report.exact["pos_u"]

    def test_anarchy_with_float_coupling_loses_exactness(self):
        report = price_report(unbounded_anarchy_game(2.0))
        assert float(report.poa_u) == pytest.approx(1.5, abs=1e-9)
        assert not report.exact["poa_u"]

    def test_a_float_zero_coefficient_makes_every_number_an_estimate(self):
        # a zero t^2 coefficient of 0.0 is float data, so the game is
        # solved in floats and no figure of the report is exact
        path = make_family("path", Fraction(1, 2), n=3)
        game = Game.graphical(3, path.r, (polynomial((0, 1, 0.0)),) + path.vertex_costs[1:],
                              path.influence)
        assert not game.exact
        (point,) = solve_affine_by_supports(game)
        assert point.x.masses == (0.5, 0.0, 0.5)
        assert all(type(m) is float for m in point.x.masses)
        assert not any(price_report(game).exact.values())

    def test_stability_family_ratio(self):
        for lam in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2)):
            report = price_report(stability_gap_game(lam))
            assert report.pos_u == (2 + 2 * lam) / (1 + 2 * lam)
            assert report.poa_u == report.pos_u
            assert report.optimum_u == 1 + 2 * lam
            assert len(report.equilibria_used) == 1
            assert report.exact["pos_u"]

    def test_braess_equilibrium_cost_falls_as_offset_grows(self):
        costs = []
        for b2 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            found = solve_affine_by_supports(braess_game(b2))
            assert len(found) == 1
            assert found[0].cost == Fraction(11, 8) - b2 / 2
            costs.append(found[0].cost)
        assert costs == sorted(costs, reverse=True)
        assert costs == [Fraction(5, 4), Fraction(9, 8), Fraction(1)]

    def test_flag_dictionary_structure(self):
        report = price_report(braess_game(Fraction(1, 2)))
        assert set(report.exact) == {
            "poa_u", "poa_e", "pos_u", "pos_e",
            "optimum_u", "optimum_e",
            "best_equilibrium_cost", "worst_equilibrium_cost"}
        assert report.exact["optimum_u"]
        assert report.exact["optimum_e"]
        assert report.exact["poa_e"]
        assert report.poa_u == Fraction(9, 8)
        assert report.poa_e == Fraction(9, 8)

    def test_equilibrium_extremes_are_compared_exactly(self):
        # both simplex vertices are equilibria, at costs 1 + 10^-20 and 1,
        # which are the same double; the first listed is the dearer one
        game = Game.graphical(
            2, 1, [constant(1 + Fraction(1, 10 ** 20)), constant(1)],
            influence_from_triples(2, [(0, 1, 1), (1, 0, 1)]))
        report = price_report(game)
        assert report.best_equilibrium_cost == 1
        assert report.pos_u == report.pos_e == 1
        assert report.exact["pos_u"] and report.exact["pos_e"]

    def test_family_cost_extremes_feed_the_ratios(self):
        # C6 cycle at alpha = 1/2: a one-parameter equilibrium family of
        # constant cost 1/3, so both ratios collapse to optimum ratios
        game = make_family("cycle", Fraction(1, 2), n=6)
        report = price_report(game)
        assert report.best_equilibrium_cost == Fraction(1, 3)
        assert report.worst_equilibrium_cost == Fraction(1, 3)
        assert report.poa_u == report.pos_u

    def test_zero_optimum_over_zero_cost_is_one(self):
        # costs x_1 and 0, no influence: all mass on vertex 2 costs 0
        for zero, one in ((0, 1), (0.0, 1.0)):
            game = Game.graphical(2, one, [affine(one, zero), constant(zero)],
                                  influence_from_triples(2, []))
            report = price_report(game)
            assert report.optimum_u == report.optimum_e == 0
            assert (report.poa_u, report.poa_e, report.pos_u,
                    report.pos_e) == (1, 1, 1, 1)

    def test_positive_cost_over_zero_optimum_is_unbounded(self):
        # C_1 = 2 x_2 and C_2 = 2 x_1: both vertices are equilibria of
        # cost 0, and (1/2, 1/2) is one of cost 1
        game = Game.graphical(2, 1, [constant(0), constant(0)],
                              influence_from_triples(2, [(0, 1, 2), (1, 0, 2)]))
        report = price_report(game)
        assert report.optimum_u == report.optimum_e == 0
        assert report.worst_equilibrium_cost == 1
        assert report.poa_u == report.poa_e == math.inf
        assert report.pos_u == report.pos_e == 1

    def test_rejects_curved_and_oversized_games(self):
        with pytest.raises(UnsupportedGameError):
            price_report(dilemma_game())
        with pytest.raises(UnsupportedGameError, match="n <= 16"):
            price_report(make_family("cycle", Fraction(1, 4), n=17))


def epigraph_oracle(game):
    """Egalitarian optimum by one float epigraph LP per support S:
    minimise t subject to C_i(x) <= t for i in S, x >= 0 on S and
    sum x = r."""
    from itertools import combinations

    from scipy.optimize import linprog

    matrix, offsets = affine_coefficients(game)
    n = game.n
    best = None
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            # variables: masses on the support, then t
            a_ub = [[float(matrix[j][i]) for j in support] + [-1.0]
                    for i in support]
            b_ub = [-float(offsets[i]) for i in support]
            a_eq = [[1.0] * size + [0.0]]
            res = linprog([0.0] * size + [1.0], A_ub=a_ub, b_ub=b_ub,
                          A_eq=a_eq, b_eq=[float(game.r)],
                          bounds=[(0, None)] * size + [(None, None)],
                          method="highs")
            assert res.status == 0
            if best is None or res.fun < best:
                best = res.fun
    return best


coefficient = st.fractions(min_value=0, max_value=3, max_denominator=6)


@st.composite
def exact_affine_games(draw, values=coefficient):
    """Affine games with n <= 5, possibly asymmetric, with zero slopes and
    ties among the drawn `values`."""
    n = draw(st.integers(min_value=1, max_value=5))
    costs = [affine(draw(values), draw(values)) for _ in range(n)]
    triples = [(i, j, draw(values)) for i in range(n) for j in range(n)
               if i != j and draw(st.booleans())]
    triples = [t for t in triples if t[2] != 0]
    return Game.graphical(n, 1, costs, influence_from_triples(n, triples))


@settings(max_examples=60)
@given(exact_affine_games(), st.randoms(use_true_random=False))
def test_egalitarian_optimum_property(game, rng):
    result = min_social_cost(game, "egalitarian")
    value = result.value
    assert result.exact and result.method == "supports"
    assert social_costs(game, result.x).egalitarian == value
    for _ in range(5):
        masses = random_masses(rng, game.n)
        assert value <= social_costs(game, masses).egalitarian
    for found in solve_affine_by_supports(game):
        if isinstance(found, EquilibriumFamily):
            for point in found.sample_points(3):
                egalitarian = social_costs(game, point.x).egalitarian
                assert float(value) <= float(egalitarian) + 1e-9
        else:
            assert value <= social_costs(game, found.x).egalitarian
    assert value >= min_social_cost(game).value
    oracle = epigraph_oracle(game)
    assert float(value) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def face_family_oracle(game):
    """Utilitarian optimum over the face systems of M + M^T that also
    takes one nonnegative member of each singular system: the low end of
    the parameter interval for one parameter, a float LP member for more.
    Exact unless an LP member wins."""
    matrix, offsets = affine_coefficients(game)
    n = game.n
    symmetric = [[matrix[j][i] + matrix[i][j] for i in range(n)]
                 for j in range(n)]
    best = None
    for support, solution in _SupportPass(symmetric, offsets, game.r).systems():
        k = len(support)
        base = solution.solution[:k]
        directions = [vec[:k] for vec in solution.basis]
        rows = [(value, [d[row] for d in directions])
                for row, value in enumerate(base)]
        if not directions:
            masses = base if all(m >= 0 for m in base) else None
        elif len(directions) == 1:
            bounds = polytope.interval(rows)
            masses = bounds and [b + bounds[0] * d
                                 for b, d in zip(base, directions[0])]
        else:
            optimum = polytope.minimize(rows, [0.0] * len(directions))
            masses = optimum and [
                max(float(b) + sum(float(d[row]) * t
                                   for d, t in zip(directions, optimum[1])), 0.0)
                for row, b in enumerate(base)]
        if masses is None:
            continue
        point = [0] * n
        for s, m in zip(support, masses):
            point[s] = m
        value = utilitarian_oracle(game, point)
        if best is None or value < best:
            best = value
    return best


# half the games draw from {0, 1}, where singular face systems are common
@settings(max_examples=60)
@given(st.one_of(exact_affine_games(),
                 exact_affine_games(st.sampled_from([Fraction(0), Fraction(1)]))))
def test_utilitarian_optimum_property(game):
    result = min_social_cost(game)
    value = result.value
    assert result.exact and result.method == "faces"
    assert social_costs(game, result.x).utilitarian == value
    oracle = face_family_oracle(game)
    if isinstance(oracle, float):
        assert float(value) == pytest.approx(oracle, rel=1e-9, abs=1e-9)
    else:
        assert value == oracle


class TestDegreeConstants:
    def test_gamma_values(self):
        assert gamma_for_class(0) == 1
        assert gamma_for_class(1) == Fraction(1, 2)
        assert gamma_for_class(3) == Fraction(1, 4)
        with pytest.raises(ValueError):
            gamma_for_class(-1)

    def test_cost_degree(self):
        assert cost_degree(braess_game(Fraction(1, 2))) == 1
        game = make_family("path", Fraction(1, 3), n=3)
        assert cost_degree(game) == 1
        curved = Game.graphical(3, 1, [polynomial([1, 0, 2])] * 3, game.influence)
        assert cost_degree(curved) == 2
        assert cost_degree(dilemma_game()) is None
