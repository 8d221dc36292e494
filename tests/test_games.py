"""Game construction: distributions, cost forms, influence, classification."""

import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from nbg import (Digraph, DimensionMismatchError, Game, InfluenceMatrix,
                 MassDistribution, MassMismatchError, UndirectedGraph,
                 UnsupportedGameError, affine, braess_game, classify,
                 constant, cost_vector, distribution, influence_from_triples,
                 is_exact_scalar, polynomial, stability_gap_game,
                 unbounded_anarchy_game, underlying_graph, validate_game)
from util import dense_costs, random_affine_game, random_masses


class TestMassDistribution:
    def test_total_inference(self):
        x = distribution([Fraction(1, 4), Fraction(3, 4)])
        assert x.total == 1
        assert x.n == 2
        assert x.exact

    def test_negative_mass_rejected(self):
        with pytest.raises(MassMismatchError, match="vertex 1 is negative: -1/10$"):
            MassDistribution((Fraction(-1, 10), Fraction(11, 10)), 1)

    def test_wrong_total_rejected_exactly_for_exact_masses(self):
        with pytest.raises(MassMismatchError):
            MassDistribution((Fraction(1, 2), Fraction(1, 2)), Fraction(999999999, 1000000000))

    def test_float_masses_get_slack(self):
        x = MassDistribution((0.5, 0.5 + 5e-10), 1.0)
        assert x.n == 2
        with pytest.raises(MassMismatchError):
            MassDistribution((0.5, 0.51), 1.0)
        x = MassDistribution((-5e-10, 1.0), 1.0)
        assert 0 not in x.support()

    def test_non_finite_masses_rejected(self):
        for masses, total in (((float("nan"), 1.0), 1.0), ((float("inf"), 0.0), 1.0),
                              ((0.5, 0.5), float("nan"))):
            with pytest.raises(MassMismatchError, match="finite"):
                MassDistribution(masses, total)

    def test_support_exact_is_strict_positivity(self):
        x = distribution([Fraction(0), Fraction(1, 10 ** 15), Fraction(1)])
        assert x.support() == (1, 2)
        assert 0 not in x.support()
        assert 1 in x.support()

    def test_support_float_uses_charge_tolerance(self):
        x = MassDistribution((1e-12, 1.0 - 1e-12), 1.0)
        assert x.support() == (1,)
        assert x.charge_tolerance() == 1e-9 * x.total

    def test_sequence_protocol(self):
        x = distribution([1, 2, 3])
        assert len(x) == 3
        assert x[1] == 2
        assert list(x) == [1, 2, 3]


class TestCostForms:
    def test_values(self):
        assert constant(5).value(Fraction(1, 3)) == 5
        assert affine(2, 3).value(Fraction(1, 2)) == 4
        assert polynomial([1, 0, 2]).value(Fraction(1, 2)) == Fraction(3, 2)

    def test_exact_integrals(self):
        assert constant(5).integral(Fraction(1, 2)) == Fraction(5, 2)
        assert affine(2, 3).integral(2) == 10
        assert polynomial([1, 2, 3]).integral(Fraction(1, 2)) == (
            Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 8))

    def test_integrals_of_exact_forms_stay_exact(self):
        for form in (constant(2), affine(1, 1), polynomial([1, 2, 3])):
            for upper in (0, 1, 3, Fraction(1, 2)):
                assert is_exact_scalar(form.integral(upper))
        assert affine(1, 1).integral(1) == Fraction(3, 2)
        assert isinstance(affine(0.5, 1).integral(2), float)

    def test_integrals_match_quadrature(self):
        rng = random.Random(2)
        for _ in range(20):
            coeffs = [Fraction(rng.randint(0, 5), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 5))]
            form = polynomial(coeffs)
            upper = Fraction(rng.randint(1, 8), 4)
            expected, _ = quad(lambda t: float(form.value(t)), 0, float(upper))
            assert float(form.integral(upper)) == pytest.approx(expected, rel=1e-9)

    def test_as_affine(self):
        assert constant(4).as_affine() == (0, 4)
        assert affine(2, 1).as_affine() == (2, 1)
        assert polynomial([1, 2]).as_affine() == (2, 1)
        assert polynomial([1, 2, 0]).as_affine() == (2, 1)
        assert polynomial([1, 2, 3]).as_affine() is None

    def test_float_zero_coefficient_keeps_the_affine_form_float(self):
        # float data anywhere makes the game float, a zero t^2 term too
        a, b = polynomial([1, 2, 0.0]).as_affine()
        assert (a, b) == (2, 1)
        assert type(a) is type(b) is float

    def test_max_degree(self):
        assert constant(4).max_degree() == 0
        assert affine(0, 4).max_degree() == 0
        assert affine(2, 0).max_degree() == 1
        assert polynomial([0, 0, 1]).max_degree() == 2
        assert polynomial([5, 0, 0]).max_degree() == 0

    def test_exact_flags(self):
        assert affine(Fraction(1, 2), 1).exact
        assert not affine(0.5, 1).exact

    def test_negative_and_bool_coefficients_rejected(self):
        with pytest.raises(ValueError):
            affine(-1, 0)
        with pytest.raises(ValueError):
            constant(-2)
        with pytest.raises(ValueError):
            polynomial([1, -1])
        with pytest.raises(ValueError):
            polynomial([])
        with pytest.raises(ValueError):
            affine(True, 0)


    def test_non_finite_coefficients_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                affine(bad, 0)
            with pytest.raises(ValueError, match="finite"):
                constant(bad)
            with pytest.raises(ValueError, match="finite"):
                polynomial([1, bad])


def test_instance_parameters_print_as_written():
    for build in (braess_game, unbounded_anarchy_game, stability_gap_game):
        with pytest.raises(ValueError, match="nonnegative, got -1/2$"):
            build(Fraction(-1, 2))


class TestInfluenceMatrix:
    def test_validation(self):
        # arcs are named 1-based, as in game files
        with pytest.raises(ValueError, match="^influence arc 1->3 out of range$"):
            InfluenceMatrix(2, {(0, 2): 1})
        with pytest.raises(ValueError, match="^influence arc 2->2 on the diagonal$"):
            InfluenceMatrix(2, {(1, 1): 1})
        with pytest.raises(ValueError, match="^influence arc 1->2 is negative: -1/2$"):
            InfluenceMatrix(2, {(0, 1): Fraction(-1, 2)})
        with pytest.raises(ValueError, match="^duplicate influence arc 1->2$"):
            influence_from_triples(3, [(0, 1, 1), (0, 1, 2)])

    def test_non_finite_entry_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                InfluenceMatrix(2, {(0, 1): bad})

    def test_zero_entries_dropped(self):
        inf = InfluenceMatrix(3, {(0, 1): 0, (1, 2): Fraction(1, 2)})
        assert inf.value(0, 1) == 0
        assert inf.arcs() == [(1, 2)]
        assert inf.items() == [((1, 2), Fraction(1, 2))]

    def test_neighborhood_views(self):
        inf = influence_from_triples(
            4, [(0, 2, 1), (1, 2, 2), (2, 0, 3), (3, 2, 4)])
        assert inf.in_coefficients(2) == ((0, 1), (1, 2), (3, 4))
        assert inf.in_coefficients(1) == ()
        # the stored views are handed out as they are, not copied
        assert inf.in_coefficients(2) is inf.in_coefficients(2)

    def test_symmetry_and_uniformity(self):
        sym = influence_from_triples(3, [(0, 1, 2), (1, 0, 2), (1, 2, 2), (2, 1, 2)])
        assert sym.is_symmetric
        assert sym.uniform_alpha() == 2
        asym = influence_from_triples(2, [(0, 1, 1)])
        assert not asym.is_symmetric
        mixed = influence_from_triples(3, [(0, 1, 1), (1, 0, 2)])
        assert mixed.uniform_alpha() is None

    def test_equality_and_exactness(self):
        a = influence_from_triples(2, [(0, 1, Fraction(1, 2))])
        b = InfluenceMatrix(2, {(0, 1): Fraction(1, 2)})
        assert a == b
        assert a.exact
        assert not influence_from_triples(2, [(0, 1, 0.5)]).exact


class TestGameConstruction:
    def test_dimension_checks(self):
        inf = influence_from_triples(2, [])
        with pytest.raises(DimensionMismatchError):
            Game.graphical(2, 1, [constant(1)], inf)
        with pytest.raises(DimensionMismatchError):
            Game.graphical(3, 1, [constant(1)] * 3, inf)
        with pytest.raises(DimensionMismatchError):
            Game.general(2, 1, [lambda x: 0])

    def test_cost_forms_must_be_polynomial(self):
        inf = influence_from_triples(2, [])
        with pytest.raises(ValueError, match="vertex 2: .*Game.general"):
            Game.graphical(2, 1, [constant(1), lambda t: t], inf)

    def test_total_mass_must_be_positive_scalar(self):
        inf = influence_from_triples(1, [])
        for bad in (0, -1, Fraction(-1, 2), True, "1"):
            with pytest.raises(ValueError):
                Game.graphical(1, bad, [constant(1)], inf)

    def test_non_finite_total_mass_rejected(self):
        inf = influence_from_triples(1, [])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                Game.graphical(1, bad, [constant(1)], inf)

    def test_total_mass_below_float_range_rejected_with_float_data(self):
        # float costs are computed in floats, where this total is 0.0
        tiny = Fraction(1, 10 ** 400)
        inf = influence_from_triples(2, [])
        with pytest.raises(ValueError, match="0.0 as a float"):
            Game.graphical(2, tiny, [constant(0), affine(0, 0.25)], inf)
        assert Game.graphical(2, tiny, [constant(0), affine(0, Fraction(1, 4))], inf).exact

    def test_exactness(self):
        inf = influence_from_triples(2, [(0, 1, Fraction(1, 2))])
        exact = Game.graphical(2, 1, [affine(1, 0), constant(2)], inf)
        assert exact.exact
        floaty = Game.graphical(2, 1, [affine(0.5, 0), constant(2)], inf)
        assert not floaty.exact
        general = Game.general(1, 1, [lambda x: 1])
        assert not general.exact

    def test_validation_warnings(self):
        inf = influence_from_triples(2, [])
        game = Game.graphical(2, 1, [constant(0), affine(0, 0)], inf)
        assert len(game.warnings) == 2
        assert "identically zero" in game.warnings[0]
        clean = Game.graphical(2, 1, [affine(1, 1), constant(1)], inf)
        assert clean.warnings == ()
        assert validate_game(clean) == []


class TestCostVector:
    def test_matches_dense_oracle_on_random_games(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(1, 6)
            game = random_affine_game(rng, n)
            masses = random_masses(rng, n)
            expected = dense_costs(game, masses)
            got = cost_vector(game, masses)
            assert list(got) == expected

    def test_arc_direction(self):
        # entry (0, 1): mass at vertex 0 raises the cost at vertex 1
        inf = influence_from_triples(2, [(0, 1, Fraction(1, 2))])
        game = Game.graphical(2, 1, [constant(1), constant(1)], inf)
        costs = cost_vector(game, [Fraction(3, 4), Fraction(1, 4)])
        assert costs[0] == 1
        assert costs[1] == 1 + Fraction(1, 2) * Fraction(3, 4)

    def test_general_games_call_evaluators(self):
        game = Game.general(2, 1, [lambda x: x[0] + x[1], lambda x: x[0] * x[1]])
        assert cost_vector(game, [Fraction(1, 4), Fraction(3, 4)]) == (
            1, Fraction(3, 16))

    def test_dimension_mismatch(self):
        game = Game.general(2, 1, [lambda x: 0, lambda x: 0])
        with pytest.raises(DimensionMismatchError):
            cost_vector(game, [1])


class TestClassification:
    def build(self, forms, triples, n=2):
        return Game.graphical(n, 1, forms, influence_from_triples(n, triples))

    def test_ladder_rungs(self):
        general = Game.general(1, 1, [lambda x: 1])
        assert classify(general).label == "general"
        assert classify(general).symmetric is None

        graphical = self.build([polynomial([0, 0, 1]), constant(1)],
                               [(0, 1, 1), (1, 0, 1)])
        assert classify(graphical).label == "graphical"

        affine_game = self.build([affine(1, 2), constant(1)], [(0, 1, 1), (1, 0, 1)])
        assert classify(affine_game).label == "affine"

        linear = self.build([affine(2, 0), affine(1, 0)], [(0, 1, 1), (1, 0, 1)])
        assert classify(linear).label == "linear"

        normal = self.build([affine(1, 0)] * 3,
                            [(0, 1, 1), (1, 0, 1), (1, 2, 2), (2, 1, 2)], n=3)
        assert classify(normal).label == "normal"

        uniform = self.build([affine(1, 0)] * 2, [(0, 1, Fraction(1, 3)), (1, 0, Fraction(1, 3))])
        got = classify(uniform)
        assert got.label == "alpha-uniform"
        assert got.alpha == Fraction(1, 3)
        assert got.symmetric is True

    def test_satisfies_is_downward_closed(self):
        uniform = self.build([affine(1, 0)] * 2, [(0, 1, 2), (1, 0, 2)])
        cls = classify(uniform)
        for name in ("general", "graphical", "affine", "linear", "normal",
                     "alpha-uniform", "symmetric-graphical"):
            assert cls.satisfies(name)
        linear = classify(self.build([affine(2, 0)] * 2, [(0, 1, 1)]))
        assert linear.satisfies("affine")
        assert not linear.satisfies("normal")
        assert not linear.satisfies("symmetric-graphical")
        with pytest.raises(ValueError):
            cls.satisfies("polynomial")

    def test_polynomial_linear_forms_count(self):
        game = self.build([polynomial([0, 3]), affine(1, 0)], [(0, 1, 1), (1, 0, 1)])
        assert classify(game).label == "linear"


class TestUnderlyingGraph:
    def test_symmetric_gives_undirected(self):
        inf = influence_from_triples(3, [(0, 1, 1), (1, 0, 1)])
        game = Game.graphical(3, 1, [constant(1)] * 3, inf)
        graph = underlying_graph(game)
        assert isinstance(graph, UndirectedGraph)
        assert frozenset((0, 1)) in graph.edges
        assert frozenset((1, 2)) not in graph.edges
        assert graph.neighbors(1) == [0]

    def test_asymmetric_gives_digraph(self):
        inf = influence_from_triples(2, [(0, 1, 1)])
        game = Game.graphical(2, 1, [constant(1)] * 2, inf)
        graph = underlying_graph(game)
        assert isinstance(graph, Digraph)
        assert graph.has_arc(0, 1)
        assert not graph.has_arc(1, 0)

    def test_general_refused(self):
        with pytest.raises(UnsupportedGameError):
            underlying_graph(Game.general(1, 1, [lambda x: 0]))
