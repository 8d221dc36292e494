"""Potential function: values, gradient identity, bounds, minimization."""

import importlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbg import (EquilibriumFamily, Game, MassDistribution,
                 UnsupportedGameError, affine, cost_vector, dilemma_game,
                 influence_from_triples, is_exact_scalar, is_local_minimum,
                 make_family,
                 minimize_potential, polynomial, potential,
                 potential_maximum_game, solve_affine_by_supports,
                 verify_equilibrium)
from nbg.simplexopt import descend, multistart_minimize, project_to_simplex
from util import (central_difference, dense_costs, random_fraction,
                  random_linear_symmetric_game, random_masses,
                  random_symmetric_triples, two_vertex_game, utilitarian_oracle)

potential_module = importlib.import_module("nbg.potential")


def random_polynomial_symmetric_game(rng, n, max_degree=3):
    forms = []
    for _ in range(n):
        degree = rng.randint(0, max_degree)
        coeffs = [random_fraction(rng, 0, 2) for _ in range(degree + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[-1] = Fraction(1, 2)
        forms.append(polynomial(coeffs))
    influence = influence_from_triples(n, random_symmetric_triples(rng, n))
    return Game.graphical(n, 1, forms, influence)


class TestPotentialValue:
    def test_hand_computed_path_value(self):
        game = make_family("path", Fraction(1, 2), n=3)
        x = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        result = potential(game, x)
        assert result.value == Fraction(9, 32)
        assert result.gradient == (Fraction(5, 8), Fraction(5, 8), Fraction(3, 8))

    def test_quadratic_profile_on_the_mass_line(self):
        game = potential_maximum_game()
        for k in range(11):
            t = Fraction(k, 10)
            value = potential(game, (t, 1 - t)).value
            assert value == (3 - t * t) / 2

    def test_int_masses_give_an_exact_value(self):
        value = potential(potential_maximum_game(), (1, 0)).value
        assert is_exact_scalar(value)
        assert value == 1

    def test_gradient_equals_cost_vector(self):
        rng = random.Random(73)
        for _ in range(10):
            n = rng.randint(2, 5)
            game = random_polynomial_symmetric_game(rng, n)
            masses = random_masses(rng, n)
            result = potential(game, masses)
            assert result.gradient == cost_vector(game, masses)

    def test_finite_differences_recover_the_gradient(self):
        rng = random.Random(79)
        for _ in range(20):
            n = rng.randint(2, 4)
            game = random_polynomial_symmetric_game(rng, n)
            point = [float(m) for m in random_masses(rng, n)]
            grad = [float(g) for g in potential(game, point).gradient]
            for i in range(n):
                def along(t, i=i):
                    moved = list(point)
                    moved[i] = t
                    return float(potential(game, moved).value)

                fd = central_difference(along, point[i])
                assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-6)

    def test_accepts_off_simplex_points(self):
        game = potential_maximum_game()
        value = potential(game, (Fraction(1, 5), Fraction(1, 5))).value
        assert value == Fraction(1, 5) + Fraction(1, 50) + Fraction(1, 5) + Fraction(1, 25)

    def test_refuses_asymmetric_and_general_games(self):
        lopsided = Game.graphical(
            2, 1, [affine(1, 0)] * 2, influence_from_triples(2, [(0, 1, 1)]))
        with pytest.raises(UnsupportedGameError):
            potential(lopsided, (1, 0))
        with pytest.raises(UnsupportedGameError):
            potential(dilemma_game(), (1, 0))
        with pytest.raises(UnsupportedGameError):
            minimize_potential(dilemma_game())


class TestPotentialBounds:
    def test_sandwich_for_polynomial_symmetric_games(self):
        # gamma * C_u <= Phi <= C_u with gamma = min(1/(d+1), 1/2), exact
        rng = random.Random(83)
        for _ in range(40):
            n = rng.randint(2, 5)
            game = random_polynomial_symmetric_game(rng, n)
            degree = max(f.max_degree() for f in game.vertex_costs)
            gamma = min(Fraction(1, degree + 1), Fraction(1, 2))
            masses = random_masses(rng, n)
            social = utilitarian_oracle(game, masses)
            value = potential(game, masses).value
            assert value <= social
            assert gamma * social <= value

    def test_linear_symmetric_games_have_exact_factor_two(self):
        rng = random.Random(89)
        for _ in range(30):
            n = rng.randint(2, 5)
            game = random_linear_symmetric_game(rng, n)
            masses = random_masses(rng, n)
            assert utilitarian_oracle(game, masses) == 2 * potential(game, masses).value


class TestLocalMinimumProbe:
    def test_corner_classification(self):
        game = potential_maximum_game()
        assert is_local_minimum(game, (Fraction(1), Fraction(0)))
        assert not is_local_minimum(game, (Fraction(0), Fraction(1)))
        assert not is_local_minimum(game, (Fraction(1, 2), Fraction(1, 2)))


class TestMinimizePotential:
    def test_filters_the_potential_maximum(self):
        # both corners are equilibria; only x1 = 1 minimizes Phi
        game = potential_maximum_game()
        minima = minimize_potential(game)
        assert len(minima) == 1
        assert minima[0].masses == (Fraction(1), Fraction(0))

    def test_family_minima_share_the_potential_value(self):
        game = make_family("cycle", Fraction(1, 2), n=6)
        minima = minimize_potential(game)
        assert minima
        for x in minima:
            assert verify_equilibrium(game, x).is_equilibrium
            assert potential(game, x).value == Fraction(1, 6)

    def test_outputs_verify_on_random_games(self):
        rng = random.Random(97)
        for _ in range(8):
            n = rng.randint(2, 4)
            game = random_polynomial_symmetric_game(rng, n, max_degree=2)
            for x in minimize_potential(game):
                report = verify_equilibrium(game, x, tol=1e-6)
                assert report.is_equilibrium
                assert is_local_minimum(game, x)

    def test_affine_games_run_no_descent(self, monkeypatch):
        def no_descent(*args, **kwargs):
            raise AssertionError("descent ran on an affine game")

        monkeypatch.setattr(potential_module, "multistart_minimize", no_descent)
        minima = minimize_potential(potential_maximum_game())
        assert [x.masses for x in minima] == [(Fraction(1), Fraction(0))]
        cycle = make_family("cycle", Fraction(1, 2), n=6)
        minima = minimize_potential(cycle)
        assert minima
        assert all(potential(cycle, x).value == Fraction(1, 6) for x in minima)

    def test_affine_games_above_the_support_cap_descend(self):
        # like min_social_cost above its n_max: the exact path refuses 17
        # vertices, so descent end points are filtered as for other games
        game = make_family("path", 1 / 4, n=17)
        minima = minimize_potential(game)
        assert minima
        for x in minima:
            assert verify_equilibrium(game, x, tol=1e-7).is_equilibrium
            assert is_local_minimum(game, x)

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(101)
        game = random_polynomial_symmetric_game(rng, 3, max_degree=2)
        first = minimize_potential(game)
        second = minimize_potential(game)
        assert [tuple(x.masses) for x in first] == [tuple(x.masses) for x in second]

    def test_probe_step_scales_with_the_total_mass(self):
        # at (r, 0), moving h toward vertex 2 changes Phi by h r/2 - h^2,
        # which is positive for h < r/2: a probe of fixed size 1e-5 would
        # move all of r = 1e-6 and miss this minimum
        r = Fraction(1, 10 ** 6)
        game = two_vertex_game(r, r / 2)
        assert is_local_minimum(game, (r, 0))
        assert [x.masses for x in minimize_potential(game)] == [(0, r), (r, 0)]

    def test_distinct_exact_minima_are_kept_at_any_scale(self):
        # both corners are minima, 1e-7 apart
        r = Fraction(1, 10 ** 7)
        game = two_vertex_game(r, 0)
        assert [x.masses for x in minimize_potential(game)] == [(0, r), (r, 0)]

    @pytest.mark.parametrize("r", [1.0, 1 / 100, 1e-6])
    def test_float_probe_rejects_the_maximum_at_any_scale(self, r):
        # Phi along the simplex is -t^2 + 3rt/2 + r^2/2, highest at
        # t = 3r/4, where a probe of PROBE_STEP * r lowers it by only
        # (PROBE_STEP * r)^2; a fixed float slack would forgive that drop
        game = two_vertex_game(r, r / 2)
        assert not is_local_minimum(game, (3 * r / 4, r / 4))
        minima = minimize_potential(game)
        assert len(minima) == 2
        assert {x.support() for x in minima} == {(0,), (1,)}

    def test_float_probe_keeps_flat_minima_at_small_scale(self):
        # C_i = x1 + x2 + 1 makes Phi = r^2/2 + r on the whole simplex;
        # at r = 1e-6 its rounding outweighs a slack that scales with
        # r^2 alone, and would drop the sampled midpoint of the family
        game = Game.graphical(2, 1e-6, [affine(1.0, 1.0), affine(1.0, 1.0)],
                              influence_from_triples(2, [(0, 1, 1.0), (1, 0, 1.0)]))
        minima = minimize_potential(game)
        assert len(minima) == 3
        assert all(is_local_minimum(game, x) for x in minima)


small_fractions = st.builds(Fraction, st.integers(0, 18), st.integers(1, 6))


@st.composite
def affine_symmetric_games(draw):
    n = draw(st.integers(1, 5))
    costs = [affine(draw(small_fractions), draw(small_fractions))
             for _ in range(n)]
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            alpha = draw(small_fractions)
            if alpha != 0:
                triples += [(i, j, alpha), (j, i, alpha)]
    return Game.graphical(n, 1, costs, influence_from_triples(n, triples))


def descent_oracle(game, seed):
    """End points of float descent on Phi, with Phi written out from the
    affine coefficients and the gradient taken from the dense cost oracle."""
    forms = [tuple(float(c) for c in f.as_affine()) for f in game.vertex_costs]
    pairs = [(i, j, float(alpha)) for (i, j), alpha in game.influence.items()
             if i < j]

    def objective(v):
        return (sum(a * v[i] ** 2 / 2 + b * v[i] for i, (a, b) in enumerate(forms))
                + sum(alpha * v[i] * v[j] for i, j, alpha in pairs))

    def gradient(v):
        return [float(c) for c in dense_costs(game, [float(t) for t in v])]

    return [res.x for res in multistart_minimize(
        objective, gradient, game.n, float(game.r), starts=10, seed=seed)]


@settings(max_examples=40)
@given(affine_symmetric_games(), st.integers(0, 2 ** 16))
def test_affine_minima_cover_every_descent_minimum(game, seed):
    """Every returned minimum is exact, and every descent end point that
    passes the float checks lies near a returned minimum or on an
    equilibrium family holding one."""
    minima = minimize_potential(game)
    for x in minima:
        assert x.exact
        assert verify_equilibrium(game, x).is_equilibrium
        assert is_local_minimum(game, x)
    families = [found for found in solve_affine_by_supports(game)
                if isinstance(found, EquilibriumFamily)
                and any(found.contains(x) is not None for x in minima)]
    for point in descent_oracle(game, seed):
        x = MassDistribution(point, game.r)
        if not (verify_equilibrium(game, x, tol=1e-7).is_equilibrium
                and is_local_minimum(game, x)):
            continue
        near = any(max(abs(float(a) - b) for a, b in zip(m.masses, point)) <= 1e-6
                   for m in minima)
        assert near or any(f.contains(point, tol=1e-6) is not None
                           for f in families)


class TestSimplexOptimizer:
    def test_projection_fixes_simplex_points(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.dirichlet(np.ones(4))
            assert np.allclose(project_to_simplex(x), x, atol=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.sampled_from([1.0, 3.0, 2.0 ** -20, 1e6]))
    def test_projection_matches_the_cumulative_sum_rule(self, v, r):
        # the NumPy form of the same rule: a running sum of the values in
        # descending order, and theta from the last prefix above it
        u = np.sort(v)[::-1]
        cssv = np.cumsum(u) - r
        rho = np.nonzero(u * np.arange(1, len(v) + 1) > cssv)[0][-1]
        theta = cssv[rho] / (rho + 1.0)
        assert project_to_simplex(v, r) == list(np.maximum(np.asarray(v) - theta, 0.0))

    def test_projection_known_values(self):
        assert np.allclose(project_to_simplex([2.0, 0.0]), [1.0, 0.0])
        assert np.allclose(project_to_simplex([0.6, 0.6]), [0.5, 0.5])
        assert np.allclose(project_to_simplex([0.0, 0.0, 3.0], r=1.0),
                           [0.0, 0.0, 1.0])

    def test_projection_optimality_against_random_feasible_points(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(2, 6)
            v = rng.normal(size=n) * 2
            p = np.asarray(project_to_simplex(v, r=1.0))
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p >= -1e-12).all()
            dist = np.sum((v - p) ** 2)
            for _ in range(40):
                z = rng.dirichlet(np.ones(n))
                assert dist <= np.sum((v - z) ** 2) + 1e-9

    def test_descent_reaches_the_projected_target(self):
        target = np.array([0.1, 0.5, 0.9])

        def objective(x):
            return float(np.sum((np.asarray(x) - target) ** 2))

        def gradient(x):
            return 2 * (np.asarray(x) - target)

        result = descend(objective, gradient, [1.0, 0.0, 0.0], 1.0)
        assert result.converged
        expected = project_to_simplex(target, 1.0)
        assert np.allclose(result.x, expected, atol=1e-6)

    def test_multistart_dedupes_and_sorts(self):
        def objective(x):
            return float((x[0] - 0.25) ** 2 + (x[1] - 0.75) ** 2)

        def gradient(x):
            return [2 * (x[0] - 0.25), 2 * (x[1] - 0.75)]

        results = multistart_minimize(objective, gradient, 2, 1.0, starts=6)
        assert len(results) == 1
        assert results[0].x == pytest.approx((0.25, 0.75), abs=1e-6)

    def test_multistart_starts_are_floats_fixed_by_the_seed(self):
        # each descent evaluates its projected start first; a descent from
        # a vertex stops there at once, and the random starts are interior
        def starts(seed):
            seen = []

            def objective(x):
                seen.append(x)
                return -sum(t * t for t in x)

            multistart_minimize(objective, lambda x: [-2 * t for t in x], 3, 2.0,
                                starts=5, seed=seed)
            return seen

        first = starts(4)
        assert first == starts(4) and first != starts(5)
        assert all(type(t) is float for x in first for t in x)
        assert first[:3] == [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]
        assert min(first[3]) > 0 and sum(first[3]) == pytest.approx(2.0)
