"""Digraph kernels and the strong-equilibrium correspondence."""

import random
from fractions import Fraction

import pytest

from nbg import (CorrespondenceReport, Digraph, Game, Kernel,
                 UnsupportedGameError, affine, classify, digraph,
                 digraph_to_nbg, directed_triangle, enumerate_kernels,
                 influence_from_triples, is_dominating, is_kernel, is_stable,
                 kernel_to_strong_equilibrium,
                 satisfies_correspondence_hypotheses,
                 solve_affine_by_supports, strong_supports_match_kernels,
                 verify_delta_strong, verify_equilibrium)
from util import random_digraph, subsets_kernels


def directed_path(n):
    return digraph(n, [(i, i + 1) for i in range(n - 1)])


class TestStabilityAndDomination:
    def test_single_arc_cases(self):
        d = digraph(2, [(0, 1)])
        assert is_stable(d, {0})
        assert is_stable(d, {1})
        assert not is_stable(d, {0, 1})
        assert is_dominating(d, {0})
        assert not is_dominating(d, {1})

    def test_empty_set(self):
        d = digraph(2, [(0, 1)])
        assert is_stable(d, set())
        assert not is_dominating(d, set())

    def test_whole_vertex_set_dominates_vacuously(self):
        d = digraph(3, [])
        assert is_dominating(d, {0, 1, 2})
        assert is_kernel(d, {0, 1, 2})

    def test_kernel_vertex_validation(self):
        kernel = Kernel(4, {0, 2})
        assert kernel.sorted_vertices == (0, 2)
        assert len(kernel) == 2
        with pytest.raises(ValueError):
            Kernel(3, {3})
        with pytest.raises(ValueError):
            Kernel(3, {-1})


class TestEnumerateKernels:
    def test_triangle_has_none(self):
        assert enumerate_kernels(directed_triangle()) == ()

    def test_directed_path_kernel(self):
        kernels = enumerate_kernels(directed_path(4))
        assert [k.sorted_vertices for k in kernels] == [(0, 2)]

    def test_matches_subset_oracle(self):
        rng = random.Random(111)
        for _ in range(50):
            n = rng.randint(1, 8)
            d = random_digraph(rng, n)
            ours = [k.sorted_vertices for k in enumerate_kernels(d)]
            assert ours == subsets_kernels(d)
            assert ours == sorted(ours, key=lambda k: (len(k), k))

    def test_size_cap(self):
        with pytest.raises(UnsupportedGameError):
            enumerate_kernels(digraph(25, []))


class TestReduction:
    def test_structure(self):
        d = directed_triangle()
        game = digraph_to_nbg(d, Fraction(3), r=2)
        assert game.n == 3 and game.r == 2
        assert all(f == affine(1, 0) for f in game.vertex_costs)
        assert dict(game.influence.items()) == {
            (0, 1): Fraction(3), (1, 2): Fraction(3), (2, 0): Fraction(3)}
        assert classify(game).satisfies("normal")

    def test_rejects_small_alpha(self):
        d = directed_triangle()
        for alpha, text in ((1, "1"), (Fraction(1, 2), "1/2"), (0.99, "0.99")):
            with pytest.raises(ValueError, match=f"got {text}$"):
                digraph_to_nbg(d, alpha)

    def test_hypotheses_predicate(self):
        d = directed_triangle()
        assert satisfies_correspondence_hypotheses(digraph_to_nbg(d, 3))
        # one-directional arcs at alpha = 2 sum to exactly 2 across the pair
        assert not satisfies_correspondence_hypotheses(digraph_to_nbg(d, 2))
        two_way = Game.graphical(
            2, 1, [affine(1, 0)] * 2,
            influence_from_triples(2, [(0, 1, Fraction(6, 5)),
                                       (1, 0, Fraction(6, 5))]))
        assert satisfies_correspondence_hypotheses(two_way)
        not_normal = Game.graphical(
            2, 1, [affine(2, 0)] * 2,
            influence_from_triples(2, [(0, 1, 3), (1, 0, 3)]))
        assert not satisfies_correspondence_hypotheses(not_normal)

    def test_kernel_distribution(self):
        kernel = Kernel(4, {0, 2})
        x = kernel_to_strong_equilibrium(kernel)
        assert x.masses == (Fraction(1, 2), 0, Fraction(1, 2), 0)
        assert x.total == 1
        scaled = kernel_to_strong_equilibrium(kernel, r=Fraction(3, 2))
        assert scaled.masses[0] == Fraction(3, 4)
        with pytest.raises(ValueError):
            kernel_to_strong_equilibrium(Kernel(4, frozenset()))


class TestCorrespondence:
    def test_path_kernel_is_half_strong(self):
        d = directed_path(4)
        game = digraph_to_nbg(d, 2)
        x = kernel_to_strong_equilibrium(Kernel(4, {0, 2}))
        assert verify_equilibrium(game, x).is_equilibrium
        cert = verify_delta_strong(game, x, Fraction(1, 2))
        assert cert.is_delta_strong

        report = strong_supports_match_kernels(d, 2)
        assert report.matched
        assert report.strong_supports == ((0, 2),)
        assert [k.sorted_vertices for k in report.kernels] == [(0, 2)]
        assert report.discrepancies == ()

    def test_triangle_matches_with_both_sides_empty(self):
        d = directed_triangle()
        report = strong_supports_match_kernels(d, 2)
        assert isinstance(report, CorrespondenceReport)
        assert report.matched
        assert report.kernels == ()
        assert report.strong_supports == ()
        assert report.discrepancies == ()

    def test_triangle_equilibrium_is_unique_and_never_strong(self):
        game = digraph_to_nbg(directed_triangle(), 2)
        found = solve_affine_by_supports(game)
        assert len(found) == 1
        uniform = found[0].x
        assert uniform.masses == (Fraction(1, 3),) * 3
        assert found[0].cost == 1
        for delta in (Fraction(1, 3), Fraction(1, 1000)):
            cert = verify_delta_strong(game, uniform, delta)
            assert not cert.is_delta_strong
            assert cert.witness is not None

    def test_random_digraphs_match(self):
        rng = random.Random(113)
        checked_nonempty = 0
        for _ in range(30):
            n = rng.randint(2, 6)
            d = random_digraph(rng, n)
            report = strong_supports_match_kernels(d, 3)
            assert report.matched, report.discrepancies
            if report.kernels:
                checked_nonempty += 1
        assert checked_nonempty >= 10

    def test_size_guard(self):
        with pytest.raises(UnsupportedGameError):
            strong_supports_match_kernels(digraph(11, []), 2)
