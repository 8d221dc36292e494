"""Equilibrium verification, solving, deviation-proofness, and dynamics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbg import (DimensionMismatchError, EquilibriumFamily, EquilibriumPoint,
                 Game, PHI, QuadExt, UnsupportedGameError, affine,
                 affine_coefficients, braess_game, best_response_dynamics,
                 brouwer_map, cost_vector, determinant, dilemma_game,
                 distribution, family_cost_range, influence_from_triples,
                 make_family, no_equilibrium_game, path_matrix, polynomial,
                 price_report, solve_affine_by_supports, three_equilibria_game,
                 uniform_cost_solve, unique_nonstrong_game,
                 verify_delta_strong, verify_equilibrium)
from nbg import equilibrium, polytope, solve_linear_system
from nbg.equilibrium import _equal_cost_pass, _equilibria, _SupportPass
from nbg.linalg import bareiss_solution
from util import (cost_parameter_game, covered_corner_game, dense_costs, families_of,
                  family_matches, grid_delta_strong, is_equilibrium_oracle,
                  offsets_only_game, point_masses,
                  random_affine_symmetric_game, random_affine_game,
                  random_fraction, random_masses, region_class)


def two_vertex_affine_equilibria(game):
    """Independent closed-form equilibrium set for exact affine games on
    two vertices. Returns ("points", {x1 values}) or ("family", None) when
    the two costs coincide identically."""
    a1, b1 = game.vertex_costs[0].as_affine()
    a2, b2 = game.vertex_costs[1].as_affine()
    to0 = game.influence.value(1, 0)
    to1 = game.influence.value(0, 1)
    r = game.r
    # g(t) = C1 - C2 along x = (t, r - t)
    g0 = (b1 + to0 * r) - (b2 + a2 * r)
    slope = (a1 - to0) - (to1 - a2)
    if slope == 0 and g0 == 0:
        return "family", None
    values = set()
    if g0 >= 0:
        values.add(Fraction(0))
    if g0 + slope * r <= 0:
        values.add(Fraction(r))
    if slope != 0:
        root = -Fraction(g0) / slope
        if 0 < root < r:
            values.add(root)
    return "points", values


def independent_pair(b1, b2, r=1.0) -> Game:
    """C1 = x1 + b1 and C2 = x2 + b2 on two vertices that do not interact."""
    return Game.graphical(2, r, [affine(1, b1), affine(1, b2)],
                          influence_from_triples(2, []))


class TestVerifyEquilibrium:
    def test_dilemma_equilibria(self):
        game = dilemma_game()
        for t in (Fraction(0), Fraction(3, 4), Fraction(1)):
            report = verify_equilibrium(game, (t, 1 - t))
            assert report.is_equilibrium
            assert report.worst_gap == 0
            assert report.tolerance == 0
        report = verify_equilibrium(game, (Fraction(1, 2), Fraction(1, 2)))
        assert not report.is_equilibrium
        assert report.worst_gap == Fraction(1, 2)
        assert report.common_cost is None

    def test_common_cost_and_charged(self):
        game = dilemma_game()
        report = verify_equilibrium(game, (Fraction(3, 4), Fraction(1, 4)))
        assert report.common_cost == Fraction(3, 4)
        assert report.charged == (0, 1)
        corner = verify_equilibrium(game, (Fraction(0), Fraction(1)))
        assert corner.charged == (1,)
        assert corner.common_cost == 0

    def test_explicit_tolerance(self):
        game = dilemma_game()
        x = (Fraction(740, 1000), Fraction(260, 1000))
        assert not verify_equilibrium(game, x).is_equilibrium
        assert verify_equilibrium(game, x, tol=Fraction(1, 10)).is_equilibrium

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            verify_equilibrium(dilemma_game(), (1,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                     -1, Fraction(-1, 10), -1e-12])
    def test_unusable_tolerance_fails_closed(self, bad):
        # an infinite tol would accept (1, 0), a NaN or negative one would
        # reject the exact equilibrium (1/2, 1/2)
        game = braess_game(Fraction(1, 2))
        half = (Fraction(1, 2), Fraction(1, 2))
        assert verify_equilibrium(game, half).is_equilibrium
        assert not verify_equilibrium(game, (1, 0)).is_equilibrium
        for x in ((1, 0), half):
            with pytest.raises(ValueError, match=f"tol must be finite and nonnegative, got {bad}"):
                verify_equilibrium(game, x, tol=bad)
            with pytest.raises(ValueError, match=f"got {bad}"):
                verify_delta_strong(game, x, Fraction(1, 10), tol=bad)

    def test_a_common_cost_offset_does_not_loosen_the_verdict(self):
        # C_i = x_i + 1e6 on two independent vertices: the offset moves no
        # equilibrium, so a split off by 5e-4 stays rejected
        game = independent_pair(1e6, 1e6)
        assert verify_equilibrium(game, (0.5, 0.5)).is_equilibrium
        assert not verify_equilibrium(game, (0.5005, 0.4995)).is_equilibrium

    def test_no_equilibrium_game_rejects_a_grid(self):
        game = no_equilibrium_game()
        for k in range(51):
            t = Fraction(k, 50)
            assert not verify_equilibrium(game, (t, 1 - t)).is_equilibrium

    def test_matches_definition_oracle_on_random_games(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(2, 5)
            game = random_affine_game(rng, n)
            masses = random_masses(rng, n)
            report = verify_equilibrium(game, masses)
            assert report.is_equilibrium == is_equilibrium_oracle(game, masses)
            costs = dense_costs(game, masses)
            floor = min(costs)
            expected_gap = max([costs[i] - floor for i in range(n)
                                if masses[i] > 0], default=0)
            assert report.worst_gap == expected_gap


class TestAffineCoefficients:
    def test_reproduces_cost_vector(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 5)
            game = random_affine_game(rng, n)
            matrix, offsets = affine_coefficients(game)
            masses = random_masses(rng, n)
            rebuilt = [offsets[i] + sum(matrix[j][i] * masses[j]
                                        for j in range(n))
                       for i in range(n)]
            assert rebuilt == list(cost_vector(game, masses))

    def test_refuses_non_affine(self):
        with pytest.raises(UnsupportedGameError):
            affine_coefficients(dilemma_game())
        curved = Game.graphical(1, 1, [polynomial([0, 0, 1])],
                                influence_from_triples(1, []))
        with pytest.raises(UnsupportedGameError):
            affine_coefficients(curved)


class TestSolveBySupports:
    def test_two_vertex_completeness_against_closed_form(self):
        rng = random.Random(47)
        checked_points = 0
        checked_families = 0
        for _ in range(150):
            r = rng.choice([1, Fraction(2), Fraction(3, 2)])
            game = Game.graphical(
                2, r,
                [affine(random_fraction(rng, 0, 2), random_fraction(rng, 0, 2))
                 for _ in range(2)],
                influence_from_triples(2, [
                    (0, 1, random_fraction(rng, 0, 2)),
                    (1, 0, random_fraction(rng, 0, 2))]))
            kind, expected = two_vertex_affine_equilibria(game)
            solved = solve_affine_by_supports(game)
            if kind == "family":
                families = families_of(solved)
                assert len(families) == 1
                assert families[0].contains((r, 0 * r)) is not None
                assert families[0].contains((0 * r, r)) is not None
                checked_families += 1
            else:
                assert point_masses(solved) == {(t, r - t) for t in expected}
                checked_points += 1
        assert checked_points > 100

    def test_outputs_verify_and_are_deduplicated(self):
        rng = random.Random(53)
        for _ in range(25):
            n = rng.randint(2, 5)
            game = random_affine_symmetric_game(rng, n)
            solved = solve_affine_by_supports(game)
            assert solved, "affine games admit an equilibrium"
            seen = set()
            for item in solved:
                samples = (item.sample_points(3)
                           if isinstance(item, EquilibriumFamily) else [item])
                for point in samples:
                    report = verify_equilibrium(game, point.x)
                    assert report.is_equilibrium
                    if isinstance(item, EquilibriumPoint):
                        assert report.common_cost == item.cost
                        key = point.x.masses
                        assert key not in seen
                        seen.add(key)
                        assert not any(
                            f.contains(point.x) is not None
                            for f in families_of(solved))

    def test_pinched_families_are_demoted(self):
        # supports like {1,2,4,5} on this game equalise costs on a plane,
        # but the uncharged-vertex conditions pin that plane to a single
        # point; the solver must report the point, not the plane
        game = make_family("path", Fraction(1), n=6)
        solved = solve_affine_by_supports(game)
        assert point_masses(solved) == {
            (0, Fraction(1, 2), 0, 0, Fraction(1, 2), 0)}
        families = families_of(solved)
        assert [f.support for f in families] == [(0, 1, 3, 5), (0, 2, 3, 5),
                                                 (0, 2, 4, 5)]
        for family in families:
            assert family.dimension == 1
            assert family.interval == (Fraction(0), Fraction(1, 3))
        for item in solved:
            samples = (item.sample_points(5)
                       if isinstance(item, EquilibriumFamily) else [item])
            for point in samples:
                assert verify_equilibrium(game, point.x).is_equilibrium

    def test_multiparameter_samples_respect_uncharged_costs(self):
        # full-support plane on the 6-cycle: every nonnegative member is
        # an equilibrium, and samples stay inside the stored constraints
        game = make_family("cycle", Fraction(1), n=6)
        families = families_of(solve_affine_by_supports(game))
        plane = [f for f in families if f.dimension >= 2]
        assert len(plane) == 1
        assert plane[0].support == tuple(range(6))
        assert plane[0].constraints
        for family in families:
            for point in family.sample_points(5):
                assert verify_equilibrium(game, point.x).is_equilibrium

    def test_no_lp_in_exact_multiparameter_restrictions(self, monkeypatch):
        from nbg import equilibrium

        # every region's rows are built once, by the module global, also
        # for the regions that folding re-derives
        regions = []
        family_rows = equilibrium._family_rows

        def recording(*a):
            rows = family_rows(*a)
            if len(rows[0][1]) >= 2:
                regions.append(rows)
            return rows

        monkeypatch.setattr(equilibrium, "_family_rows", recording)
        solve_affine_by_supports(make_family("path", Fraction(1), n=8))
        # exact elimination settles every region within its row cap, with
        # no LP (nbg imports no scipy): empty, full-dimensional and pinched
        # to a lower dimension alike
        classes = [region_class(rows) for rows in regions]
        assert len(classes) == 25
        assert (classes.count("empty"), classes.count("full"),
                classes.count("pinched")) == (10, 5, 10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, PHI], ids=["half", "one", "phi"])
    def test_games_not_rational_with_integer_support_systems(self, alpha):
        # unit slopes and zero offsets pose the singleton support systems
        # in integers even when the influence is a float or in Q(sqrt 5);
        # the solver must read their solutions as values, not numerators
        for kind, n in (("path", 5), ("cycle", 6)):
            game = make_family(kind, alpha, n=n)
            solved = solve_affine_by_supports(game)
            assert solved
            for item in solved:
                if isinstance(item, EquilibriumPoint):
                    assert verify_equilibrium(game, item.x).is_equilibrium

    @pytest.mark.parametrize("kind, alpha, n", [("path", 0.5, 3), ("cycle", 1.0, 4)])
    def test_float_games_give_float_equilibria(self, kind, alpha, n):
        # unit slopes and zero offsets pose some support systems of these
        # float games in integers; their solutions are floats all the same
        game = make_family(kind, alpha, n=n)
        scalars = []
        for item in solve_affine_by_supports(game):
            if isinstance(item, EquilibriumPoint):
                scalars += [*item.x.masses, item.cost]
            else:
                scalars += [*item.base, item.cost_base, *item.cost_directions,
                            *(v for d in item.directions for v in d), *(item.interval or ()),
                            *(v for value, coefs in item.constraints for v in (value, *coefs))]
        assert scalars and all(type(v) is float for v in scalars)
        report = price_report(game)
        assert not report.exact["best_equilibrium_cost"]
        assert not report.exact["worst_equilibrium_cost"]
        assert type(report.best_equilibrium_cost) is float

    @pytest.mark.parametrize("k", [-30, 0, 30, 44])
    def test_costs_large_or_small_against_r_keep_the_equilibrium(self, k):
        # C = 2^k x + 2^(k-1) on one vertex at r = 1: the one point x = 1
        # costs 1.5 * 2^k at every scale of the cost
        game = Game.graphical(1, 1.0, [affine(2.0 ** k, 2.0 ** (k - 1))],
                              influence_from_triples(1, []))
        solved = solve_affine_by_supports(game)
        assert [(item.x.masses, item.cost) for item in solved] == [((1.0,), 1.5 * 2.0 ** k)]

    @pytest.mark.parametrize("k", [-40, -20, 20, 40])
    def test_float_costs_scale_with_every_coefficient(self, k):
        # every slope, offset and influence times 2^k: the same supports
        # and masses, and every cost times 2^k
        game = make_family("path", 0.5, r=1.0, n=5)
        scaled = Game.graphical(
            game.n, game.r,
            [affine(*(v * 2.0 ** k for v in form.as_affine())) for form in game.vertex_costs],
            influence_from_triples(game.n, [(i, j, alpha * 2.0 ** k)
                                            for (i, j), alpha in game.influence.items()]))
        solved = solve_affine_by_supports(game)
        assert solved and all(isinstance(item, EquilibriumPoint) for item in solved)
        assert ([(item.support, item.x.masses, item.cost * 2.0 ** k) for item in solved]
                == [(item.support, item.x.masses, item.cost)
                    for item in solve_affine_by_supports(scaled)])

    @pytest.mark.parametrize("k", [-40, -30, -20, 0, 20, 43, 44])
    def test_a_collapsed_interval_is_tested_like_any_point(self, k):
        # at k = 43 and 44 the gap slopes of the family over {1, 3} are
        # near 2^-42, which only a zero test relative to the rows keeps
        solved = solve_affine_by_supports(covered_corner_game(k))
        assert [(type(item), item.support) for item in solved] == [(EquilibriumFamily, (0, 2))]

    @pytest.mark.parametrize("k", [-60, -40, -29, 0, 59, 60])
    def test_a_segment_in_cost_units_is_kept_at_every_scale(self, k):
        # the parameter of the segment is the common cost, so its length
        # in t is about 2^k; it is judged by the masses it moves, and its
        # gap slopes, about 2^-k, by the size of the rows around them
        solved = solve_affine_by_supports(cost_parameter_game(k))
        assert [(type(item), item.support) for item in solved] == [(EquilibriumFamily, (2, 3))]
        ends = {point.x.masses for point in solved[0].sample_points(2)}
        assert ends == {(0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)}

    @pytest.mark.parametrize("k", [-60, -50, -39, 0])
    def test_offsets_far_below_r_keep_one_point(self, k):
        # with no slope the cost unit is the spread of the offsets over r,
        # so the offset 2^(k-1) is not read as zero against r
        solved = solve_affine_by_supports(offsets_only_game(k))
        assert [(type(item), item.x.masses, item.cost) for item in solved] == [
            (EquilibriumPoint, (1.0, 0.0), 0.0)]

    def test_covered_points_are_dropped_without_a_second_gap_pass(self, monkeypatch):
        # each point's cost ties are read with its gaps when it is
        # accepted, so no gap is computed once every system has been read
        game = make_family("cycle", Fraction(1), n=6)
        expected = solve_affine_by_supports(game)
        pass_ = _equal_cost_pass(game)
        read = []

        def systems():
            yield from pass_.systems()
            read.append(True)

        gaps = _SupportPass.gaps

        def checked(self, *args):
            assert not read, "a gap pass after every support system was read"
            return gaps(self, *args)

        monkeypatch.setattr(_SupportPass, "gaps", checked)
        assert _equilibria(pass_, systems()) == expected

    def test_results_sorted_by_support_bitmask(self):
        rng = random.Random(59)
        for _ in range(20):
            game = random_affine_symmetric_game(rng, rng.randint(2, 5))
            solved = solve_affine_by_supports(game)
            masks = [e.bitmask for e in solved]
            assert masks == sorted(masks)

    def test_unique_nonstrong_game_has_one_equilibrium(self):
        solved = solve_affine_by_supports(unique_nonstrong_game())
        assert len(solved) == 1
        point = solved[0]
        assert point.x.masses == (Fraction(0), Fraction(1))
        assert point.cost == 5
        assert point.support == (1,)

    def test_size_and_structure_guards(self):
        big = make_family("path", Fraction(1, 4), n=17)
        with pytest.raises(UnsupportedGameError):
            solve_affine_by_supports(big)
        with pytest.raises(UnsupportedGameError):
            solve_affine_by_supports(dilemma_game())


@st.composite
def degenerate_games(draw):
    """Games with many singular support systems: paths and cycles at
    alpha = 1 with n <= 8, K_{p,q} with p <= 4, and random {0, 1} affine
    games with n <= 6, half of them float."""
    kind = draw(st.sampled_from(["path", "cycle", "complete_bipartite", "random"]))
    if kind in ("path", "cycle"):
        return make_family(kind, Fraction(1), n=draw(st.integers(3, 8)))
    if kind == "complete_bipartite":
        p = draw(st.integers(1, 4))
        alpha = draw(st.sampled_from([Fraction(1, 2), Fraction(1)]))
        return make_family(kind, alpha, p=p, q=draw(st.integers(1, p)))
    scalar = draw(st.sampled_from([Fraction, float]))
    n = draw(st.integers(1, 6))
    bit = st.integers(0, 1)
    costs = [affine(scalar(draw(bit)), scalar(draw(bit))) for _ in range(n)]
    triples = [(i, j, scalar(1)) for i in range(n) for j in range(n)
               if i != j and draw(bit)]
    return Game.graphical(n, scalar(1), costs, influence_from_triples(n, triples))


@settings(max_examples=80)
@given(degenerate_games())
def test_points_on_a_family_are_dropped_and_no_others(game):
    # EquilibriumFamily.contains, an exact linear solve per point and
    # family, is the oracle for the solver's cost-tie dedup
    solved = solve_affine_by_supports(game)
    families = families_of(solved)
    kept = [e for e in solved if isinstance(e, EquilibriumPoint)]
    for point in kept:
        assert all(f.contains(point.x) is None for f in families)

    matrix, offsets = affine_coefficients(game)
    tol = 0 if game.exact else 1e-9
    zero = 0 * game.r
    for support, solution in _SupportPass(matrix, offsets, game.r).systems():
        masses = [zero] * game.n
        for idx, s in enumerate(support):
            masses[s] = solution.solution[idx]
        if solution.status != "unique" or min(masses) < -tol:
            continue
        x = distribution([m if m > 0 else zero for m in masses], game.r)
        if not verify_equilibrium(game, x).is_equilibrium:
            continue
        assert (any(max(abs(a - b) for a, b in zip(p.x.masses, x.masses)) <= tol
                    for p in kept)
                or any(f.contains(x) is not None for f in families)), support


def direct_support_systems(pass_):
    """(support, status, denominator, numerators, basis_numerators) of
    each consistent support system of `pass_` in bitmask order, each
    solved on its own by solve_linear_system: the scaled equal-cost rows
    of the support in ascending vertex order and the sum row last, over
    the columns x_S then c."""
    n, (r_den, r_num) = pass_.n, pass_.sum_row
    out = []
    for mask in range(1, 1 << n):
        support = tuple(i for i in range(n) if mask >> i & 1)
        rows = [[pass_.cost_rows[i][j] for j in support] + [-pass_.scale] for i in support]
        rows.append([r_den] * len(support) + [0])
        rhs = [-pass_.offsets[i] for i in support] + [r_num]
        solution = solve_linear_system(rows, rhs)
        if solution.status != "none":
            out.append((support, solution.status, solution.denominator,
                        solution.numerators, solution.basis_numerators))
    return out


def shared_support_systems(pass_):
    return [(support, s.status, s.denominator, s.numerators, s.basis_numerators)
            for support, s in pass_.systems()]


def support_passes(game):
    """The equal-cost pass of an affine game and its M + M^T face pass."""
    matrix, offsets = affine_coefficients(game)
    n = game.n
    symmetric = [[matrix[j][i] + matrix[i][j] for i in range(n)] for j in range(n)]
    return _SupportPass(matrix, offsets, game.r), _SupportPass(symmetric, offsets, game.r)


@st.composite
def rational_games_with_zero_pivots(draw):
    """Rational affine games with n <= 7 whose slopes, offsets and
    influences are often zero, and whose vertices often repeat another
    vertex's cost and influences, so that support systems meet zero
    pivots and zero determinants."""
    n = draw(st.integers(1, 7))
    value = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3)])
    costs, arcs = [], {}
    for j in range(n):
        source = draw(st.integers(0, 2 * j))
        if source < j:  # a copy of vertex `source`'s cost and influences
            costs.append(costs[source])
            arcs.update({(i, j): arcs[(i, source)] for i in range(n)
                         if i != j and (i, source) in arcs})
            continue
        costs.append(affine(draw(value), draw(value)))
        arcs.update({(i, j): draw(value) for i in range(n) if i != j and draw(st.booleans())})
    r = draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(5)]))
    return Game.graphical(n, r, costs, influence_from_triples(
        n, [(i, j, a) for (i, j), a in arcs.items()]))


@settings(max_examples=100)
@given(rational_games_with_zero_pivots())
def test_shared_elimination_yields_the_direct_support_systems(game):
    for pass_ in support_passes(game):
        assert shared_support_systems(pass_) == direct_support_systems(pass_)


def test_a_support_under_a_zero_pivot_is_solved_directly():
    # vertex 1 has a constant cost, so the first pivot of every support
    # with vertex 1 is zero, while the system of {0, 1} is not singular
    game = Game.graphical(2, Fraction(1), [affine(Fraction(1), Fraction(0)),
                                           affine(Fraction(0), Fraction(3, 4))],
                          influence_from_triples(2, [(1, 0, Fraction(1, 2))]))
    pass_ = _equal_cost_pass(game)
    assert pass_.cost_rows[1][1] == 0
    r_den = pass_.sum_row[0]
    assert determinant([row + [-pass_.scale] for row in pass_.cost_rows] + [[r_den, r_den, 0]]) != 0
    systems = shared_support_systems(pass_)
    assert systems == direct_support_systems(pass_)
    assert [(support, status) for support, status, *_ in systems] == [
        ((0,), "unique"), ((1,), "unique"), ((0, 1), "unique")]
    assert [(e.x.masses, e.cost) for e in solve_affine_by_supports(game)] == [
        ((Fraction(1, 2), Fraction(1, 2)), Fraction(3, 4))]


@pytest.mark.parametrize("alpha, direct", [(Fraction(1, 2), 0), (0.5, 255)])
def test_rational_supports_with_nonzero_pivots_share_the_elimination(monkeypatch, alpha, direct):
    # every principal minor of I + A/2 on a path is positive, so no
    # rational support system is solved on its own; a float pass solves
    # every one directly
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_linear_system(*args)

    monkeypatch.setattr(equilibrium, "solve_linear_system", counted)
    solved = solve_affine_by_supports(make_family("path", alpha, n=8))
    assert len(solved) == 1 and len(calls) == direct


@settings(max_examples=100)
@given(rational_games_with_zero_pivots())
def test_the_screen_skips_only_supports_that_accept_point_rejects(game):
    # the screened systems are an ordered sub-list of all of them, every
    # one left out is a unique solution that `_accept_point` rejects, and
    # the equilibrium set read from either list is the same
    for pass_ in support_passes(game):
        every, screened = list(pass_.systems()), list(pass_.systems(screen=True))
        kept = {support for support, _ in screened}
        assert [(support, s.status, s.denominator, s.numerators)
                for support, s in every if support in kept] == [
            (support, s.status, s.denominator, s.numerators) for support, s in screened]
        for support, solution in every:
            if support not in kept:
                assert solution.status == "unique", support
                assert equilibrium._accept_point(pass_, support, solution.numerators,
                                                  solution.denominator) is None, support
        assert _equilibria(pass_, screened) == _equilibria(pass_, every)


def test_the_screen_reads_each_sign_against_the_pivot_times_the_determinant():
    # C_0 = x_0 + 3 x_1 and C_1 = x_1 + 3/2 tie at (1/2, 1/2). On the
    # support {0, 1} the last pivot is 4 and the determinant -4, so a
    # screen that read the signs of the raw entries would drop the
    # interior equilibrium
    game = Game.graphical(2, Fraction(1), [affine(Fraction(1), Fraction(0)),
                                           affine(Fraction(1), Fraction(3, 2))],
                          influence_from_triples(2, [(1, 0, Fraction(3))]))
    assert [(e.x.masses, e.cost) for e in solve_affine_by_supports(game)] == [
        ((Fraction(1), Fraction(0)), Fraction(1)),
        ((Fraction(0), Fraction(1)), Fraction(5, 2)),
        ((Fraction(1, 2), Fraction(1, 2)), Fraction(2))]


def test_the_screen_back_substitutes_at_most_341_supports_on_path_n10(monkeypatch):
    # on path alpha = 1/2, n = 10 every one of the 1,023 supports is on the
    # shared elimination, and the screen leaves 341 to back-substitute
    calls = []

    def counted(*args):
        calls.append(args[0])
        return bareiss_solution(*args)

    game = make_family("path", Fraction(1, 2), n=10)
    pass_ = _equal_cost_pass(game)
    expected = _equilibria(pass_, pass_.systems())
    monkeypatch.setattr(equilibrium, "bareiss_solution", counted)
    assert solve_affine_by_supports(game) == expected
    assert len(calls) <= 341


class TestFamilyMechanics:
    def family(self):
        game = make_family("complete_bipartite", Fraction(1, 2), p=2, q=2)
        solved = solve_affine_by_supports(game)
        families = families_of(solved)
        assert len(families) == 1
        return game, families[0]

    def test_point_at_and_contains_round_trip(self):
        _, fam = self.family()
        assert fam.dimension == 1
        lo, hi = fam.interval
        for k in range(5):
            t = lo + (hi - lo) * Fraction(k, 4)
            point = fam.point_at((t,))
            assert fam.contains(point.x) == (t,)
        with pytest.raises(DimensionMismatchError):
            fam.point_at((lo, hi))
        with pytest.raises(DimensionMismatchError):
            fam.contains((1, 0, 0))

    def test_contains_rejects_off_hull_points(self):
        _, fam = self.family()
        assert fam.contains((Fraction(1, 2), Fraction(1, 4),
                             Fraction(1, 8), Fraction(1, 8))) is None

    def test_contains_rejects_unusable_tolerances(self):
        _, fam = self.family()
        member = fam.point_at(fam.interval[:1]).x
        assert fam.contains(member, tol=0) == fam.interval[:1]
        for bad in (float("nan"), float("inf"), -1):
            with pytest.raises(ValueError, match=f"got {bad}"):
                fam.contains(member, tol=bad)

    def test_sample_points_cover_interval_ends(self):
        game, fam = self.family()
        samples = fam.sample_points(5)
        assert len(samples) == 5
        params = [fam.contains(p.x)[0] for p in samples]
        assert params[0] == fam.interval[0]
        assert params[-1] == fam.interval[1]
        assert params == sorted(params)
        for point in samples:
            assert verify_equilibrium(game, point.x).is_equilibrium

    def test_cost_range(self):
        game, fam = self.family()
        (lo, hi), exact = family_cost_range(fam)
        assert exact
        assert lo == hi == Fraction(1, 2)

    def test_multiparameter_family_lp_sampling(self):
        game = make_family("path", Fraction(1), n=5)
        solved = solve_affine_by_supports(game)
        wide = [f for f in families_of(solved) if f.dimension == 2]
        assert wide
        fam = wide[0]
        samples = fam.sample_points(4)
        assert len(samples) >= 2
        for point in samples:
            assert verify_equilibrium(game, point.x).is_equilibrium
            # mass splits in halves across the uncharged middle vertex
            m = point.x.masses
            assert abs(float(m[0] + m[1]) - 0.5) < 1e-7
            assert abs(float(m[3] + m[4]) - 0.5) < 1e-7
        (lo, hi), exact = family_cost_range(fam)
        assert float(lo) == pytest.approx(0.5, abs=1e-7)
        assert float(hi) == pytest.approx(0.5, abs=1e-7)
        assert exact
        assert all(point.x.exact for point in samples)

    def test_float_regions_are_sampled_within_the_mass_slack(self):
        # t1 >= 0.1, t2 >= 0.2 and t1 + t2 <= 0.3 meet at one point, where
        # 0.3 - (0.1 + 0.2) rounds below zero
        rows = ((-0.1, (1.0, 0.0)), (-0.2, (0.0, 1.0)), (0.3, (-1.0, -1.0)))
        family = EquilibriumFamily(3, 1.0, (0, 1, 2), (0.0, 0.0, 1.0), 1.0,
                                   ((1.0, 0.0, -1.0), (0.0, 1.0, -1.0)), (0.0, 0.0),
                                   constraints=rows)
        (point,) = family.sample_points(5)
        assert point.x.masses == pytest.approx((0.1, 0.2, 0.7))
        assert family_cost_range(family) == ((1.0, 1.0), False)

    def test_float_samples_are_one_point_within_the_mass_slack(self):
        # the last three rows are tight near t1 = 5e-10, where three choices
        # of two rows give vertices whose masses differ by at most 1.1e-16,
        # yet two of them round apart at nine decimals; they are one sample
        rows = ((0.25, (1.0, 0.0)), (0.25, (-1.0, 0.0)), (0.25, (0.0, 1.0)),
                (0.25, (0.0, -1.0)),
                (0.023146904400151498, (-1.3474337369372327, 0.1582647713859684)),
                (-0.00040058251407329844, (-0.7550690257394217, -0.002738947744835407)),
                (0.013302675155242069, (-0.9494910647887381, 0.09095578363365775)))
        family = EquilibriumFamily(4, 1.0, (0, 1, 2, 3), (0.25,) * 4, 1.0,
                                   ((1.0, -1.0, 0.0, 0.0), (0.0, 0.0, 1.0, -1.0)),
                                   (0.0, 0.0), None, "", rows)
        samples = family.sample_points(10)
        assert len(samples) == 5
        slack = samples[0].x.charge_tolerance()
        for i, a in enumerate(samples):
            for b in samples[:i]:
                assert max(abs(u - v) for u, v in zip(a.x.masses, b.x.masses)) > slack

    def test_a_constant_cost_range_enumerates_no_vertex(self, monkeypatch):
        # no family of path alpha = 1, n = 10 has a cost direction, so each
        # range is read off the base and equals the range of its vertex costs
        families = families_of(solve_affine_by_supports(make_family("path", Fraction(1), n=10)))
        assert len(families) == 81
        expected = []
        for family in families:
            assert not any(family.cost_directions)
            costs = [family.point_at(t).cost for t in family._vertices()]
            expected.append(((min(costs), max(costs)), True))

        def no_vertices(*args, **kwargs):
            raise AssertionError("polytope.vertices called")

        monkeypatch.setattr(polytope, "vertices", no_vertices)
        assert [family_cost_range(family) for family in families] == expected


class TestGoldenRatioPath:
    def test_determinant_vanishes_exactly(self):
        assert determinant(path_matrix(4, PHI)) == 0
        assert determinant(path_matrix(4, Fraction(61803, 100000))) != 0

    def test_uniform_cost_family_over_the_extension_field(self):
        game = make_family("path", PHI, n=4)
        system = uniform_cost_solve(game)
        assert system.status == "family"
        assert system.determinant == 0
        assert len(system.directions) == 1
        direction, _ = system.directions[0]
        # exact nonnegativity window along the family
        lo, hi = None, None
        for b, d in zip(system.base_masses, direction):
            if d == 0:
                assert (b >= 0) or not system.nonnegative
                continue
            bound = -b / d
            if d > 0:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
        window = lo is not None and hi is not None and lo <= hi
        assert window == system.nonnegative
        assert window, "the singular path system should still admit masses"
        for t in (lo, hi, (lo + hi) / 2):
            masses = tuple(b + t * d
                           for b, d in zip(system.base_masses, direction))
            report = verify_equilibrium(game, distribution(masses, total=1))
            assert report.is_equilibrium
            assert report.tolerance == 0
        values = list(system.base_masses) + list(direction)
        assert any(isinstance(v, QuadExt) for v in values)


class TestDeltaStrong:
    def test_three_equilibria_thresholds(self):
        game = three_equilibria_game()
        rest = distribution([Fraction(0), Fraction(1)])
        assert verify_delta_strong(game, rest, Fraction(1, 4)).is_delta_strong
        cert = verify_delta_strong(game, rest, Fraction(1, 4) + Fraction(1, 100))
        assert not cert.is_delta_strong
        assert cert.method == "sampled"
        assert cert.witness[0] == 1 and cert.witness[1] == 0

        interior = distribution([Fraction(3, 4), Fraction(1, 4)])
        weak = verify_delta_strong(game, interior, Fraction(1, 1000))
        assert not weak.is_delta_strong

        corner = distribution([Fraction(1), Fraction(0)])
        assert verify_delta_strong(game, corner, Fraction(5)).is_delta_strong

    def test_zero_delta_is_trivial_and_negative_rejected(self):
        game = three_equilibria_game()
        x = distribution([Fraction(1), Fraction(0)])
        cert = verify_delta_strong(game, x, 0)
        assert cert.is_delta_strong and cert.witness is None
        for bad in (-1, float("nan")):
            with pytest.raises(ValueError):
                verify_delta_strong(game, x, bad)

    def test_base_failure_reports_worst_and_best(self):
        game = three_equilibria_game()
        cert = verify_delta_strong(game, (Fraction(1, 2), Fraction(1, 2)),
                                   Fraction(1, 10))
        assert not cert.is_delta_strong
        assert cert.witness[2] == 0

    def test_unique_nonstrong_fails_every_delta(self):
        game = unique_nonstrong_game()
        x = distribution([Fraction(0), Fraction(1)])
        for delta in (Fraction(1, 1000), Fraction(1, 10), Fraction(1)):
            cert = verify_delta_strong(game, x, delta)
            assert not cert.is_delta_strong
            assert cert.method == "exact"
            assert not grid_delta_strong(game, x, delta, steps=7)

    def test_agrees_with_definition_grid(self):
        game = three_equilibria_game()
        for masses, delta in [
            ((Fraction(0), Fraction(1)), Fraction(1, 5)),
            ((Fraction(0), Fraction(1)), Fraction(2, 5)),
            ((Fraction(1), Fraction(0)), Fraction(1, 2)),
            ((Fraction(3, 4), Fraction(1, 4)), Fraction(1, 8)),
        ]:
            x = distribution(list(masses))
            got = verify_delta_strong(game, x, delta).is_delta_strong
            assert got == grid_delta_strong(game, x, delta)

    def test_exact_and_sampled_routes_agree_on_affine_games(self):
        rng = random.Random(61)
        compared = 0
        for _ in range(12):
            n = rng.randint(2, 4)
            game = random_affine_symmetric_game(rng, n)
            shadow = Game.general(
                n, game.r, [lambda m, i=i: cost_vector(game, m)[i]
                            for i in range(n)])
            for item in solve_affine_by_supports(game):
                if not isinstance(item, EquilibriumPoint):
                    continue
                delta = game.r / Fraction(max(len(item.support), 1))
                fast = verify_delta_strong(game, item.x, delta)
                slow = verify_delta_strong(shadow, item.x, delta)
                assert fast.method == "exact" and slow.method == "sampled"
                assert fast.is_delta_strong == slow.is_delta_strong
                compared += 1
        assert compared >= 10

    def test_failed_certificates_carry_a_checkable_witness(self):
        rng = random.Random(67)
        replayed = 0
        for _ in range(15):
            game = random_affine_symmetric_game(rng, rng.randint(2, 4))
            for item in solve_affine_by_supports(game):
                if not isinstance(item, EquilibriumPoint):
                    continue
                cert = verify_delta_strong(game, item.x, game.r)
                if cert.is_delta_strong or cert.witness[2] == 0:
                    continue
                i, j, eps = cert.witness
                costs = cost_vector(game, item.x)
                moved = list(item.x.masses)
                moved[i] = moved[i] - eps
                moved[j] = moved[j] + eps
                assert cost_vector(game, moved)[j] < costs[i]
                replayed += 1
        assert replayed >= 3


class TestBrouwerMap:
    def test_equilibria_are_fixed_points(self):
        rng = random.Random(71)
        for _ in range(15):
            game = random_affine_symmetric_game(rng, rng.randint(2, 4))
            for item in solve_affine_by_supports(game):
                points = (item.sample_points(3)
                          if isinstance(item, EquilibriumFamily) else [item])
                for point in points:
                    image = brouwer_map(game, point.x)
                    assert image.masses == point.x.masses

    def test_non_equilibria_move(self):
        game = dilemma_game()
        x = distribution([Fraction(1, 2), Fraction(1, 2)])
        image = brouwer_map(game, x)
        assert image.masses != x.masses
        assert sum(image.masses) == 1
        assert all(m >= 0 for m in image.masses)
        assert all(isinstance(m, Fraction) for m in image.masses)
        # mass flows off the costlier vertex
        assert image.masses[0] < Fraction(1, 2)

    def test_integer_input_stays_exact(self):
        image = brouwer_map(make_family("path", 1, n=3), (1, 0, 0))
        assert image.masses == (Fraction(1, 2), 0, Fraction(1, 2))
        assert all(type(m) is Fraction for m in image.masses)


class TestLargeCommonOffsets:
    """Float games whose offsets share a constant far above r max|M|: the
    constant moves no equilibrium, so it must move no verdict."""

    def test_a_negative_split_is_refused(self):
        # the split of support {1, 2} solves to x2 = -2.5e-4
        solved = solve_affine_by_supports(independent_pair(1e6, 1e6 + 1.0005))
        assert [(item.x.masses, item.support) for item in solved] == [((1.0, 0.0), (0,))]

    def test_a_corner_short_by_a_small_gap_is_refused(self):
        # at the corner (1, 0), C1 - C2 = 5e-4 > 0; only the split holds
        game = independent_pair(1e6, 1e6 + 0.9995)
        solved = solve_affine_by_supports(game)
        assert [item.support for item in solved] == [(0, 1)]
        assert solved[0].x.masses == pytest.approx((0.99975, 0.00025), abs=1e-9)
        assert verify_equilibrium(game, solved[0].x).is_equilibrium
        assert not verify_equilibrium(game, (1.0, 0.0)).is_equilibrium

    def test_masses_far_below_the_offsets_still_sum_to_r(self):
        # at r = 1e-10 and offsets near 1, float masses carry errors near
        # 1e-16 that exceed 1e-9 r; the point still comes out with total r
        r = 1e-10
        game = independent_pair(1.0, 1.0 + r / 2, r)
        solved = solve_affine_by_supports(game)
        assert [item.support for item in solved] == [(0, 1)]
        assert solved[0].x.masses == pytest.approx((0.75 * r, 0.25 * r), rel=1e-5)
        assert price_report(game).poa_u == pytest.approx(1)

    def test_a_point_found_twice_is_listed_once(self):
        # supports {1, 2} and {1, 2, 3} both solve to (1/3, 2/3, 0), and
        # their float copies land 6.2e-10 apart
        exact = [affine(Fraction(1, 2), Fraction(5, 3)), affine(1, Fraction(7, 6)),
                 affine(Fraction(7, 3), Fraction(11, 6))]
        costs = [affine(float(a), float(b) + 1e6)
                 for a, b in (cost.as_affine() for cost in exact)]
        game = Game.graphical(3, 1.0, costs, influence_from_triples(3, [(2, 0, 3.0)]))
        solved = solve_affine_by_supports(game)
        assert len(solved) == 1
        assert solved[0].x.masses == pytest.approx((1 / 3, 2 / 3, 0), abs=1e-8)
        assert verify_equilibrium(game, solved[0].x).is_equilibrium

    def test_exact_dynamics_stop_at_the_gap_size(self):
        # the equilibrium x1 = 2/3 is off the chunk grid, so the run stops
        # at the float slack, which the offsets of 10^6 must not widen
        game = independent_pair(Fraction(10 ** 6), Fraction(10 ** 6) + Fraction(1, 3),
                                Fraction(1))
        result = best_response_dynamics(game, distribution([Fraction(1), Fraction(0)]))
        assert result.converged
        assert result.report.worst_gap <= 1e-8
        assert abs(float(result.x.masses[0]) - 2 / 3) <= 1e-8


class TestBestResponseDynamics:
    def test_dilemma_drift_down(self):
        result = best_response_dynamics(
            dilemma_game(), distribution([Fraction(1, 2), Fraction(1, 2)]))
        assert result.converged
        assert abs(float(result.x.masses[0])) <= 1e-9
        assert result.report.is_equilibrium

    def test_dilemma_drift_up_needs_step_halving(self):
        result = best_response_dynamics(
            dilemma_game(), distribution([Fraction(4, 5), Fraction(1, 5)]))
        assert result.converged
        assert abs(float(result.x.masses[0]) - 1) <= 1e-9
        assert float(result.final_step) < 0.01

    def test_exact_run_on_a_path_game(self):
        game = make_family("path", Fraction(1, 3), r=Fraction(1), n=6)
        start = distribution([Fraction(1, 6)] * 6)
        result = best_response_dynamics(game, start)
        assert result.converged
        assert result.report.is_equilibrium
        assert all(isinstance(m, Fraction) for m in result.x.masses)
        target = [Fraction(8, 38), Fraction(5, 38), Fraction(6, 38),
                  Fraction(6, 38), Fraction(5, 38), Fraction(8, 38)]
        for got, want in zip(result.x.masses, target):
            assert abs(float(got - want)) < 1e-3

    def test_trace_bookkeeping(self):
        game = dilemma_game()
        start = distribution([Fraction(2, 5), Fraction(3, 5)])
        result = best_response_dynamics(game, start)
        assert result.trace[0].masses == start.masses
        assert result.trace[-1].masses == result.x.masses
        assert len(result.trace) == result.iterations + 1
        bare = best_response_dynamics(game, start, keep_trace=False)
        assert bare.trace == ()
        assert bare.x.masses == result.x.masses

    def test_step_validation(self):
        for bad in (0, float("nan")):
            with pytest.raises(ValueError):
                best_response_dynamics(dilemma_game(),
                                       distribution([1, 0]), step=bad)
