"""Metamorphic properties of the support solver on random affine games.

The games have n <= 6 vertices, and their slopes, offsets, influences and
total mass mix denominators up to 60 with the values 0, 1/2 and 1, which
make singular support systems and so solution families common. Each
property solves a game and a transformed copy and compares the two
equilibrium sets: points by their masses, families by their support,
dimension and affine hull, and one-parameter families also by their end
points. On degenerate games, the vertices of each family of two or more
parameters, which sample it and bound its cost, are checked exactly and
against HiGHS. Two more properties compare a game with a copy whose total
mass and offsets are rescaled: the potential minima of a symmetric
game, and the equilibria and prices of a float game. Another scales
every coefficient of a float game by a power of two. The last ones do
the same for the float descent on polynomial games.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbg import (EquilibriumFamily, EquilibriumPoint, Game, affine,
                 family_cost_range, influence_from_triples, make_family,
                 min_social_cost, minimize_potential, polynomial, price_report,
                 solve_affine_by_supports, verify_equilibrium)
from nbg.equilibrium import _equal_cost_pass, _family_rows, _values
from util import (cost_parameter_game, covered_corner_game, lp_minimum,
                  offsets_only_game, two_vertex_game)

scalars = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.integers(1, 60).flatmap(
        lambda q: st.integers(0, 3 * q).map(lambda p: Fraction(p, q))))
positive = st.integers(1, 60).flatmap(
    lambda q: st.integers(1, 3 * q).map(lambda p: Fraction(p, q)))


@st.composite
def exact_games(draw):
    n = draw(st.integers(1, 6))
    costs = [affine(draw(scalars), draw(scalars)) for _ in range(n)]
    triples = [(i, j, draw(scalars)) for i in range(n) for j in range(n)
               if i != j and draw(st.booleans())]
    return Game.graphical(n, draw(positive), costs, influence_from_triples(n, triples))


def rebuilt(game, slope=lambda a: a, offset=lambda b: b, alpha=lambda a: a,
            scalar=lambda v: v, perm=None):
    """A copy of `game` with its slopes, offsets and influences mapped, every
    scalar then passed through `scalar`, and vertex i moved to perm[i]."""
    n = game.n
    perm = perm or list(range(n))
    costs = [None] * n
    for i, form in enumerate(game.vertex_costs):
        a, b = form.as_affine()
        costs[perm[i]] = affine(scalar(slope(a)), scalar(offset(b)))
    triples = [(perm[i], perm[j], scalar(alpha(v))) for (i, j), v in game.influence.items()]
    return Game.graphical(n, scalar(game.r), costs, influence_from_triples(n, triples))


def moved(values, perm):
    out = [None] * len(values)
    for i, v in enumerate(values):
        out[perm[i]] = v
    return tuple(out)


def split(solved):
    points = [e for e in solved if isinstance(e, EquilibriumPoint)]
    families = {f.support: f for f in solved if isinstance(f, EquilibriumFamily)}
    return points, families


def on_hull(family, masses):
    return family.contains(masses) is not None


def same_hull(family, other, perm):
    """Whether `other` spans the hull of `family` with vertices moved by perm."""
    spanning = [family.base] + [tuple(b + d for b, d in zip(family.base, direction))
                                for direction in family.directions]
    return (family.dimension == other.dimension
            and all(on_hull(other, moved(m, perm)) for m in spanning))


def end_points(family, perm):
    lo, hi = family.interval
    return {moved(family.point_at((t,)).x.masses, perm) for t in (lo, hi)}


def assert_same_set(first, second, perm, cost=lambda c: c):
    """The equilibrium set `second` is `first` with vertex i moved to
    perm[i] and every common cost mapped by `cost`."""
    identity = list(range(len(perm)))
    inverse = [perm.index(i) for i in identity]
    points, families = split(first)
    other_points, other_families = split(second)
    assert ({(moved(p.x.masses, perm), cost(p.cost)) for p in points}
            == {(tuple(p.x.masses), p.cost) for p in other_points})
    relabelled = {tuple(sorted(perm[i] for i in s)): f for s, f in families.items()}
    assert sorted(relabelled) == sorted(other_families)
    for support, family in relabelled.items():
        other = other_families[support]
        assert same_hull(family, other, perm) and same_hull(other, family, inverse)
        if family.dimension == 1:
            assert end_points(family, perm) == end_points(other, identity)


def cost_ranges_match(first, second, cost):
    for family, twin in zip(sorted(split(first)[1].items()), sorted(split(second)[1].items())):
        (lo, hi), exact = family_cost_range(family[1])
        (other_lo, other_hi), other_exact = family_cost_range(twin[1])
        assert exact == other_exact
        for want, got in ((cost(lo), other_lo), (cost(hi), other_hi)):
            if exact:
                assert want == got
            else:
                assert math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=60)
@given(exact_games(), positive)
def test_scaling_every_coefficient_scales_every_cost(game, factor):
    solved = solve_affine_by_supports(game)
    scaled_game = rebuilt(game, slope=lambda a: factor * a, offset=lambda b: factor * b,
                          alpha=lambda a: factor * a)
    scaled = solve_affine_by_supports(scaled_game)
    assert_same_set(solved, scaled, list(range(game.n)), cost=lambda c: factor * c)
    cost_ranges_match(solved, scaled,
                      lambda c: factor * c if isinstance(c, Fraction) else float(factor) * c)


@settings(max_examples=60)
@given(exact_games(), positive)
def test_an_offset_shift_moves_only_the_common_cost(game, shift):
    solved = solve_affine_by_supports(game)
    shifted_game = rebuilt(game, offset=lambda b: b + shift)
    shifted = solve_affine_by_supports(shifted_game)
    assert_same_set(solved, shifted, list(range(game.n)), cost=lambda c: c + shift)
    cost_ranges_match(solved, shifted,
                      lambda c: c + shift if isinstance(c, Fraction) else c + float(shift))


@settings(max_examples=60)
@given(exact_games(), st.randoms(use_true_random=False))
def test_relabelling_the_vertices_relabels_the_equilibria(game, rng):
    perm = list(range(game.n))
    rng.shuffle(perm)
    solved = solve_affine_by_supports(game)
    assert_same_set(solved, solve_affine_by_supports(rebuilt(game, perm=perm)), perm)


@settings(max_examples=60)
@given(exact_games())
@example(make_family("path", Fraction(1), n=8))
@example(make_family("cycle", Fraction(1), n=6))
def test_stored_constraints_are_the_rows_of_the_family_values(game):
    # the rows of a family without an interval, rebuilt from its own
    # values over den = 1 and divided by the game's scale D, are the
    # constraints it stores, in the same order; few random games have
    # such a family, the two examples have several
    pass_ = _equal_cost_pass(game)
    for family in split(solve_affine_by_supports(game))[1].values():
        if family.interval is None:
            rows = _family_rows(pass_, family.support, 1, family.base, family.cost_base,
                                family.directions, family.cost_directions)
            assert family.constraints == tuple(_values(pass_.scale, rows))


@settings(max_examples=60)
@given(exact_games())
def test_points_and_one_parameter_end_points_verify_exactly(game):
    for item in solve_affine_by_supports(game):
        if isinstance(item, EquilibriumPoint):
            members = [item]
        elif item.dimension == 1:
            members = [item.point_at((t,)) for t in item.interval]
        else:
            continue
        for member in members:
            report = verify_equilibrium(game, member.x, tol=0)
            assert report.is_equilibrium
            assert report.common_cost == member.cost


@st.composite
def degenerate_games(draw):
    """Games with offsets 0 or 1/2 and every influence 1: unweighted graphs
    with slopes 1, about one in eight of which has a family of two or more
    parameters, or digraphs with slopes 0 or 1, where such a family's cost
    can vary."""
    n = draw(st.integers(3, 6))
    if draw(st.booleans()):
        slopes = [Fraction(1)] * n
        triples = [t for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
                   for t in ((i, j, Fraction(1)), (j, i, Fraction(1)))]
    else:
        slopes = [draw(st.sampled_from([Fraction(0), Fraction(1)])) for _ in range(n)]
        triples = [(i, j, Fraction(1)) for i in range(n) for j in range(n)
                   if i != j and draw(st.booleans())]
    costs = [affine(a, draw(st.sampled_from([Fraction(0), Fraction(1, 2)]))) for a in slopes]
    return Game.graphical(n, draw(positive), costs, influence_from_triples(n, triples))


#: two two-parameter families, each with a common cost from 0 to 1
VARYING_COST = Game.graphical(
    4, 1, [affine(0, 0), affine(0, 0), affine(1, 0), affine(0, 0)],
    influence_from_triples(4, [(2, 0, 1), (2, 1, 1), (2, 3, 1), (3, 0, 1), (3, 1, 1),
                               (3, 2, 1)]))


@settings(max_examples=60)
@given(degenerate_games())
@example(make_family("path", Fraction(1), n=7))
@example(make_family("cycle", Fraction(1), n=8))
@example(VARYING_COST)
def test_multi_parameter_samples_and_cost_ranges_are_exact(game):
    # the float copy samples and bounds each family at the same vertices,
    # which its rows meet within the mass slack
    floated = solve_affine_by_supports(rebuilt(game, scalar=float))
    for family, twin in zip(solve_affine_by_supports(game), floated):
        if not isinstance(family, EquilibriumFamily) or family.interval is not None:
            continue
        (lo, hi), exact = family_cost_range(family)
        assert exact
        samples = family.sample_points(5)
        for point in samples:
            report = verify_equilibrium(game, point.x, tol=0)
            assert report.is_equilibrium
            assert report.common_cost == point.cost
            assert lo <= point.cost <= hi
        slopes = [float(c) for c in family.cost_directions]
        low = lp_minimum(family.constraints, slopes)[0]
        high = -lp_minimum(family.constraints, [-c for c in slopes])[0]
        assert float(lo) == pytest.approx(float(family.cost_base) + low, abs=1e-9)
        assert float(hi) == pytest.approx(float(family.cost_base) + high, abs=1e-9)
        assert twin.support == family.support
        assert all(close(a, b) for a, b in zip((lo, hi), family_cost_range(twin)[0]))
        twin_samples = twin.sample_points(5)
        assert len(twin_samples) == len(samples)
        for point, other in zip(samples, twin_samples):
            assert all(close(a, b) for a, b in zip(point.x.masses, other.x.masses))


def close(a, b):
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)


#: a pinched face whose integer rows reach about 4e14 (denominators 29
#: and 39), which HiGHS read as empty on the unscaled rows
LARGE_ROWS = Game.graphical(
    6, Fraction(1), [affine(0, 0)] * 6,
    influence_from_triples(6, [(2, 5, Fraction(1, 2)), (3, 1, Fraction(1, 2)),
                               (4, 1, Fraction(39, 29)), (5, 2, Fraction(1, 39))]))


#: a float family region with a flat row of rounding noise (-3e-17),
#: which an LP that scaled rows up read as empty
NOISE_ROW = Game.graphical(
    6, Fraction(1), [affine(Fraction(5, 2), 0), affine(1, 0), affine(0, Fraction(1, 2)),
                     affine(0, 0), affine(0, Fraction(1, 2)), affine(0, Fraction(1, 2))],
    influence_from_triples(6, [(1, 3, Fraction(1))]))


@settings(max_examples=60)
@given(exact_games())
@example(LARGE_ROWS)
@example(NOISE_ROW)
def test_exact_and_float_modes_agree(game):
    solved = solve_affine_by_supports(game)
    floated = solve_affine_by_supports(rebuilt(game, scalar=float))

    def signature(item):
        kind = "family" if isinstance(item, EquilibriumFamily) else "point"
        return item.bitmask, kind, getattr(item, "dimension", 0)

    assert [signature(e) for e in solved] == [signature(e) for e in floated]
    for exact, approx in zip(solved, floated):
        if isinstance(exact, EquilibriumPoint):
            pairs = list(zip(exact.x.masses, approx.x.masses)) + [(exact.cost, approx.cost)]
        else:
            pairs = list(zip(exact.base, approx.base)) + [(exact.cost_base, approx.cost_base)]
            for d, e in zip(exact.directions, approx.directions):
                pairs += list(zip(d, e))
            pairs += list(zip(exact.cost_directions, approx.cost_directions))
            if exact.interval is not None:
                pairs += list(zip(exact.interval, approx.interval))
        assert all(close(a, b) for a, b in pairs)


small_ratios = st.builds(Fraction, st.integers(0, 12), st.integers(1, 6))


@st.composite
def exact_symmetric_games(draw):
    n = draw(st.integers(1, 4))
    costs = [affine(draw(small_ratios), draw(small_ratios)) for _ in range(n)]
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            alpha = draw(small_ratios)
            triples += [(i, j, alpha), (j, i, alpha)]
    r = draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)))
    return Game.graphical(n, r, costs, influence_from_triples(n, triples))


def exact_minima(game):
    return {tuple(x.masses) for x in minimize_potential(game) if x.exact}


@settings(max_examples=100)
@given(exact_symmetric_games(),
       st.sampled_from([Fraction(1, 10 ** 7), Fraction(1, 3), Fraction(7)]))
@example(two_vertex_game(1, Fraction(1, 2)), Fraction(1, 10 ** 7))
@example(two_vertex_game(1, 0), Fraction(1, 10 ** 7))
def test_potential_minima_scale_with_the_game(game, s):
    # C_i(s x) on the copy is s C_i(x), so its potential is s^2 Phi(x) and
    # x is a minimum of the game exactly when s x is one of the copy
    forms = [form.as_affine() for form in game.vertex_costs]
    scaled = Game.graphical(game.n, s * game.r, [affine(a, s * b) for a, b in forms],
                            game.influence)
    assert ({tuple(s * m for m in x) for x in exact_minima(game)}
            == exact_minima(scaled))


@st.composite
def float_games(draw):
    """Float copies of the exact games, or float paths and cycles."""
    if draw(st.booleans()):
        return rebuilt(draw(exact_games()), scalar=float)
    kind = draw(st.sampled_from(["path", "cycle"]))
    return make_family(kind, float(draw(scalars)), r=float(draw(positive)),
                       n=draw(st.integers(3, 6)))


def times_power_of_two(game, k):
    """The copy of a float game with r and every offset times 2^k, which
    scales C_i(2^k x) to 2^k C_i(x) exactly in floating point."""
    forms = [form.as_affine() for form in game.vertex_costs]
    return Game.graphical(game.n, math.ldexp(game.r, k),
                          [affine(a, math.ldexp(b, k)) for a, b in forms], game.influence)


def divided(solved, k):
    """The equilibrium set with every value that carries mass or cost
    divided by 2^k; directions and slopes are kept as they are."""
    def down(values):
        return tuple(math.ldexp(v, -k) for v in values)

    out = []
    for item in solved:
        if isinstance(item, EquilibriumPoint):
            out.append((item.support, down(item.x.masses), down([item.cost])))
        else:
            out.append((item.support, down(item.base), down([item.cost_base]),
                        item.directions, item.cost_directions,
                        item.interval and down(item.interval),
                        tuple((down([value]), coefs) for value, coefs in item.constraints)))
    return out


@settings(max_examples=60)
@given(float_games(), st.integers(-60, 60))
@example(make_family("path", 0.5, r=1.0, n=3), 40)
@example(make_family("path", 0.5, r=1.0, n=3), -30)
@example(make_family("path", 1.0, r=1.0, n=5), -60)
@example(Game.graphical(2, 1.0, [affine(1.0, 1e6), affine(1.0, 1e6 + 1.0005)],
                        influence_from_triples(2, [])), -30)
@example(Game.graphical(2, 1.0, [affine(1.0, 1e6), affine(1.0, 1e6 + 0.9995)],
                        influence_from_triples(2, [])), 30)
def test_float_games_solve_the_same_at_every_scale(game, k):
    # scaling r and every offset by 2^k scales the equilibrium set by 2^k,
    # and multiplying floats by a power of two is exact
    scaled_game = times_power_of_two(game, k)
    scaled = solve_affine_by_supports(scaled_game)
    assert divided(scaled, k) == divided(solve_affine_by_supports(game), 0)
    for item in scaled:
        if isinstance(item, EquilibriumPoint):
            assert verify_equilibrium(scaled_game, item.x).is_equilibrium
    prices, scaled_prices = price_report(game), price_report(scaled_game)
    for name in ("poa_u", "poa_e", "pos_u", "pos_e"):
        assert getattr(scaled_prices, name) == getattr(prices, name)
    for name in ("optimum_u", "optimum_e"):
        assert math.ldexp(getattr(scaled_prices, name), -k) == getattr(prices, name)


def without_parameters(solved, k):
    """The equilibrium set with every cost divided by 2^k, read without
    family parameters: each entry's support, dimension, and the masses
    and costs of its points, a family's `sample_points(5)`."""
    out = []
    for item in solved:
        family = isinstance(item, EquilibriumFamily)
        points = item.sample_points(5) if family else [item]
        out.append((item.support, item.dimension if family else 0,
                    [(point.x.masses, math.ldexp(point.cost, -k)) for point in points]))
    return out


@settings(max_examples=200)
@given(float_games(), st.integers(-60, 60))
@example(covered_corner_game(0), 43)
@example(cost_parameter_game(0), -29)
@example(cost_parameter_game(0), 60)
@example(offsets_only_game(0), -39)
def test_float_games_scale_with_every_coefficient(game, k):
    # every slope, offset and influence times 2^k, which is exact: the
    # same points and families, with every cost times 2^k
    def times(v):
        return math.ldexp(v, k)

    scaled = solve_affine_by_supports(rebuilt(game, slope=times, offset=times, alpha=times))
    assert without_parameters(scaled, k) == without_parameters(solve_affine_by_supports(game), 0)


def test_a_tiny_total_mass_splits_evenly():
    # on two independent vertices with C_i = x_i, at a corner the charged
    # vertex pays r and the empty one 0, so only the even split is an
    # equilibrium, and it is optimal for both social costs
    r = 1e-10
    game = Game.graphical(2, r, [affine(1.0, 0.0)] * 2, influence_from_triples(2, []))
    solved = solve_affine_by_supports(game)
    assert [(item.x.masses, item.cost, item.support) for item in solved] == [
        ((r / 2, r / 2), r / 2, (0, 1))]
    report = price_report(game)
    assert (report.poa_u, report.poa_e, report.pos_u, report.pos_e) == (1, 1, 1, 1)


#: C1 = x1 + x1^2 / r + x2 / 2, C2 = 2 x2 + x1 / 2, as the coefficients
#: a_j of t^j at r = 1 and the influences; its one potential minimum is
#: (sqrt(5/2) - 1, 2 - sqrt(5/2)) r = (0.5811 r, 0.4189 r)
CURVED = ([(0.0, 1.0, 1.0), (0.0, 2.0)], [(0, 1, 0.5), (1, 0, 0.5)])


def polynomial_game(r, spec):
    """The float game of `spec` at total mass r: each vertex pays
    a_j r^(1-j) t^j on its own mass t, so a cost at r x is r times the
    cost at x for x of total 1."""
    costs, influence = spec
    forms = [polynomial([a * r ** (1 - j) for j, a in enumerate(c)]) for c in costs]
    return Game.graphical(len(costs), r, forms, influence_from_triples(len(costs), influence))


coefficients = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
positive_coefficients = st.sampled_from([0.5, 1.0, 2.0])


@st.composite
def polynomial_specs(draw):
    """Symmetric float games on 2 or 3 vertices. Every cost rises
    linearly, so the descents converge well inside their iteration cap,
    and the first one has degree 2 or 3, so no game is affine and each
    takes the descent."""
    n = draw(st.integers(2, 3))
    costs = [[draw(coefficients), draw(positive_coefficients)]
             + draw(st.lists(coefficients, max_size=2)) for _ in range(n)]
    costs[0] = costs[0][:draw(st.integers(2, 3))] + [draw(positive_coefficients)]
    influence = []
    for i in range(n):
        for j in range(i + 1, n):
            alpha = draw(coefficients)
            influence += [(i, j, alpha), (j, i, alpha)]
    return costs, influence


def times(r, x):
    return tuple(r * m for m in x.masses)


@settings(max_examples=15)
@given(polynomial_specs(), st.sampled_from([-20, -10, 10, 20]).map(lambda k: 2.0 ** k))
@example(CURVED, 2.0 ** -20)
@example(CURVED, 2.0 ** -10)
@example(CURVED, 2.0 ** 10)
@example(CURVED, 2.0 ** 20)
@example(CURVED, 1e6)
@example(CURVED, 1e-6)
def test_descent_minima_scale_with_the_game(spec, r):
    base = minimize_potential(polynomial_game(1.0, spec))
    found = minimize_potential(polynomial_game(r, spec))
    assert base
    if math.frexp(r)[0] == 0.5:
        # r is a power of two, so every descent step at r is r times the
        # step at 1, exactly
        assert [x.masses for x in found] == [times(r, x) for x in base]
    else:
        assert len(found) == len(base)
        for x, y in zip(base, found):
            assert max(abs(a - b) for a, b in zip(times(r, x), y.masses)) <= 1e-6 * r


@pytest.mark.parametrize("which", ["utilitarian", "egalitarian"])
def test_social_optimum_descent_scales_with_the_game(which):
    base = min_social_cost(polynomial_game(1.0, CURVED), which)
    assert base.method == "descent"
    for r in (2.0 ** -10, 2.0 ** 10):
        found = min_social_cost(polynomial_game(r, CURVED), which)
        assert found.x.masses == times(r, base.x)
        assert found.value == r * base.value
