"""Small hand-picked games exercising specific phenomena.

Each constructor documents the behaviour its game exhibits: equilibrium
multiplicity, missing equilibria, paradoxical parameter response,
unbounded price of anarchy, a price-of-stability gap, or an equilibrium
sitting at a potential maximum. The CLI replays these and the test suite
pins their exact values.
"""

from __future__ import annotations

from fractions import Fraction

from . import numeric
from .games import Game, affine, constant, influence_from_triples
from .graphs import Digraph


def _symmetric_pair(alpha):
    return influence_from_triples(2, [(0, 1, alpha), (1, 0, alpha)])


def dilemma_game() -> Game:
    """Two vertices, common mass 1, costs C1 = 4*x1*x2 and C2 = x1.

    Three equilibria, x1 in {0, 3/4, 1}; everyone prefers x1 = 0 (cost 0)
    but from any start above 3/4 selfish moves drift to x1 = 1 (cost 1).
    """
    return Game.general(2, 1, (
        lambda m: 4 * m[0] * m[1],
        lambda m: m[0],
    ))


def no_equilibrium_game() -> Game:
    """Two vertices with a discontinuous cost and no equilibrium.

    C1 = 1 and C2 jumps from 2 down to 0 as x1 reaches 1/2: below the
    jump mass prefers vertex 1, at and above it vertex 2, and no
    distribution makes the occupied vertex weakly cheapest.
    """
    return Game.general(2, 1, (
        lambda m: 1 + 0 * m[0],
        lambda m: 2 if m[0] < Fraction(1, 2) else 0,
    ))


def braess_game(b2) -> Game:
    """Two-vertex game whose equilibrium cost falls as b2 grows.

    C1 = 5/4 - x1/4 and C2 = 1 + b2 - 3*x1/4. For b2 in [1/4, 3/4] the
    unique equilibrium is x1 = 2*b2 - 1/2 with cost 11/8 - b2/2: making
    vertex 2 intrinsically worse lowers everyone's cost.
    """
    if isinstance(b2, (int, float)):
        b2 = Fraction(b2)
    if b2 < 0:
        raise ValueError(f"offset must be nonnegative, got {numeric.scalar_text(b2)}")
    costs = (constant(1), affine(1, b2))
    return Game.graphical(2, 1, costs, _symmetric_pair(Fraction(1, 4)))


def unbounded_anarchy_game(alpha) -> Game:
    """Symmetric two-vertex linear game with price of anarchy (1+a)/2.

    With coupling a > 1 the corners are optimal equilibria of social
    cost 1, while the even split is also an equilibrium costing (1+a)/2
    under both social measures, so the ratio grows without bound in a.
    """
    if alpha < 0:
        raise ValueError(f"coupling must be nonnegative, got {numeric.scalar_text(alpha)}")
    costs = (affine(1, 0), affine(1, 0))
    return Game.graphical(2, 1, costs, _symmetric_pair(alpha))


def stability_gap_game(lam) -> Game:
    """One-parameter family with best-equilibrium cost above the optimum.

    C1 = 2 + 2*lam - x1 and C2 = 2 + 2*lam - (1 + lam)*x1; the only
    equilibrium is x1 = 0 with cost 2 + 2*lam while x1 = 1 costs only
    1 + 2*lam, so the price of stability is (2+2*lam)/(1+2*lam).
    """
    if isinstance(lam, (int, float)):
        lam = Fraction(lam)
    if lam < 0:
        raise ValueError(f"parameter must be nonnegative, got {numeric.scalar_text(lam)}")
    costs = (constant(1 + 2 * lam), affine(2 + lam, lam))
    return Game.graphical(2, 1, costs, _symmetric_pair(Fraction(1)))


def potential_maximum_game() -> Game:
    """Symmetric game whose potential is (3 - x1**2)/2 on the mass line.

    Both corners are equilibria. The corner x1 = 0 maximises the
    potential, so equilibria need not be potential minima; x1 = 1 is the
    unique minimum.
    """
    costs = (constant(1), affine(1, 1))
    return Game.graphical(2, 1, costs, _symmetric_pair(Fraction(1)))


def three_equilibria_game() -> Game:
    """Curved two-vertex game with equilibria x1 in {0, 3/4, 1}.

    C1 = 2 + 8*x1 - 4*x1**2 + 7*x2 and C2 = 9*x2 + 7*x1, which read
    C1 = 9 + x1 - 4*x1**2 and C2 = 9 - 2*x1 on the mass line. The curve
    has a negative coefficient, so the game is general, not graphical. The
    corner x1 = 0 stays an equilibrium under deviations up to 1/4, the
    corner x1 = 1 under all deviations, and the interior point under none.
    """
    return Game.general(2, 1, (
        lambda m: 2 + 8 * m[0] - 4 * m[0] * m[0] + 7 * m[1],
        lambda m: 9 * m[1] + 7 * m[0],
    ))


def unique_nonstrong_game() -> Game:
    """Affine two-vertex game whose only equilibrium survives no deviation.

    C1 = 5 - 2*x1 and C2 = 5 - 3*x1; the unique equilibrium x1 = 0 has
    tied costs, and any positive shift onto vertex 1 makes vertex 1
    strictly cheaper, so it is not deviation-proof at any threshold.
    """
    costs = (constant(3), affine(5, 0))
    return Game.graphical(2, 1, costs, _symmetric_pair(Fraction(2)))


def directed_triangle() -> Digraph:
    """Three vertices in a directed cycle: no stable-dominating set."""
    return Digraph(3, frozenset(((0, 1), (1, 2), (2, 0))))
