"""Potential function for symmetric graphical games.

Phi(x) = sum_i integral_0^{x_i} f_i + sum_{i<j} alpha_{i,j} x_i x_j has
partial derivatives equal to the vertex costs, so local minima of Phi on
the simplex are equilibria. The converse fails: an equilibrium can sit at
a maximum of Phi, which is why minimization filters candidates through a
local-minimum probe instead of returning every critical point. On affine
games the candidates are the exact equilibrium set from support
enumeration; only games with other cost forms fall back to float descent,
which works in units of r (see `simplexopt`) like every slack here.

Non-symmetric influence admits no such function (the mixed second
derivatives of any candidate would have to equal both alpha_{i,j} and
alpha_{j,i}), so these operations refuse non-symmetric games.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equilibrium import (SUPPORT_ENUMERATION_MAX_N, EquilibriumFamily,
                          solve_affine_by_supports, verify_equilibrium,
                          _affine_or_none)
from .errors import UnsupportedGameError
from .games import Game, MassDistribution, cost_vector
from .simplexopt import DEDUP_TOL, multistart_minimize

#: probe offset for the local-minimum test, as a share of the total mass;
#: float comparison slack, as a share of r^2 (a probe at a maximum drops
#: Phi by about r^2 * PROBE_STEP^2), plus the rounding of Phi, as a share
#: of its value (every term of Phi is nonnegative, so the value bounds them)
PROBE_STEP = Fraction(1, 100000)
PROBE_SLACK = 1e-12
PROBE_ROUNDING = 1e-14
#: random descent starts on games without an exact path
DESCENT_STARTS = 30
#: worst cost gap, as a share of r, at which a descent end point counts
#: as an equilibrium
DESCENT_TOLERANCE = 1e-7


@dataclass(frozen=True)
class PotentialValue:
    value: object
    gradient: tuple


def _require_symmetric(game: Game):
    if game.kind != "graphical":
        raise UnsupportedGameError("potential requires a graphical game")
    if not game.influence.is_symmetric:
        raise UnsupportedGameError(
            "no potential exists for non-symmetric influence")


def potential(game: Game, x) -> PotentialValue:
    """Potential value and its gradient (= the cost vector)."""
    _require_symmetric(game)
    if isinstance(x, MassDistribution):
        masses = x.masses
    else:
        masses = tuple(x)
    value = 0
    for i, form in enumerate(game.vertex_costs):
        value = value + form.integral(masses[i])
    for (i, j), alpha in game.influence.items():
        if i < j:
            value = value + alpha * masses[i] * masses[j]
    return PotentialValue(value, cost_vector(game, masses))


def is_local_minimum(game: Game, x) -> bool:
    """Probe whether x locally minimizes Phi on the simplex.

    Tests the pairwise directions e_j - e_i for charged i, moving
    PROBE_STEP * r of mass, or all of x_i if that is less; a strict
    decrease along any of them disqualifies x (on float data, a decrease
    by more than PROBE_SLACK * r^2 + PROBE_ROUNDING * Phi(x), so the test
    does not depend on the scale of the game). Not a sufficiency proof
    for degenerate curvature, but exact along each probed segment.
    """
    _require_symmetric(game)
    x = x if isinstance(x, MassDistribution) else MassDistribution(tuple(x), game.r)
    exact = x.exact and game.exact
    step = PROBE_STEP * game.r if exact else float(PROBE_STEP * game.r)
    base = potential(game, x).value
    slack = 0 if exact else (PROBE_SLACK * float(game.r) ** 2
                             + PROBE_ROUNDING * abs(float(base)))
    masses = list(x.masses)
    for i in x.support():
        h = step if step <= masses[i] else masses[i]
        for j in range(game.n):
            if j == i:
                continue
            moved = list(masses)
            moved[i] = moved[i] - h
            moved[j] = moved[j] + h
            if potential(game, moved).value < base - slack:
                return False
    return True


def minimize_potential(game: Game) -> tuple:
    """Distinct local minima of Phi over the simplex, as distributions.

    Every local minimum is an equilibrium, so affine games with at most
    SUPPORT_ENUMERATION_MAX_N vertices take their candidates from support
    enumeration and run no descent: the isolated equilibria and three
    samples of each family (interval points, or vertices of its region),
    exact on exact games. Other games take the
    end points of projected-gradient descent that pass verify_equilibrium
    at DESCENT_TOLERANCE * r, started from every simplex vertex and from
    DESCENT_STARTS random interior points. Candidates that pass the
    local-minimum probe are returned sorted; two exact minima are one only
    when equal, any other two when they lie within simplexopt.DEDUP_TOL * r
    of each other, the rule that merges descent end points.
    """
    _require_symmetric(game)
    if game.n <= SUPPORT_ENUMERATION_MAX_N and _affine_or_none(game) is not None:
        candidates = []
        for found in solve_affine_by_supports(game):
            if isinstance(found, EquilibriumFamily):
                candidates.extend(point.x for point in found.sample_points(3))
            else:
                candidates.append(found.x)
    else:
        tol = DESCENT_TOLERANCE * float(game.r)
        candidates = [x for x in _descent_end_points(game)
                      if verify_equilibrium(game, x, tol).is_equilibrium]
    minima = [x for x in candidates if is_local_minimum(game, x)]

    unique = []
    for m in sorted(minima, key=lambda d: tuple(float(t) for t in d.masses)):
        if not any(_same_minimum(game, m, kept) for kept in unique):
            unique.append(m)
    return tuple(unique)


def _descent_end_points(game: Game) -> list:
    def objective(v):
        total = 0.0
        for i, form in enumerate(game.vertex_costs):
            total += form.integral(v[i])
        for (i, j), alpha in game.influence.items():
            if i < j:
                total += alpha * v[i] * v[j]
        return total

    return [MassDistribution(res.x, game.r)
            for res in multistart_minimize(objective, lambda v: cost_vector(game, v),
                                           game.n, float(game.r), DESCENT_STARTS)]


def _same_minimum(game: Game, a: MassDistribution, b: MassDistribution) -> bool:
    if a.exact and b.exact:
        return a.masses == b.masses
    tol = DEDUP_TOL * float(game.r)
    return max(abs(float(u) - float(v)) for u, v in zip(a.masses, b.masses)) <= tol
