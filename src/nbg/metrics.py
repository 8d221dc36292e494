"""Social costs, optimal-cost search, and prices of anarchy/stability.

The utilitarian social cost averages the cost borne by the mass; the
egalitarian one takes the worst cost among charged vertices. At an
equilibrium both collapse to the common charged cost, so equilibrium
contributions to the price ratios come straight from the solver, while
the denominators need a search over the whole simplex.

On affine games with at most SUPPORT_ENUMERATION_MAX_N (16) vertices
both optima are exact. Each is the least point over the nonsingular
support systems of an `equilibrium._SupportPass` with nonnegative
masses: face stationarity systems (M + M^T) for the utilitarian cost,
equal-cost systems (M) for the egalitarian one. Singular systems add no
candidate (see `_least_support_point`), so no linear program runs.
Equilibrium costs come from the same pass: each point carries its cost,
and each family its cost range, read off interval end points or region
vertices, so `price_report` is exact on exact input. Other games fall
back to float multistart descent, flagged as an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import numeric
from .equilibrium import (SUPPORT_ENUMERATION_MAX_N, EquilibriumFamily, _affine_or_none,
                          _equal_cost_pass, _equilibria, _on_total, _SupportPass,
                          family_cost_range)
from .errors import NbgError, UnsupportedGameError
from .games import Game, MassDistribution, cost_vector, distribution
from .simplexopt import multistart_minimize, project_to_simplex

#: random descent starts on games without an exact path
DESCENT_STARTS = 40
#: sharpness of the smooth maximum used for egalitarian descent on
#: non-affine games, in units of 1 / r
SMOOTH_MAX_BETA = 1e4


@dataclass(frozen=True)
class SocialCostPair:
    utilitarian: object
    egalitarian: object


def social_costs(game: Game, x) -> SocialCostPair:
    """Both social costs; the egalitarian max runs over charged vertices."""
    x = x if isinstance(x, MassDistribution) else MassDistribution(tuple(x), game.r)
    costs = cost_vector(game, x)
    total = 0
    for i in range(game.n):
        total = total + x.masses[i] * costs[i]
    utilitarian = numeric.quotient(total, game.r)
    egalitarian = max(costs[i] for i in x.support())
    return SocialCostPair(utilitarian, egalitarian)


@dataclass(frozen=True)
class OptimumResult:
    x: MassDistribution
    value: object
    exact: bool
    method: str


def _least_support_point(pass_: _SupportPass, systems, value):
    """The masses of the least-valued point among the unique support
    systems `systems` of `pass_` whose masses are nonnegative; `value`
    maps (masses, common value c of the system) to a key that orders the
    points as the objective does.

    Both optima of an affine game are found this way.

    Utilitarian: the face systems of M + M^T are the stationarity
    conditions of q(x) = x.C(x) on each face, with c the multiplier of
    sum x = r. The global minimiser x* is stationary on the face of its
    own support, so it solves that support's system. If the system is
    singular, take a kernel direction (d, d_c); the last row gives
    sum d = 0, so d is nonzero on the masses and has a negative entry.
    Along d the objective is constant: grad q . d = c sum d = 0 and
    d^T (M + M^T) d = d_c sum d = 0. Slide x* along d until a mass
    reaches zero; the point still solves the system of the smaller
    support, at the same value. Repeating ends at a nonsingular system
    (a singleton support always is one) with nonnegative masses.

    Egalitarian: the min-max over charged vertices equals the least, over
    supports S, of the LP "minimise t subject to C_i(x) <= t for i in S,
    x >= 0 on S, sum x = r": every point is feasible for the LP of its
    own support at its egalitarian cost, and at any LP point the
    egalitarian cost is at most t. Take an optimal vertex of that LP. If
    all its masses are positive, every cost row is active, and with
    sum x = r they form a nonsingular square system: the equal-cost
    system of S, whose c is the value. If some mass is zero, drop that
    vertex from S; the same point is feasible for the smaller LP with no
    larger value, and repeating again ends at a nonsingular system with
    nonnegative masses.

    Conversely each such system gives a feasible point, valued at its
    objective (its egalitarian cost is its common cost c). So the least
    candidate is the optimum, and singular systems and LPs add nothing.

    The utilitarian value needs no cost evaluation either: the face rows
    give x^T (M + M^T) x = c r - b.x on the support, with b the offsets,
    so r times the utilitarian cost, b.x + x^T M x, is (c r + b.x) / 2.
    """
    best = None
    for support, solution in systems:
        if solution.status != "unique":
            continue
        # the values are built only for candidates
        masses = pass_.masses(support, solution.numerators)
        if masses is None:
            continue
        den = solution.denominator
        point = [numeric.quotient(m, den) if m else m for m in masses]
        candidate = value(point, numeric.quotient(solution.numerators[len(support)], den))
        if best is None or candidate < best[1]:
            best = (point, candidate)
    return _on_total(pass_, best[0])


def _exact_egalitarian_minimum(game: Game, pass_: _SupportPass, systems) -> OptimumResult:
    """Global egalitarian minimum of an affine game from the equal-cost
    support systems `systems` of its pass `pass_`, with method "supports"."""
    point = _least_support_point(pass_, systems, lambda point, cost: cost)
    x = distribution(point, game.r)
    value = social_costs(game, x).egalitarian
    return OptimumResult(x, value, pass_.exact and x.exact, "supports")


def _exact_utilitarian_minimum(game: Game, matrix, offsets) -> OptimumResult:
    """Global utilitarian minimum of an affine game from the face systems
    of M + M^T, with method "faces"."""
    n, r = game.n, game.r
    symmetric = [[matrix[j][i] + matrix[i][j] for i in range(n)] for j in range(n)]
    faces = _SupportPass(symmetric, offsets, r)
    # twice r times the utilitarian cost (see _least_support_point)
    point = _least_support_point(
        faces, faces.systems(),
        lambda point, c: c * r + sum(b * m for b, m in zip(offsets, point)))
    x = distribution(point, r)
    value = social_costs(game, x).utilitarian
    return OptimumResult(x, value, faces.exact and x.exact, "faces")


def _fd_gradient(objective, v, r):
    """Central differences of `objective` at v, at step 1e-7 * r."""
    h = 1e-7 * r
    grads = []
    for i in range(len(v)):
        up = list(v)
        dn = list(v)
        up[i] += h
        dn[i] -= h
        grads.append((objective(up) - objective(dn)) / (2 * h))
    return grads


def min_social_cost(game: Game, which="utilitarian") -> OptimumResult:
    """Search the simplex for the lowest social cost.

    On affine games with n <= SUPPORT_ENUMERATION_MAX_N both measures are
    decided by the support systems alone (see `_least_support_point`):
    utilitarian by the face systems (method "faces"), egalitarian by the
    equal-cost systems (method "supports"). The result is exact when the
    game and the optimal point are. Anything else relies on descent plus
    the simplex vertices, and the egalitarian value is then flagged as an
    estimate. Games with two vertices additionally get a dense line scan.
    The descent minimises r times the social cost (see `simplexopt`).
    """
    if which not in ("utilitarian", "egalitarian"):
        raise ValueError(f"unknown social cost {which!r}")
    n, r = game.n, game.r

    affine_parts = _affine_or_none(game)
    if affine_parts is not None and n <= SUPPORT_ENUMERATION_MAX_N:
        if which == "egalitarian":
            pass_ = _equal_cost_pass(game)
            return _exact_egalitarian_minimum(game, pass_, pass_.systems())
        return _exact_utilitarian_minimum(game, *affine_parts)

    pool = []

    def consider(masses, method):
        x = distribution(tuple(masses), r)
        pair = social_costs(game, x)
        value = pair.utilitarian if which == "utilitarian" else pair.egalitarian
        pool.append((float(value), value, x, game.exact and x.exact, method))

    scale = float(r)

    def objective(v):
        # raw cost evaluation: descent probes points slightly off the
        # simplex, which a validated distribution would reject
        clipped = [t if t > 0 else 0.0 for t in v]
        costs = [float(c) for c in cost_vector(game, clipped)]
        if which == "utilitarian":
            return sum(t * c for t, c in zip(clipped, costs))
        peak = max(costs)
        beta = SMOOTH_MAX_BETA / scale
        return scale * (peak + math.log(sum(math.exp(beta * (c - peak)) for c in costs)) / beta)

    for res in multistart_minimize(objective, lambda v: _fd_gradient(objective, v, scale),
                                   n, scale, DESCENT_STARTS):
        consider(project_to_simplex(res.x, scale), "descent")

    if n == 2:
        steps = 10 ** 4
        for k in range(steps + 1):
            t = scale * k / steps
            consider((t, scale - t), "scan")

    for i in range(n):
        vertex = [0 if game.exact else 0.0] * n
        vertex[i] = r if game.exact else scale
        consider(vertex, "vertex")

    pool.sort(key=lambda entry: (entry[0], not entry[3]))
    _, value, x, exact, method = pool[0]
    if which == "egalitarian":
        exact = False
    return OptimumResult(x, value, exact, method)


@dataclass(frozen=True)
class PriceReport:
    poa_u: object
    poa_e: object
    pos_u: object
    pos_e: object
    optimum_u: object
    optimum_e: object
    best_equilibrium_cost: object
    worst_equilibrium_cost: object
    equilibria_used: tuple
    exact: dict


def _ratio(num, den):
    """num / den for a price. An optimum of 0 gives 1 when the equilibrium
    cost is 0 too (every equilibrium is then optimal), else math.inf."""
    if den == 0:
        if num != 0:
            return math.inf
        return Fraction(1) if numeric.all_exact((num, den)) else 1.0
    if numeric.all_exact((num, den)):
        return num / den
    return float(num) / float(den)


def price_report(game: Game) -> PriceReport:
    """Prices of anarchy and stability for an affine game with at most
    SUPPORT_ENUMERATION_MAX_N vertices; larger games are refused.

    Equilibrium costs come from exact support enumeration (families
    contribute their cost extremes, at the vertices of their regions).
    Both optima come from the support systems, so no descent runs, and
    every value is exact on exact input.
    """
    if _affine_or_none(game) is None:
        raise UnsupportedGameError("price report needs an affine game")

    # the equilibrium set and the egalitarian optimum share one pass and
    # its systems; _equal_cost_pass refuses games above the support cap
    pass_ = _equal_cost_pass(game)
    systems = list(pass_.systems())
    equilibria = _equilibria(pass_, systems)
    if not equilibria:
        raise NbgError("no equilibrium found; affine costs should admit one")

    lows = []
    highs = []
    eq_exact = True
    for eq in equilibria:
        if isinstance(eq, EquilibriumFamily):
            (lo, hi), exact = family_cost_range(eq)
            lows.append(lo)
            highs.append(hi)
            eq_exact = eq_exact and exact
        else:
            lows.append(eq.cost)
            highs.append(eq.cost)
            eq_exact = eq_exact and numeric.is_exact_scalar(eq.cost)

    best_eq = min(lows)
    worst_eq = max(highs)

    opt_u = min_social_cost(game, "utilitarian")
    opt_e = _exact_egalitarian_minimum(game, pass_, systems)

    flags = {
        "optimum_u": opt_u.exact,
        "optimum_e": opt_e.exact,
        "best_equilibrium_cost": eq_exact,
        "worst_equilibrium_cost": eq_exact,
    }
    flags["poa_u"] = flags["worst_equilibrium_cost"] and opt_u.exact
    flags["pos_u"] = flags["best_equilibrium_cost"] and opt_u.exact
    flags["poa_e"] = flags["worst_equilibrium_cost"] and opt_e.exact
    flags["pos_e"] = flags["best_equilibrium_cost"] and opt_e.exact

    return PriceReport(
        poa_u=_ratio(worst_eq, opt_u.value),
        poa_e=_ratio(worst_eq, opt_e.value),
        pos_u=_ratio(best_eq, opt_u.value),
        pos_e=_ratio(best_eq, opt_e.value),
        optimum_u=opt_u.value,
        optimum_e=opt_e.value,
        best_equilibrium_cost=best_eq,
        worst_equilibrium_cost=worst_eq,
        equilibria_used=tuple(equilibria),
        exact=flags,
    )


def gamma_for_class(max_degree: int):
    """Sharp integral-versus-value constant for nonnegative-coefficient
    polynomial vertex costs of bounded degree; the stability ratio is at
    most 1/gamma."""
    if max_degree < 0:
        raise ValueError(f"degree must be nonnegative, got {max_degree}")
    return Fraction(1, max_degree + 1)


def cost_degree(game: Game):
    """Largest polynomial degree among vertex-cost forms; None for general
    games (no stability bound available)."""
    if game.kind != "graphical":
        return None
    return max(form.max_degree() for form in game.vertex_costs)
