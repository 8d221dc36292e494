"""Named graph families and their closed-form equilibrium sets.

For a normal linear game, an equilibrium with every vertex cost equal to
a common value c solves the linear system (I + W | -1; 1...1 | 0) where
W holds the influence coefficients; the determinant of that matrix
decides uniqueness. Paths and cycles get hand-derived equilibrium sets
at the two tractable coefficients 1/2 and 1, complete bipartite graphs
and stars get a full case analysis over all coefficients, and the
conjecture scanner tabulates determinants and solution signs over a grid
without asserting anything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import numeric, polytope
from .equilibrium import EquilibriumFamily, EquilibriumPoint
from .errors import UnsupportedGameError
from .games import (Game, MassDistribution, affine, classify,
                    influence_from_triples, underlying_graph)
from .graphs import UndirectedGraph
from .linalg import solve_with_determinant

FAMILY_KINDS = ("path", "cycle", "complete_bipartite", "star")


# ---------------------------------------------------------------------------
# generators


def _family_edges(family, n=None, p=None, q=None):
    if family == "path":
        if n is None or n < 1:
            raise ValueError(f"path needs n >= 1, got {n!r}")
        return n, [(i, i + 1) for i in range(n - 1)]
    if family == "cycle":
        if n is None or n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n!r}")
        return n, [(i, (i + 1) % n) for i in range(n)]
    if family == "complete_bipartite":
        if p is None or q is None or not p >= q >= 1:
            raise ValueError(
                f"complete bipartite needs p >= q >= 1, got p={p!r}, q={q!r}")
        return p + q, [(i, p + j) for i in range(p) for j in range(q)]
    if family == "star":
        if n is None or n < 2:
            raise ValueError(f"star needs n >= 2, got {n!r}")
        return _family_edges("complete_bipartite", p=n - 1, q=1)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_KINDS}")


def make_family(family, alpha, r=1, n=None, p=None, q=None) -> Game:
    """Uniform-coefficient symmetric game on a named graph.

    Vertices 0..p-1 are the larger side of complete_bipartite(p, q); the
    star's centre is its last vertex.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {numeric.scalar_text(alpha)}")
    count, edges = _family_edges(family, n=n, p=p, q=q)
    costs = [affine(1, 0) for _ in range(count)]
    return Game.graphical(count, r, costs,
                          influence_from_triples(count, _both_ways(edges, alpha)))


def _both_ways(edges, alpha):
    """The arcs (u, v, alpha) and (v, u, alpha) of each edge (u, v)."""
    return [arc for u, v in edges for arc in ((u, v, alpha), (v, u, alpha))]


# ---------------------------------------------------------------------------
# uniform-cost linear systems


@dataclass(frozen=True)
class UniformCostSystem:
    """The equal-costs linear system of a normal linear game.

    Solving for (x, c) with every vertex cost equal to c. `masses`/`cost`
    are set for a unique solution; families carry base plus directions
    (each direction a masses-vector paired with its cost component).
    Nonnegativity of the mass part is reported, not enforced: a solution
    can solve the system yet fail to be a distribution.
    """

    n: int
    kind: str
    matrix: tuple
    rhs: tuple
    determinant: object
    status: str
    masses: tuple = None
    cost: object = None
    base_masses: tuple = None
    base_cost: object = None
    directions: tuple = ()
    nonnegative: bool = None


def uniform_cost_matrix(game: Game):
    """Rows of (I + W | -1; 1...1 | 0) and the right-hand side (0,...,0,r)."""
    if not classify(game).satisfies("normal"):
        raise UnsupportedGameError(
            "uniform-cost systems are defined for normal linear games")
    n = game.n
    rows = _equal_costs_rows(n, [(i, j, coeff) for i in range(n)
                                 for j, coeff in game.influence.in_coefficients(i)])
    return tuple(tuple(r) for r in rows), tuple([0] * n + [game.r])


def _equal_costs_rows(n, coefficients):
    """Rows of (I + W | -1; 1...1 | 0), W[i][j] = w for each (i, j, w)."""
    rows = [[int(i == j) for j in range(n)] + [-1] for i in range(n)]
    for i, j, w in coefficients:
        rows[i][j] = w
    return rows + [[1] * n + [0]]


def uniform_cost_solve(game: Game) -> UniformCostSystem:
    """Solve the equal-costs system and report determinant and signs. The
    kind is "path" or "cycle" when the influence graph is that family's
    graph on the vertices in order, else "general"."""
    matrix, rhs = uniform_cost_matrix(game)
    solution, det = solve_with_determinant(matrix, rhs)
    n, graph_kind = game.n, "general"
    for kind in ("path", "cycle") if n >= 3 else ("path",):
        edges = frozenset(map(frozenset, _family_edges(kind, n=n)[1]))
        if underlying_graph(game) == UndirectedGraph(n, edges):
            graph_kind = kind
    if solution.status == "none":
        return UniformCostSystem(n, graph_kind, matrix, rhs, det, "none")
    if solution.status == "unique":
        masses = solution.solution[:n]
        return UniformCostSystem(n, graph_kind, matrix, rhs, det, "unique",
                                 masses=masses, cost=solution.solution[n],
                                 nonnegative=all(m >= 0 for m in masses))
    base = solution.solution[:n]
    directions = tuple((tuple(vec[:n]), vec[n]) for vec in solution.basis)
    # the masses sum to r, so the region of nonnegative members is bounded:
    # it is nonempty exactly when it has a vertex
    rows = [(value, [d[row] for d, _ in directions]) for row, value in enumerate(base)]
    tol = numeric.auto_tolerance(numeric.all_exact(base), game.r)
    return UniformCostSystem(n, graph_kind, matrix, rhs, det, "family",
                             base_masses=base, base_cost=solution.solution[n],
                             directions=directions,
                             nonnegative=next(polytope.vertices(rows, tol), None) is not None)


def path_matrix(n, alpha):
    """The (n+1) x (n+1) equal-costs matrix of the n-vertex path."""
    return _equal_costs_rows(n, _both_ways(_family_edges("path", n=n)[1], alpha))


def cycle_matrix(n, alpha):
    """The (n+1) x (n+1) equal-costs matrix of the n-cycle."""
    return _equal_costs_rows(n, _both_ways(_family_edges("cycle", n=n)[1], alpha))


# ---------------------------------------------------------------------------
# necessary-condition rules


@dataclass(frozen=True)
class RuleViolation:
    rule: int
    vertices: tuple
    detail: str


def check_rules(game: Game, x) -> list:
    """Necessary equilibrium conditions on uniform-coefficient games.

    1. No uncharged vertex may have only uncharged neighbours.
    2. An uncharged vertex with exactly one charged neighbour needs
       alpha >= 1.
    3. An uncharged vertex with k >= 2 charged neighbours needs
       alpha >= 1/k; at alpha = 1/k exactly, those neighbours must carry
       equal mass and have no charged neighbours of their own (the
       tightness clause; reported with rule 3).
    4. Vertices with identical neighbourhoods carry identical mass.

    An empty list is necessary, not sufficient, for an equilibrium.
    """
    cls = classify(game)
    if cls.label != "alpha-uniform" or cls.symmetric is not True:
        raise UnsupportedGameError(
            "rules apply to symmetric uniform-coefficient games")
    alpha = cls.alpha
    graph = underlying_graph(game)
    x = x if isinstance(x, MassDistribution) else MassDistribution(tuple(x), game.r)
    tol = numeric.auto_tolerance(x.exact and game.exact, game.r)
    alpha_tol = numeric.auto_tolerance(numeric.is_exact_scalar(alpha), 1)
    charged = set(x.support())
    violations = []

    for v in range(game.n):
        if v in charged:
            continue
        neighbours = sorted(graph.neighbors(v))
        charged_nbrs = [u for u in neighbours if u in charged]
        k = len(charged_nbrs)
        if k == 0:
            violations.append(RuleViolation(
                1, (v,), f"uncharged vertex {v + 1} has only uncharged neighbours"))
        elif k == 1:
            if not alpha >= 1:
                violations.append(RuleViolation(
                    2, (v, charged_nbrs[0]),
                    f"uncharged vertex {v + 1} has one charged neighbour "
                    f"but alpha = {numeric.format_scalar(alpha)} < 1"))
        else:
            threshold = Fraction(1, k) if numeric.is_exact_scalar(alpha) else 1.0 / k
            if alpha < threshold - alpha_tol:
                violations.append(RuleViolation(
                    3, tuple([v] + charged_nbrs),
                    f"uncharged vertex {v + 1} has {k} charged neighbours "
                    f"but alpha = {numeric.format_scalar(alpha)} < 1/{k}"))
            elif abs(alpha - threshold) <= alpha_tol:
                masses = [x.masses[u] for u in charged_nbrs]
                if max(masses) - min(masses) > tol:
                    violations.append(RuleViolation(
                        3, tuple([v] + charged_nbrs),
                        f"tightness at alpha = 1/{k}: charged neighbours of "
                        f"vertex {v + 1} must carry equal mass"))
                offenders = [u for u in charged_nbrs
                             if any(w in charged for w in graph.neighbors(u))]
                if offenders:
                    violations.append(RuleViolation(
                        3, tuple([v] + offenders),
                        f"tightness at alpha = 1/{k}: charged neighbours of "
                        f"vertex {v + 1} must have no charged neighbours"))

    for u in range(game.n):
        for v in range(u + 1, game.n):
            if graph.neighbors(u) == graph.neighbors(v):
                if abs(x.masses[u] - x.masses[v]) > tol:
                    violations.append(RuleViolation(
                        4, (u, v),
                        f"vertices {u + 1} and {v + 1} share a neighbourhood "
                        f"but carry different masses"))
    return violations


# ---------------------------------------------------------------------------
# closed forms


def _point(masses, cost, label):
    x = MassDistribution(tuple(masses), 1)
    return EquilibriumPoint(x, cost, x.support(), label)


def _check_alpha(alpha):
    if alpha == Fraction(1, 2):
        return Fraction(1, 2)
    if alpha == 1:
        return Fraction(1)
    raise ValueError(
        f"closed forms cover alpha in {{1/2, 1}}, got {numeric.scalar_text(alpha)}")


def path_closed_form(n, alpha) -> tuple:
    """Hand-derived equilibrium sets for the n-vertex path at the two
    tractable coefficients. At alpha = 1/2 the returned equilibrium is
    the only one; at alpha = 1 non-uniform-cost equilibria may exist
    besides the uniform-cost set returned here."""
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n!r}")
    if alpha == Fraction(1, 2):
        if n % 2 == 1:
            share = Fraction(2, n + 1)
            masses = [share if i % 2 == 0 else Fraction(0) for i in range(n)]
            return (_point(masses, share, "alternating equilibrium"),)
        q = n // 2
        x1 = Fraction(1, q + 1)
        x2 = Fraction(1, q * (q + 1))
        masses = [Fraction(0)] * n
        for k in range(1, q + 1):
            masses[2 * k - 1] = k * x2
        for k in range(q):
            masses[2 * k] = x1 - k * x2
        cost = Fraction(2 * q + 1, 2 * q * (q + 1))
        return (_point(masses, cost, "fully charged equilibrium"),)

    remainder = n % 3
    if remainder == 2:
        # blocks of three from vertex 1: mass moves between the first two
        share = Fraction(3, n + 1)
        base = [share if i % 3 == 1 else Fraction(0) for i in range(n)]
        direction = [(Fraction(1), Fraction(-1), Fraction(0))[i % 3] for i in range(n)]
        support = tuple(i for i in range(n) if i % 3 != 2)
        family = EquilibriumFamily(
            n, 1, support, tuple(base), share,
            (tuple(direction),), (Fraction(0),), (Fraction(0), share),
            "repeating two-block family")
        return (family,)
    if remainder == 1:
        share = Fraction(3, n + 2)
        masses = [share if (i + 1) % 3 == 1 else Fraction(0) for i in range(n)]
        return (_point(masses, share, "every-third-vertex equilibrium"),)
    share = Fraction(3, n)
    masses = [share if (i + 1) % 3 == 2 else Fraction(0) for i in range(n)]
    return (_point(masses, share, "every-third-vertex equilibrium"),)


def cycle_closed_form(n, alpha) -> tuple:
    """Uniform-cost equilibrium sets for the n-cycle at the two tractable
    coefficients. The uniform distribution 1/n is always among them."""
    alpha = _check_alpha(alpha)
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n!r}")
    uniform_cost = (1 + 2 * alpha) * Fraction(1, n)
    if alpha == Fraction(1, 2):
        if n % 2 == 1:
            masses = [Fraction(1, n)] * n
            return (_point(masses, uniform_cost, "uniform equilibrium"),)
        share = Fraction(2, n)
        base = [share if i % 2 == 1 else Fraction(0) for i in range(n)]
        direction = [Fraction(1) if i % 2 == 0 else Fraction(-1) for i in range(n)]
        family = EquilibriumFamily(
            n, 1, tuple(range(n)), tuple(base), share,
            (tuple(direction),), (Fraction(0),), (Fraction(0), share),
            "alternating family")
        return (family,)

    if n % 3 != 0:
        masses = [Fraction(1, n)] * n
        return (_point(masses, uniform_cost, "uniform equilibrium"),)
    # the third vertex of each block gives its mass to the first or second
    share = Fraction(3, n)
    base = [share if i % 3 == 2 else Fraction(0) for i in range(n)]
    d1 = [(Fraction(1), Fraction(0), Fraction(-1))[i % 3] for i in range(n)]
    d2 = [(Fraction(0), Fraction(1), Fraction(-1))[i % 3] for i in range(n)]
    family = EquilibriumFamily(
        n, 1, tuple(range(n)), tuple(base), share,
        (tuple(d1), tuple(d2)), (Fraction(0), Fraction(0)), None,
        "repeating three-block family")
    return (family,)


def bipartite_closed_form(p, q, alpha) -> tuple:
    """Complete case analysis for K_{p,q}, p >= q >= 1, at any coefficient.

    Identical-neighbourhood vertices are forced to equal mass, so every
    equilibrium is (a, ..., a, b, ..., b); cases follow from the signs of
    1 - alpha*p, 1 - alpha*q, and p + q - 2*alpha*p*q.
    """
    if not p >= q >= 1:
        raise ValueError(f"needs p >= q >= 1, got p={p!r}, q={q!r}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {numeric.scalar_text(alpha)}")
    if isinstance(alpha, int):
        alpha = Fraction(alpha)
    one = Fraction(1) if numeric.is_exact_scalar(alpha) else 1.0
    n = p + q
    results = []
    seen = set()

    def add_point(a, b, cost, label):
        masses = [a] * p + [b] * q
        key = tuple(masses)
        if key not in seen:
            seen.add(key)
            results.append(_point(masses, cost, label))

    if p == q and alpha * p == 1:
        share = one / p
        base = [Fraction(0) if numeric.is_exact_scalar(alpha) else 0.0] * p + [share] * q
        direction = [one] * p + [-one] * q
        family = EquilibriumFamily(
            n, 1, tuple(range(n)), tuple(base), share,
            (tuple(direction),), (0 * one,), (0 * one, share),
            "balanced-sides family")
        return (family,)

    denom = p + q - 2 * alpha * p * q
    if denom != 0:
        a = (one - alpha * q) / denom
        b = (one - alpha * p) / denom
        if a >= 0 and b >= 0:
            cost = (one - alpha * alpha * p * q) / denom
            add_point(a, b, cost, "all vertices charged")
    if alpha * q >= 1:
        add_point(0 * one, one / q, one / q, "only the smaller side charged")
    if alpha * p >= 1:
        add_point(one / p, 0 * one, one / p, "only the larger side charged")
    return tuple(sorted(results, key=lambda point: point.bitmask))


def star_closed_form(n, alpha) -> tuple:
    """Equilibria of the star on n vertices (centre last): the complete
    bipartite analysis at q = 1."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n!r}")
    relabel = {"only the smaller side charged": "only the centre charged",
               "only the larger side charged": "only the leaves charged"}
    return tuple(replace(item, label=relabel.get(item.label, item.label))
                 if isinstance(item, EquilibriumPoint) else item
                 for item in bipartite_closed_form(n - 1, 1, alpha))


# ---------------------------------------------------------------------------
# conjecture scans


@dataclass(frozen=True)
class ScanRow:
    family: str
    n: int
    alpha: object
    determinant: object
    unique: bool
    nonnegative: bool
    masses: tuple
    cost: object

    @property
    def counterexample(self) -> bool:
        return not (self.unique and self.nonnegative)


@dataclass(frozen=True)
class ScanReport:
    family: str
    rows: tuple

    @property
    def counterexamples(self) -> tuple:
        return tuple(row for row in self.rows if row.counterexample)

    @property
    def all_clear(self) -> bool:
        return not self.counterexamples


def conjecture_scan(family, n_values, alpha_values) -> ScanReport:
    """Determinants and solution signs over a grid, below coefficient 1/2.

    The conjecture under scrutiny: every determinant is nonzero and the
    unique equal-costs solution is nonnegative. Rows that break either
    half are flagged as counterexample candidates; no assertion is made.
    """
    if family not in ("path", "cycle"):
        raise ValueError(f"scan covers paths and cycles, got {family!r}")
    build = path_matrix if family == "path" else cycle_matrix
    grid = []
    for alpha in alpha_values:
        alpha = Fraction(alpha) if isinstance(alpha, int) else alpha
        if not 0 <= alpha < Fraction(1, 2):
            raise ValueError(
                f"scan grid must stay inside [0, 1/2), got {numeric.scalar_text(alpha)}")
        grid.append(alpha)
    rows = []
    for n in n_values:
        for alpha in grid:
            solution, det = solve_with_determinant(build(n, alpha), [0] * n + [1])
            unique = solution.status == "unique"
            masses = solution.solution[:n] if unique else None
            cost = solution.solution[n] if unique else None
            nonneg = unique and all(m >= 0 for m in masses)
            rows.append(ScanRow(family, n, alpha, det, unique, nonneg, masses, cost))
    return ScanReport(family, tuple(rows))
