"""Core game objects.

A game is a triple (n, r, C): n vertices, total mass r, and a cost map C
assigning each vertex a cost that depends on the whole mass distribution.
Games come in two kinds. "general" games carry opaque per-vertex evaluators.
"graphical" games have separable structure: vertex i pays f_i(x_i) plus
alpha_{j,i} * x_j for every influence arc (j, i). The influence coefficients
double as a digraph: arc (i, j) exists exactly when alpha_{i,j} > 0, meaning
mass on i raises the cost at j.

A cost form f_i is either a PolynomialCost with nonnegative coefficients,
of any degree (the constant and affine factories build degrees 0 and 1),
or an OpaqueCost wrapping a callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import numeric
from .errors import DimensionMismatchError, MassMismatchError, UnsupportedGameError
from .graphs import Digraph, UndirectedGraph

#: float-mode slack when validating that masses add up to the total
MASS_TOLERANCE = 1e-9
#: float-mode threshold above which a vertex counts as charged
CHARGE_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# mass distributions


@dataclass(frozen=True)
class MassDistribution:
    """Nonnegative masses over the vertices, summing to `total`."""

    masses: tuple
    total: object

    def __post_init__(self):
        masses = tuple(self.masses)
        object.__setattr__(self, "masses", masses)
        exact = numeric.all_exact(masses) and numeric.is_exact_scalar(self.total)
        tol = numeric.auto_tolerance(exact, MASS_TOLERANCE)
        if any(isinstance(m, float) and not math.isfinite(m)
               for m in masses + (self.total,)):
            raise MassMismatchError(
                f"masses and total must be finite, got {masses!r} and {self.total!r}")
        for i, m in enumerate(masses):
            if m < -tol:
                raise MassMismatchError(f"mass at vertex {i + 1} is negative: {m!r}")
        gap = sum(masses) - self.total
        if abs(gap) > tol:
            raise MassMismatchError(
                f"masses sum to {sum(masses)!r}, expected total {self.total!r}"
            )

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def exact(self) -> bool:
        return numeric.all_exact(self.masses) and numeric.is_exact_scalar(self.total)

    def charge_tolerance(self, tol=None):
        return numeric.auto_tolerance(self.exact, CHARGE_TOLERANCE) if tol is None else tol

    def charged(self, i: int, tol=None) -> bool:
        return self.masses[i] > self.charge_tolerance(tol)

    def support(self, tol=None) -> tuple:
        cutoff = self.charge_tolerance(tol)
        return tuple(i for i, m in enumerate(self.masses) if m > cutoff)

    def as_floats(self):
        return [float(m) for m in self.masses]

    def __len__(self):
        return len(self.masses)

    def __getitem__(self, i):
        return self.masses[i]

    def __iter__(self):
        return iter(self.masses)


def distribution(masses, total=None) -> MassDistribution:
    """Build a MassDistribution, inferring the total when omitted."""
    masses = tuple(masses)
    if total is None:
        total = sum(masses)
    return MassDistribution(masses, total)


# ---------------------------------------------------------------------------
# vertex cost forms


@dataclass(frozen=True)
class PolynomialCost:
    """f(t) = sum coeffs[k] * t^k with nonnegative coefficients.

    The one form for every polynomial degree: constant(b) is (b,) and
    affine(a, b) is (b, a).
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        for k, c in enumerate(coeffs):
            _require_nonnegative(f"coefficient of t^{k}", c)

    def value(self, t):
        # Horner from the leading coefficient: affine forms cost one
        # multiply-add, and the support solver reads every cost through here
        *lower, result = self.coeffs
        for c in reversed(lower):
            result = result * t + c
        return result

    def integral(self, upper):
        # Fraction divisors keep exact input exact; float terms divide as floats
        total = self.coeffs[0] * upper
        power = upper
        for k, c in enumerate(self.coeffs[1:], start=2):
            power = power * upper
            total = total + c * power / Fraction(k)
        return total

    def as_affine(self):
        if any(c != 0 for c in self.coeffs[2:]):
            return None
        a = self.coeffs[1] if len(self.coeffs) > 1 else 0
        return (a, self.coeffs[0])

    def max_degree(self):
        degree = 0
        for k, c in enumerate(self.coeffs):
            if c != 0:
                degree = k
        return degree

    @property
    def exact(self):
        return numeric.all_exact(self.coeffs)


@dataclass(frozen=True)
class OpaqueCost:
    """f given only as a callable; integrals fall back to quadrature."""

    fn: object
    label: str = "opaque"

    def value(self, t):
        return self.fn(t)

    def integral(self, upper):
        from scipy.integrate import quad

        value, _ = quad(lambda t: float(self.fn(t)), 0.0, float(upper),
                        epsabs=1e-12, epsrel=1e-12, limit=200)
        return value

    def as_affine(self):
        return None

    def max_degree(self):
        return None

    @property
    def exact(self):
        return False


def _require_finite_scalar(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction, numeric.QuadExt)):
        raise ValueError(f"{name} must be a scalar, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_nonnegative(name, value):
    _require_finite_scalar(name, value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")


def constant(b) -> PolynomialCost:
    """f(t) = b."""
    return PolynomialCost((b,))


def affine(a, b) -> PolynomialCost:
    """f(t) = a*t + b."""
    return PolynomialCost((b, a))


def polynomial(coeffs) -> PolynomialCost:
    return PolynomialCost(tuple(coeffs))


def opaque(fn, label="opaque") -> OpaqueCost:
    return OpaqueCost(fn, label)


# ---------------------------------------------------------------------------
# influence structure


class InfluenceMatrix:
    """Sparse positive coefficients alpha_{i,j}, i != j.

    Entry (i, j) means mass at i contributes alpha_{i,j} * x_i to the cost
    at j. Immutable after construction.
    """

    __slots__ = ("n", "_entries", "_in", "_out")

    def __init__(self, n: int, entries):
        self.n = int(n)
        cleaned = {}
        for (i, j), alpha in dict(entries).items():
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"influence entry ({i}, {j}) out of range")
            if i == j:
                raise ValueError(f"influence entry ({i}, {i}) on the diagonal")
            if isinstance(alpha, float) and not math.isfinite(alpha):
                raise ValueError(f"influence entry ({i}, {j}) is not finite: {alpha!r}")
            if alpha < 0:
                raise ValueError(f"influence entry ({i}, {j}) is negative: {alpha!r}")
            if alpha == 0:
                continue
            cleaned[(i, j)] = alpha
        self._entries = cleaned
        incoming = {i: [] for i in range(self.n)}
        outgoing = {i: [] for i in range(self.n)}
        for (i, j), alpha in sorted(cleaned.items()):
            outgoing[i].append((j, alpha))
            incoming[j].append((i, alpha))
        self._in = {i: tuple(pairs) for i, pairs in incoming.items()}
        self._out = {i: tuple(pairs) for i, pairs in outgoing.items()}

    def value(self, i: int, j: int):
        return self._entries.get((i, j), 0)

    def arcs(self):
        return sorted(self._entries)

    def items(self):
        return sorted(self._entries.items())

    def in_coefficients(self, i: int):
        """Pairs (j, alpha_{j,i}) of vertices whose mass the cost at i sees."""
        return self._in[i]

    def out_coefficients(self, i: int):
        return self._out[i]

    @property
    def is_symmetric(self) -> bool:
        return all(self._entries.get((j, i)) == alpha
                   for (i, j), alpha in self._entries.items())

    def uniform_alpha(self):
        """The common coefficient if all entries are equal, else None."""
        values = set(self._entries.values())
        if len(values) != 1:
            return None
        return next(iter(values))

    @property
    def exact(self) -> bool:
        return numeric.all_exact(self._entries.values())

    def __eq__(self, other):
        if not isinstance(other, InfluenceMatrix):
            return NotImplemented
        return self.n == other.n and self._entries == other._entries

    def __repr__(self):
        return f"InfluenceMatrix(n={self.n}, entries={self._entries!r})"


def influence_from_triples(n, triples) -> InfluenceMatrix:
    """Build from (i, j, alpha) triples, 0-indexed."""
    entries = {}
    for i, j, alpha in triples:
        if (i, j) in entries:
            raise ValueError(f"duplicate influence entry ({i}, {j})")
        entries[(i, j)] = alpha
    return InfluenceMatrix(n, entries)


# ---------------------------------------------------------------------------
# games


@dataclass(frozen=True)
class Game:
    """A balancing game; build with Game.graphical or Game.general."""

    n: int
    r: object
    kind: str
    vertex_costs: tuple = None
    influence: InfluenceMatrix = None
    evaluators: tuple = None
    warnings: tuple = field(default=(), compare=False)

    @classmethod
    def graphical(cls, n, r, vertex_costs, influence) -> "Game":
        vertex_costs = tuple(vertex_costs)
        if len(vertex_costs) != n:
            raise DimensionMismatchError(
                f"{len(vertex_costs)} cost forms for {n} vertices")
        if influence.n != n:
            raise DimensionMismatchError(
                f"influence is over {influence.n} vertices, game has {n}")
        _require_positive_mass(r)
        game = cls(n=n, r=r, kind="graphical",
                   vertex_costs=vertex_costs, influence=influence)
        object.__setattr__(game, "warnings", tuple(validate_game(game)))
        return game

    @classmethod
    def general(cls, n, r, evaluators) -> "Game":
        evaluators = tuple(evaluators)
        if len(evaluators) != n:
            raise DimensionMismatchError(
                f"{len(evaluators)} evaluators for {n} vertices")
        _require_positive_mass(r)
        return cls(n=n, r=r, kind="general", evaluators=evaluators)

    @property
    def exact(self) -> bool:
        """Static exactness; general games are judged by their outputs."""
        if self.kind != "graphical":
            return False
        return (numeric.is_exact_scalar(self.r)
                and all(f.exact for f in self.vertex_costs)
                and self.influence.exact)

    def costs(self, x):
        return cost_vector(self, x)

    def distribution(self, masses) -> MassDistribution:
        return MassDistribution(tuple(masses), self.r)


def _require_positive_mass(r):
    _require_finite_scalar("total mass", r)
    if r <= 0:
        raise ValueError(f"total mass must be positive, got {r!r}")


def validate_game(game: Game) -> list:
    """Soft checks on a graphical game's cost forms; returns warnings.

    Forms are expected nondecreasing and positive away from zero. Violations
    are reported, not rejected: several meaningful instances (and one
    counterexample with no equilibrium) sit outside the strict conditions.
    """
    warnings = []
    if game.kind != "graphical":
        return warnings
    for i, form in enumerate(game.vertex_costs):
        if isinstance(form, PolynomialCost) and all(c == 0 for c in form.coeffs):
            warnings.append(f"vertex {i + 1}: cost form is identically zero")
        elif isinstance(form, OpaqueCost):
            warnings.extend(_sample_opaque(form, i, game.r))
    return warnings


def _sample_opaque(form, i, r, points=101):
    warnings = []
    grid = [float(r) * k / (points - 1) for k in range(points)]
    values = [float(form.value(t)) for t in grid]
    if any(v < 0 for v in values):
        warnings.append(f"vertex {i + 1}: sampled cost form takes negative values")
    if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
        warnings.append(f"vertex {i + 1}: sampled cost form is decreasing somewhere")
    if all(abs(v) <= 1e-15 for v in values[1:]):
        warnings.append(f"vertex {i + 1}: sampled cost form is zero on (0, r]")
    return warnings


def _coerce_masses(game: Game, x):
    masses = tuple(x.masses) if isinstance(x, MassDistribution) else tuple(x)
    if len(masses) != game.n:
        raise DimensionMismatchError(
            f"distribution has {len(masses)} entries, game has {game.n} vertices")
    return masses


def cost_vector(game: Game, x) -> tuple:
    """Costs at every vertex under distribution x."""
    masses = _coerce_masses(game, x)
    if game.kind == "general":
        return tuple(ev(masses) for ev in game.evaluators)
    return tuple(_vertex_cost(game, masses, i) for i in range(game.n))


def _vertex_cost(game: Game, masses, i):
    """C_i at `masses` on a graphical game: the one cost evaluation that
    cost_vector and the support solver share."""
    total = game.vertex_costs[i].value(masses[i])
    for j, alpha in game.influence.in_coefficients(i):
        total = total + alpha * masses[j]
    return total


# ---------------------------------------------------------------------------
# classification


#: class names ordered from most general to most specific
CLASS_LADDER = ("general", "graphical", "affine", "linear", "normal", "alpha-uniform")


@dataclass(frozen=True)
class Classification:
    """Most specific class label, plus the symmetry flag (orthogonal)."""

    label: str
    symmetric: bool = None
    alpha: object = None

    def satisfies(self, name: str) -> bool:
        """True if the game belongs to the named class (not necessarily as
        its most specific label). 'symmetric-graphical' is also accepted."""
        if name == "symmetric-graphical":
            return self.symmetric is True
        if name not in CLASS_LADDER:
            raise ValueError(f"unknown class name: {name!r}")
        return CLASS_LADDER.index(self.label) >= CLASS_LADDER.index(name)


def class_conditions(game: Game) -> dict:
    """Raw ladder membership tests; classify() reduces these to one label."""
    conditions = {name: False for name in CLASS_LADDER}
    conditions["general"] = True
    conditions["symmetric"] = None
    if game.kind != "graphical":
        return conditions
    conditions["graphical"] = True
    conditions["symmetric"] = game.influence.is_symmetric
    affine_parts = [f.as_affine() for f in game.vertex_costs]
    if any(part is None for part in affine_parts):
        return conditions
    conditions["affine"] = True
    if any(b != 0 for _, b in affine_parts):
        return conditions
    conditions["linear"] = True
    if any(a != 1 for a, _ in affine_parts):
        return conditions
    conditions["normal"] = True
    values = {alpha for _, alpha in game.influence.items()}
    if len(values) <= 1:
        conditions["alpha-uniform"] = True
    return conditions


def classify(game: Game) -> Classification:
    conditions = class_conditions(game)
    label = "general"
    for name in CLASS_LADDER:
        if conditions[name]:
            label = name
    alpha = None
    if label == "alpha-uniform":
        alpha = game.influence.uniform_alpha()
    return Classification(label, conditions["symmetric"], alpha)


def underlying_graph(game: Game):
    """Influence structure as a graph: undirected when symmetric."""
    if game.kind != "graphical":
        raise UnsupportedGameError("general games have no influence graph")
    if game.influence.is_symmetric:
        edges = frozenset(frozenset(arc) for arc in game.influence.arcs())
        return UndirectedGraph(game.n, edges)
    return Digraph(game.n, frozenset(game.influence.arcs()))
