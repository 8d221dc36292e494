"""Equilibrium verification and computation.

A distribution x is an equilibrium when every charged vertex has minimal
cost: x_i > 0 implies C_i(x) <= C_j(x) for all j. It is delta-strong when
no mass chunk of size up to delta can gain by moving: for every eps in
(0, delta] and every i with x_i >= eps,

    C_i(x) <= C_j(x - eps e_i + eps e_j)   for all j.

The eps -> 0 limit of the chunk condition is the plain equilibrium
inequality on charged vertices; uncharged vertices are unconstrained as
movers (they have no mass to move).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import numeric, polytope
from .errors import DimensionMismatchError, UnsupportedGameError
from .games import Game, MassDistribution, cost_vector
from .linalg import matvec, solve_linear_system

#: eps grid size for delta-strong checks on games that are not affine
DELTA_STRONG_SAMPLES = 33
#: largest game whose 2^n - 1 supports are enumerated
SUPPORT_ENUMERATION_MAX_N = 16


def _as_distribution(game: Game, x) -> MassDistribution:
    if isinstance(x, MassDistribution):
        if len(x) != game.n:
            raise DimensionMismatchError(
                f"distribution has {len(x)} entries, game has {game.n} vertices")
        return x
    return MassDistribution(tuple(x), game.r)


def _float_key(x: MassDistribution) -> tuple:
    """Float points count as one when their masses / r agree to 9 decimals."""
    return tuple(round(float(m) / float(x.total), 9) for m in x.masses)


def _exact_context(x: MassDistribution, costs) -> bool:
    return x.exact and numeric.all_exact(costs)


def _gap_tolerance(game, costs, at_zero=None) -> float:
    """The float slack of the gaps between the costs C(x) = `costs`, given
    C(0) = `at_zero` (computed when None). Their size is the spread of
    C(0) plus the largest |C_i(x) - C_i(0)|: adding one constant to every
    cost leaves it, as it leaves the equilibria, and scaling r and the
    offsets of an affine game scales it. Float costs add their rounding."""
    if at_zero is None:
        at_zero = cost_vector(game, [0] * game.n)
    rounded = not numeric.all_exact(costs)
    costs, at_zero = [float(c) for c in costs], [float(c) for c in at_zero]
    size = max(at_zero) - min(at_zero) + max(abs(c - z) for c, z in zip(costs, at_zero))
    return numeric.auto_tolerance(False, size, max(map(abs, costs + at_zero)) if rounded else 0)


def _tolerance(tol, exact, slack):
    """tol, which is absolute, or when it is None 0 on exact data and the
    float slack slack() otherwise. A NaN, infinite or negative tol would
    decide every comparison one way, so it raises."""
    if tol is None:
        return 0 if exact else slack()
    if not 0 <= tol < float("inf"):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    return tol


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of an equilibrium check.

    worst_gap is max(C_i - C_j) over charged i and all j, clamped at zero,
    so is_equilibrium holds exactly when worst_gap <= tolerance.
    common_cost is the shared charged cost when it is uniform, else None.
    """

    is_equilibrium: bool
    worst_gap: object
    costs: tuple
    common_cost: object
    charged: tuple
    tolerance: object


def verify_equilibrium(game: Game, x, tol=None) -> EquilibriumReport:
    x = _as_distribution(game, x)
    costs = cost_vector(game, x)
    exact = _exact_context(x, costs)
    tol = _tolerance(tol, exact, lambda: _gap_tolerance(game, costs))
    charged = x.support()
    zero = 0 if exact else 0.0
    worst_gap = zero
    min_cost = min(costs)
    for i in charged:
        gap = costs[i] - min_cost
        if gap > worst_gap:
            worst_gap = gap
    common = None
    if charged:
        lo = min(costs[i] for i in charged)
        hi = max(costs[i] for i in charged)
        if hi - lo <= tol:
            common = costs[charged[0]]
    return EquilibriumReport(
        is_equilibrium=(worst_gap <= tol),
        worst_gap=worst_gap,
        costs=costs,
        common_cost=common,
        charged=charged,
        tolerance=tol,
    )


@dataclass(frozen=True)
class StrongnessCertificate:
    """Result of a delta-strong check.

    witness, when the check fails, is a triple (i, j, eps): moving eps of
    mass from i to j strictly improves on C_i. method is "exact" when the
    affine structure allowed endpoint checks, "sampled" when an eps grid
    was used (then a positive verdict is evidence, not proof).
    """

    delta: object
    is_delta_strong: bool
    witness: tuple
    method: str
    tolerance: object


def verify_delta_strong(game: Game, x, delta, tol=None) -> StrongnessCertificate:
    if not delta >= 0:
        raise ValueError(f"delta must be a nonnegative number, got {delta}")
    x = _as_distribution(game, x)
    costs = cost_vector(game, x)
    exact = _exact_context(x, costs) and numeric.is_exact_scalar(delta)
    tol = _tolerance(tol, exact, lambda: _gap_tolerance(game, costs))
    affine = _affine_or_none(game)
    method = "exact" if affine is not None else "sampled"

    base = verify_equilibrium(game, x, tol=tol)
    if not base.is_equilibrium:
        worst = max(base.charged, key=lambda i: costs[i])
        best = min(range(game.n), key=lambda j: costs[j])
        return StrongnessCertificate(delta, False, (worst, best, 0), method, tol)
    if delta == 0:
        return StrongnessCertificate(delta, True, None, method, tol)

    masses = list(x.masses)
    for i in x.support():
        eps_max = min(delta, masses[i])
        for j in range(game.n):
            if j == i:
                continue
            if affine is not None:
                # C_j(x - eps e_i + eps e_j) is affine in eps, and its
                # eps -> 0 limit is C_j(x) >= C_i(x) by the base check, so
                # the far endpoint decides.
                matrix, _ = affine
                slope = matrix[j][j] - matrix[i][j]
                moved_cost = costs[j] + eps_max * slope
                if costs[i] - moved_cost > tol:
                    return StrongnessCertificate(delta, False, (i, j, eps_max), method, tol)
            else:
                for k in range(1, DELTA_STRONG_SAMPLES + 1):
                    eps = eps_max * k / DELTA_STRONG_SAMPLES
                    moved = list(masses)
                    moved[i] = moved[i] - eps
                    moved[j] = moved[j] + eps
                    moved_cost = cost_vector(game, moved)[j]
                    if costs[i] - moved_cost > tol:
                        return StrongnessCertificate(delta, False, (i, j, eps), method, tol)
    return StrongnessCertificate(delta, True, None, method, tol)


# ---------------------------------------------------------------------------
# affine structure


def affine_coefficients(game: Game):
    """Matrix and offset with C_i(x) = b0[i] + sum_j matrix[j][i] * x_j.

    Raises UnsupportedGameError unless the game is graphical with affine
    vertex-cost forms.
    """
    pair = _affine_or_none(game)
    if pair is None:
        raise UnsupportedGameError("operation needs affine cost structure")
    return pair


def _affine_or_none(game: Game):
    if game.kind != "graphical":
        return None
    parts = [form.as_affine() for form in game.vertex_costs]
    if any(p is None for p in parts):
        return None
    n = game.n
    matrix = [[0] * n for _ in range(n)]
    offsets = [0] * n
    for i, (slope, intercept) in enumerate(parts):
        matrix[i][i] = slope
        offsets[i] = intercept
    for (j, i), alpha in game.influence.items():
        matrix[j][i] = alpha
    return matrix, offsets


# ---------------------------------------------------------------------------
# fixed-point map


def brouwer_map(game: Game, x) -> MassDistribution:
    """One application of the equilibrium fixed-point map.

    Mass flows toward vertices that are cheaper than average neighbours:
    g_{i,j} = x_j * max(0, C_j - C_i) feeds vertex i from vertex j, and the
    normalisation keeps the image on the simplex. Fixed points are exactly
    the equilibria.
    """
    x = _as_distribution(game, x)
    costs = cost_vector(game, x)
    exact = _exact_context(x, costs)
    zero = 0 if exact else 0.0
    gains = [zero] * game.n
    total = zero
    for i in range(game.n):
        for j in range(game.n):
            if i == j:
                continue
            diff = costs[j] - costs[i]
            if diff > 0:
                g = x.masses[j] * diff
                gains[i] = gains[i] + g
                total = total + g
    denom = 1 + total
    new_masses = tuple(numeric.quotient(x.masses[i] + game.r * gains[i], denom)
                       for i in range(game.n))
    return MassDistribution(new_masses, game.r)


# ---------------------------------------------------------------------------
# best-response dynamics


@dataclass(frozen=True)
class DynamicsResult:
    x: MassDistribution
    trace: tuple
    iterations: int
    converged: bool
    report: EquilibriumReport
    final_step: object


def best_response_dynamics(game: Game, x0, step=None, max_iters=10000,
                           keep_trace=True) -> DynamicsResult:
    """Move mass chunks from the worst charged vertex to the cheapest one.

    The chunk size starts at r/100 (or `step`) and halves after ten
    consecutive iterations without improving the worst cost gap, so the
    dynamics settles near rest points instead of oscillating. It only nears
    them, so it stops, on exact data too, at the float slack of its costs.
    """
    x = _as_distribution(game, x0)
    masses = list(x.masses)
    if step is None:
        step = game.r / 100
    if not step > 0:
        raise ValueError(f"step must be a positive number, got {step}")
    trace = [MassDistribution(tuple(masses), game.r)] if keep_trace else []
    charge_tol = x.charge_tolerance()
    at_zero = cost_vector(game, [0] * game.n)
    best_gap = None
    stalled = 0
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        costs = cost_vector(game, masses)
        charged = [i for i in range(game.n) if masses[i] > charge_tol]
        worst = max(charged, key=lambda i: (costs[i], -i))
        cheapest = min(range(game.n), key=lambda j: (costs[j], j))
        gap = costs[worst] - costs[cheapest]
        if gap <= _gap_tolerance(game, costs, at_zero):
            converged = True
            iterations -= 1
            break
        if best_gap is not None and not gap < best_gap:
            stalled += 1
            if stalled >= 10:
                step = step / 2
                best_gap = gap
                stalled = 0
        else:
            best_gap = gap
            stalled = 0
        chunk = min(step, masses[worst])
        masses[worst] = masses[worst] - chunk
        masses[cheapest] = masses[cheapest] + chunk
        if keep_trace:
            trace.append(MassDistribution(tuple(masses), game.r))
    final = MassDistribution(tuple(masses), game.r)
    report = verify_equilibrium(
        game, final, tol=_gap_tolerance(game, cost_vector(game, final), at_zero))
    return DynamicsResult(final, tuple(trace), iterations, converged, report, step)


# ---------------------------------------------------------------------------
# exact solver for affine games


@dataclass(frozen=True)
class EquilibriumPoint:
    """An isolated equilibrium with its common charged cost."""

    x: MassDistribution
    cost: object
    support: tuple
    label: str = ""

    @property
    def bitmask(self) -> int:
        return sum(1 << i for i in self.support)


@dataclass(frozen=True)
class EquilibriumFamily:
    """An affine family of equilibria over one support.

    Points are base + sum_k t_k * directions[k]; the common cost moves as
    cost_base + sum_k t_k * cost_directions[k]. For one-parameter families
    `interval` is the exact feasible range of t. Larger families may carry
    `constraints`, rows (value, coefs) with value + coefs . t >= 0 cutting
    the parameter space down to the true feasible region; when present,
    sample_points and family_cost_range read the vertices of that
    polytope rather than of the whole nonnegative slice of the hull.
    """

    n: int
    r: object
    support: tuple
    base: tuple
    cost_base: object
    directions: tuple
    cost_directions: tuple
    interval: tuple = None
    label: str = ""
    constraints: tuple = ()

    @property
    def dimension(self) -> int:
        return len(self.directions)

    @property
    def bitmask(self) -> int:
        return sum(1 << i for i in self.support)

    def point_at(self, params) -> EquilibriumPoint:
        if len(params) != self.dimension:
            raise DimensionMismatchError(
                f"family has {self.dimension} parameters, got {len(params)}")
        masses = list(self.base)
        cost = self.cost_base
        for t, direction, dc in zip(params, self.directions, self.cost_directions):
            for i in range(self.n):
                masses[i] = masses[i] + t * direction[i]
            cost = cost + t * dc
        return EquilibriumPoint(MassDistribution(tuple(masses), self.r),
                                cost, self.support, self.label)

    def contains(self, masses, tol=None) -> tuple:
        """Parameters reproducing `masses` if it lies on the family's
        affine hull, else None. Nonnegativity is the caller's concern.

        The directions D are independent, so the normal equations
        D^T D t = D^T (masses - base) fix t for every scalar kind; a
        point off the hull leaves a mismatch, which `tol` (0 on exact
        input) rejects."""
        masses = tuple(masses.masses) if isinstance(masses, MassDistribution) else tuple(masses)
        if len(masses) != self.n:
            raise DimensionMismatchError(
                f"expected {self.n} masses, got {len(masses)}")
        vectors = [masses, self.base, *self.directions]
        exact = numeric.all_exact([v for vec in vectors for v in vec])
        tol = _tolerance(tol, exact, lambda: numeric.auto_tolerance(False, 100 * self.r))
        if not exact:
            vectors = [[float(v) for v in vec] for vec in vectors]
        masses, base, *directions = vectors
        offset = [m - b for m, b in zip(masses, base)]
        params = solve_linear_system([matvec(directions, d) for d in directions],
                                     matvec(directions, offset)).solution
        rebuilt = [b + sum(t * d[i] for t, d in zip(params, directions))
                   for i, b in enumerate(base)]
        if max(abs(a - b) for a, b in zip(rebuilt, masses)) > tol:
            return None
        return params

    def sample_points(self, count=5):
        """Representative members. Exact and evenly spaced across the
        interval for one-parameter families; for larger families, the
        first `count` distinct vertices of the region, exact on exact
        input."""
        if self.dimension == 1 and self.interval is not None:
            lo, hi = self.interval
            if count == 1 or hi == lo:
                return [self.point_at((lo,))]
            width = hi - lo
            return [self.point_at((lo + width * k / (count - 1),)) for k in range(count)]
        points = []
        seen = set()
        for params in self._vertices():
            point = self.point_at(params)
            key = _float_key(point.x)
            if key not in seen:
                seen.add(key)
                points.append(point)
                if len(points) == count:
                    break
        return points

    def _vertices(self):
        """`polytope.vertices` of the parameter region, the rows (value,
        coefs), each meaning value + coefs . t >= 0: the stored
        `constraints` (the solver stores them on every family without an
        interval), or the nonnegative masses of a family that carries
        none. The region is bounded, so it is the hull of these vertices.
        Float rows hold within the mass slack of r, which serves the gap
        rows too, since the support pass scales them by its `unit`."""
        rows = self.constraints or [(b, [d[i] for d in self.directions])
                                    for i, b in enumerate(self.base)]
        exact = numeric.all_exact([v for value, coefs in rows for v in (value, *coefs)])
        return polytope.vertices(rows, numeric.auto_tolerance(exact, self.r))


class _SupportPass:
    """One support pass over the cost structure (coefficients, offsets, r):
    the support systems that equalise the values offsets[i] + sum_{j in
    S} coefficients[j][i] * x_j over each support S, and the mass rule
    (`masses`) and gap tests read on their solutions. The equilibrium
    solver passes the cost matrix M; the utilitarian face search passes
    M + M^T. Both optima of `nbg.metrics` and every listed equilibrium
    point take their masses through `masses`.

    The scalar kind is decided once, here. A rational structure (every
    coefficient, offset and r an int or a Fraction) is scaled by the lcm
    D of the denominators of its coefficients and offsets, so every
    scaled entry is an int. A structure with any float entry becomes
    floats throughout, so each of its support systems is a float system.
    A Q(sqrt 5) structure keeps its own scalars. The last two take D = 1.
    `exact` follows from that decision, and with it the pass's slack
    `tol` for masses, `gap_tol` for gaps and zero mass `zero`: all 0 on
    an exact pass. A float pass takes 0.0, the float slack at r, and that
    of gaps of size (spread of b) + r max|M| read off costs up to
    max|b| + r max|M|. Family rows read gaps times `unit`, a power of two
    near tol / gap_tol, so `tol` serves every row. A float pass also
    solves its systems in `cost_unit`, the power of two nearest the
    larger of max|M| and (max b - min b) / r: the cost rows and offsets
    are divided by it, so the elimination sees entries near 1 however
    large or small the costs are against r, and the common cost it
    solves for is read back times it.

    The costs are C_j(x) = b_j + sum_s M[s][j] x_s, with the scaled
    coefficients and offsets. A vector and a cost are read as numerators
    over one positive denominator L: the denominator of their support
    system's `LinearSolution`, or a multiple of it once a family is
    restricted. Each gap comes out as D*L*(C_j(x) - c), with the sign of
    C_j(x) - c, and no lcm is taken; on a rational pass it is an integer.
    `numeric.quotient` turns a numerator over its denominator back into
    a value.
    """

    __slots__ = ("n", "r", "exact", "tol", "gap_tol", "unit", "zero", "scale",
                 "cost_unit", "offsets", "columns", "cost_rows", "sum_row")

    def __init__(self, coefficients, offsets, r):
        n = self.n = len(offsets)
        self.r = r
        flat = [v for row in coefficients for v in row] + list(offsets)
        scale, r_num, r_den = 1, r, 1
        rational = numeric.rational_types({type(v) for v in flat + [r]})
        self.exact = rational or numeric.all_exact(flat + [r])
        if rational:
            scale = math.lcm(*(v.denominator for v in flat))
            flat = [v.numerator * (scale // v.denominator) for v in flat]
            r_num, r_den = r.numerator, r.denominator
        self.tol = self.gap_tol = self.zero = 0
        self.unit = self.cost_unit = 1
        if not self.exact:
            flat, r_num, self.zero = [float(v) for v in flat], float(r), 0.0
            slope = max(map(abs, flat[:n * n]))
            offsets, change = flat[n * n:], r_num * slope
            self.tol = numeric.auto_tolerance(False, r_num)
            self.gap_tol = numeric.auto_tolerance(False, max(offsets) - min(offsets) + change,
                                                  max(map(abs, offsets)) + change)
            self.unit = numeric.power_of_two_ratio(self.tol, self.gap_tol)
            spread = (max(offsets) - min(offsets)) / r_num
            self.cost_unit = numeric.power_of_two_ratio(max(slope, spread), 1.0)
        self.scale, self.offsets = scale, flat[n * n:]
        # the masses of a support sum to r: r_den * sum x = r_num
        self.sum_row = (r_den, r_num)
        # D*M[.][i], the dense coefficients of cost i (flat holds M row by row)
        self.cost_rows = [flat[i:n * n:n] for i in range(n)]
        # nonzero (s, D*M[s][j]) of each cost, sources in increasing order
        self.columns = [tuple((s, a) for s, a in enumerate(row) if a != 0)
                        for row in self.cost_rows]

    def systems(self):
        """Yield (support, LinearSolution) for every consistent support
        system, supports in bitmask order: the equal-cost rows of the
        support in (x_S, c), scaled by D (on a float pass, in the cost
        unit), and the sum row scaled by the denominator of r. Scaling
        rows leaves the solution set as it is, and a rational elimination
        starts from integers. Inconsistent systems are skipped."""
        n, (r_den, r_num), unit = self.n, self.sum_row, self.cost_unit
        cost_rows, offsets = self.cost_rows, self.offsets
        if unit != 1:
            cost_rows = [[a / unit for a in row] for row in cost_rows]
            offsets = [b / unit for b in offsets]
        targets = [-b for b in offsets]
        rows_in = [row + [-self.scale] for row in cost_rows]
        sum_rows = [[r_den] * k + [0] for k in range(n + 1)]
        # a support's columns: its lowest vertex, those of the rest, then n
        columns = [(n,)] * (1 << n)
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            cols = columns[mask] = (low,) + columns[mask & (mask - 1)]
            support = cols[:-1]
            rows = [[row[j] for j in cols] for row in [rows_in[i] for i in support]]
            rows.append(sum_rows[len(support)])
            solution = solve_linear_system(rows, [targets[i] for i in support] + [r_num])
            if solution.status == "none":
                continue
            if unit != 1:
                # the rows over the cost unit solve for c / unit: c is read
                # back, and a free c (the last basis vector) keeps its unit step
                read = [(*v[:-1], v[-1] * unit)
                        for v in (solution.numerators, *solution.basis_numerators)]
                if len(support) not in solution._pivots:
                    read[-1] = tuple(v / unit for v in read[-1])
                solution.numerators, solution.basis_numerators = read[0], tuple(read[1:])
            yield support, solution

    def masses(self, support, nums):
        """The masses on the support in nums placed on the n vertices, with
        those that are not positive as zero; None when one is below -tol,
        or when none is positive (float masses all within tol below zero
        are rounding noise). Numerators over a positive denominator have
        the signs of their values, so no value is built for a rejected
        system."""
        # most systems fail on a mass sign, so it is read first
        if min(nums[:len(support)]) < -self.tol:
            return None
        masses = [self.zero] * self.n
        for s, m in zip(support, nums):
            if m > 0:
                masses[s] = m
        return masses if any(masses) else None

    def gaps(self, nums, cost, vertices, den):
        """D*L*(C_j - cost) for each j in vertices, from numerators over
        den = L. A direction passes den = 0, which drops the offsets and
        gives the slope of each gap along it. Sums run over the nonzero
        entries of each cost, so nums is zero off its support."""
        scaled_cost = self.scale * cost
        for j in vertices:
            yield sum([a * nums[s] for s, a in self.columns[j]],
                      self.offsets[j] * den) - scaled_cost


def solve_affine_by_supports(game: Game) -> list:
    """All equilibria of an affine game, by support enumeration.

    For each candidate support S, charged costs are equalised by a linear
    system in (x_S, c); solutions are kept when masses are nonnegative and
    every uncharged vertex costs at least c. Underdetermined systems yield
    families; families whose feasible region collapses to one point are
    demoted to points, and points lying inside a family are dropped.
    """
    pass_ = _equal_cost_pass(game)
    return _equilibria(pass_, pass_.systems())


def _equal_cost_pass(game: Game) -> _SupportPass:
    """The support pass of an affine game's cost matrix, refused above
    SUPPORT_ENUMERATION_MAX_N vertices."""
    matrix, offsets = affine_coefficients(game)
    if game.n > SUPPORT_ENUMERATION_MAX_N:
        raise UnsupportedGameError("support enumeration is exponential; use games"
                                   f" with n <= {SUPPORT_ENUMERATION_MAX_N}")
    return _SupportPass(matrix, offsets, game.r)


def _equilibria(pass_: _SupportPass, systems) -> list:
    """The equilibrium set from the equal-cost support systems `systems`
    of `pass_`; see solve_affine_by_supports.

    Every test runs on the numerators that the elimination hands over,
    over their one denominator (see `_SupportPass`): integers on rational
    games. `_accept_point` reads each point's gaps once, and a point that
    a family covers is dropped on the tie mask read there. Values are
    built only for the points and families that are kept.
    """
    points = []
    families = []
    for support, solution in systems:
        den, particular = solution.denominator, solution.numerators
        if solution.status == "unique":
            point = _accept_point(pass_, support, particular, den)
            if point is not None:
                points.append(point)
            continue
        family = _restrict_family(pass_, support, den, _family_vectors(
            pass_, support, particular, solution.basis_numerators))
        if isinstance(family, EquilibriumFamily):
            families.append(family)
        elif family is not None:
            points.append(family)

    # A point x of common cost c lies on the hull of a family F over
    # support T exactly when supp(x) is in T and C_i(x) = c on T, which
    # its tie mask reads. x meets every row of F, so it lies in F's
    # region, where folded-back implicit equalities vanish.
    family_masks = [f.bitmask for f in families]
    kept_points = []
    for mask, _, den, masses, cost, tied in sorted(points, key=lambda p: p[:2]):
        if any(mask & ~f == 0 and f & ~tied == 0 for f in family_masks):
            continue
        point = _point(pass_, masses, cost, den)
        # copies of a point agree within the mass slack in every mass (0 on
        # an exact pass), wherever rounding puts them
        if not any(all(abs(a - b) <= pass_.tol for a, b in zip(point.x.masses, kept.x.masses))
                   for kept in kept_points):
            kept_points.append(point)
    families.sort(key=lambda f: f.bitmask)
    return sorted(kept_points + families, key=lambda e: e.bitmask)


def _outside(n, support):
    return [j for j in range(n) if j not in support]


def _family_vectors(pass_, support, particular, basis):
    """(base, cost_base, directions, cost_dirs) of a support system's
    solution: each vector of the system (masses on the support, then the
    common cost) placed on the n vertices, with zero elsewhere."""
    k = len(support)
    placed = []
    for vec in (particular, *basis):
        masses = [pass_.zero] * pass_.n
        for s, m in zip(support, vec):
            masses[s] = m
        placed.append(tuple(masses))
    return placed[0], particular[k], tuple(placed[1:]), tuple(vec[k] for vec in basis)


def _accept_point(pass_, support, values, den):
    """The one test that lists a point: (bitmask, key, den, masses, cost,
    tied) for the equilibrium whose masses on the support and common
    cost c are values / den, or None when `_SupportPass.masses` rejects
    them or an off-support vertex costs less. masses are numerators on
    all n vertices, bitmask their support, key their float values (int /
    int rounds as a Fraction does), and tied the vertices whose cost ties
    with c: the support, which the system equalises, and each vertex off
    it whose gap is at most gap_tol. `_point` builds the kept values."""
    masses = pass_.masses(support, values)
    if masses is None:
        return None
    cost, tol = values[len(support)], pass_.gap_tol
    tied = sum(1 << s for s in support)
    outside = _outside(pass_.n, support)
    for j, gap in zip(outside, pass_.gaps(masses, cost, outside, den)):
        if gap < -tol:
            return None
        if gap <= tol:
            tied |= 1 << j
    values = _on_total(pass_, [m / den for m in masses])
    mask = sum(1 << i for i, v in enumerate(masses if pass_.exact else values) if v > pass_.tol)
    return mask, tuple(map(float, values)), den, masses, cost, tied


def _on_total(pass_, values):
    """The masses `values` of a point, on a float pass scaled to sum to r:
    they carry the rounding of the costs, which can exceed r by far."""
    if pass_.exact:
        return values
    ratio = pass_.r / sum(values)
    return [v * ratio for v in values]


def _point(pass_, masses, cost, den):
    """The EquilibriumPoint of an `_accept_point` point; only here do
    points build their values."""
    x = MassDistribution(tuple(_on_total(pass_, [
        numeric.quotient(m, den) if m > 0 else pass_.zero for m in masses])), pass_.r)
    return EquilibriumPoint(x, numeric.quotient(cost, den), x.support())


def _family_rows(pass_, support, den, base, cost_base, directions, cost_dirs):
    """Feasibility rows (value at base, coefficient per direction), each
    meaning >= 0, of the family (base + sum_k t_k * directions[k]) / den:
    masses on the support stay nonnegative, and every off-support vertex
    costs at least the common cost. Costs are affine, so the slope of
    C_j - c along a direction is its gap with the offsets dropped. Every
    row is D*den times the row in t, so integer numerators give integer
    rows, and a gap row is also times `unit`."""
    scale, unit = pass_.scale, pass_.unit
    rows = [(scale * base[s], [scale * d[s] for d in directions]) for s in support]
    outside = _outside(pass_.n, support)
    slopes = [list(pass_.gaps(d, dc, outside, 0)) for d, dc in zip(directions, cost_dirs)]
    rows.extend((unit * value, [unit * column[idx] for column in slopes])
                for idx, value in enumerate(pass_.gaps(base, cost_base, outside, den)))
    return rows


def _values(den, numerators):
    """A numerator, or a tuple or list of them nested at any depth, over
    den, each entry by `numeric.quotient`."""
    if isinstance(numerators, (tuple, list)):
        return type(numerators)(_values(den, v) for v in numerators)
    return numeric.quotient(numerators, den)


def _fold(rows, q, t0, units):
    """Each affine function value + coefs . t of `rows`, times q, at
    t = (t0 + sum_k u_k * units[k]) / q: a row in the u."""
    return [(q * value + sum(c * t for c, t in zip(coefs, t0)),
             [sum(c * u for c, u in zip(coefs, unit)) for unit in units]) for value, coefs in rows]


def _fold_family(vectors, q, t0, units):
    """The family (base, cost_base, directions, cost_dirs) folded by
    `_fold`, each mass and the cost read as a row."""
    base, cost_base, directions, cost_dirs = vectors
    *masses, (cost, cost_dirs) = _fold([*zip(base, zip(*directions)), (cost_base, cost_dirs)],
                                       q, t0, units)
    return tuple(m for m, _ in masses), cost, tuple(zip(*(d for _, d in masses))), tuple(cost_dirs)


def _restrict_family(pass_, support, den, vectors):
    """Clip a solution family to the feasible region.

    vectors = (base, cost_base, directions, cost_dirs) are numerators
    over den (see `LinearSolution`). A multi-parameter family asks
    `polytope.implicit_equalities` for the rows that bind across its
    whole region; when some have parameters, the family and its rows are
    folded once onto their solutions t = (t0 + sum_k u_k units[k]) / q,
    so a region pinched to a lower dimension is kept at its true size.
    Then a family of two or more parameters keeps its constraint rows,
    and a one-parameter family gets an exact interval. A region that
    collapses to one point t0, an interval along which no mass moves by
    more than tol or a folded system with no unit, is folded at t0 and
    tested by `_accept_point`.
    """
    n = pass_.n
    rows = _family_rows(pass_, support, den, *vectors)
    if len(vectors[2]) > 1:
        equalities = polytope.implicit_equalities(rows, pass_.tol)
        if equalities is None:
            return None
        tight = [rows[i] for i in equalities if any(c != 0 for c in rows[i][1])]
        reduced = solve_linear_system([list(coefs) for _, coefs in tight],
                                      [-value for value, _ in tight]) if tight else None
        # a misdetected equality leaves the family its full constraint polytope
        if reduced and reduced.status != "none":
            q, t0, units = reduced.denominator, reduced.numerators, reduced.basis_numerators
            vectors, den = _fold_family(vectors, q, t0, units), q * den
            rows = _fold(rows, q, t0, units)
    if len(vectors[2]) > 1:
        # each row is D*den times the row in t
        return EquilibriumFamily(n, pass_.r, support, *_values(den, vectors), None, "",
                                 tuple(_values(pass_.scale * den, rows)))
    if vectors[2]:
        bounds = polytope.interval(rows, pass_.tol)
        if bounds is None:
            return None
        lo, hi = bounds
        # t may be in cost units, so the range is judged by the masses it moves
        if (hi - lo) * max(map(abs, vectors[2][0])) > pass_.tol * den:
            return EquilibriumFamily(n, pass_.r, support, *_values(den, vectors), (lo, hi))
        # the range collapses to t0 = lo = num / q
        q, t0 = (lo.denominator, (lo.numerator,)) if isinstance(lo, Fraction) else (1, (lo,))
        vectors, den = _fold_family(vectors, q, t0, ()), q * den
    base, cost = vectors[:2]
    return _accept_point(pass_, support, [base[s] for s in support] + [cost], den)


def family_cost_range(family: EquilibriumFamily):
    """Extremes of the common cost over a family: (low, high, exact).

    The cost is affine in the family parameters, so its extremes lie at
    the end points of a one-parameter family's interval, or at vertices
    of a larger family's region (`EquilibriumFamily._vertices`); both are
    exact on exact input. A cost with no direction is its base.
    """
    if not any(family.cost_directions):
        ends = [()]
    elif family.dimension == 1 and family.interval is not None:
        ends = [(t,) for t in family.interval]
    else:
        ends = family._vertices()
    costs = [family.cost_base + sum(t * dc for t, dc in zip(params, family.cost_directions))
             for params in ends]
    return (min(costs), max(costs)), numeric.all_exact(costs)
