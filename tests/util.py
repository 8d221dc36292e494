"""Shared test helpers: independent oracles and random generators.

Everything here recomputes quantities from first principles with code
paths disjoint from the package internals (dense matrices, definition
quantifiers on grids, cofactor expansion), so agreement is evidence
rather than tautology.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from nbg import (Digraph, EquilibriumFamily, EquilibriumPoint, Game, affine,
                 digraph, influence_from_triples, numeric)


# ---------------------------------------------------------------------------
# linear programming oracles


def lp_rows(rows):
    """(A, b, s): the rows as A u <= b in u = t / s. HiGHS's feasibility
    tolerances are absolute, so each row whose largest |entry| passes 1 is
    first divided by the power of two within a factor of two of it, which
    moves no implicit equality and keeps rows with entries near 10^14 from
    reading as infeasible. Rows are never scaled up: a row of float
    rounding noise, such as a flat row of value -3e-17, stays within the
    LP's tolerance. Then s, the power of two within a factor of two of
    max|value| / max|coef| (1 if either is 0), brings values that scale
    with r to the coefficients' size, exactly: a game scaled by 2^k poses
    the same LP."""
    scaled = []
    for value, coefs in rows:
        row = [float(value), *map(float, coefs)]
        size = max(1.0, numeric.power_of_two_ratio(max(map(abs, row)), 1.0))
        scaled.append([v / size for v in row])
    a = [[-c for c in row[1:]] for row in scaled]
    values = [row[0] for row in scaled]
    s = numeric.power_of_two_ratio(max(map(abs, values), default=0.0),
                                   max((abs(c) for row in a for c in row), default=0.0))
    return a, [v / s for v in values], s


def lp_minimum(rows, objective):
    """Minimise objective . t over the rows by one HiGHS LP, posed in the
    u of `lp_rows`. Returns (minimum, minimiser) mapped back to t, or None
    when the program is infeasible, unbounded or fails. HiGHS's default
    simplex can stop on numerical difficulties (linprog status 4) where
    its interior point method solves the program, so such an answer is
    posed once more to that method."""
    from scipy.optimize import linprog

    a_ub, b_ub, s = lp_rows(rows)
    for method in ("highs", "highs-ipm"):
        res = linprog(objective, A_ub=a_ub, b_ub=b_ub,
                      bounds=[(None, None)] * len(objective), method=method)
        if res.status != 4:
            break
    if res.status != 0:
        return None
    return res.fun * s, res.x * s


def per_row_equalities(rows):
    """Implicit equalities by one HiGHS LP per row (`lp_minimum`): a row
    is tight when its largest value over the region is at most 1e-9 times
    its largest |entry|, value or coefficient, so scaling a row scales
    its threshold with it."""
    tight = []
    for i, (value, coefs) in enumerate(rows):
        found = lp_minimum(rows, [-float(c) for c in coefs])
        size = max(abs(float(v)) for v in (value, *coefs))
        if found is not None and float(value) - found[0] <= 1e-9 * size:
            tight.append(i)
    return tight


def region_class(rows):
    """"empty", "full" or "pinched" by the HiGHS oracles: no point, no row
    with parameters tight over the whole region, or some such row tight."""
    if lp_minimum(rows, [0.0] * len(rows[0][1])) is None:
        return "empty"
    if any(any(rows[i][1]) for i in per_row_equalities(rows)):
        return "pinched"
    return "full"


# ---------------------------------------------------------------------------
# cost oracle


def dense_costs(game, masses):
    """Vertex costs via an explicit dense coefficient matrix."""
    masses = list(masses)
    if game.kind == "general":
        return [ev(masses) for ev in game.evaluators]
    out = []
    for i in range(game.n):
        total = game.vertex_costs[i].value(masses[i])
        for j in range(game.n):
            if j != i:
                total = total + game.influence.value(j, i) * masses[j]
        out.append(total)
    return out


def utilitarian_oracle(game, masses):
    costs = dense_costs(game, masses)
    return sum(m * c for m, c in zip(masses, costs)) / game.r


# ---------------------------------------------------------------------------
# equilibrium oracles, straight from the definitions


def is_equilibrium_oracle(game, masses, tol=0):
    costs = dense_costs(game, masses)
    floor = min(costs)
    return all(costs[i] - floor <= tol
               for i in range(game.n) if masses[i] > tol)


def grid_delta_strong(game, x, delta, steps=40):
    """Definition check on an epsilon grid denser than the library's.

    For every charged i and every j != i, the cost C_i before the move
    must not exceed C_j after moving eps of mass from i to j, for eps
    ranging over (0, min(delta, x_i)].
    """
    masses = list(x.masses if hasattr(x, "masses") else x)
    costs = dense_costs(game, masses)
    n = game.n
    for i in range(n):
        if not masses[i] > 0:
            continue
        eps_max = min(delta, masses[i])
        for j in range(n):
            if j == i:
                continue
            for k in range(1, steps + 1):
                eps = eps_max * Fraction(k, steps)
                moved = list(masses)
                moved[i] = moved[i] - eps
                moved[j] = moved[j] + eps
                if costs[i] > dense_costs(game, moved)[j]:
                    return False
    return True


# ---------------------------------------------------------------------------
# kernel oracle


def subsets_kernels(d: Digraph):
    """Kernels by raw subset scan, returned as sorted vertex tuples."""
    found = []
    for size in range(1, d.n + 1):
        for subset in combinations(range(d.n), size):
            inside = set(subset)
            stable = True
            for u in subset:
                for v in subset:
                    if u != v and (u, v) in d.arcs:
                        stable = False
            dominating = all(
                any((u, z) in d.arcs for u in subset)
                for z in range(d.n) if z not in inside)
            if stable and dominating:
                found.append(subset)
    return found


# ---------------------------------------------------------------------------
# numerics oracles


def central_difference(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2 * h)


def cofactor_determinant(rows):
    """Exact determinant by recursive cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = 1 if j % 2 == 0 else -1
        total = total + sign * rows[0][j] * cofactor_determinant(minor)
    return total


# ---------------------------------------------------------------------------
# random generators (seeded by the caller)


def random_fraction(rng: random.Random, lo=0, hi=4, den=6):
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_symmetric_triples(rng: random.Random, n, density=0.7,
                             lo=0, hi=3):
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                alpha = random_fraction(rng, lo, hi)
                if alpha == 0:
                    continue
                triples.append((i, j, alpha))
                triples.append((j, i, alpha))
    return triples


def random_affine_symmetric_game(rng: random.Random, n, r=1) -> Game:
    costs = [affine(random_fraction(rng, 0, 3), random_fraction(rng, 0, 3))
             for _ in range(n)]
    influence = influence_from_triples(n, random_symmetric_triples(rng, n))
    return Game.graphical(n, r, costs, influence)


def random_linear_symmetric_game(rng: random.Random, n, r=1) -> Game:
    costs = [affine(random_fraction(rng, 1, 4), 0) for _ in range(n)]
    influence = influence_from_triples(n, random_symmetric_triples(rng, n))
    return Game.graphical(n, r, costs, influence)


def two_vertex_game(r, offset) -> Game:
    """C1 = x1 + 2 x2 + offset and C2 = x2 + 2 x1, with total mass r: for
    0 <= offset < r both corners are equilibria and minima of the potential."""
    return Game.graphical(2, r, [affine(1, offset), affine(1, 0)],
                          influence_from_triples(2, [(0, 1, 2), (1, 0, 2)]))


def random_affine_game(rng: random.Random, n, r=1) -> Game:
    """Possibly asymmetric influence."""
    costs = [affine(random_fraction(rng, 0, 3), random_fraction(rng, 0, 3))
             for _ in range(n)]
    triples = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                alpha = random_fraction(rng, 0, 3)
                if alpha != 0:
                    triples.append((i, j, alpha))
    return Game.graphical(n, r, costs, influence_from_triples(n, triples))


def random_masses(rng: random.Random, n, r=1, den=24):
    """Exact nonnegative masses summing to r (integer grid split)."""
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts + [den]:
        parts.append(Fraction(c - prev, den) * r)
        prev = c
    return parts


def random_digraph(rng: random.Random, n, p=0.4) -> Digraph:
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    return digraph(n, arcs)


# ---------------------------------------------------------------------------
# float games at r = 1.0 with every slope, offset and influence times 2^k


def covered_corner_game(k) -> Game:
    """C0 = C2 = 0, C1 = 0.5 + 0.5 x1 + x3 and C3 = 1 + 0.5 x3: the
    corner x1 = r costs 2^k at vertex 1 against 0 at vertex 0, so only
    the family over {0, 2} is an equilibrium set."""
    s = math.ldexp(1.0, k)
    return Game.graphical(4, 1.0, [affine(0.0, 0.0), affine(0.5 * s, 0.5 * s),
                                   affine(0.0, 0.0), affine(0.5 * s, s)],
                          influence_from_triples(4, [(3, 1, s)]))


def cost_parameter_game(k) -> Game:
    """C0 = C1 = 0.5, C2 = C3 = 0.5 x3 (the influence 3 -> 2 gives C2):
    the one equilibrium family is the segment from (0, 0, 1, 0) to
    (0, 0, 0, 1), and its free parameter is the common cost."""
    s = math.ldexp(1.0, k)
    return Game.graphical(4, 1.0, [affine(0.0, 0.5 * s), affine(0.0, 0.5 * s),
                                   affine(0.0, 0.0), affine(0.5 * s, 0.0)],
                          influence_from_triples(4, [(3, 2, 0.5 * s)]))


def offsets_only_game(k) -> Game:
    """Two independent vertices with C0 = 0 and C1 = 0.5: no slope, so
    the only equilibrium is (1, 0)."""
    return Game.graphical(2, 1.0, [affine(0.0, 0.0), affine(0.0, math.ldexp(0.5, k))],
                          influence_from_triples(2, []))


# ---------------------------------------------------------------------------
# equilibrium-set comparison


def point_masses(results):
    return {tuple(e.x.masses) for e in results
            if isinstance(e, EquilibriumPoint)}


def families_of(results):
    return [e for e in results if isinstance(e, EquilibriumFamily)]


def family_matches(a: EquilibriumFamily, b: EquilibriumFamily, count=5) -> bool:
    """Mutual containment of sampled members."""
    return (all(b.contains(p.x.masses) is not None
                for p in a.sample_points(count))
            and all(a.contains(p.x.masses) is not None
                    for p in b.sample_points(count)))


def same_equilibrium_set(solved, closed) -> bool:
    """Set equality: points match by mass vectors, families pair up by
    mutual containment."""
    if point_masses(solved) != point_masses(closed):
        return False
    solved_fams = families_of(solved)
    closed_fams = families_of(closed)
    if len(solved_fams) != len(closed_fams):
        return False
    unmatched = list(solved_fams)
    for fam in closed_fams:
        hit = next((g for g in unmatched if family_matches(fam, g)), None)
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


def contained_in_solution_set(game, solved, closed, samples=5) -> bool:
    """Every closed-form member verifies and lies in the solved set."""
    from nbg import verify_equilibrium

    for item in closed:
        points = (item.sample_points(samples)
                  if isinstance(item, EquilibriumFamily) else [item])
        for point in points:
            if not verify_equilibrium(game, point.x).is_equilibrium:
                return False
            in_points = tuple(point.x.masses) in point_masses(solved)
            in_family = any(f.contains(point.x.masses) is not None
                            for f in families_of(solved))
            if not (in_points or in_family):
                return False
    return True


# ---------------------------------------------------------------------------
# elimination oracle


def gauss_jordan_bareiss(rows):
    """Fraction-free Gauss-Jordan elimination, the reference for
    `linalg._bareiss`: each row scaled to integers by the lcm of its
    denominators, then every row other than the pivot row takes the
    one-step update (piv * a - f * b) // prev at every pivot, so every
    row is rescaled at every step. Returns (m, pivots, last pivot,
    row-swap parity, product of the row scales)."""
    m = []
    scales = 1
    for row in rows:
        scale = math.lcm(*(Fraction(v).denominator for v in row))
        scales *= scale
        m.append([int(Fraction(v) * scale) for v in row])
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    prev = 1
    sign = 1
    for col in range(n_cols):
        row = len(pivots)
        if row == n_rows:
            break
        best = next((i for i in range(row, n_rows) if m[i][col]), None)
        if best is None:
            continue
        if best != row:
            m[row], m[best] = m[best], m[row]
            sign = -sign
        top = m[row]
        pivot = top[col]
        for i in range(n_rows):
            if i == row:
                continue
            factor = m[i][col]
            if factor:
                m[i] = [(pivot * a - factor * b) // prev for a, b in zip(m[i], top)]
            elif pivot != prev:
                m[i] = [pivot * a // prev for a in m[i]]
        pivots.append(col)
        prev = pivot
    return m, pivots, prev, sign, scales
