"""Multistart projected-gradient minimization over the mass simplex.

Float-only workhorse used by potential minimization and social-cost
search on the games that have no exact path (non-affine cost forms, and
affine games above the support-enumeration cap); the callers check its end points themselves.
Points are lists of Python floats. Distances are in units of the total
mass r and step lengths are unitless, so on an objective in the units of
the potential (mass times cost) whose costs scale with r, r = 2^k gives
the r = 1 end points times 2^k exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Armijo sufficient-decrease constant and backtracking factor
ARMIJO_C = 1e-4
BACKTRACK = 0.5
INITIAL_STEP = 1.0
#: iteration cap and stopping shift of one descent, as a share of r;
#: end points closer than DEDUP_TOL * r in the infinity norm count as one
MAX_ITERS = 500
XTOL = 1e-12
DEDUP_TOL = 1e-6


def project_to_simplex(v, r=1.0):
    """Euclidean projection onto {x >= 0, sum x = r}: the sort-and-one-pass
    rule of Held, Wolfe & Crowder (Math. Programming 6, 1974)."""
    total = theta = 0.0
    for k, u in enumerate(sorted(v, reverse=True), 1):
        total += u
        if u * k > total - r:
            theta = (total - r) / k
    return [max(t - theta, 0.0) for t in v]


@dataclass(frozen=True)
class DescentResult:
    x: tuple
    value: float
    iterations: int
    converged: bool


def descend(objective, gradient, x0, r):
    """Projected-gradient descent with Armijo backtracking along the
    projection arc. Returns the final point; stalling at a point where
    the projected step vanishes counts as convergence."""
    x = project_to_simplex(x0, r)
    fx = objective(x)
    for it in range(1, MAX_ITERS + 1):
        g = gradient(x)
        step, moved = INITIAL_STEP, None
        while step > 1e-14:
            cand = project_to_simplex([a - step * b for a, b in zip(x, g)], r)
            delta = [c - a for c, a in zip(cand, x)]
            dist2 = sum(d * d for d in delta)
            if dist2 == 0.0:
                break
            fc = objective(cand)
            if fc <= fx - (ARMIJO_C / step) * dist2:
                moved = (cand, fc)
                break
            step *= BACKTRACK
        if moved is None:
            return DescentResult(tuple(x), fx, it, True)
        x, fx = moved
        if max(map(abs, delta)) <= XTOL * r:
            return DescentResult(tuple(x), fx, it, True)
    return DescentResult(tuple(x), fx, MAX_ITERS, False)


def multistart_minimize(objective, gradient, n, r, starts, seed=0):
    """Run descent from the simplex vertices and `starts` points uniform on
    the simplex, drawn as normalised exponentials from random.Random(seed).

    Returns DescentResults sorted by (value, point), deduplicated at
    DEDUP_TOL * r in the infinity norm; deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    points = [[r if i == j else 0.0 for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(starts):
            draws = [rng.expovariate(1.0) for _ in range(n)]
            total = sum(draws)
            points.append([t / total * r for t in draws])
    results = [descend(objective, gradient, p, r) for p in points]
    results.sort(key=lambda res: (res.value, res.x))
    kept = []
    for res in results:
        if any(max(abs(a - b) for a, b in zip(res.x, other.x)) <= DEDUP_TOL * r
               for other in kept):
            continue
        kept.append(res)
    return kept
