"""Multistart projected-gradient minimization over the mass simplex.

Float-only workhorse used by potential minimization and social-cost
search on the games that have no exact path (non-affine cost forms, and
affine games above the support-enumeration cap); the callers check its end points themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Armijo sufficient-decrease constant and backtracking factor
ARMIJO_C = 1e-4
BACKTRACK = 0.5
INITIAL_STEP = 1.0
#: iteration cap and stopping shift of one descent; end points closer
#: than DEDUP_TOL in the infinity norm count as one
MAX_ITERS = 500
XTOL = 1e-12
DEDUP_TOL = 1e-6


def project_to_simplex(v, r=1.0):
    """Euclidean projection onto {x >= 0, sum x = r} by the sort-based rule."""
    v = np.asarray(v, dtype=float)
    n = v.size
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - r
    rho = np.nonzero(u * np.arange(1, n + 1) > cssv)[0][-1]
    theta = cssv[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


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
    x = project_to_simplex(np.asarray(x0, dtype=float), r)
    fx = float(objective(x))
    for it in range(1, MAX_ITERS + 1):
        g = np.asarray(gradient(x), dtype=float)
        step = INITIAL_STEP
        moved = None
        while step > 1e-14:
            cand = project_to_simplex(x - step * g, r)
            delta = cand - x
            dist2 = float(delta @ delta)
            if dist2 == 0.0:
                break
            fc = float(objective(cand))
            if fc <= fx - (ARMIJO_C / step) * dist2:
                moved = (cand, fc)
                break
            step *= BACKTRACK
        if moved is None:
            return DescentResult(tuple(float(t) for t in x), fx, it, True)
        cand, fc = moved
        shift = float(np.max(np.abs(cand - x)))
        x, fx = cand, fc
        if shift <= XTOL:
            return DescentResult(tuple(float(t) for t in x), fx, it, True)
    return DescentResult(tuple(float(t) for t in x), fx, MAX_ITERS, False)


def multistart_minimize(objective, gradient, n, r, starts=20, seed=0):
    """Run descent from random interior points plus the simplex vertices.

    Returns DescentResults sorted by (value, point), deduplicated at
    DEDUP_TOL in the infinity norm; deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    points = list(np.eye(n) * float(r))
    if n > 1:
        for _ in range(starts):
            points.append(rng.dirichlet(np.ones(n)) * float(r))
    results = [descend(objective, gradient, p, r) for p in points]
    results.sort(key=lambda res: (res.value, res.x))
    kept = []
    for res in results:
        if any(max(abs(a - b) for a, b in zip(res.x, other.x)) <= DEDUP_TOL
               for other in kept):
            continue
        kept.append(res)
    return kept
