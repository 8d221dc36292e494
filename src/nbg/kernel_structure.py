"""Digraph kernels and their correspondence with strong equilibria.

A kernel is a vertex set that is directed-stable (no arc in either
direction between two members) and directed-dominating (every outside
vertex receives an arc from some member). Turning a digraph into a
normal linear game by putting a coefficient alpha > 1 on every arc makes
the supports of strong equilibria coincide with the kernels, which is
what strong_supports_match_kernels checks instance by instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import numeric
from .equilibrium import (EquilibriumFamily, solve_affine_by_supports,
                          verify_delta_strong)
from .errors import UnsupportedGameError
from .games import Game, MassDistribution, affine, influence_from_triples
from .graphs import Digraph

#: exhaustive subset enumeration cap
MAX_KERNEL_VERTICES = 24


@dataclass(frozen=True)
class Kernel:
    n: int
    vertices: frozenset

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        for v in self.vertices:
            if not 0 <= v < self.n:
                raise ValueError(f"kernel vertex {v} out of range for n={self.n}")

    @property
    def sorted_vertices(self) -> tuple:
        return tuple(sorted(self.vertices))

    def __len__(self) -> int:
        return len(self.vertices)


def is_stable(d: Digraph, vertices) -> bool:
    """No arc in either direction between two members."""
    vertices = set(vertices)
    return not any(d.has_arc(u, v) or d.has_arc(v, u)
                   for u, v in combinations(vertices, 2))


def is_dominating(d: Digraph, vertices) -> bool:
    """Every outside vertex has an in-arc from some member."""
    vertices = set(vertices)
    return all(any(d.has_arc(v, z) for v in vertices)
               for z in range(d.n) if z not in vertices)


def is_kernel(d: Digraph, vertices) -> bool:
    return is_stable(d, vertices) and is_dominating(d, vertices)


def enumerate_kernels(d: Digraph) -> tuple:
    """All kernels, by exhaustive subset check, smallest first."""
    if d.n > MAX_KERNEL_VERTICES:
        raise UnsupportedGameError(
            f"kernel enumeration is exponential; n={d.n} exceeds {MAX_KERNEL_VERTICES}")
    found = []
    for size in range(1, d.n + 1):
        for subset in combinations(range(d.n), size):
            if is_kernel(d, subset):
                found.append(Kernel(d.n, frozenset(subset)))
    return tuple(found)


def digraph_to_nbg(d: Digraph, alpha, r=1) -> Game:
    """Normal linear game with coefficient alpha on every arc.

    Requires alpha > 1 so that the kernel correspondence hypotheses
    (alpha_{i,j} > 1 and alpha_{i,j} + alpha_{j,i} > 2 on arcs) hold.
    """
    if not alpha > 1:
        raise ValueError(f"reduction needs alpha > 1, got {numeric.scalar_text(alpha)}")
    costs = [affine(1, 0) for _ in range(d.n)]
    entries = [(u, v, alpha) for (u, v) in sorted(d.arcs)]
    return Game.graphical(d.n, r, costs, influence_from_triples(d.n, entries))


def satisfies_correspondence_hypotheses(game: Game) -> bool:
    """Check the weaker pairwise condition directly on a game: normal
    linear, every nonzero coefficient > 1, and every arc pair summing
    over both directions to more than 2."""
    from .games import classify

    if not classify(game).satisfies("normal"):
        return False
    entries = dict(game.influence.items())
    for (i, j), alpha in entries.items():
        if not alpha > 1:
            return False
        if not alpha + entries.get((j, i), 0) > 2:
            return False
    return True


def kernel_to_strong_equilibrium(kernel: Kernel, r=1) -> MassDistribution:
    """Uniform mass r/|K| on the kernel vertices."""
    if len(kernel) == 0:
        raise ValueError("empty kernel has no associated distribution")
    share = numeric.quotient(r, len(kernel))
    masses = tuple(share if i in kernel.vertices else 0 for i in range(kernel.n))
    return MassDistribution(masses, r)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of comparing strong-equilibrium supports with kernels."""

    matched: bool
    kernels: tuple
    strong_supports: tuple
    equilibria: tuple
    discrepancies: tuple


def strong_supports_match_kernels(d: Digraph, alpha, r=1) -> CorrespondenceReport:
    """Enumerate both sides of the correspondence and compare.

    Equilibria come from support enumeration on the reduced game; each
    counts as strong when it is delta-strong at delta = r/|support|, the
    level the uniform kernel distribution attains.
    """
    game = digraph_to_nbg(d, alpha, r)
    # first, so that the solver's cap refuses a large digraph before any
    # of its 2^n kernel candidates is tried
    equilibria = solve_affine_by_supports(game)
    kernels = enumerate_kernels(d)
    kernel_sets = {k.sorted_vertices for k in kernels}

    strong_supports = set()
    for eq in equilibria:
        if isinstance(eq, EquilibriumFamily):
            candidates = eq.sample_points(5)
        else:
            candidates = [eq]
        for point in candidates:
            support = point.x.support()
            if support in strong_supports:
                continue
            delta = numeric.quotient(r, len(support))
            if verify_delta_strong(game, point.x, delta).is_delta_strong:
                strong_supports.add(support)

    discrepancies = []
    for k in sorted(kernel_sets):
        if k not in strong_supports:
            discrepancies.append(
                f"kernel {k} has no strong equilibrium on its support")
    for s in sorted(strong_supports):
        if s not in kernel_sets:
            discrepancies.append(
                f"strong equilibrium support {s} is not a kernel")
    return CorrespondenceReport(
        matched=not discrepancies,
        kernels=kernels,
        strong_supports=tuple(sorted(strong_supports)),
        equilibria=tuple(equilibria),
        discrepancies=tuple(discrepancies),
    )
