"""Directed and undirected graphs.

Vertices are 0-indexed in memory. Game files and console output use
1-indexed vertices, matching the usual notation for the game families.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Digraph:
    n: int
    arcs: frozenset

    def __post_init__(self):
        for u, v in self.arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs


@dataclass(frozen=True)
class UndirectedGraph:
    n: int
    edges: frozenset  # of frozensets {u, v}

    def __post_init__(self):
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError(f"not an edge: {set(edge)}")
            for u in edge:
                if not 0 <= u < self.n:
                    raise ValueError(f"vertex {u} out of range for n={self.n}")

    def neighbors(self, u: int):
        return sorted(next(iter(e - {u})) for e in self.edges if u in e)


def digraph(n, arc_pairs) -> Digraph:
    return Digraph(n, frozenset((int(u), int(v)) for u, v in arc_pairs))
