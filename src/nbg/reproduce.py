"""The paper's worked examples as checks, for `nbg reproduce`.

Each group in `GROUPS` replays one section of the paper, from the
two-route dilemma (2.1) to complete bipartite graphs and stars (4.3),
through `Recorder` methods that compare every field their lines print.
`write_figures` writes the cost curves of the two-vertex examples.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .closed_forms import (bipartite_closed_form, cycle_closed_form,
                           make_family, path_closed_form, star_closed_form,
                           uniform_cost_solve)
from .equilibrium import (EquilibriumFamily, EquilibriumPoint,
                          best_response_dynamics, solve_affine_by_supports,
                          verify_delta_strong, verify_equilibrium)
from .games import cost_vector
from .graphs import Digraph
from .instances import (braess_game, dilemma_game, directed_triangle,
                        no_equilibrium_game, potential_maximum_game,
                        stability_gap_game, three_equilibria_game,
                        unbounded_anarchy_game, unique_nonstrong_game)
from .kernel_structure import (digraph_to_nbg, enumerate_kernels,
                               strong_supports_match_kernels)
from .metrics import price_report
from .numeric import short_text, vector_text
from .potential import minimize_potential, potential


def _single(items, kind):
    """The only entry of an equilibrium list if it is a `kind`, else None."""
    return items[0] if len(items) == 1 and isinstance(items[0], kind) else None


def _solved(kind, alpha, **size):
    return solve_affine_by_supports(make_family(kind, alpha, **size))


def _at_cost(masses, cost) -> str:
    return vector_text(masses) + ("" if cost is None
                                  else f" at cost {short_text(cost)}")


def _first_mass(masses, cost) -> str:
    return f"x1 = {short_text(masses[0])}, cost {short_text(cost)}"


def _holds(item, masses) -> bool:
    if isinstance(item, EquilibriumPoint):
        return tuple(item.x.masses) == tuple(masses)
    return item.contains(masses) is not None


class Recorder:
    """The check lines of one group, and how many of them failed. Exact
    scalars print canonically, so where a method compares printed text
    it compares the values of every printed field."""

    def __init__(self, group):
        self.group = group
        self.lines = []
        self.failures = 0

    def check(self, name, expected, computed, ok=None):
        if ok is None:
            ok = expected == computed
        if not ok:
            self.failures += 1
        tag = "PASS" if ok else "FAIL"
        self.lines.append(f"{tag} [{self.group}] {name}: "
                          f"expected {expected}; computed {computed}")

    def equilibrium(self, name, game, masses, expected=True) -> None:
        """Whether `masses` is an equilibrium of `game`."""
        rep = verify_equilibrium(game, game.distribution(masses))
        self.check(name, expected, rep.is_equilibrium)

    def survives(self, name, game, masses, delta, expected) -> None:
        """Whether the equilibrium `masses` of `game` survives every
        deviation of size up to `delta`."""
        cert = verify_delta_strong(game, game.distribution(masses), delta)
        self.check(name, expected, cert.is_delta_strong)

    def point(self, name, masses, cost, *results, show=_at_cost):
        """Check that each list in `results` is one isolated equilibrium
        that `show` prints as it prints the expected (masses, cost), where
        a cost of None is neither printed nor compared; print the last
        list, and return its point or None."""
        expected = show(masses, cost)
        texts = []
        for items in results:
            point = _single(items, EquilibriumPoint)
            texts.append(f"{len(items)} results" if point is None else show(
                point.x.masses, None if cost is None else point.cost))
        self.check(name, expected, texts[-1],
                   ok=all(text == expected for text in texts))
        return point

    def point_set(self, name, expected, *results) -> None:
        """Check that the isolated equilibria of each list in `results` are
        the mass tuples in `expected`; the count of the last is printed."""
        found = [{tuple(item.x.masses) for item in items
                  if isinstance(item, EquilibriumPoint)} for items in results]
        self.check(name, f"{len(expected)} equilibria",
                   f"{len(found[-1])} equilibria",
                   ok=all(points == expected for points in found))

    def segment(self, name, closed, solved) -> None:
        """Check that the closed form and the solver each give one
        equilibrium family, the solver's one-dimensional, each holding
        samples of the other."""
        derived = _single(closed, EquilibriumFamily)
        family = _single(solved, EquilibriumFamily)
        ok = (derived is not None and family is not None and family.dimension == 1
              and all(family.contains(pt.x.masses) is not None
                      for pt in derived.sample_points(3))
              and all(derived.contains(pt.x.masses) is not None
                      for pt in family.sample_points(3)))
        expected = "matching one-parameter families"
        self.check(name, expected, expected if ok else "mismatch", ok=ok)

    def among(self, name, results, points, ok=True) -> None:
        """Check that every mass tuple in `points` is an isolated
        equilibrium of `results` or lies on one of its families; `ok`
        carries what else the check asks."""
        ok = ok and all(any(_holds(item, masses) for item in results)
                        for masses in points)
        self.check(name, True, ok)


def _group_dilemma(rec: Recorder) -> None:
    game = dilemma_game()
    for t, expected in ((Fraction(0), True), (Fraction(3, 4), True),
                        (Fraction(1), True), (Fraction(1, 2), False),
                        (Fraction(9, 10), False)):
        rec.equilibrium(f"two-route dilemma: x1 = {short_text(t)} is an equilibrium",
                        game, (t, 1 - t), expected)
    for start, target in ((Fraction(1, 2), 0.0), (Fraction(4, 5), 1.0)):
        run = best_response_dynamics(game, game.distribution((start, 1 - start)),
                                     keep_trace=False)
        ok = run.converged and abs(float(run.x.masses[0]) - target) <= 1e-9
        rec.check(f"two-route dilemma: selfish drift from x1 = {short_text(start)}",
                  f"x1 = {short_text(target)}",
                  f"x1 = {short_text(run.x.masses[0])}", ok=ok)
    none_game = no_equilibrium_game()
    grid = (Fraction(k, 100) for k in range(101))
    hits = [t for t in grid if verify_equilibrium(
        none_game, none_game.distribution((t, 1 - t))).is_equilibrium]
    rec.check("discontinuous game: equilibria on the 1/100 grid", "none",
              "none" if not hits else vector_text(hits), ok=not hits)


def _group_kernels(rec: Recorder) -> None:
    tri = directed_triangle()
    rec.check("directed 3-cycle: number of kernels", 0, len(enumerate_kernels(tri)))
    game = digraph_to_nbg(tri, Fraction(2))
    uniform = (Fraction(1, 3),) * 3
    rec.point("directed 3-cycle: unique equilibrium", uniform, None,
              solve_affine_by_supports(game))
    rec.survives("directed 3-cycle: uniform equilibrium survives deviations",
                 game, uniform, Fraction(1, 3), False)
    rep = strong_supports_match_kernels(tri, Fraction(2))
    rec.check("directed 3-cycle: strong supports match kernels (both empty)",
              True, rep.matched and not rep.strong_supports)
    path4 = Digraph(4, frozenset(((0, 1), (1, 2), (2, 3))))
    rep4 = strong_supports_match_kernels(path4, Fraction(2))
    kernel_sets = [k.sorted_vertices for k in rep4.kernels]
    rec.check("directed 4-path: kernels", "{1, 3}",
              ", ".join("{" + ", ".join(str(v + 1) for v in k) + "}"
                        for k in kernel_sets) or "none",
              ok=kernel_sets == [(0, 2)])
    rec.check("directed 4-path: strong supports match kernels", True, rep4.matched)

    curved = three_equilibria_game()
    for t in (Fraction(0), Fraction(3, 4), Fraction(1)):
        rec.equilibrium(f"curved game: x1 = {short_text(t)} is an equilibrium",
                        curved, (t, 1 - t))
    for t, delta, expected in ((Fraction(0), Fraction(1, 4), True),
                               (Fraction(0), Fraction(3, 10), False),
                               (Fraction(3, 4), Fraction(1, 100), False),
                               (Fraction(1), Fraction(1), True)):
        rec.survives(f"curved game: x1 = {short_text(t)} survives deviations"
                     f" up to {short_text(delta)}", curved, (t, 1 - t), delta,
                     expected)
    tied = unique_nonstrong_game()
    corner = (Fraction(0), Fraction(1))
    rec.point("affine tie game: unique equilibrium", corner, None,
              solve_affine_by_supports(tied))
    rec.survives("affine tie game: equilibrium survives deviations"
                 " up to 1/1000000", tied, corner, Fraction(1, 10 ** 6), False)


def _group_braess(rec: Recorder) -> None:
    costs = []
    for b2 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        x1 = 2 * b2 - Fraction(1, 2)
        point = rec.point(f"offset {short_text(b2)}: unique equilibrium",
                          (x1, 1 - x1), Fraction(11, 8) - b2 / 2,
                          solve_affine_by_supports(braess_game(b2)),
                          show=_first_mass)
        costs.append(point.cost if point is not None else None)
    rec.check("equilibrium cost falls as the offset grows", "5/4 > 9/8 > 1",
              " > ".join("?" if c is None else short_text(c) for c in costs),
              ok=None not in costs and costs[0] > costs[1] > costs[2])


def _group_anarchy(rec: Recorder) -> None:
    for a in (2, 5, 9):
        report = price_report(unbounded_anarchy_game(Fraction(a)))
        expected = Fraction(1 + a, 2)
        for key, measure in (("poa_u", "utilitarian"), ("poa_e", "egalitarian")):
            value = getattr(report, key)
            rec.check(f"coupling {a}: price of anarchy ({measure})",
                      short_text(expected), short_text(value),
                      ok=value == expected and report.exact[key])


def _group_stability(rec: Recorder) -> None:
    for lam in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2)):
        report = price_report(stability_gap_game(lam))
        expected = (2 + 2 * lam) / (1 + 2 * lam)
        rec.check(f"parameter {short_text(lam)}: price of stability (utilitarian)",
                  short_text(expected), short_text(report.pos_u),
                  ok=report.pos_u == expected and report.exact["pos_u"])
    game = potential_maximum_game()
    for t, expected in ((Fraction(0), Fraction(3, 2)),
                        (Fraction(1, 2), Fraction(11, 8)),
                        (Fraction(1), Fraction(1))):
        value = potential(game, game.distribution((t, 1 - t))).value
        rec.check(f"potential at x1 = {short_text(t)}", short_text(expected),
                  short_text(value), ok=value == expected)
    for t in (Fraction(0), Fraction(1)):
        rec.equilibrium(f"x1 = {short_text(t)} is an equilibrium", game, (t, 1 - t))
    minima = minimize_potential(game)
    ok = len(minima) == 1 and minima[0].masses == (Fraction(1), Fraction(0))
    rec.check("potential minimiser keeps only the corner x1 = 1", "(1, 0)",
              ", ".join(vector_text(m.masses) for m in minima) or "none", ok=ok)


def _group_paths(rec: Recorder) -> None:
    targets = (
        (6, Fraction(1, 4), (15, 11, 12, 12, 11, 15), 76, Fraction(71, 304)),
        (6, Fraction(1, 3), (8, 5, 6, 6, 5, 8), 38, Fraction(29, 114)),
        (7, Fraction(1, 3), (13, 8, 10, 9, 10, 8, 13), 71, Fraction(47, 213)),
        (7, Fraction(1, 4), (41, 30, 33, 32, 33, 30, 41), 240,
         Fraction(97, 480)),
    )
    for n, alpha, numerators, den, cost in targets:
        rec.point(f"path n={n}, coefficient {short_text(alpha)}: unique equilibrium",
                  tuple(Fraction(k, den) for k in numerators), cost,
                  _solved("path", alpha, n=n))

    expected = tuple(Fraction(k, 30) for k in (5, 1, 4, 2, 3, 3, 2, 4, 1, 5))
    point = rec.point("path n=10, coefficient 1/2: closed-form equilibrium",
                      expected, Fraction(11, 60),
                      path_closed_form(10, Fraction(1, 2)))
    if point is not None:
        rec.equilibrium("path n=10, coefficient 1/2: closed form verifies",
                        make_family("path", Fraction(1, 2), n=10),
                        point.x.masses)

    system = uniform_cost_solve(make_family("path", Fraction(3, 4), n=3))
    rec.check("path n=3, coefficient 3/4: equal-costs system", "none", system.status)


def _group_cycles(rec: Recorder) -> None:
    rec.point("cycle n=5, coefficient 1/2: unique uniform equilibrium",
              (Fraction(1, 5),) * 5, Fraction(2, 5),
              cycle_closed_form(5, Fraction(1, 2)),
              _solved("cycle", Fraction(1, 2), n=5))

    rec.segment("cycle n=6, coefficient 1/2: both derivations give one segment",
                cycle_closed_form(6, Fraction(1, 2)),
                _solved("cycle", Fraction(1, 2), n=6))

    closed51 = cycle_closed_form(5, Fraction(1))[0]
    rec.among("cycle n=5, coefficient 1: uniform point among solved equilibria",
              _solved("cycle", Fraction(1), n=5),
              [closed51.x.masses])

    game61 = make_family("cycle", Fraction(1), n=6)
    closed61 = cycle_closed_form(6, Fraction(1))[0]
    samples = closed61.sample_points(5)
    rec.among("cycle n=6, coefficient 1: two-parameter family members verify"
              " and appear among solved equilibria",
              solve_affine_by_supports(game61), [pt.x.masses for pt in samples],
              ok=closed61.dimension == 2
              and all(verify_equilibrium(game61, pt.x).is_equilibrium
                      for pt in samples))


def _group_bipartite(rec: Recorder) -> None:
    rec.point("sides 3+2, coefficient 1/10: unique interior equilibrium",
              (Fraction(4, 19),) * 3 + (Fraction(7, 38),) * 2, Fraction(47, 190),
              bipartite_closed_form(3, 2, Fraction(1, 10)),
              _solved("complete_bipartite", Fraction(1, 10), p=3, q=2))

    rec.point_set("sides 3+2, coefficient 1/2: one equilibrium per side",
                  {(Fraction(0),) * 3 + (Fraction(1, 2),) * 2,
                   (Fraction(1, 3),) * 3 + (Fraction(0),) * 2},
                  bipartite_closed_form(3, 2, Fraction(1, 2)),
                  _solved("complete_bipartite", Fraction(1, 2), p=3, q=2))

    rec.point_set("star n=5, coefficient 2: three equilibria",
                  {(Fraction(1, 11),) * 4 + (Fraction(7, 11),),
                   (Fraction(0),) * 4 + (Fraction(1),),
                   (Fraction(1, 4),) * 4 + (Fraction(0),)},
                  star_closed_form(5, Fraction(2)),
                  _solved("star", Fraction(2), n=5))

    rec.point("star n=5, coefficient 1/5: unique interior equilibrium",
              (Fraction(4, 17),) * 4 + (Fraction(1, 17),), Fraction(21, 85),
              star_closed_form(5, Fraction(1, 5)),
              _solved("star", Fraction(1, 5), n=5))

    rec.segment("sides 2+2, coefficient 1/2: both derivations give one segment",
                bipartite_closed_form(2, 2, Fraction(1, 2)),
                _solved("complete_bipartite", Fraction(1, 2), p=2, q=2))


#: section id -> (alias, runner), in the paper's order
GROUPS = {
    "2.1": ("dilemma", _group_dilemma),
    "3.4": ("kernels", _group_kernels),
    "3.8": ("braess", _group_braess),
    "3.9": ("anarchy", _group_anarchy),
    "3.10": ("stability", _group_stability),
    "4.1": ("paths", _group_paths),
    "4.2": ("cycles", _group_cycles),
    "4.3": ("bipartite", _group_bipartite),
}

ALIASES = {alias: key for key, (alias, _) in GROUPS.items()}

_FIGURES = {
    "2.1": (("figure1.csv", dilemma_game),),
    "3.4": (("figure2.csv", three_equilibria_game),
            ("figure3.csv", unique_nonstrong_game)),
    "3.8": (("figure5_offset_1_4.csv", lambda: braess_game(Fraction(1, 4))),
            ("figure5_offset_1_2.csv", lambda: braess_game(Fraction(1, 2))),
            ("figure5_offset_3_4.csv", lambda: braess_game(Fraction(3, 4)))),
    "3.10": (("figure4.csv", potential_maximum_game),
             ("figure6.csv", lambda: stability_gap_game(Fraction(1, 2)))),
}


def write_figures(directory, group_ids) -> list:
    """Write the cost curves (x1, C1, C2) of the selected groups' two-vertex
    games at x1 = 0, 1/100, ..., 1 as CSV files; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for gid in group_ids:
        for name, builder in _FIGURES.get(gid, ()):
            game = builder()
            rows = ["x1,C1,C2"] + [
                ",".join(f"{float(v):.12g}" for v in (t, *cost_vector(game, (t, 1 - t))))
                for t in (Fraction(k, 100) for k in range(101))]
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(rows) + "\n")
            written.append(path)
    return written
