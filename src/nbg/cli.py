"""Command-line front end.

Subcommands: verify a distribution against a game file, solve a game by
one of four methods, compute price-of-anarchy metrics, generate a named
family instance, scan determinants of equal-costs systems, run the
selfish mass dynamics, and replay the bundled example groups. Exit codes
are 0 on success, 1 when a check fails (not an equilibrium, failed
replay), and 2 on bad input or an unsupported game.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from . import numeric
from .closed_forms import (bipartite_closed_form, conjecture_scan,
                           cycle_closed_form, make_family, path_closed_form,
                           star_closed_form, uniform_cost_solve)
from .equilibrium import (EquilibriumFamily, EquilibriumPoint,
                          best_response_dynamics, solve_affine_by_supports,
                          verify_delta_strong, verify_equilibrium)
from .errors import InputFormatError, NbgError, UnsupportedGameError
from .games import Game, classify, cost_vector
from .graphs import Digraph
from .instances import (braess_game, dilemma_game, directed_triangle,
                        no_equilibrium_game, potential_maximum_game,
                        stability_gap_game, three_equilibria_game,
                        unbounded_anarchy_game, unique_nonstrong_game)
from .kernel_structure import (digraph_to_nbg, enumerate_kernels,
                               strong_supports_match_kernels)
from .metrics import price_report
from .potential import DEFAULT_STARTS, minimize_potential, potential
from .serialize import (load_distribution, load_game, parse_masses,
                        parse_scalar_text, save_game)


def _seed() -> int:
    return int(os.environ.get("NBG_SEED", "0"))


def _short(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, numeric.QuadExt):
        return str(value)
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.12g}"


def _vector(values) -> str:
    return "(" + ", ".join(_short(v) for v in values) + ")"


def _uniform_start(game: Game):
    if isinstance(game.r, int):
        share = Fraction(game.r, game.n)
    else:
        share = game.r / game.n
    return game.distribution([share] * game.n)


def _resolve_distribution(game: Game, args):
    if args.dist and args.distribution:
        raise InputFormatError("pass either a distribution file or --dist, not both")
    if args.dist:
        masses = parse_masses(args.dist)
    elif args.distribution:
        masses = load_distribution(args.distribution).masses
    else:
        raise InputFormatError("no distribution given; pass a file or --dist")
    if len(masses) != game.n:
        raise InputFormatError(
            f"distribution has {len(masses)} entries, game has {game.n} vertices")
    return game.distribution(masses)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    game = load_game(args.game)
    x = _resolve_distribution(game, args)
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise InputFormatError(
            f"--tol must be finite and nonnegative, got {args.tol}")
    report = verify_equilibrium(game, x, tol=args.tol)
    if args.delta is not None:
        delta = parse_scalar_text(args.delta)
        cert = verify_delta_strong(game, x, delta, tol=args.tol)
    cls = classify(game)
    label = cls.label + (", symmetric" if cls.symmetric else "")
    print(f"game: n = {game.n}, total mass {_short(game.r)}, class {label}")
    for i in range(game.n):
        print(f"vertex {i + 1}: mass {numeric.format_scalar(x.masses[i])}"
              f"  cost {numeric.format_scalar(report.costs[i])}")
    print(f"worst charged gap: {numeric.format_scalar(report.worst_gap)}")
    if report.common_cost is not None:
        print(f"charged cost: {numeric.format_scalar(report.common_cost)}")
    print(f"equilibrium: {'yes' if report.is_equilibrium else 'no'}")
    ok = report.is_equilibrium
    if args.delta is not None:
        print(f"survives deviations up to {_short(delta)}: "
              f"{'yes' if cert.is_delta_strong else 'no'} ({cert.method} check)")
        if cert.witness is not None:
            i, j, eps = cert.witness
            if eps == 0:
                print(f"witness: vertex {i + 1} is charged yet costlier "
                      f"than vertex {j + 1}")
            else:
                print(f"witness: moving {_short(eps)} from vertex {i + 1} "
                      f"to vertex {j + 1} pays")
        ok = ok and cert.is_delta_strong
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# solve


def _print_equilibria(game: Game, results) -> int:
    points = sum(1 for e in results if isinstance(e, EquilibriumPoint))
    print(f"equilibria found: {points} isolated, {len(results) - points} families")
    ok = bool(results)
    for index, item in enumerate(results, 1):
        if isinstance(item, EquilibriumPoint):
            rep = verify_equilibrium(game, item.x)
            ok = ok and rep.is_equilibrium
            flag = "verified" if rep.is_equilibrium else "FAILED verification"
            label = f"  ({item.label})" if item.label else ""
            print(f"equilibrium {index}: masses {_vector(item.x.masses)}"
                  f"  cost {numeric.format_scalar(item.cost)}  [{flag}]{label}")
        else:
            verified = all(verify_equilibrium(game, pt.x).is_equilibrium
                           for pt in item.sample_points(3))
            ok = ok and verified
            flag = ("sampled members verified" if verified
                    else "FAILED verification")
            label = f"  ({item.label})" if item.label else ""
            print(f"equilibrium {index}: family of dimension {item.dimension}"
                  f"  [{flag}]{label}")
            print(f"  base {_vector(item.base)}"
                  f"  cost {numeric.format_scalar(item.cost_base)}")
            for k in range(item.dimension):
                print(f"  direction {k + 1}: {_vector(item.directions[k])}"
                      f"  cost slope {_short(item.cost_directions[k])}")
            if item.interval is not None:
                print(f"  parameter range [{_short(item.interval[0])},"
                      f" {_short(item.interval[1])}]")
    return 0 if ok else 1


def cmd_solve(args) -> int:
    game = load_game(args.game)
    if args.method == "supports":
        return _print_equilibria(game, solve_affine_by_supports(game))
    if args.method == "potential":
        minima = minimize_potential(game, starts=args.starts, seed=_seed())
        print(f"potential minima found: {len(minima)}")
        ok = bool(minima)
        for index, x in enumerate(minima, 1):
            value = potential(game, x).value
            rep = verify_equilibrium(game, x)
            ok = ok and rep.is_equilibrium
            flag = ("verified equilibrium" if rep.is_equilibrium
                    else "NOT an equilibrium")
            print(f"minimum {index}: masses {_vector(x.masses)}"
                  f"  potential {numeric.format_scalar(value)}  [{flag}]")
        return 0 if ok else 1
    if args.method == "dynamics":
        _, run = _run_dynamics(game, args, keep_trace=False)
        print(f"iterations: {run.iterations}")
        print(f"converged: {'yes' if run.converged else 'no'}")
        print(f"final: {_vector(run.x.masses)}")
        print(f"equilibrium: {'yes' if run.report.is_equilibrium else 'no'}")
        return 0 if run.report.is_equilibrium else 1

    system = uniform_cost_solve(game, args.graph)
    print(f"graph kind: {args.graph}")
    print(f"determinant: {numeric.format_scalar(system.determinant)}")
    print(f"status: {system.status}")
    if system.status == "unique":
        print(f"solution: masses {_vector(system.masses)}"
              f"  common cost {numeric.format_scalar(system.cost)}")
        print(f"nonnegative: {'yes' if system.nonnegative else 'no'}")
        if not system.nonnegative:
            return 1
        rep = verify_equilibrium(game, game.distribution(system.masses))
        print(f"equilibrium: {'yes' if rep.is_equilibrium else 'no'}")
        return 0 if rep.is_equilibrium else 1
    if system.status == "family":
        print(f"base: masses {_vector(system.base_masses)}"
              f"  common cost {numeric.format_scalar(system.base_cost)}")
        for k, (direction, slope) in enumerate(system.directions, 1):
            print(f"direction {k}: {_vector(direction)}"
                  f"  cost slope {_short(slope)}")
        print("nonnegative member exists: "
              f"{'yes' if system.nonnegative else 'no'}")
        return 0 if system.nonnegative else 1
    print("the equal-costs system has no solution")
    return 1


# ---------------------------------------------------------------------------
# metrics


def cmd_metrics(args) -> int:
    game = load_game(args.game)
    report = price_report(game)

    def line(title, value, key):
        mark = "exact" if report.exact[key] else "estimate"
        print(f"{title}: {numeric.format_scalar(value)} [{mark}]")

    line("utilitarian optimum", report.optimum_u, "optimum_u")
    line("egalitarian optimum", report.optimum_e, "optimum_e")
    line("best equilibrium cost", report.best_equilibrium_cost,
         "best_equilibrium_cost")
    line("worst equilibrium cost", report.worst_equilibrium_cost,
         "worst_equilibrium_cost")
    line("price of anarchy (utilitarian)", report.poa_u, "poa_u")
    line("price of anarchy (egalitarian)", report.poa_e, "poa_e")
    line("price of stability (utilitarian)", report.pos_u, "pos_u")
    line("price of stability (egalitarian)", report.pos_e, "pos_e")
    print(f"equilibria considered: {len(report.equilibria_used)}")
    return 0


# ---------------------------------------------------------------------------
# family generation and determinant scans


def cmd_family(args) -> int:
    alpha = parse_scalar_text(args.alpha)
    r = parse_scalar_text(args.total_mass)
    game = make_family(args.kind, alpha, r=r, n=args.n, p=args.p, q=args.q)
    if args.closed_form and r != 1:
        raise UnsupportedGameError(
            "closed-form equilibria are tabulated for total mass 1")
    save_game(game, args.output)
    print(f"wrote {args.output}: {args.kind} on {game.n} vertices,"
          f" coefficient {_short(alpha)}, total mass {_short(r)}")
    if not args.closed_form:
        return 0
    if args.kind == "path":
        results = path_closed_form(args.n, alpha)
    elif args.kind == "cycle":
        results = cycle_closed_form(args.n, alpha)
    elif args.kind == "complete_bipartite":
        results = bipartite_closed_form(args.p, args.q, alpha)
    else:
        results = star_closed_form(args.n, alpha)
    return _print_equilibria(game, results)


def cmd_scan_det(args) -> int:
    n_min = args.n_min if args.n_min is not None else (
        3 if args.family == "cycle" else 2)
    if args.n_max < n_min:
        raise InputFormatError(
            f"empty size range [{n_min}, {args.n_max}]")
    if args.alphas:
        alphas = [parse_scalar_text(tok) for tok in args.alphas.split(",")]
    else:
        alphas = [Fraction(k, 20) for k in range(1, 10)]
    report = conjecture_scan(args.family, range(n_min, args.n_max + 1), alphas)
    if args.csv:
        lines = ["n,alpha,det,unique,nonneg"]
        for row in report.rows:
            lines.append(f"{row.n},{_short(row.alpha)},{_short(row.determinant)},"
                         f"{str(row.unique).lower()},{str(row.nonnegative).lower()}")
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    print(f"family: {report.family}")
    print(f"rows: {len(report.rows)}")
    print(f"counterexample candidates: {len(report.counterexamples)}")
    for row in report.counterexamples:
        print(f"counterexample: n={row.n} alpha={_short(row.alpha)}"
              f" det={_short(row.determinant)}"
              f" unique={str(row.unique).lower()}"
              f" nonneg={str(row.nonnegative).lower()}")
    return 0


# ---------------------------------------------------------------------------
# dynamics


def _run_dynamics(game: Game, args, keep_trace):
    """Best-response dynamics from --x0 (default: the uniform split), with
    chunk --step and iteration cap --steps; returns (start, result)."""
    x0 = (game.distribution(parse_masses(args.x0)) if args.x0
          else _uniform_start(game))
    step = parse_scalar_text(args.step) if args.step else None
    return x0, best_response_dynamics(game, x0, step=step, max_iters=args.steps,
                                      keep_trace=keep_trace)


def cmd_dynamics(args) -> int:
    game = load_game(args.game)
    x0, run = _run_dynamics(game, args, keep_trace=bool(args.csv))
    print(f"start: {_vector(x0.masses)}")
    print(f"iterations: {run.iterations}")
    print(f"final step size: {_short(run.final_step)}")
    print(f"converged: {'yes' if run.converged else 'no'}")
    print(f"final: {_vector(run.x.masses)}")
    print(f"final worst gap: {numeric.format_scalar(run.report.worst_gap)}")
    print(f"equilibrium: {'yes' if run.report.is_equilibrium else 'no'}")
    if args.csv:
        header = "step," + ",".join(f"x{i + 1}" for i in range(game.n))
        lines = [header]
        for k, state in enumerate(run.trace):
            lines.append(str(k) + "," +
                         ",".join(f"{float(m):.12g}" for m in state.masses))
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return 0 if run.report.is_equilibrium else 1


# ---------------------------------------------------------------------------
# reproduce: replay the bundled example groups


class _Recorder:
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


def _set_contains(results, masses) -> bool:
    for item in results:
        if isinstance(item, EquilibriumPoint):
            if all(a == b for a, b in zip(item.x.masses, masses)):
                return True
        elif item.contains(masses) is not None:
            return True
    return False


def _single(items, kind):
    """The only entry of an equilibrium list if it is a `kind`, else None."""
    return items[0] if len(items) == 1 and isinstance(items[0], kind) else None


def _describe_single_point(items, describe) -> str:
    """`describe` of the only isolated equilibrium, else the list length."""
    point = _single(items, EquilibriumPoint)
    return describe(point) if point is not None else f"{len(items)} results"


def _masses_at_cost(point) -> str:
    return f"{_vector(point.x.masses)} at cost {_short(point.cost)}"


def _check_one_segment(rec: _Recorder, name, closed, solved) -> None:
    """Check that the closed form and the solver each give one equilibrium
    family, the solver's one-dimensional, each holding samples of the other."""
    derived = _single(closed, EquilibriumFamily)
    family = _single(solved, EquilibriumFamily)
    ok = derived is not None and family is not None and family.dimension == 1
    if ok:
        ok = all(family.contains(pt.x.masses) is not None
                 for pt in derived.sample_points(3))
        ok = ok and all(derived.contains(pt.x.masses) is not None
                        for pt in family.sample_points(3))
    expected = "matching one-parameter families"
    rec.check(name, expected, expected if ok else "mismatch", ok=ok)


def _group_dilemma(rec: _Recorder) -> None:
    game = dilemma_game()
    for t, expected in ((Fraction(0), True), (Fraction(3, 4), True),
                        (Fraction(1), True), (Fraction(1, 2), False),
                        (Fraction(9, 10), False)):
        rep = verify_equilibrium(game, game.distribution((t, 1 - t)))
        rec.check(f"two-route dilemma: x1 = {_short(t)} is an equilibrium",
                  expected, rep.is_equilibrium)
    for start, target in ((Fraction(1, 2), 0.0), (Fraction(4, 5), 1.0)):
        run = best_response_dynamics(game, game.distribution((start, 1 - start)),
                                     keep_trace=False)
        ok = run.converged and abs(float(run.x.masses[0]) - target) <= 1e-9
        rec.check(f"two-route dilemma: selfish drift from x1 = {_short(start)}",
                  f"x1 = {_short(target)}", f"x1 = {_short(run.x.masses[0])}",
                  ok=ok)
    none_game = no_equilibrium_game()
    hits = [Fraction(k, 100) for k in range(101)
            if verify_equilibrium(
                none_game,
                none_game.distribution((Fraction(k, 100),
                                        1 - Fraction(k, 100)))).is_equilibrium]
    rec.check("discontinuous game: equilibria on the 1/100 grid", "none",
              "none" if not hits else _vector(hits), ok=not hits)


def _group_kernels(rec: _Recorder) -> None:
    tri = directed_triangle()
    rec.check("directed 3-cycle: number of kernels", 0,
              len(enumerate_kernels(tri)))
    game = digraph_to_nbg(tri, Fraction(2))
    eqs = solve_affine_by_supports(game)
    uniform = (Fraction(1, 3),) * 3
    point = _single(eqs, EquilibriumPoint)
    rec.check("directed 3-cycle: unique equilibrium", _vector(uniform),
              _describe_single_point(eqs, lambda p: _vector(p.x.masses)),
              ok=point is not None and point.x.masses == uniform)
    cert = verify_delta_strong(game, game.distribution(uniform), Fraction(1, 3))
    rec.check("directed 3-cycle: uniform equilibrium survives deviations",
              False, cert.is_delta_strong)
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
    rec.check("directed 4-path: strong supports match kernels", True,
              rep4.matched)

    curved = three_equilibria_game()
    for t in (Fraction(0), Fraction(3, 4), Fraction(1)):
        rep = verify_equilibrium(curved, curved.distribution((t, 1 - t)))
        rec.check(f"curved game: x1 = {_short(t)} is an equilibrium", True,
                  rep.is_equilibrium)
    for t, delta, expected in ((Fraction(0), Fraction(1, 4), True),
                               (Fraction(0), Fraction(3, 10), False),
                               (Fraction(3, 4), Fraction(1, 100), False),
                               (Fraction(1), Fraction(1), True)):
        cert = verify_delta_strong(curved, curved.distribution((t, 1 - t)),
                                   delta)
        rec.check(f"curved game: x1 = {_short(t)} survives deviations"
                  f" up to {_short(delta)}", expected, cert.is_delta_strong)
    tied = unique_nonstrong_game()
    eqs3 = solve_affine_by_supports(tied)
    point = _single(eqs3, EquilibriumPoint)
    rec.check("affine tie game: unique equilibrium", "(0, 1)",
              _describe_single_point(eqs3, lambda p: _vector(p.x.masses)),
              ok=point is not None
              and point.x.masses == (Fraction(0), Fraction(1)))
    cert3 = verify_delta_strong(tied, tied.distribution((Fraction(0), Fraction(1))),
                                Fraction(1, 10 ** 6))
    rec.check("affine tie game: equilibrium survives deviations"
              " up to 1/1000000", False, cert3.is_delta_strong)


def _group_braess(rec: _Recorder) -> None:
    costs = []
    for b2 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        eqs = solve_affine_by_supports(braess_game(b2))
        expected_x1 = 2 * b2 - Fraction(1, 2)
        expected_cost = Fraction(11, 8) - b2 / 2
        point = _single(eqs, EquilibriumPoint)
        ok = (point is not None and point.x.masses[0] == expected_x1
              and point.cost == expected_cost)
        rec.check(f"offset {_short(b2)}: unique equilibrium",
                  f"x1 = {_short(expected_x1)}, cost {_short(expected_cost)}",
                  _describe_single_point(
                      eqs, lambda p: f"x1 = {_short(p.x.masses[0])},"
                                     f" cost {_short(p.cost)}"), ok=ok)
        costs.append(point.cost if point is not None else None)
    ok = None not in costs and costs[0] > costs[1] > costs[2]
    rec.check("equilibrium cost falls as the offset grows", "5/4 > 9/8 > 1",
              " > ".join("?" if c is None else _short(c) for c in costs),
              ok=ok)


def _group_anarchy(rec: _Recorder) -> None:
    for a in (2, 5, 9):
        report = price_report(unbounded_anarchy_game(Fraction(a)))
        expected = Fraction(1 + a, 2)
        rec.check(f"coupling {a}: price of anarchy (utilitarian)",
                  _short(expected), _short(report.poa_u),
                  ok=report.poa_u == expected and report.exact["poa_u"])
        rec.check(f"coupling {a}: price of anarchy (egalitarian)",
                  _short(expected), _short(report.poa_e),
                  ok=report.poa_e == expected and report.exact["poa_e"])


def _group_stability(rec: _Recorder) -> None:
    for lam in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2)):
        report = price_report(stability_gap_game(lam))
        expected = (2 + 2 * lam) / (1 + 2 * lam)
        rec.check(f"parameter {_short(lam)}: price of stability (utilitarian)",
                  _short(expected), _short(report.pos_u),
                  ok=report.pos_u == expected and report.exact["pos_u"])
    game = potential_maximum_game()
    for t, expected in ((Fraction(0), Fraction(3, 2)),
                        (Fraction(1, 2), Fraction(11, 8)),
                        (Fraction(1), Fraction(1))):
        value = potential(game, game.distribution((t, 1 - t))).value
        rec.check(f"potential at x1 = {_short(t)}", _short(expected),
                  _short(value), ok=value == expected)
    for t in (Fraction(0), Fraction(1)):
        rep = verify_equilibrium(game, game.distribution((t, 1 - t)))
        rec.check(f"x1 = {_short(t)} is an equilibrium", True,
                  rep.is_equilibrium)
    minima = minimize_potential(game, seed=_seed())
    ok = (len(minima) == 1
          and minima[0].masses == (Fraction(1), Fraction(0)))
    rec.check("potential minimiser keeps only the corner x1 = 1", "(1, 0)",
              ", ".join(_vector(m.masses) for m in minima) or "none", ok=ok)


def _group_paths(rec: _Recorder) -> None:
    targets = (
        (6, Fraction(1, 4), (15, 11, 12, 12, 11, 15), 76, Fraction(71, 304)),
        (6, Fraction(1, 3), (8, 5, 6, 6, 5, 8), 38, Fraction(29, 114)),
        (7, Fraction(1, 3), (13, 8, 10, 9, 10, 8, 13), 71, Fraction(47, 213)),
        (7, Fraction(1, 4), (41, 30, 33, 32, 33, 30, 41), 240,
         Fraction(97, 480)),
    )
    for n, alpha, numerators, den, cost in targets:
        eqs = solve_affine_by_supports(make_family("path", alpha, n=n))
        expected = tuple(Fraction(k, den) for k in numerators)
        point = _single(eqs, EquilibriumPoint)
        ok = (point is not None and point.x.masses == expected
              and point.cost == cost)
        rec.check(f"path n={n}, coefficient {_short(alpha)}: unique equilibrium",
                  f"{_vector(expected)} at cost {_short(cost)}",
                  _describe_single_point(eqs, _masses_at_cost), ok=ok)

    closed = path_closed_form(10, Fraction(1, 2))
    expected = tuple(Fraction(k, 30) for k in (5, 1, 4, 2, 3, 3, 2, 4, 1, 5))
    point = _single(closed, EquilibriumPoint)
    ok = (point is not None and point.x.masses == expected
          and point.cost == Fraction(11, 60))
    rec.check("path n=10, coefficient 1/2: closed-form equilibrium",
              f"{_vector(expected)} at cost 11/60",
              _describe_single_point(closed, _masses_at_cost), ok=ok)
    if point is not None:
        rep = verify_equilibrium(make_family("path", Fraction(1, 2), n=10),
                                 point.x)
        rec.check("path n=10, coefficient 1/2: closed form verifies", True,
                  rep.is_equilibrium)

    system = uniform_cost_solve(make_family("path", Fraction(3, 4), n=3),
                                "path")
    rec.check("path n=3, coefficient 3/4: equal-costs system", "none",
              system.status)


def _group_cycles(rec: _Recorder) -> None:
    game = make_family("cycle", Fraction(1, 2), n=5)
    closed = cycle_closed_form(5, Fraction(1, 2))
    eqs = solve_affine_by_supports(game)
    expected = (Fraction(1, 5),) * 5
    point = _single(eqs, EquilibriumPoint)
    derived = _single(closed, EquilibriumPoint)
    ok = (point is not None and point.x.masses == expected
          and point.cost == Fraction(2, 5)
          and derived is not None and derived.x.masses == expected)
    rec.check("cycle n=5, coefficient 1/2: unique uniform equilibrium",
              f"{_vector(expected)} at cost 2/5",
              _describe_single_point(eqs, _masses_at_cost), ok=ok)

    _check_one_segment(
        rec, "cycle n=6, coefficient 1/2: both derivations give one segment",
        cycle_closed_form(6, Fraction(1, 2)),
        solve_affine_by_supports(make_family("cycle", Fraction(1, 2), n=6)))

    game51 = make_family("cycle", Fraction(1), n=5)
    closed51 = cycle_closed_form(5, Fraction(1))[0]
    eqs51 = solve_affine_by_supports(game51)
    ok = _set_contains(eqs51, closed51.x.masses)
    rec.check("cycle n=5, coefficient 1: uniform point among solved equilibria",
              True, ok)

    game61 = make_family("cycle", Fraction(1), n=6)
    closed61 = cycle_closed_form(6, Fraction(1))[0]
    eqs61 = solve_affine_by_supports(game61)
    samples = closed61.sample_points(5)
    ok = (closed61.dimension == 2
          and all(verify_equilibrium(game61, pt.x).is_equilibrium
                  for pt in samples)
          and all(_set_contains(eqs61, pt.x.masses) for pt in samples))
    rec.check("cycle n=6, coefficient 1: two-parameter family members verify"
              " and appear among solved equilibria", True, ok)


def _group_bipartite(rec: _Recorder) -> None:
    def point_set(items):
        rounded = set()
        for item in items:
            if isinstance(item, EquilibriumPoint):
                rounded.add(tuple(item.x.masses))
        return rounded

    game = make_family("complete_bipartite", Fraction(1, 10), p=3, q=2)
    closed = bipartite_closed_form(3, 2, Fraction(1, 10))
    eqs = solve_affine_by_supports(game)
    expected = (Fraction(4, 19),) * 3 + (Fraction(7, 38),) * 2
    ok = all(point is not None and point.x.masses == expected
             and point.cost == Fraction(47, 190)
             for point in (_single(closed, EquilibriumPoint),
                           _single(eqs, EquilibriumPoint)))
    rec.check("sides 3+2, coefficient 1/10: unique interior equilibrium",
              f"{_vector(expected)} at cost 47/190",
              _describe_single_point(eqs, _masses_at_cost), ok=ok)

    closed = bipartite_closed_form(3, 2, Fraction(1, 2))
    eqs = solve_affine_by_supports(
        make_family("complete_bipartite", Fraction(1, 2), p=3, q=2))
    expected_set = {
        (Fraction(0),) * 3 + (Fraction(1, 2),) * 2,
        (Fraction(1, 3),) * 3 + (Fraction(0),) * 2,
    }
    ok = point_set(closed) == expected_set and point_set(eqs) == expected_set
    rec.check("sides 3+2, coefficient 1/2: one equilibrium per side",
              "2 equilibria", f"{len(point_set(eqs))} equilibria", ok=ok)

    closed = star_closed_form(5, Fraction(2))
    eqs = solve_affine_by_supports(make_family("star", Fraction(2), n=5))
    expected_set = {
        (Fraction(1, 11),) * 4 + (Fraction(7, 11),),
        (Fraction(0),) * 4 + (Fraction(1),),
        (Fraction(1, 4),) * 4 + (Fraction(0),),
    }
    ok = point_set(closed) == expected_set and point_set(eqs) == expected_set
    rec.check("star n=5, coefficient 2: three equilibria",
              "3 equilibria", f"{len(point_set(eqs))} equilibria", ok=ok)

    closed = star_closed_form(5, Fraction(1, 5))
    eqs = solve_affine_by_supports(make_family("star", Fraction(1, 5), n=5))
    expected = (Fraction(4, 17),) * 4 + (Fraction(1, 17),)
    point = _single(eqs, EquilibriumPoint)
    derived = _single(closed, EquilibriumPoint)
    ok = (derived is not None and derived.x.masses == expected
          and derived.cost == Fraction(21, 85)
          and point is not None and point.x.masses == expected)
    rec.check("star n=5, coefficient 1/5: unique interior equilibrium",
              f"{_vector(expected)} at cost 21/85",
              _describe_single_point(eqs, _masses_at_cost), ok=ok)

    _check_one_segment(
        rec, "sides 2+2, coefficient 1/2: both derivations give one segment",
        bipartite_closed_form(2, 2, Fraction(1, 2)),
        solve_affine_by_supports(
            make_family("complete_bipartite", Fraction(1, 2), p=2, q=2)))


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


def _write_figures(directory, group_ids) -> list:
    os.makedirs(directory, exist_ok=True)
    written = []
    for gid in group_ids:
        for name, builder in _FIGURES.get(gid, ()):
            game = builder()
            rows = ["x1,C1,C2"]
            for k in range(101):
                t = Fraction(k, 100)
                c1, c2 = cost_vector(game, (t, 1 - t))
                rows.append(f"{float(t):.12g},{float(c1):.12g},{float(c2):.12g}")
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(rows) + "\n")
            written.append(path)
    return written


def cmd_reproduce(args) -> int:
    if args.all or not args.section:
        selected = list(GROUPS)
    else:
        selected = []
        for token in args.section:
            key = token if token in GROUPS else ALIASES.get(token)
            if key is None:
                known = ", ".join(list(GROUPS) + sorted(ALIASES))
                raise InputFormatError(
                    f"unknown example group {token!r}; known groups: {known}")
            if key not in selected:
                selected.append(key)
        selected.sort(key=list(GROUPS).index)
    failures = 0
    total = 0
    for key in selected:
        _, runner = GROUPS[key]
        recorder = _Recorder(key)
        runner(recorder)
        for line in recorder.lines:
            print(line)
        failures += recorder.failures
        total += len(recorder.lines)
    if args.csv_dir:
        for path in _write_figures(args.csv_dir, selected):
            print(f"wrote {path}")
    print(f"{total} checks, {total - failures} passed, {failures} failed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbg",
        description="Neighbourhood balancing games: solvers and analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check whether a distribution is an "
                                      "equilibrium of a game")
    p.add_argument("game", help="game JSON file")
    p.add_argument("distribution", nargs="?", help="distribution JSON file")
    p.add_argument("--dist", help="inline masses, e.g. '3/4,1/4'")
    p.add_argument("--delta", help="also test deviations up to this size")
    p.add_argument("--tol", type=float, default=None,
                   help="override the comparison tolerance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="compute the equilibria of a game")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--method", default="supports",
                   choices=("supports", "potential", "dynamics",
                            "uniform-cost"))
    p.add_argument("--starts", type=int, default=DEFAULT_STARTS,
                   help="multistart count for the potential method")
    p.add_argument("--x0", help="inline start for the dynamics method")
    p.add_argument("--steps", type=int, default=10000,
                   help="iteration cap for the dynamics method")
    p.add_argument("--step", help="mass chunk for the dynamics method")
    p.add_argument("--graph", default="general",
                   choices=("path", "cycle", "general"),
                   help="graph kind for the uniform-cost method")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("metrics", help="social optima and price of "
                                       "anarchy/stability")
    p.add_argument("game", help="game JSON file")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("family", help="generate a named-family game file")
    p.add_argument("--kind", required=True,
                   choices=("path", "cycle", "complete_bipartite", "star"))
    p.add_argument("--alpha", required=True, help="influence coefficient")
    p.add_argument("--n", type=int, help="vertex count (path, cycle, star)")
    p.add_argument("-p", type=int, help="larger side size (complete_bipartite)")
    p.add_argument("-q", type=int, help="smaller side size (complete_bipartite)")
    p.add_argument("--total-mass", default="1")
    p.add_argument("--output", "-o", required=True, help="output JSON file")
    p.add_argument("--closed-form", action="store_true",
                   help="also print the known equilibrium set")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("scan-det", help="tabulate equal-costs determinants "
                                        "over a grid")
    p.add_argument("--family", required=True, choices=("path", "cycle"))
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--alphas", help="comma-separated coefficients in [0, 1/2)")
    p.add_argument("--csv", help="write rows to this CSV file")
    p.set_defaults(func=cmd_scan_det)

    p = sub.add_parser("dynamics", help="run the selfish mass dynamics")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--x0", help="inline start, e.g. '1/2,1/2'")
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--step", help="mass chunk moved per iteration")
    p.add_argument("--csv", help="write the trajectory to this CSV file")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("reproduce", help="replay the bundled example groups")
    p.add_argument("--section", action="append",
                   help="example group id or name (repeatable); see --all")
    p.add_argument("--all", action="store_true", help="replay every group")
    p.add_argument("--csv-dir",
                   help="also write the groups' cost-curve CSV files here")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NbgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
