"""Command-line front end.

Subcommands: verify a distribution against a game file, solve a game by
one of three methods, compute price-of-anarchy metrics, generate a named
family instance, scan determinants of equal-costs systems, run the
selfish mass dynamics, and replay the bundled example groups. Exit codes
are 0 on success, 1 when a check fails (not an equilibrium, a
determinant-scan counterexample, failed replay), and 2 on bad input or
an unsupported game.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
from fractions import Fraction

from . import numeric, reproduce
from .closed_forms import (bipartite_closed_form, conjecture_scan,
                           cycle_closed_form, make_family, path_closed_form,
                           star_closed_form, uniform_cost_solve)
from .equilibrium import (EquilibriumPoint, best_response_dynamics,
                          solve_affine_by_supports, verify_delta_strong,
                          verify_equilibrium)
from .errors import InputFormatError, NbgError, UnsupportedGameError
from .games import Game, classify
from .metrics import price_report
from .numeric import short_text, vector_text
from .potential import minimize_potential, potential
from .serialize import (load_distribution, load_game, parse_masses,
                        parse_scalar_text, save_game)


def _require_count(option, value):
    if value < 0:
        raise InputFormatError(f"{option} must be nonnegative, got {value}")


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
    print(f"game: n = {game.n}, total mass {short_text(game.r)}, class {label}")
    for i in range(game.n):
        print(f"vertex {i + 1}: mass {numeric.format_scalar(x.masses[i])}"
              f"  cost {numeric.format_scalar(report.costs[i])}")
    print(f"worst charged gap: {numeric.format_scalar(report.worst_gap)}")
    if report.common_cost is not None:
        print(f"charged cost: {numeric.format_scalar(report.common_cost)}")
    print(f"equilibrium: {'yes' if report.is_equilibrium else 'no'}")
    ok = report.is_equilibrium
    if args.delta is not None:
        print(f"survives deviations up to {short_text(delta)}: "
              f"{'yes' if cert.is_delta_strong else 'no'} ({cert.method} check)")
        if cert.witness is not None:
            i, j, eps = cert.witness
            if eps == 0:
                print(f"witness: vertex {i + 1} is charged yet costlier "
                      f"than vertex {j + 1}")
            else:
                print(f"witness: moving {short_text(eps)} from vertex {i + 1} "
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
        label = f"  ({item.label})" if item.label else ""
        if isinstance(item, EquilibriumPoint):
            rep = verify_equilibrium(game, item.x)
            ok = ok and rep.is_equilibrium
            flag = "verified" if rep.is_equilibrium else "FAILED verification"
            print(f"equilibrium {index}: masses {vector_text(item.x.masses)}"
                  f"  cost {numeric.format_scalar(item.cost)}  [{flag}]{label}")
        else:
            verified = all(verify_equilibrium(game, pt.x).is_equilibrium
                           for pt in item.sample_points(3))
            ok = ok and verified
            flag = ("sampled members verified" if verified
                    else "FAILED verification")
            print(f"equilibrium {index}: family of dimension {item.dimension}"
                  f"  [{flag}]{label}")
            print(f"  base {vector_text(item.base)}"
                  f"  cost {numeric.format_scalar(item.cost_base)}")
            for k in range(item.dimension):
                print(f"  direction {k + 1}: {vector_text(item.directions[k])}"
                      f"  cost slope {short_text(item.cost_directions[k])}")
            if item.interval is not None:
                print(f"  parameter range [{short_text(item.interval[0])},"
                      f" {short_text(item.interval[1])}]")
    return 0 if ok else 1


def cmd_solve(args) -> int:
    game = load_game(args.game)
    if args.method == "supports":
        return _print_equilibria(game, solve_affine_by_supports(game))
    if args.method == "potential":
        minima = minimize_potential(game)
        print(f"potential minima found: {len(minima)}")
        ok = bool(minima)
        for index, x in enumerate(minima, 1):
            value = potential(game, x).value
            rep = verify_equilibrium(game, x)
            ok = ok and rep.is_equilibrium
            flag = ("verified equilibrium" if rep.is_equilibrium
                    else "NOT an equilibrium")
            print(f"minimum {index}: masses {vector_text(x.masses)}"
                  f"  potential {numeric.format_scalar(value)}  [{flag}]")
        return 0 if ok else 1

    system = uniform_cost_solve(game, args.graph)
    print(f"graph kind: {args.graph}")
    print(f"determinant: {numeric.format_scalar(system.determinant)}")
    print(f"status: {system.status}")
    if system.status == "unique":
        print(f"solution: masses {vector_text(system.masses)}"
              f"  common cost {numeric.format_scalar(system.cost)}")
        print(f"nonnegative: {'yes' if system.nonnegative else 'no'}")
        if not system.nonnegative:
            return 1
        rep = verify_equilibrium(game, game.distribution(system.masses))
        print(f"equilibrium: {'yes' if rep.is_equilibrium else 'no'}")
        return 0 if rep.is_equilibrium else 1
    if system.status == "family":
        print(f"base: masses {vector_text(system.base_masses)}"
              f"  common cost {numeric.format_scalar(system.base_cost)}")
        for k, (direction, slope) in enumerate(system.directions, 1):
            print(f"direction {k}: {vector_text(direction)}"
                  f"  cost slope {short_text(slope)}")
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

    for title, key in (("utilitarian optimum", "optimum_u"),
                       ("egalitarian optimum", "optimum_e"),
                       ("best equilibrium cost", "best_equilibrium_cost"),
                       ("worst equilibrium cost", "worst_equilibrium_cost"),
                       ("price of anarchy (utilitarian)", "poa_u"),
                       ("price of anarchy (egalitarian)", "poa_e"),
                       ("price of stability (utilitarian)", "pos_u"),
                       ("price of stability (egalitarian)", "pos_e")):
        mark = "exact" if report.exact[key] else "estimate"
        print(f"{title}: {numeric.format_scalar(getattr(report, key))} [{mark}]")
    print(f"equilibria considered: {len(report.equilibria_used)}")
    return 0


# ---------------------------------------------------------------------------
# family generation and determinant scans


def cmd_family(args) -> int:
    alpha = parse_scalar_text(args.alpha)
    r = parse_scalar_text(args.total_mass)
    game = make_family(args.kind, alpha, r=r, n=args.n, p=args.p, q=args.q)
    # a closed form that cannot be given refuses before the file is written
    results = None
    if args.closed_form:
        if r != 1:
            raise UnsupportedGameError(
                "closed-form equilibria are tabulated for total mass 1")
        if args.kind == "path":
            results = path_closed_form(args.n, alpha)
        elif args.kind == "cycle":
            results = cycle_closed_form(args.n, alpha)
        elif args.kind == "complete_bipartite":
            results = bipartite_closed_form(args.p, args.q, alpha)
        else:
            results = star_closed_form(args.n, alpha)
    save_game(game, args.output)
    print(f"wrote {args.output}: {args.kind} on {game.n} vertices,"
          f" coefficient {short_text(alpha)}, total mass {short_text(r)}")
    return 0 if results is None else _print_equilibria(game, results)


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
            lines.append(f"{row.n},{short_text(row.alpha)},{short_text(row.determinant)},"
                         f"{str(row.unique).lower()},{str(row.nonnegative).lower()}")
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    print(f"family: {report.family}")
    print(f"rows: {len(report.rows)}")
    print(f"counterexample candidates: {len(report.counterexamples)}")
    for row in report.counterexamples:
        print(f"counterexample: n={row.n} alpha={short_text(row.alpha)}"
              f" det={short_text(row.determinant)}"
              f" unique={str(row.unique).lower()}"
              f" nonneg={str(row.nonnegative).lower()}")
    return 0 if report.all_clear else 1


# ---------------------------------------------------------------------------
# dynamics


def cmd_dynamics(args) -> int:
    """Best-response dynamics from --x0 (default: the uniform split), with
    chunk --step and iteration cap --steps."""
    game = load_game(args.game)
    _require_count("--steps", args.steps)
    # a loaded total mass is a Fraction or a float, so the split stays exact
    x0 = game.distribution(parse_masses(args.x0) if args.x0
                           else [game.r / game.n] * game.n)
    step = parse_scalar_text(args.step) if args.step else None
    run = best_response_dynamics(game, x0, step=step, max_iters=args.steps,
                                 keep_trace=bool(args.csv))
    print(f"start: {vector_text(x0.masses)}")
    print(f"iterations: {run.iterations}")
    print(f"final step size: {short_text(run.final_step)}")
    print(f"converged: {'yes' if run.converged else 'no'}")
    print(f"final: {vector_text(run.x.masses)}")
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


def cmd_reproduce(args) -> int:
    groups = list(reproduce.GROUPS)
    tokens = [] if args.all or not args.section else args.section
    wanted = set()
    for token in tokens:
        key = token if token in groups else reproduce.ALIASES.get(token)
        if key is None:
            known = ", ".join(groups + sorted(reproduce.ALIASES))
            raise InputFormatError(
                f"unknown example group {token!r}; known groups: {known}")
        wanted.add(key)
    selected = [key for key in groups if key in wanted or not tokens]
    failures = total = 0
    for key in selected:
        recorder = reproduce.Recorder(key)
        reproduce.GROUPS[key][1](recorder)
        for line in recorder.lines:
            print(line)
        failures += recorder.failures
        total += len(recorder.lines)
    if args.csv_dir:
        for path in reproduce.write_figures(args.csv_dir, selected):
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
                   choices=("supports", "potential", "uniform-cost"))
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
    # the report reaches stdout only when the command returns, so a run
    # that exits 2 prints its error line and nothing else
    report = io.StringIO()
    try:
        with contextlib.redirect_stdout(report):
            code = args.func(args)
    except (NbgError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.getvalue())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
