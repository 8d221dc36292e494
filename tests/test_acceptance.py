"""Acceptance suite: ten end-to-end criteria, one visible verdict line each.

Each test prints a single "criterion k/10 PASS|FAIL" line with pytest's
capture suspended, so the verdicts appear in the terminal (and in
test_output.txt) even when everything passes. Exact claims use rational
arithmetic and no tolerance; the float tolerances and time budgets are
pinned as constants below.
"""

import contextlib
import random
import time
from fractions import Fraction

from nbg import (EquilibriumFamily, EquilibriumPoint, Game,
                 best_response_dynamics, bipartite_closed_form, braess_game,
                 brouwer_map, conjecture_scan, cycle_closed_form, determinant,
                 digraph_to_nbg, dilemma_game, directed_triangle,
                 enumerate_kernels, influence_from_triples, make_family,
                 minimize_potential, path_closed_form,
                 path_matrix, polynomial, potential, potential_maximum_game,
                 price_report, solve_affine_by_supports, stability_gap_game,
                 star_closed_form, strong_supports_match_kernels,
                 unbounded_anarchy_game, verify_delta_strong,
                 verify_equilibrium)
from nbg.cli import main
from util import (central_difference, cofactor_determinant,
                  contained_in_solution_set, point_masses, random_digraph,
                  random_fraction, random_linear_symmetric_game,
                  random_symmetric_triples, same_equilibrium_set)

POA_TOL = 1e-9           # price-of-anarchy sweep
POS_TOL = 1e-6           # price-of-stability checks
GRADIENT_REL_TOL = 1e-5  # finite differences vs potential gradient
FIXED_POINT_TOL = 1e-9   # Brouwer map displacement at equilibria
DYNAMICS_GAP_TOL = 1e-6  # equilibrium gap after selfish dynamics
DYNAMICS_MAX_ITERS = 10 ** 4

REPLAY_BUDGET = 1.0      # seconds, criteria 1 and 2
KERNEL_BUDGET = 30.0     # seconds, criterion 6
ORACLE_BUDGET = 120.0    # seconds, criterion 8
SCAN_BUDGET = 60.0       # seconds, criterion 10


@contextlib.contextmanager
def verdict(capsys, number, title):
    outcome = {"ok": False, "detail": ""}
    start = time.perf_counter()
    try:
        yield outcome
    finally:
        elapsed = time.perf_counter() - start
        mark = "PASS" if outcome["ok"] else "FAIL"
        note = f" ({outcome['detail']})" if outcome["detail"] else ""
        with capsys.disabled():
            print(f"\ncriterion {number:2d}/10 {mark} [{elapsed:6.2f}s]"
                  f" {title}{note}")
    assert outcome["ok"], f"criterion {number} failed: {title}"


def single_point(results):
    if len(results) == 1 and isinstance(results[0], EquilibriumPoint):
        return results[0]
    return None


PATH_VECTORS = (
    (6, Fraction(1, 4), (15, 11, 12, 12, 11, 15), 76, Fraction(71, 304)),
    (7, Fraction(1, 3), (13, 8, 10, 9, 10, 8, 13), 71, Fraction(47, 213)),
)
P10_MASSES = tuple(Fraction(k, 30) for k in (5, 1, 4, 2, 3, 3, 2, 4, 1, 5))


def test_01_path_equilibria_replay(capsys):
    with verdict(capsys, 1, "replay group 4.1: tabulated path equilibria,"
                            " exact, under 1s") as out:
        start = time.perf_counter()
        code = main(["reproduce", "--section", "4.1"])
        elapsed = time.perf_counter() - start
        printed = capsys.readouterr().out
        ok = (code == 0 and elapsed < REPLAY_BUDGET
              and "0 failed" in printed.splitlines()[-1])
        for n, alpha, numerators, den, cost in PATH_VECTORS:
            point = single_point(
                solve_affine_by_supports(make_family("path", alpha, n=n)))
            ok = ok and point is not None and point.cost == cost
            ok = ok and point.x.masses == tuple(
                Fraction(k, den) for k in numerators)
        p10 = single_point(path_closed_form(10, Fraction(1, 2)))
        ok = (ok and p10 is not None and p10.x.masses == P10_MASSES
              and p10.cost == Fraction(11, 60))
        out["ok"] = ok


def test_02_determinant_polynomials(capsys):
    polys = {
        2: lambda a: 2 - 2 * a,
        3: lambda a: 3 - 4 * a,
        4: lambda a: 2 * (a * a + a - 1) * (a - 2),
        5: lambda a: (a + 1) * (a - 1) * (a * a + 8 * a - 5),
    }
    with verdict(capsys, 2, "bordered path determinants equal the pinned"
                            " polynomials, exact, under 1s") as out:
        start = time.perf_counter()
        ok = True
        for n, poly in polys.items():
            for k in range(10):
                alpha = Fraction(k, 7)
                expected = poly(alpha)
                ok = ok and determinant(path_matrix(n, alpha)) == expected
                ok = ok and cofactor_determinant(
                    [list(row) for row in path_matrix(n, alpha)]) == expected
        out["ok"] = ok and time.perf_counter() - start < REPLAY_BUDGET


def test_03_braess_paradox(capsys):
    with verdict(capsys, 3, "braess instance: equilibrium cost 11/8 - b2/2,"
                            " decreasing in the offset, exact") as out:
        costs = []
        ok = True
        for b2 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            point = single_point(solve_affine_by_supports(braess_game(b2)))
            ok = (ok and point is not None
                  and point.x.masses[0] == 2 * b2 - Fraction(1, 2)
                  and point.cost == Fraction(11, 8) - b2 / 2)
            costs.append(None if point is None else point.cost)
        ok = ok and costs == [Fraction(5, 4), Fraction(9, 8), Fraction(1)]
        ok = ok and costs[0] > costs[1] > costs[2]
        out["ok"] = ok


def test_04_price_of_anarchy_sweep(capsys):
    with verdict(capsys, 4, "anarchy instance: price of anarchy equals"
                            f" (1+a)/2 for a in 2,5,9,99 within {POA_TOL}"
                 ) as out:
        ok = True
        for a in (2, 5, 9, 99):
            report = price_report(unbounded_anarchy_game(Fraction(a)))
            expected = (1 + a) / 2
            ok = ok and abs(float(report.poa_u) - expected) <= POA_TOL
            ok = ok and abs(float(report.poa_e) - expected) <= POA_TOL
        out["ok"] = ok


def test_05_price_of_stability(capsys):
    with verdict(capsys, 5, "price of stability: 1 on 20 random linear"
                            " symmetric games, (2+2L)/(1+2L) on the gap"
                            f" family, within {POS_TOL}") as out:
        rng = random.Random(9)
        ok = True
        for _ in range(20):
            game = random_linear_symmetric_game(rng, rng.randint(2, 5))
            report = price_report(game)
            ok = ok and abs(float(report.pos_u) - 1.0) <= POS_TOL
        for lam in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2)):
            report = price_report(stability_gap_game(lam))
            expected = (2 + 2 * lam) / (1 + 2 * lam)
            ok = ok and abs(float(report.pos_u) - float(expected)) <= POS_TOL
        out["ok"] = ok


def test_06_kernel_correspondence(capsys):
    with verdict(capsys, 6, "kernels match deviation-proof supports on 30"
                            " random digraphs and the directed 3-cycle,"
                            " under 30s") as out:
        start = time.perf_counter()
        rng = random.Random(6)
        ok = True
        for _ in range(30):
            digraph = random_digraph(rng, rng.randint(2, 7))
            report = strong_supports_match_kernels(digraph, Fraction(3))
            ok = ok and report.matched and not report.discrepancies
        triangle = directed_triangle()
        report = strong_supports_match_kernels(triangle, Fraction(2))
        ok = (ok and report.matched and not report.kernels
              and not report.strong_supports
              and not enumerate_kernels(triangle))
        game = digraph_to_nbg(triangle, Fraction(2))
        uniform = game.distribution((Fraction(1, 3),) * 3)
        ok = ok and verify_equilibrium(game, uniform).is_equilibrium
        cert = verify_delta_strong(game, uniform, Fraction(1, 3))
        ok = ok and not cert.is_delta_strong
        out["ok"] = ok and time.perf_counter() - start < KERNEL_BUDGET


def random_polynomial_symmetric_game(rng, n):
    costs = []
    for _ in range(n):
        degree = rng.randint(1, 3)
        coeffs = [random_fraction(rng, 0, 2) for _ in range(degree + 1)]
        if all(c == 0 for c in coeffs[1:]):
            coeffs[-1] = Fraction(1, 2)
        costs.append(polynomial(coeffs))
    influence = influence_from_triples(n, random_symmetric_triples(rng, n))
    return Game.graphical(n, 1, costs, influence)


def test_07_potential_properties(capsys):
    with verdict(capsys, 7, "potential gradient matches finite differences"
                            " (50 games x 10 points), closed form on the"
                            " two-route game, minimiser keeps x1=1") as out:
        rng = random.Random(7)
        ok = True
        for _ in range(50):
            n = rng.randint(2, 4)
            game = random_polynomial_symmetric_game(rng, n)
            for _ in range(10):
                raw = [rng.random() + 0.05 for _ in range(n)]
                total = sum(raw)
                x = tuple(v / total for v in raw)
                gradient = potential(game, x).gradient
                for i in range(n):
                    def section(t, i=i):
                        masses = list(x)
                        masses[i] = t
                        return float(potential(game, tuple(masses)).value)

                    fd = central_difference(section, x[i])
                    g = float(gradient[i])
                    ok = ok and abs(fd - g) <= GRADIENT_REL_TOL * max(1.0,
                                                                      abs(g))
        game = potential_maximum_game()
        for k in range(11):
            t = Fraction(k, 10)
            value = potential(game, (t, 1 - t)).value
            ok = ok and value == (3 - t * t) / 2
        minima = minimize_potential(game)
        ok = ok and any(m.masses[0] == 1 for m in minima)
        ok = ok and all(m.masses[0] != 0 for m in minima)
        out["ok"] = ok


ORACLE_ALPHAS = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
                 Fraction(1), Fraction(3))


def oracle_cases():
    """(game, solver results, closed-form results, complete?) quadruples.

    The tabulated sets are complete for paths/cycles at coupling 1/2 and
    for all bipartite graphs and stars; at coupling 1 extra boundary
    equilibria exist, so only containment of the tabulated set is claimed.
    """
    for n in range(1, 9):
        for alpha in (Fraction(1, 2), Fraction(1)):
            game = make_family("path", alpha, n=n)
            yield (game, solve_affine_by_supports(game),
                   path_closed_form(n, alpha), alpha == Fraction(1, 2))
    for n in range(3, 9):
        for alpha in (Fraction(1, 2), Fraction(1)):
            game = make_family("cycle", alpha, n=n)
            yield (game, solve_affine_by_supports(game),
                   cycle_closed_form(n, alpha), alpha == Fraction(1, 2))
    for p in range(1, 8):
        for q in range(1, p + 1):
            if p + q > 8:
                continue
            for alpha in ORACLE_ALPHAS:
                game = make_family("complete_bipartite", alpha, p=p, q=q)
                yield (game, solve_affine_by_supports(game),
                       bipartite_closed_form(p, q, alpha), True)
    for n in range(2, 9):
        for alpha in ORACLE_ALPHAS:
            game = make_family("star", alpha, n=n)
            yield (game, solve_affine_by_supports(game),
                   star_closed_form(n, alpha), True)


def test_08_closed_forms_match_solver(capsys):
    with verdict(capsys, 8, "closed forms match support enumeration on"
                            " paths, cycles, bipartite graphs, and stars,"
                            " under 2min") as out:
        start = time.perf_counter()
        ok = True
        cases = 0
        for game, solved, closed, complete in oracle_cases():
            cases += 1
            if complete:
                ok = ok and same_equilibrium_set(solved, closed)
            ok = ok and contained_in_solution_set(game, solved, closed,
                                                  samples=5)
        ok = ok and cases == 143
        out["ok"] = ok and time.perf_counter() - start < ORACLE_BUDGET


def test_09_existence_machinery(capsys):
    with verdict(capsys, 9, "equilibria are fixed points of the adjustment"
                            f" map within {FIXED_POINT_TOL}; selfish"
                            " dynamics settle the two-route dilemma") as out:
        ok = True
        games = [braess_game(Fraction(1, 2)), potential_maximum_game(),
                 unbounded_anarchy_game(Fraction(5)),
                 stability_gap_game(Fraction(1, 2))]
        collected = []
        for game in games:
            collected.append((game, solve_affine_by_supports(game)))
        for n, alpha in ((5, Fraction(1, 2)), (6, Fraction(1)),
                         (7, Fraction(1, 3))):
            game = make_family("path", alpha, n=n)
            collected.append((game, solve_affine_by_supports(game)))
        game = make_family("cycle", Fraction(1, 2), n=6)
        collected.append((game, cycle_closed_form(6, Fraction(1, 2))))
        game = make_family("star", Fraction(2), n=5)
        collected.append((game, star_closed_form(5, Fraction(2))))
        checked = 0
        for game, results in collected:
            for item in results:
                points = (item.sample_points(3)
                          if isinstance(item, EquilibriumFamily) else (item,))
                for point in points:
                    image = brouwer_map(game, point.x)
                    drift = max(abs(float(a) - float(b)) for a, b
                                in zip(image.masses, point.x.masses))
                    ok = ok and drift <= FIXED_POINT_TOL
                    checked += 1
        ok = ok and checked >= 12
        dilemma = dilemma_game()
        for start, target in ((0.5, 0.0), (0.8, 1.0)):
            run = best_response_dynamics(
                dilemma, dilemma.distribution((start, 1 - start)),
                max_iters=DYNAMICS_MAX_ITERS)
            ok = (ok and run.converged
                  and run.iterations <= DYNAMICS_MAX_ITERS
                  and abs(float(run.x.masses[0]) - target) <= DYNAMICS_GAP_TOL
                  and float(run.report.worst_gap) <= DYNAMICS_GAP_TOL)
        out["ok"] = ok


def test_10_uniqueness_scans(capsys):
    grid = [Fraction(k, 20) for k in range(1, 10)]
    with verdict(capsys, 10, "determinant scans: unique nonnegative"
                             " solutions on all path/cycle grids,"
                             " under 1min") as out:
        start = time.perf_counter()
        paths = conjecture_scan("path", range(2, 13), grid)
        cycles = conjecture_scan("cycle", range(3, 13), grid)
        for report in (paths, cycles):
            for row in report.counterexamples:
                with capsys.disabled():
                    print(row)
        ok = paths.all_clear and cycles.all_clear
        ok = ok and len(paths.rows) == 99 and len(cycles.rows) == 90
        ok = ok and all(row.determinant != 0 and row.unique and row.nonnegative
                        for row in paths.rows + cycles.rows)
        out["ok"] = ok and time.perf_counter() - start < SCAN_BUDGET
