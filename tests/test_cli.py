"""Command-line interface: subcommands, exit codes, and output stability.

Every invocation goes through main() in process so stdout/stderr can be
captured and compared byte for byte. Game files are written once per
session; family files are produced by the family subcommand itself.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from nbg import (Digraph, Game, affine, braess_game, cycle_closed_form,
                 digraph_to_nbg, directed_triangle, influence_from_triples,
                 make_family, polynomial, potential_maximum_game,
                 solve_affine_by_supports, star_closed_form)
from nbg.cli import main
from nbg.closed_forms import ScanReport, ScanRow
from nbg.reproduce import Recorder
from nbg.serialize import load_game, save_distribution, save_game


@pytest.fixture(scope="session")
def files(tmp_path_factory):
    """Session directory with the game and distribution files used below."""
    root = tmp_path_factory.mktemp("cli_games")
    braess = braess_game(Fraction(1, 2))
    save_game(braess, root / "braess.json")
    save_game(potential_maximum_game(), root / "potmax.json")
    save_game(digraph_to_nbg(directed_triangle(), Fraction(2)),
              root / "triangle.json")
    save_game(digraph_to_nbg(Digraph(4, frozenset(((0, 1), (1, 2), (2, 3)))),
                             Fraction(2)), root / "dpath4.json")
    quad = Game.graphical(
        2, 1, [polynomial((0, 0, 1)), affine(1, 0)],
        influence_from_triples(2, [(0, 1, Fraction(1, 2)),
                                   (1, 0, Fraction(1, 2))]))
    save_game(quad, root / "quad.json")
    save_distribution(braess.distribution((Fraction(1, 2), Fraction(1, 2))),
                      root / "eq.json")
    (root / "broken.json").write_text("not json\n", encoding="utf-8")
    return root


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_path_file(capsys, directory, n, alpha, name):
    out = directory / name
    code, _, _ = run(capsys, "family", "--kind", "path", "--alpha", alpha,
                     "--n", n, "-o", out)
    assert code == 0
    return out


class TestVerify:
    def test_equilibrium_inline(self, capsys, files):
        code, out, _ = run(capsys, "verify", files / "braess.json",
                           "--dist", "1/2,1/2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "game: n = 2, total mass 1, class affine, symmetric"
        assert lines[1] == "vertex 1: mass 1/2 (0.5)  cost 9/8 (1.125)"
        assert lines[2] == "vertex 2: mass 1/2 (0.5)  cost 9/8 (1.125)"
        assert "worst charged gap: 0" in lines
        assert "charged cost: 9/8 (1.125)" in lines
        assert lines[-1] == "equilibrium: yes"

    def test_distribution_file_matches_inline(self, capsys, files):
        code_a, out_a, _ = run(capsys, "verify", files / "braess.json",
                               files / "eq.json")
        code_b, out_b, _ = run(capsys, "verify", files / "braess.json",
                               "--dist", "1/2,1/2")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_not_an_equilibrium(self, capsys, files):
        code, out, _ = run(capsys, "verify", files / "braess.json",
                           "--dist", "0.3,0.7")
        assert code == 1
        assert "worst charged gap: 0.1" in out
        assert out.rstrip().endswith("equilibrium: no")

    def test_delta_strong_pass(self, capsys, files):
        code, out, _ = run(capsys, "verify", files / "dpath4.json",
                           "--dist", "1/2,0,1/2,0", "--delta", "1/2")
        assert code == 0
        assert "survives deviations up to 1/2: yes (exact check)" in out
        assert "witness" not in out

    def test_delta_strong_fail_reports_witness(self, capsys, files):
        code, out, _ = run(capsys, "verify", files / "triangle.json",
                           "--dist", "1/3,1/3,1/3", "--delta", "1/1000")
        assert code == 1
        assert "equilibrium: yes" in out
        assert "survives deviations up to 1/1000: no (exact check)" in out
        assert "witness: moving 1/1000 from vertex 1 to vertex 2 pays" in out

    def test_two_distribution_sources_rejected(self, capsys, files):
        code, _, err = run(capsys, "verify", files / "braess.json",
                           files / "eq.json", "--dist", "1/2,1/2")
        assert code == 2
        assert "not both" in err

    def test_missing_distribution(self, capsys, files):
        code, _, err = run(capsys, "verify", files / "braess.json")
        assert code == 2
        assert "no distribution given" in err

    def test_wrong_length(self, capsys, files):
        code, _, err = run(capsys, "verify", files / "braess.json",
                           "--dist", "1/3,1/3,1/3")
        assert code == 2
        assert "distribution has 3 entries, game has 2 vertices" in err

    def test_missing_game_file(self, capsys, files):
        code, _, err = run(capsys, "verify", files / "absent.json",
                           "--dist", "1,0")
        assert code == 2
        assert err.startswith("error:")

    def test_invalid_game_json(self, capsys, files):
        code, _, err = run(capsys, "verify", files / "broken.json",
                           "--dist", "1,0")
        assert code == 2
        assert "invalid JSON" in err


class TestSolve:
    def test_supports_braess(self, capsys, files):
        code, out, _ = run(capsys, "solve", files / "braess.json")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "equilibria found: 1 isolated, 0 families"
        assert lines[1] == ("equilibrium 1: masses (1/2, 1/2)"
                            "  cost 9/8 (1.125)  [verified]")

    def test_potential_method(self, capsys, files):
        code, out, _ = run(capsys, "solve", files / "potmax.json",
                           "--method", "potential")
        assert code == 0
        assert out == ("potential minima found: 1\n"
                       "minimum 1: masses (1, 0)  potential 1"
                       "  [verified equilibrium]\n")

    def test_start_count_is_not_an_option(self, capsys, files):
        code, out, err = run(capsys, "solve", files / "potmax.json",
                             "--method", "potential", "--starts", "3")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --starts 3" in err

    def test_dynamics_is_its_own_command(self, capsys, files):
        code, out, err = run(capsys, "solve", files / "braess.json",
                             "--method", "dynamics")
        assert (code, out) == (2, "")
        assert "invalid choice: 'dynamics'" in err

    def test_uniform_cost_unique(self, capsys, files, tmp_path):
        game = make_path_file(capsys, tmp_path, 4, "1/2", "p4.json")
        code, out, _ = run(capsys, "solve", game, "--method", "uniform-cost")
        assert code == 0
        assert out.startswith("graph kind: path\ndeterminant: 3/4 (0.75)\n")
        assert ("solution: masses (1/3, 1/6, 1/6, 1/3)"
                "  common cost 5/12 (0.416666666667)") in out
        assert "nonnegative: yes" in out
        assert "equilibrium: yes" in out

    def test_uniform_cost_reads_the_graph_kind_off_the_game(self, capsys, tmp_path):
        star = tmp_path / "star.json"
        run(capsys, "family", "--kind", "star", "--alpha", "1/3", "--n", "4", "-o", star)
        code, out, _ = run(capsys, "solve", star, "--method", "uniform-cost")
        assert (code, out.splitlines()[0]) == (0, "graph kind: general")
        code, out, err = run(capsys, "solve", star, "--method", "uniform-cost",
                             "--graph", "path")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --graph path" in err

    def test_uniform_cost_inconsistent(self, capsys, files, tmp_path):
        game = make_path_file(capsys, tmp_path, 3, "3/4", "p3.json")
        code, out, _ = run(capsys, "solve", game, "--method", "uniform-cost")
        assert code == 1
        assert "determinant: 0" in out
        assert "status: none" in out
        assert "the equal-costs system has no solution" in out

    def test_uniform_cost_negative_solution(self, capsys, files, tmp_path):
        game = make_path_file(capsys, tmp_path, 3, "9/10", "p3neg.json")
        code, out, _ = run(capsys, "solve", game, "--method", "uniform-cost")
        assert code == 1
        assert "solution: masses (-1/6, 4/3, -1/6)" in out
        assert "nonnegative: no" in out

    def test_uniform_cost_family(self, capsys, files, tmp_path):
        out_file = tmp_path / "c6.json"
        code, _, _ = run(capsys, "family", "--kind", "cycle", "--alpha", "1/2",
                         "--n", "6", "-o", out_file)
        assert code == 0
        code, out, _ = run(capsys, "solve", out_file,
                           "--method", "uniform-cost")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "graph kind: cycle"
        assert "status: family" in lines
        assert ("base: masses (1/3, 0, 1/3, 0, 1/3, 0)"
                "  common cost 1/3 (0.333333333333)") in lines
        assert "direction 1: (-1, 1, -1, 1, -1, 1)  cost slope 0" in lines
        assert "nonnegative member exists: yes" in lines

    def test_uniform_cost_needs_normal_game(self, capsys, files):
        code, _, err = run(capsys, "solve", files / "braess.json",
                           "--method", "uniform-cost")
        assert code == 2
        assert "normal linear games" in err

    def test_unknown_method_rejected(self, capsys, files):
        code, _, _ = run(capsys, "solve", files / "braess.json",
                         "--method", "newton")
        assert code == 2


class TestMetrics:
    def test_braess_report(self, capsys, files):
        code, out, _ = run(capsys, "metrics", files / "braess.json")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "utilitarian optimum: 1 [exact]"
        assert "best equilibrium cost: 9/8 (1.125) [exact]" in lines
        assert "worst equilibrium cost: 9/8 (1.125) [exact]" in lines
        assert "price of anarchy (utilitarian): 9/8 (1.125) [exact]" in lines
        assert "price of stability (utilitarian): 9/8 (1.125) [exact]" in lines
        assert "price of anarchy (egalitarian): 9/8 (1.125) [exact]" in lines
        assert lines[-1] == "equilibria considered: 1"

    def test_deterministic(self, capsys, files):
        code_a, out_a, _ = run(capsys, "metrics", files / "braess.json")
        code_b, out_b, _ = run(capsys, "metrics", files / "braess.json")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_zero_optimum(self, capsys, tmp_path):
        # costs x_1 and 0, no influence: every cost and both optima are 0
        path = tmp_path / "zero.json"
        save_game(Game.graphical(2, 1, [affine(1, 0), affine(0, 0)],
                                 influence_from_triples(2, [])), path)
        code, out, _ = run(capsys, "metrics", path)
        assert code == 0
        ratios = [line for line in out.splitlines() if line.startswith("price")]
        assert len(ratios) == 4
        assert all(line.endswith(": 1 [exact]") for line in ratios)

    def test_rejects_non_affine(self, capsys, files):
        code, _, err = run(capsys, "metrics", files / "quad.json")
        assert code == 2
        assert "affine" in err

    def test_size_guard(self, capsys, files, tmp_path):
        game = make_path_file(capsys, tmp_path, 17, "1/2", "p17.json")
        code, _, err = run(capsys, "metrics", game)
        assert code == 2
        assert err == ("error: support enumeration is exponential;"
                       " use games with n <= 16\n")


class TestFamily:
    def test_writes_loadable_game(self, capsys, tmp_path):
        out_file = tmp_path / "p4.json"
        code, out, _ = run(capsys, "family", "--kind", "path",
                           "--alpha", "1/2", "--n", "4", "-o", out_file)
        assert code == 0
        assert out == (f"wrote {out_file}: path on 4 vertices,"
                       " coefficient 1/2, total mass 1\n")
        game = load_game(out_file)
        assert game.n == 4 and game.r == 1
        code, _, _ = run(capsys, "verify", out_file,
                         "--dist", "1/3,1/6,1/6,1/3")
        assert code == 0

    def test_closed_form_path10(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "--kind", "path",
                           "--alpha", "1/2", "--n", "10",
                           "-o", tmp_path / "p10.json", "--closed-form")
        assert code == 0
        assert ("equilibrium 1: masses (1/6, 1/30, 2/15, 1/15, 1/10, 1/10,"
                " 1/15, 2/15, 1/30, 1/6)  cost 11/60 (0.183333333333)"
                "  [verified]  (fully charged equilibrium)") in out

    def test_closed_form_star(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "--kind", "star", "--alpha", "2",
                           "--n", "5", "-o", tmp_path / "s5.json",
                           "--closed-form")
        assert code == 0
        lines = out.splitlines()
        assert "equilibria found: 3 isolated, 0 families" in lines
        assert ("equilibrium 1: masses (1/4, 1/4, 1/4, 1/4, 0)"
                "  cost 1/4 (0.25)  [verified]"
                "  (only the leaves charged)") in lines
        assert ("equilibrium 2: masses (0, 0, 0, 0, 1)  cost 1  [verified]"
                "  (only the centre charged)") in lines
        assert ("equilibrium 3: masses (1/11, 1/11, 1/11, 1/11, 7/11)"
                "  cost 15/11 (1.36363636364)  [verified]"
                "  (all vertices charged)") in lines

    def test_closed_form_two_parameter_family(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "--kind", "cycle", "--alpha", "1",
                           "--n", "6", "-o", tmp_path / "c6.json",
                           "--closed-form")
        assert code == 0
        assert "equilibrium 1: family of dimension 2" in out
        assert "sampled members verified" in out
        assert "base (0, 0, 1/2, 0, 0, 1/2)  cost 1/2 (0.5)" in out
        assert "direction 1: (1, 0, -1, 1, 0, -1)  cost slope 0" in out
        assert "direction 2: (0, 1, -1, 0, 1, -1)  cost slope 0" in out
        # unbounded parameter set: no range line is printed
        assert "parameter range" not in out

    def test_closed_form_one_parameter_family(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "--kind", "complete_bipartite",
                           "--alpha", "1/2", "-p", "2", "-q", "2",
                           "-o", tmp_path / "k22.json", "--closed-form")
        assert code == 0
        assert "equilibrium 1: family of dimension 1" in out
        assert "(balanced-sides family)" in out
        assert "parameter range [0, 1/2]" in out

    def test_closed_form_requires_unit_mass(self, capsys, tmp_path):
        out_file = tmp_path / "never.json"
        code, _, err = run(capsys, "family", "--kind", "path",
                           "--alpha", "1/2", "--n", "4", "--total-mass", "2",
                           "-o", out_file, "--closed-form")
        assert code == 2
        assert "total mass 1" in err
        assert not out_file.exists()

    def test_closed_form_outside_tabulated_alpha_writes_no_file(self, capsys, tmp_path):
        out_file = tmp_path / "never.json"
        code, _, err = run(capsys, "family", "--kind", "path",
                           "--alpha", "1/3", "--n", "5",
                           "-o", out_file, "--closed-form")
        assert code == 2
        assert "alpha in {1/2, 1}, got 1/3" in err
        assert not out_file.exists()

    def test_negative_alpha_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "family", "--kind", "path",
                           "--alpha=-1/2", "--n", "4",
                           "-o", tmp_path / "neg.json")
        assert code == 2
        assert "nonnegative" in err

    def test_kind_is_required(self, capsys, tmp_path):
        code, _, _ = run(capsys, "family", "--alpha", "1/2", "--n", "4",
                         "-o", tmp_path / "x.json")
        assert code == 2


class TestScanDet:
    def test_path_default_grid(self, capsys):
        code, out, _ = run(capsys, "scan-det", "--family", "path",
                           "--n-max", "6")
        assert code == 0
        lines = out.splitlines()
        assert "family: path" in lines
        assert "rows: 45" in lines
        assert "counterexample candidates: 0" in lines
        assert not any(line.startswith("counterexample:") for line in lines)

    def test_csv_rows(self, capsys, tmp_path):
        csv = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan-det", "--family", "path",
                           "--n-max", "6", "--csv", csv)
        assert code == 0
        assert f"wrote {csv}" in out
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,alpha,det,unique,nonneg"
        assert lines[1] == "2,1/20,19/10,true,true"
        assert len(lines) == 46
        assert all(line.endswith("true,true") for line in lines[1:])

    def test_cycle_custom_alphas(self, capsys):
        code, out, _ = run(capsys, "scan-det", "--family", "cycle",
                           "--n-max", "5", "--alphas", "1/10,1/5")
        assert code == 0
        assert "rows: 6" in out
        assert "counterexample candidates: 0" in out

    def test_counterexample_exits_1(self, capsys, monkeypatch):
        # no grid reaches a counterexample, so the scan is replaced by one
        # that reports a singular row
        row = ScanRow("path", 3, Fraction(1, 4), Fraction(0), False, False, (), None)
        monkeypatch.setattr("nbg.cli.conjecture_scan",
                            lambda family, sizes, alphas: ScanReport(family, (row,)))
        code, out, _ = run(capsys, "scan-det", "--family", "path", "--n-max", "3")
        assert code == 1
        assert out.splitlines()[-2:] == [
            "counterexample candidates: 1",
            "counterexample: n=3 alpha=1/4 det=0 unique=false nonneg=false"]

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(capsys, "scan-det", "--family", "path",
                           "--n-max", "1")
        assert code == 2
        assert "empty size range" in err

    def test_alpha_outside_grid_rejected(self, capsys):
        code, _, err = run(capsys, "scan-det", "--family", "path",
                           "--n-max", "4", "--alphas", "3/4")
        assert code == 2
        assert "must stay inside" in err


class TestDynamics:
    def test_converges_to_equilibrium(self, capsys, files):
        code, out, _ = run(capsys, "dynamics", files / "braess.json",
                           "--x0", "0,1", "--steps", "2000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "start: (0, 1)"
        assert "iterations: 50" in lines
        assert "final step size: 1/100" in lines
        assert "converged: yes" in lines
        assert "final: (1/2, 1/2)" in lines
        assert "final worst gap: 0" in lines
        assert "equilibrium: yes" in lines

    def test_default_start_is_uniform(self, capsys, files):
        code, out, _ = run(capsys, "dynamics", files / "braess.json")
        assert code == 0
        assert "start: (1/2, 1/2)" in out
        assert "iterations: 0" in out

    def test_trajectory_csv(self, capsys, files, tmp_path):
        csv = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "dynamics", files / "braess.json",
                           "--x0", "0,1", "--steps", "2000", "--csv", csv)
        assert code == 0
        assert f"wrote {csv}" in out
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step,x1,x2"
        assert lines[1] == "0,0,1"
        assert lines[-1] == "50,0.5,0.5"
        assert len(lines) == 52

    def test_iteration_cap_fails(self, capsys, files):
        code, out, _ = run(capsys, "dynamics", files / "braess.json",
                           "--x0", "0,1", "--steps", "3")
        assert code == 1
        assert "converged: no" in out
        assert "equilibrium: no" in out

    def test_negative_iteration_cap_rejected(self, capsys, files):
        code, out, err = run(capsys, "dynamics", files / "braess.json",
                             "--steps", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --steps must be nonnegative, got -1\n"

    def test_readme_example_matches_its_golden(self, capsys):
        # the README's example: 40 steps stop short of the equilibrium
        code, out, _ = run(capsys, "dynamics", CLI_GOLDEN.parent / "game_braess.json",
                           "--x0", "1,0", "--steps", "40")
        assert code == 1
        assert out == (CLI_GOLDEN / "dynamics_braess.txt").read_text(encoding="utf-8")


#: the full stdout of `nbg reproduce --all`
REPRODUCE_ALL = Path(__file__).parent / "golden" / "reproduce_all.txt"
#: the cost-curve files of `nbg reproduce --all --csv-dir`
FIGURES = Path(__file__).parent / "golden" / "figures"
GROUP_SIZES = {"2.1": 8, "3.4": 15, "3.8": 4, "3.9": 6, "3.10": 9,
               "4.1": 7, "4.2": 4, "4.3": 5}


class TestReproduce:
    def test_single_group(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--section", "4.1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "PASS [4.1] path n=6, coefficient 1/4: unique equilibrium:"
            " expected (15/76, 11/76, 3/19, 3/19, 11/76, 15/76) at cost"
            " 71/304; computed (15/76, 11/76, 3/19, 3/19, 11/76, 15/76)"
            " at cost 71/304")
        assert sum(1 for line in lines if line.startswith("PASS")) == 7
        assert lines[-1] == "7 checks, 7 passed, 0 failed"

    def test_alias_matches_id(self, capsys):
        _, by_id, _ = run(capsys, "reproduce", "--section", "4.1")
        _, by_name, _ = run(capsys, "reproduce", "--section", "paths")
        assert by_id == by_name

    def test_groups_sorted_and_deduped(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--section", "4.1",
                           "--section", "2.1", "--section", "paths")
        assert code == 0
        lines = out.splitlines()
        assert "[2.1]" in lines[0]
        assert sum(1 for line in lines if "[4.1]" in line) == 7
        assert lines[-1] == "15 checks, 15 passed, 0 failed"

    def test_all_groups_pass(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--all")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for line in lines if line.startswith("PASS")) == 58
        assert not any(line.startswith("FAIL") for line in lines)
        for group, size in GROUP_SIZES.items():
            assert sum(1 for line in lines if f"[{group}]" in line) == size
        assert lines[-1] == "58 checks, 58 passed, 0 failed"

    def test_all_groups_match_the_golden_output(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--all")
        assert code == 0
        assert out.encode("utf-8") == REPRODUCE_ALL.read_bytes()

    def test_byte_deterministic(self, capsys):
        code_a, out_a, _ = run(capsys, "reproduce", "--all")
        code_b, out_b, _ = run(capsys, "reproduce", "--all")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "reproduce", "--section", "9.9")
        assert code == 2
        assert "unknown example group '9.9'" in err
        assert "4.3" in err and "braess" in err

    def test_cost_curve_csv_files(self, capsys, tmp_path):
        directory = tmp_path / "figs"
        code, out, _ = run(capsys, "reproduce", "--section", "3.8",
                           "--csv-dir", directory)
        assert code == 0
        names = sorted(p.name for p in directory.iterdir())
        assert names == ["figure5_offset_1_2.csv", "figure5_offset_1_4.csv",
                         "figure5_offset_3_4.csv"]
        for name in names:
            assert f"wrote {directory / name}" in out
        lines = (directory / "figure5_offset_1_2.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "x1,C1,C2"
        assert lines[1] == "0,1.25,1.5"
        assert len(lines) == 102

    def test_every_figure_matches_the_golden_files(self, capsys, tmp_path):
        directory = tmp_path / "figs"
        code, out, _ = run(capsys, "reproduce", "--all", "--csv-dir", directory)
        assert code == 0
        names = sorted(p.name for p in directory.iterdir())
        assert names == sorted(p.name for p in FIGURES.iterdir())
        assert len(names) == 8
        for name in names:
            assert (directory / name).read_bytes() == (FIGURES / name).read_bytes()

    def test_point_check_compares_every_printed_field(self):
        star = (Fraction(4, 17),) * 4 + (Fraction(1, 17),)
        closed = star_closed_form(5, Fraction(1, 5))
        solved = solve_affine_by_supports(make_family("star", Fraction(1, 5), n=5))
        rec = Recorder("t")
        assert rec.point("a", star, Fraction(21, 85), closed, solved) is solved[0]
        # a wrong cost, and a wrong closed form behind a right solver list
        rec.point("b", star, Fraction(22, 85), closed, solved)
        rec.point("c", star, Fraction(21, 85), cycle_closed_form(5, Fraction(1, 2)),
                  solved)
        # with no cost given, only the masses are printed and compared
        rec.point("d", star, None, solved)
        rec.point("e", star[::-1], None, solved)
        assert [line[:4] for line in rec.lines] == ["PASS", "FAIL", "FAIL",
                                                    "PASS", "FAIL"]
        assert rec.lines[3].endswith("computed (4/17, 4/17, 4/17, 4/17, 1/17)")
        assert rec.failures == 3

    def test_group_without_figures_writes_nothing(self, capsys, tmp_path):
        directory = tmp_path / "figs"
        code, _, _ = run(capsys, "reproduce", "--section", "4.1",
                         "--csv-dir", directory)
        assert code == 0
        assert list(directory.iterdir()) == []


#: the `nbg solve` and `nbg metrics` stdout of the games that
#: tests/golden/cli/games.txt generates with `nbg family`, one per line:
#: a name, then the family options
CLI_GOLDEN = Path(__file__).parent / "golden" / "cli"
CLI_GAMES = dict(line.split(maxsplit=1) for line in
                 (CLI_GOLDEN / "games.txt").read_text(encoding="utf-8").splitlines())


@pytest.mark.parametrize("command", ["solve", "metrics"])
@pytest.mark.parametrize("name", sorted(CLI_GAMES))
def test_family_games_match_the_golden_output(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    code, _, _ = run(capsys, "family", *CLI_GAMES[name].split(), "-o", path)
    assert code == 0
    code, out, _ = run(capsys, command, path)
    assert code == 0
    assert out.encode("utf-8") == (CLI_GOLDEN / f"{command}_{name}.txt").read_bytes()


#: the games of games.txt whose `nbg solve --method potential` stdout has a
#: golden file potential_<name>.txt; path and cycle at alpha = 1 have none,
#: because float LPs sample their multi-parameter families and the vertices
#: they return may vary with the SciPy version
POTENTIAL_GOLDEN = sorted(path.stem[len("potential_"):]
                          for path in CLI_GOLDEN.glob("potential_*.txt"))


@pytest.mark.parametrize("name", POTENTIAL_GOLDEN)
def test_potential_minima_match_the_golden_output(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    code, _, _ = run(capsys, "family", *CLI_GAMES[name].split(), "-o", path)
    assert code == 0
    code, out, _ = run(capsys, "solve", path, "--method", "potential")
    assert code == 0
    assert out.encode("utf-8") == (CLI_GOLDEN / f"potential_{name}.txt").read_bytes()


def test_scalar_options_read_text_like_mass_lists(capsys, tmp_path):
    code, out, err = run(capsys, "family", "--kind", "path", "--alpha", "1_0/3",
                         "--n", "4", "-o", tmp_path / "x.json")
    assert (code, out) == (2, "")
    assert err == "error: not a rational literal: '1_0/3'\n"


class TestNonFiniteInput:
    NAN_GAME = ('{"n": 2, "r": 1, "costs": [{"type": "affine", "a": 1, "b": NaN},'
                ' {"type": "affine", "a": 1, "b": NaN}], "alpha": [[1, 2, "1/2"]],'
                ' "symmetric": true}')

    def check_rejected(self, capsys, *args):
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "not a finite scalar" in err
        assert "Traceback" not in err

    def test_nan_costs_in_game_file(self, capsys, tmp_path):
        game = tmp_path / "nan.json"
        game.write_text(self.NAN_GAME, encoding="utf-8")
        self.check_rejected(capsys, "verify", game, "--dist", "1/2,1/2")

    def test_infinite_total_mass_in_game_file(self, capsys, tmp_path):
        game = tmp_path / "inf.json"
        game.write_text(self.NAN_GAME.replace("NaN", "0").replace(
            '"r": 1', '"r": Infinity'), encoding="utf-8")
        self.check_rejected(capsys, "verify", game, "--dist", "1/2,1/2")

    def test_inline_distribution(self, capsys, files):
        for dist in ("nan,1,0", "inf,0,0", "1,0,-inf"):
            self.check_rejected(capsys, "verify", files / "triangle.json",
                                "--dist", dist)

    def test_distribution_file(self, capsys, files, tmp_path):
        dist = tmp_path / "nan_dist.json"
        dist.write_text("[NaN, 1]\n", encoding="utf-8")
        self.check_rejected(capsys, "verify", files / "braess.json", dist)

    def test_deviation_size(self, capsys, files):
        for delta in ("nan", "inf", "1e400"):
            self.check_rejected(capsys, "verify", files / "braess.json",
                                "--dist", "1/2,1/2", "--delta", delta)

    def test_dynamics_step(self, capsys, files):
        for step in ("nan", "1e400"):
            self.check_rejected(capsys, "dynamics", files / "braess.json",
                                "--step", step)

    def test_tolerance(self, capsys, files):
        for tol in ("nan", "inf", "-1"):
            code, out, err = run(capsys, "verify", files / "braess.json",
                                 "--dist", "1/2,1/2", "--tol", tol)
            assert code == 2
            assert out == ""
            assert err.startswith("error: --tol must be finite and nonnegative")


class TestBeyondFloatRange:
    """Exact scalars too large for a float exit 2 with one error line."""

    HUGE = "1" + "0" * 400

    def check_rejected(self, capsys, *args):
        code, _, err = run(capsys, *args)
        assert code == 2
        assert err == "error: integer division result too large for a float\n"

    def test_total_mass(self, capsys, tmp_path):
        game = tmp_path / "huge_r.json"
        game.write_text(
            f'{{"n": 2, "r": "{self.HUGE}", "costs": [{{"type": "affine", "a": 1,'
            ' "b": 0}, {"type": "affine", "a": 1, "b": 0}],'
            ' "alpha": [[1, 2, "1/2"]], "symmetric": true}', encoding="utf-8")
        for args in (("solve",), ("metrics",), ("solve", "--method", "potential")):
            self.check_rejected(capsys, args[0], game, *args[1:])

    def test_cost_offset(self, capsys, tmp_path):
        game = tmp_path / "huge_b.json"
        game.write_text(
            f'{{"n": 2, "r": 1, "costs": [{{"type": "affine", "a": 1,'
            f' "b": "{self.HUGE}"}}, {{"type": "affine", "a": 1, "b": 0}}],'
            ' "alpha": [[2, 1, "1/2"]]}', encoding="utf-8")
        self.check_rejected(capsys, "verify", game, "--dist", "0,1")

    def test_failed_commands_leave_stdout_empty(self, capsys, tmp_path):
        # both commands print report lines before the overflow is reached
        game = tmp_path / "huge_const.json"
        game.write_text(
            f'{{"n": 2, "r": 1, "costs": [{{"type": "const", "b": "{self.HUGE}"}},'
            ' {"type": "affine", "a": 1, "b": 0}], "alpha": [[1, 2, "1/2"]],'
            ' "symmetric": true}', encoding="utf-8")
        for args in (("verify", "--dist", "0,1"), ("dynamics", "--steps", "3")):
            code, out, err = run(capsys, args[0], game, *args[1:])
            assert (code, out) == (2, "")
            assert err == "error: integer division result too large for a float\n"


class TestScalarsInMessages:
    """Messages print scalars as a game file writes them, and arcs 1-based."""

    def check(self, capsys, tmp_path, text, message):
        game = tmp_path / "game.json"
        game.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", game, "--dist", "1/2,1/2")
        assert (code, out) == (2, "")
        assert err == f"error: {game}: {message}\n"

    def test_total_mass(self, capsys, tmp_path):
        self.check(capsys, tmp_path,
                   '{"n": 2, "r": -1, "costs": [{"type": "const", "b": 1},'
                   ' {"type": "const", "b": 1}], "alpha": []}',
                   "total mass must be positive, got -1")

    def test_negative_influence(self, capsys, tmp_path):
        self.check(capsys, tmp_path,
                   '{"n": 2, "r": 1, "costs": [{"type": "const", "b": 1},'
                   ' {"type": "const", "b": 1}], "alpha": [[1, 2, "-1/2"]]}',
                   "influence arc 1->2 is negative: -1/2")

    def test_negative_coefficient(self, capsys, tmp_path):
        self.check(capsys, tmp_path,
                   '{"n": 2, "r": 1, "costs": [{"type": "affine", "a": "-1/2",'
                   ' "b": 0}, {"type": "const", "b": 1}], "alpha": []}',
                   "costs[0]: coefficient of t^1 must be nonnegative, got -1/2")

    def test_mass_sum(self, capsys, files):
        code, out, err = run(capsys, "verify", files / "braess.json",
                             "--dist", "1/2,1/4")
        assert (code, out) == (2, "")
        assert err == "error: masses sum to 3/4, expected total 1\n"

    def test_negative_alpha_of_a_family(self, capsys, tmp_path):
        for alpha in ("-1", "-1/2"):
            code, out, err = run(capsys, "family", "--kind", "complete_bipartite",
                                 f"--alpha={alpha}", "-p", "2", "-q", "1",
                                 "-o", tmp_path / "neg.json")
            assert (code, out) == (2, "")
            assert err == f"error: alpha must be nonnegative, got {alpha}\n"


class TestDistributionFileErrors:
    def check_located(self, capsys, files, tmp_path, text, message):
        dist = tmp_path / "dist.json"
        dist.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", files / "braess.json", dist)
        assert code == 2
        assert out == ""
        assert err == f"error: {dist}: {message}\n"

    def test_bad_entry_in_list(self, capsys, files, tmp_path):
        self.check_located(capsys, files, tmp_path, "[NaN, 1]\n",
                           "masses[0]: not a finite scalar: nan")

    def test_bad_entry_in_object(self, capsys, files, tmp_path):
        self.check_located(capsys, files, tmp_path,
                           '{"masses": ["1/2", "x"]}\n',
                           "masses[1]: not a rational literal: 'x'")

    def test_bad_total(self, capsys, files, tmp_path):
        self.check_located(capsys, files, tmp_path,
                           '{"masses": ["1/2", "1/2"], "total": "abc"}\n',
                           "total: not a rational literal: 'abc'")

    def test_masses_not_a_list(self, capsys, files, tmp_path):
        self.check_located(capsys, files, tmp_path, '{"masses": 5}\n',
                           "'masses' must be a list")

    def test_zero_denominator(self, capsys, files, tmp_path):
        self.check_located(capsys, files, tmp_path, '["1/0", 1]\n',
                           "masses[0]: not a rational literal: '1/0'")


class TestMalformedInput:
    GAME = ('{"n": 2, "r": 1, "costs": [{"type": "affine", "a": 1, "b": 0},'
            ' {"type": "affine", "a": 1, "b": 0}], "alpha": [[1, 2, "1/2"]],'
            ' "symmetric": true}')

    def check_rejected(self, capsys, tmp_path, text, message):
        game = tmp_path / "game.json"
        game.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", game, "--dist", "1/2,1/2")
        assert code == 2
        assert out == ""
        assert err == f"error: {game}: {message}\n"

    def test_well_formed_game_is_accepted(self, capsys, tmp_path):
        game = tmp_path / "game.json"
        game.write_text(self.GAME, encoding="utf-8")
        assert run(capsys, "verify", game, "--dist", "1/2,1/2")[0] == 0

    def test_zero_denominator_in_game_file(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path,
                            self.GAME.replace('"b": 0}]', '"b": "1/0"}]'),
                            "costs[1]: not a rational literal: '1/0'")
        self.check_rejected(capsys, tmp_path,
                            self.GAME.replace('"1/2"', '"1/0"'),
                            "alpha[0]: not a rational literal: '1/0'")

    def test_symmetric_flag_must_be_a_boolean(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path,
                            self.GAME.replace('"symmetric": true', '"symmetric": "false"'),
                            "'symmetric' must be true or false, got 'false'")

    def test_booleans_are_not_integers(self, capsys, tmp_path):
        self.check_rejected(capsys, tmp_path,
                            self.GAME.replace('"n": 2', '"n": true'),
                            "'n' must be a positive integer, got True")
        self.check_rejected(capsys, tmp_path,
                            self.GAME.replace('[1, 2, "1/2"]', '[true, 2, "1/2"]'),
                            "alpha[0]: vertex ids must be integers")

    def test_zero_denominator_inline(self, capsys, files):
        code, out, err = run(capsys, "verify", files / "triangle.json",
                             "--dist", "1/0,1,0")
        assert code == 2
        assert out == ""
        assert err == "error: bad mass '1/0': not a rational literal: '1/0'\n"


class TestVerifyTolerance:
    def test_tolerance_applies_to_the_deviation_check(self, capsys, tmp_path):
        # C_i = x_i on two vertices: the mass split is 2e-4 off balance,
        # within --tol, so both checks must pass
        game = tmp_path / "split.json"
        save_game(Game.graphical(2, 1, [affine(1, 0), affine(1, 0)],
                                 influence_from_triples(2, [])), game)
        code, out, _ = run(capsys, "verify", game, "--dist", "0.5001,0.4999",
                           "--tol", "0.001", "--delta", "0.1")
        assert code == 0
        assert "equilibrium: yes" in out
        assert "survives deviations up to 0.1: yes (exact check)" in out
        assert "witness" not in out


class TestSeedAndUsage:
    def test_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage: nbg" in out

    def test_no_command(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2
