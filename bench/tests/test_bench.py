"""Tests of the benchmark itself: counters, tracing, checks, contract.

    python3 -m pytest bench/tests

Most tests run the benchmark's own pass loop on the instances of a
workload with at most MAX_N vertices, which keeps them to seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from tracing import ENTRY_POINTS, Tracer  # noqa: E402

MAX_N = 9


def small(workload, seed=1, max_n=MAX_N):
    pool, references = run.load_references(workload)
    instances = [inst for inst in corpus.build(workload, seed, pool)
                 if inst.game.n <= max_n]
    return instances, references


def traced_pass(instances, references):
    tracer = Tracer()
    before = tracer.snapshot()
    with tracer:
        wall, _, results, failures = run.run_pass(instances, references, tracer)
    return tracer.metrics(before, wall), results, failures


@pytest.fixture(scope="module", params=["supports-regular", "supports-degenerate"])
def support_run(request):
    instances, references = small(request.param)
    layers, results, failures = traced_pass(instances, references)
    return request.param, instances, references, layers, results, failures


def test_solve_status_counts_sum_to_solve_calls(support_run):
    _, _, _, layers, _, failures = support_run
    assert not failures
    assert layers["linalg.solve.calls"] == (layers["linalg.solve.unique"]
                                            + layers["linalg.solve.family"]
                                            + layers["linalg.solve.none"])


def test_support_loop_solves_every_support(support_run):
    _, instances, _, layers, _, _ = support_run
    supports = sum((1 << inst.game.n) - 1 for inst in instances)
    assert layers["equilibrium.supports"] == supports
    assert layers["linalg.solve.calls"] >= supports
    assert layers["equilibrium.solve.calls"] == len(instances)


def test_supports_regular_solves_no_lp(support_run):
    workload, _, _, layers, _, _ = support_run
    if workload == "supports-regular":
        assert layers["lp.calls"] == 0
        assert layers["linalg.solve.family"] == 0
        assert layers["linalg.share"] > 0.8
    else:
        assert layers["lp.calls"] > 0
        assert layers["equilibrium.families"] > 0


def test_traced_and_untraced_results_are_identical(support_run):
    _, instances, references, _, traced_results, _ = support_run
    _, _, results, failures = run.run_pass(instances, references)
    assert not failures
    assert results == traced_results


def test_tracer_restores_every_original():
    import importlib

    def bound():
        out = {}
        for _, module, attribute in ENTRY_POINTS:
            owner = importlib.import_module(module)
            for part in attribute.split("."):
                owner = getattr(owner, part)
            out[(module, attribute)] = owner
        return out

    before = bound()
    tracer = Tracer()
    with tracer:
        assert all(bound()[key] is not value for key, value in before.items())
    assert bound() == before
    import nbg.equilibrium
    assert nbg.equilibrium.solve_linear_system is before[("nbg.linalg", "solve_linear_system")]


def test_second_seed_runs_without_failures():
    for workload in ("supports-regular", "supports-degenerate"):
        instances, references = small(workload, seed=2)
        walls, _, _, attempted, failures, _ = run.measure(instances, references, 0, False)
        assert attempted == len(instances) and len(walls[False]) == 1
        assert failures == []


def test_seeds_change_inputs_but_not_the_work():
    def keys(seed):
        instances, _ = small("supports-regular", seed=seed, max_n=11)
        return [inst.key for inst in instances]

    assert keys(1) == keys(1)
    drawn = [set(keys(seed)) for seed in range(1, 9)]
    fixed = set.intersection(*drawn)
    assert {"generic-n10-g0", "generic-n11-g0", "path-a1/2-n10"} <= fixed
    assert all(len(keys) == 8 for keys in drawn)
    assert len(set.union(*drawn) - fixed) > 2


# ---------------------------------------------------------------------------
# the checks reject wrong results


@pytest.fixture(scope="module")
def solved():
    """key -> (instance, canonical result, reference) for two small games:
    one with isolated points only, one with families only."""
    instances, references = small("supports-degenerate", max_n=8)
    out = {}
    for inst in instances:
        if inst.key in ("path-a1-n8", "complete_bipartite-a1/2-p4-q4"):
            got = check.canonical_set(run.solve(inst))
            out[inst.key] = inst, got, references[inst.key]
    return out


def test_check_accepts_the_right_set(solved):
    for _, got, want in solved.values():
        check.compare_sets(got, want)
        check.compare_sets(list(reversed(got)), want)


def test_check_rejects_a_missing_or_moved_point(solved):
    _, got, want = solved["complete_bipartite-a1/2-p4-q4"]
    point = got[0]
    with pytest.raises(check.Mismatch):
        check.compare_sets(got[1:], want)
    _, masses, cost = point
    moved = ("point", masses, cost + Fraction(1, 10**9))
    with pytest.raises(check.Mismatch):
        check.compare_sets([moved] + got[1:], want)


def test_check_rejects_a_changed_family(solved):
    _, got, want = solved["path-a1-n8"]
    family = next(item for item in got if item[0] == "family" and item[6] is not None)
    lo, hi = family[6]
    shorter = family[:6] + ((lo, (lo + hi) / 2),)
    with pytest.raises(check.Mismatch):
        check.compare_sets([shorter if item is family else item for item in got], want)
    base = tuple(b + Fraction(1, 7) for b in family[2])
    shifted = family[:2] + (base,) + family[3:]
    with pytest.raises(check.Mismatch):
        check.compare_sets([shifted if item is family else item for item in got], want)


def test_check_rejects_inexact_scalars(solved):
    inst, _, _ = solved["complete_bipartite-a1/2-p4-q4"]
    point = run.solve(inst)[0]
    floated = replace(point, cost=float(point.cost))
    with pytest.raises(check.Mismatch):
        check.canonical_item(floated)


def test_price_check_rules():
    _, references = run.load_references("price")
    want = references["anarchy-a2"]
    fields = dict(want["fields"])
    check.compare_price(want, want)
    value, exact = fields["optimum_e"]
    assert not exact
    near = dict(fields, optimum_e=(float(value) * (1 + 1e-7), True))
    check.compare_price({"fields": near, "equilibria": want["equilibria"]}, want)
    far = dict(fields, optimum_e=(float(value) * (1 + 1e-5), False))
    with pytest.raises(check.Mismatch):
        check.compare_price({"fields": far, "equilibria": want["equilibria"]}, want)
    value, exact = fields["poa_u"]
    assert exact
    demoted = dict(fields, poa_u=(value, False))
    with pytest.raises(check.Mismatch):
        check.compare_price({"fields": demoted, "equilibria": want["equilibria"]}, want)


def test_closed_forms_agree_with_references():
    for workload in ("supports-regular", "supports-degenerate"):
        pool, references = run.load_references(workload)
        for inst in corpus.build(workload, 3, pool):
            if inst.oracle is not None:
                check.compare_sets(check.canonical_set(inst.oracle),
                                   references[inst.key])


# ---------------------------------------------------------------------------
# the command-line contract


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_cli(cwd, *args, timeout=300):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def result_line(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_cli_reports_every_end_to_end_metric():
    result = result_line(run_cli(ROOT, "--workload", "supports-degenerate",
                                 "--seed", "5", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 10
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared_metrics("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_trace_reports_every_per_layer_metric():
    result = result_line(run_cli(ROOT, "--workload", "supports-regular",
                                 "--seed", "5", "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["attempted"] == 16
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared_metrics("per_layer")
    assert (ROOT / ".bench_out" / "spans-supports-regular-seed5.npz").is_file()


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_cli(tmp_path, "--workload", "price", "--seed", "1",
                   "--seconds", "1", "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
