"""The nbg benchmark: seeded workloads against the public nbg API.

    python3 bench/run.py --workload supports-regular --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nbg is imported from its `src`
directory. One process, one thread, one instance at a time (a closed
loop). A run sets up (fresh-process imports, corpus), then solves the
whole corpus in passes until `--seconds` would be exceeded, always at
least once, and checks every result against the seed references in
`bench/reference`. `--trace 1` alternates untraced and traced passes
and reports per-layer metrics instead of end-to-end ones, and writes
the spans to `.bench_out/`. The last line of stdout is the JSON result;
see bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: BLAS/OpenMP pools pinned to one thread, here and in child processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: fresh-process imports per run; setup_s takes their median
SETUP_REPEATS = 3

IMPORT_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nbg
t1 = time.perf_counter()
import scipy.optimize
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""

WORKLOADS = ("supports-regular", "supports-degenerate", "price")


def fresh_import_times():
    """(wall, nbg import, scipy.optimize import) of one new interpreter."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    wall = time.perf_counter() - t0
    nbg_s, lazy_s = json.loads(done.stdout.strip().splitlines()[-1])
    return wall, nbg_s, lazy_s


def load_references(workload):
    from check import decode_item, decode_price

    with open(BENCH / "reference" / f"{workload}.json", encoding="utf-8") as handle:
        data = json.load(handle)
    decode = decode_price if workload == "price" else (
        lambda items: [decode_item(item) for item in items])
    pool = {int(n): seeds for n, seeds in data.get("pool", {}).items()}
    return pool, {key: decode(value) for key, value in data["results"].items()}


def set_up(workload, seed):
    """Corpus and references, built SETUP_REPEATS times; returns the
    last build and the set-up metrics."""
    import corpus

    probes = [fresh_import_times() for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool, references = load_references(workload)
        instances = corpus.build(workload, seed, pool)
        builds.append(time.perf_counter() - t0)
    corpus_s = statistics.median(builds)
    setup = {
        "setup_s": statistics.median(p[0] for p in probes) + corpus_s,
        "setup.import_s": statistics.median(p[1] for p in probes),
        "setup.lazy_import_s": statistics.median(p[2] for p in probes),
        "setup.corpus_s": corpus_s,
    }
    return instances, references, setup


def solve(instance):
    from nbg import price_report, solve_affine_by_supports

    if instance.kind == "price":
        return price_report(instance.game)
    return solve_affine_by_supports(instance.game)


def canonical(instance, result):
    from check import canonical_price, canonical_set

    if instance.kind == "price":
        return canonical_price(result)
    return canonical_set(result)


def verify(instance, got, references):
    """Raise check.Mismatch unless `got` (canonical) is right."""
    from check import canonical_set, compare_price, compare_sets

    want = references[instance.key]
    if instance.kind == "price":
        compare_price(got, want)
        return
    compare_sets(got, want)
    if instance.oracle is not None:
        compare_sets(got, canonical_set(instance.oracle))


def run_pass(instances, references, tracer=None, first_id=0):
    """Solve every instance once. Returns (wall, per-instance times,
    canonical results, failures); only the solves are timed."""
    from check import Mismatch

    gc.collect()
    times, results, failures = [], [], []
    for offset, instance in enumerate(instances):
        if tracer is not None:
            tracer.instance_id = first_id + offset
        t0 = time.perf_counter()
        try:
            result = solve(instance)
        except Exception as exc:  # a failing instance counts, the run goes on
            times.append(time.perf_counter() - t0)
            results.append(None)
            failures.append(f"{instance.key}: raised {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        try:
            got = canonical(instance, result)
            verify(instance, got, references)
        except Mismatch as exc:
            got = None
            failures.append(f"{instance.key}: {exc}")
        results.append(got)
    return sum(times), times, results, failures


def measure(instances, references, seconds, trace):
    """Rounds of passes until the next round would end after `seconds`,
    at least one. A round is one untraced pass, or with trace one
    untraced and one traced pass."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    per_instance = [[] for _ in instances]
    layer_runs = []
    attempted, failures = 0, []
    untraced_results = None
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        if traced:
            before = tracer.snapshot()
            with tracer:
                wall, times, results, failed = run_pass(instances, references,
                                                        tracer, attempted)
            layer_runs.append(tracer.metrics(before, wall))
            failed += [f"{instance.key}: traced result differs from the untraced one"
                       for instance, a, b in zip(instances, results, untraced_results)
                       if a is not None and b is not None and a != b]
        else:
            wall, times, results, failed = run_pass(instances, references)
            untraced_results = results
            for samples, t in zip(per_instance, times):
                samples.append(t)
        walls[traced].append(wall)
        attempted += len(instances)
        failures += failed
        rounds = len(walls[False])
        if trace and len(walls[True]) < rounds:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    return walls, per_instance, layer_runs, attempted, failures, tracer


def end_to_end(walls, per_instance, setup):
    by_instance = [statistics.median(samples) for samples in per_instance]
    return {
        "wall_s": statistics.median(walls[False]),
        "game_s.p50": statistics.median(by_instance),
        "game_s.max": max(by_instance),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(walls, layer_runs, setup):
    values = {name: statistics.median(run[name] for run in layer_runs)
              for name in layer_runs[0]}
    values.update({k: v for k, v in setup.items() if k != "setup_s"})
    values["trace.overhead_s"] = (statistics.median(walls[True])
                                  - statistics.median(walls[False]))
    return values


def units(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_s", ".s")) or name.startswith("game_s."):
        return "s"
    if name.endswith(("share", "ratio", "yield")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nbg" / "__init__.py").is_file():
        print(f"error: no nbg sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import nbg  # noqa: F401  (paid before timing)
    import scipy.optimize  # noqa: F401  (lazy in nbg; kept out of wall_s)

    instances, references, setup = set_up(args.workload, args.seed)
    walls, per_instance, layer_runs, attempted, failures, tracer = measure(
        instances, references, args.seconds, bool(args.trace))

    if args.trace:
        metrics = per_layer(walls, layer_runs, setup)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans)
        print(f"spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(walls, per_instance, setup)
    for failure in failures:
        print(f"FAIL {failure}")
    for instance, samples in zip(instances, per_instance):
        print(f"{instance.key:42s} {statistics.median(samples):.6g} s"
              f" (median of {len(samples)})")
    passes = len(walls[False]) + len(walls[True])
    print(f"workload {args.workload}, seed {args.seed}: {len(instances)} instances,"
          f" {passes} passes ({len(walls[True])} traced),"
          f" {sum(len(s) for s in per_instance)} untraced instance samples")
    print(f"attempted {attempted}, failed {len(failures)},"
          f" fail_ratio {len(failures) / attempted:.6g}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {units(name)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
