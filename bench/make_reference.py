"""Write the reference results the benchmark checks against.

    python3 bench/make_reference.py [workload ...]

Run from the root of a source checkout. Solves every instance of each
workload in the reference labelling and writes
bench/reference/<workload>.json. For supports-regular it also draws the
pool of random generic games: generator seeds are tried in order and a
game is kept only when every support system is nonsingular or
inconsistent and no LP is solved, which is what makes the workload
regular. Closed forms, where the corpus has them, must agree with the
solver or nothing is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
from check import (canonical_price, canonical_set, compare_sets,  # noqa: E402
                   encode_item, encode_price)
from run import WORKLOADS, solve  # noqa: E402
from tracing import Tracer  # noqa: E402


def traced_solve(instance):
    tracer = Tracer()
    before = tracer.snapshot()
    with tracer:
        result = solve(instance)
    layers = tracer.metrics(before, 1.0)
    return result, layers


def regular(layers):
    return layers["linalg.solve.family"] == 0 and layers["lp.calls"] == 0


def reference_instance(key, game, oracle, kind):
    result, layers = traced_solve(corpus.Instance(key, kind, game, oracle))
    if kind == "price":
        return canonical_price(result), layers
    got = canonical_set(result)
    if oracle is not None:
        compare_sets(got, canonical_set(oracle))
    return got, layers


def generic_pool():
    pool, results = {}, {}
    for n, size in corpus.POOL_SIZES.items():
        pool[n] = []
        gen_seed = 0
        while len(pool[n]) < size:
            game = corpus.generic_affine_game(n, gen_seed)
            got, layers = reference_instance(f"generic-n{n}-g{gen_seed}", game,
                                             None, "supports")
            if regular(layers):
                pool[n].append(gen_seed)
                results[f"generic-n{n}-g{gen_seed}"] = got
            else:
                print(f"generic n={n} seed {gen_seed}: not regular, skipped")
            gen_seed += 1
        print(f"generic n={n}: pool {pool[n]}", flush=True)
    return pool, results


def main(argv):
    for workload in argv or WORKLOADS:
        data = {"workload": workload}
        results = {}
        pool = None
        if workload == "supports-regular":
            pool, results = generic_pool()
            data["pool"] = {str(n): seeds for n, seeds in pool.items()}
            pool = {n: seeds[0] for n, seeds in pool.items()}
        kind = "price" if workload == "price" else "supports"
        for key, game, oracle in corpus.canonical_instances(workload, pool):
            if key in results:
                continue
            got, layers = reference_instance(key, game, oracle, kind)
            if workload == "supports-regular" and not regular(layers):
                raise SystemExit(f"{key} has singular systems or LP calls")
            results[key] = got
            print(f"{workload} {key}: {layers['linalg.solve.family']} singular"
                  f" systems, {layers['lp.calls']} LPs", flush=True)
        encode = encode_price if kind == "price" else (
            lambda items: [encode_item(item) for item in items])
        data["results"] = {key: encode(value) for key, value in sorted(results.items())}
        path = BENCH / "reference" / f"{workload}.json"
        write_reference(path, data)
        print(f"wrote {path.relative_to(BENCH.parent)}")


def write_reference(path, data):
    """JSON with one line per instance, so that diffs stay readable."""
    lines = [f" {json.dumps(key)}: {json.dumps(value)}"
             for key, value in data.items() if key != "results"]
    results = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                         for key, value in data["results"].items())
    lines.append(f' "results": {{\n{results}\n }}')
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
