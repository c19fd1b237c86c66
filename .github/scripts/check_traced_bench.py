"""Check a traced bench run: its result line is strict JSON, correct, and reports every per-layer metric.

    python3 bench/run.py --workload all --trace 1 --seconds 2 > bench-trace.txt
    python3 .github/scripts/check_traced_bench.py bench-trace.txt

Run from the repository root, which holds BENCHMARK.json. Exits non-zero
with a message naming what is wrong.
"""

import json
import sys

# targets each workload is known to reach: a key that reads 0 hides a missed patch
REACHED = [
    "cli.qsim.prepare_legendre_state.calls",
    "cli.linkgeom.linking_number.calls",
    "geometry.linkgeom.linking_number.calls",
    "geometry.linkgeom.gauss_integral.segment_pairs",
    "geometry.linkgeom.check_pairs",
    "large-link.linkalg.diagonalize_mod_k.calls",
    "kirby-small.invariants.multivariate_gauss_sum.calls",
    "kirby-small.invariants.check_kirby_invariance.evaluations",
]


def reject(token):
    raise ValueError(f"{token} in the result line is not strict JSON")


def main(path: str) -> None:
    with open(path) as fh:
        result = json.loads(fh.read().strip().splitlines()[-1], parse_constant=reject)
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"traced run gave correct={result['correct']} and failed={result['failed']}")
    metrics = result["metrics"]
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = [f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["per_layer"]]
    missing = [key for key in expected if key not in metrics]
    if missing:
        sys.exit(f"traced run lacks {len(missing)} per-layer metrics: {missing}")
    never_called = [key for key in REACHED if not metrics[key]["value"] > 0]
    if never_called:
        sys.exit(f"traced run never called {never_called}")
    print(f"all {len(expected)} per-layer metrics present; {len(REACHED)} reached targets called")


if __name__ == "__main__":
    main(sys.argv[1])
