"""Check a traced bench run: its result line is strict JSON, correct, and reports every per-layer metric.

    python3 bench/run.py --workload all --trace 1 --seconds 2 > bench-trace.txt
    python3 .github/scripts/check_traced_bench.py bench-trace.txt

It reads BENCHMARK.json from the repository that holds this script. Exits
non-zero with a one-line message naming what is wrong.
"""

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

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


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def main(argv: list[str]) -> None:
    if len(argv) != 1:
        sys.exit("usage: check_traced_bench.py <traced bench output>")
    try:
        with open(argv[0], encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines() or [""]
    except (OSError, UnicodeDecodeError) as exc:
        sys.exit(f"cannot read the traced bench output: {exc}")
    try:
        result = json.loads(lines[-1], parse_constant=reject)
    except json.JSONDecodeError as exc:
        sys.exit(f"the result line is not JSON: {exc}")
    except ValueError as exc:  # reject's
        sys.exit(str(exc))
    absent = [key for key in ("correct", "failed", "metrics") if not isinstance(result, dict) or key not in result]
    if absent:
        sys.exit(f"the result line lacks {absent}")
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"traced run gave correct={result['correct']} and failed={result['failed']}")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        sys.exit(f"the result line's metrics is not an object but {type(metrics).__name__}")
    spec = json.loads(SPEC.read_text())
    expected = [f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["per_layer"]]
    missing = [key for key in expected if key not in metrics]
    if missing:
        sys.exit(f"traced run lacks {len(missing)} per-layer metrics: {missing}")
    not_numbers = [key for key in expected
                   if not isinstance(metrics[key], dict) or not is_number(metrics[key].get("value"))]
    if not_numbers:
        sys.exit(f"traced run gives {len(not_numbers)} per-layer metrics no numeric value: {not_numbers}")
    never_called = [key for key in REACHED if not metrics[key]["value"] > 0]
    if never_called:
        sys.exit(f"traced run never called {never_called}")
    print(f"all {len(expected)} per-layer metrics present; {len(REACHED)} reached targets called")


if __name__ == "__main__":
    main(sys.argv[1:])
