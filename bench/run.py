"""Benchmark of qtopo's framed-link -> Gauss-sum pipeline.

    python3 bench/run.py --workload kirby-small --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25      # every workload, as a table

Run from anywhere; the program is imported from the `src/` next to this
directory. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it holds
the run's details (sample counts, tail percentile, failure notes, input
shares and machine metadata). See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAMES = ["kirby-small", "large-link", "geometry", "cli"]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=NAMES, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, one after another, then a table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *_, detail_line, result_line = proc.stdout.strip().splitlines()
        detail, result = json.loads(detail_line), json.loads(result_line)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "failed_ratio", detail["failed_ratio"], "ratio"))
        rows.append((name, "samples", detail["samples"], "jobs"))
        if "tail_percentile" in detail:
            rows.append((name, "tail_percentile", detail["tail_percentile"], "%"))
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:55s} {value:>16.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "qtopo" / "__init__.py").is_file():
        print(f"error: no qtopo package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    import harness  # imports neither numpy nor qtopo

    # one BLAS thread: this benchmark runs one worker at a time on a small machine
    for var in harness.BLAS_ENV:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    # qtopo's UserWarnings are counted inside the timed section, never printed
    warnings.simplefilter("ignore")
    if args.workload == "all" and not args.setup_probe:
        return _run_all(args)

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": harness.setup_probe(args.setup_probe, workdir)}))
            return 0
        result, detail = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                                     Path(__file__).resolve())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
