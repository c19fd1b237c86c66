"""Closed-loop timing of one workload, set-up probes, and the metrics.

One caller in one process runs whole blocks of jobs back to back until
`seconds` have passed; input generation and output checks stay outside the
timed section. The untraced run gives the end-to-end metrics. The traced
run times the same kind of section with the wrappers of `tracing`
installed, then replays its blocks untraced to measure the overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import gen
import tracing
import workloads

SETUP_PROBES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name, unit, better, bound (the share of the parent's median it may worsen by)
END_TO_END = [
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("job_tail_ms", "ms", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def _per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []

    def add(name, unit="count", better="lower"):
        spec.append((name, unit, better))

    def calls_self(group):
        add(group + ".calls")
        add(group + ".self_s", "s")

    calls_self("invariants.multivariate_gauss_sum")
    add("invariants.multivariate_gauss_sum.terms")
    add("invariants.multivariate_gauss_sum.terms_per_s", "1/s", "higher")
    calls_self("invariants.multivariate_gauss_sum.large_entry")
    for fn in ("tau_abelian", "tau_su2_k3", "tau_dw", "check_kirby_invariance"):
        add(f"invariants.{fn}.self_s", "s")
    add("invariants.check_kirby_invariance.evaluations")
    add("invariants.guard_exceeded")
    add("invariants.warnings")
    calls_self("numtheory.gauss_sum_brute")
    add("numtheory.gauss_sum_brute.terms")
    add("numtheory.gauss_sum_brute.terms_per_s", "1/s", "higher")
    calls_self("numtheory.discrete_log")
    add("numtheory.Character.legendre.self_s", "s")
    for group in ("linkalg.signature", "linkalg.diagonalize_mod_k", "linkalg.parse", "linkalg.moves",
                  "linkgeom.linking_number"):
        calls_self(group)
    for fn in ("linking_matrix", "self_linking", "parse"):
        add(f"linkgeom.{fn}.self_s", "s")
    calls_self("linkgeom.gauss_integral")
    add("linkgeom.gauss_integral.segment_pairs")
    add("linkgeom.check_pairs")
    add("linkgeom.check_pairs_per_s", "1/s", "higher")
    add("linkgeom.max_residual", "lk")
    calls_self("qsim.prepare_legendre_state")
    add("qsim.gauss_phase_encode.self_s", "s")
    add("qsim.phase_estimate.self_s", "s")
    calls_self("qsim.apply_unitary")
    calls_self("qsim.qft_matrix")
    add("qsim.amplitudes")
    add("qsim.estimate_miss")
    for name in ("interpreter_s", "startup_s", "process_s", "inprocess_s"):
        add(f"cli.{name}", "s")
    add("cli.nonzero_exit")
    add("cli.traceback")
    add("trace.overhead_ratio", "ratio")
    add("trace.job_s", "s")
    add("trace.jobs")
    return spec


PER_LAYER = _per_layer_spec()


# ---------------------------------------------------------------------------
# the timed section


class Section:
    """Outputs, latencies and wall time of whole blocks run back to back."""

    def __init__(self) -> None:
        self.blocks: list[list[gen.Job]] = []
        self.outputs: list = []
        self.errors: list[str | None] = []
        self.latencies: list[float] = []
        self.block_walls: list[float] = []
        self.wall = 0.0
        self.warnings = 0


def run_blocks(wl, blocks_source, seconds: float | None, tracer: tracing.Tracer | None = None) -> Section:
    """Run blocks until `seconds` of timed wall time have passed (or all given blocks).

    blocks_source(i) returns block i, or None when a replay has run out.
    Preparation between blocks is not timed.
    """
    sec = Section()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        i = 0
        while seconds is None or sec.wall < seconds:
            block = blocks_source(i)
            if block is None:
                break
            for job in block:
                wl.prepare(job)
            start = time.perf_counter()
            for job in block:
                t0 = time.perf_counter()
                span = tracer.open("job") if tracer else None
                try:
                    out, err = wl.run(job), None
                except Exception as exc:  # a crash is a measured failure, not a harness error
                    out, err = None, f"{type(exc).__name__}: {exc}"
                finally:
                    if tracer:
                        tracer.close(span)
                sec.latencies.append(time.perf_counter() - t0)
                sec.outputs.append(out)
                sec.errors.append(err)
            sec.block_walls.append(time.perf_counter() - start)
            sec.wall += sec.block_walls[-1]
            sec.blocks.append(block)
            i += 1
        sec.warnings = sum(1 for w in caught if issubclass(w.category, UserWarning))
    return sec


def classify(wl, sec: Section) -> tuple[int, int, list[str]]:
    """(failed, incorrect, notes). Incorrect outputs count as failed as well."""
    failed = incorrect = 0
    notes: list[str] = []
    jobs = [job for block in sec.blocks for job in block]
    for job, out, err in zip(jobs, sec.outputs, sec.errors):
        if err is not None:
            failed += 1
            notes.append(f"{job.kind}: {err}")
            continue
        problems = wl.check(job, out)
        if problems:
            failed += 1
            incorrect += 1
            notes.append(f"{job.kind}: {'; '.join(problems)}")
        elif isinstance(out, dict) and out.get("code", 0) != 0:
            failed += 1
            last = out["stderr"].strip().splitlines()[-1:] or [""]
            notes.append(f"{job.kind}: exit {out['code']}: {last[0]}")
    return failed, incorrect, notes


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def profile(jobs: list[gen.Job]) -> dict:
    """Share of jobs with each value of each recorded input property."""
    shares: dict = {}
    for key in sorted({k for job in jobs for k in job.props}):
        values = Counter()
        for job in jobs:
            if key not in job.props:
                continue
            v = job.props[key]
            if key == "max_terms" and v:
                v = f"1e{len(str(v)) - 1}"  # decade
            values[str(v)] += 1
        shares[key] = {v: round(c / len(jobs), 4) for v, c in sorted(values.items())}
    return shares


def metadata() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


# ---------------------------------------------------------------------------
# set-up probes


def setup_probe(name: str, workdir: Path) -> float:
    """Import qtopo and warm every job kind up; run first thing in a fresh process."""
    wl = make(name, workdir)
    start = time.perf_counter()
    wl.setup()
    return time.perf_counter() - start


def probe_setup_times(name: str, runner: Path) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(runner), "--setup-probe", name], cwd=workloads.ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def make(name: str, workdir: Path, traced: bool = False):
    return workloads.WORKLOADS[name](workdir, traced)


# ---------------------------------------------------------------------------
# one run


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, runner: Path) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail line)."""
    wl = make(name, workdir, traced=trace)
    block_fn = gen.BLOCKS[name]
    wl.setup()
    if isinstance(wl, workloads.Cli):
        wl.warm_children()

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        sec = run_blocks(wl, lambda i: block_fn(seed, i), seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    if isinstance(wl, workloads.Cli):
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed, incorrect, notes = classify(wl, sec)
    attempted = len(sec.latencies)
    jobs = [job for block in sec.blocks for job in block]
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "blocks": len(sec.blocks),
        "attempted": attempted,
        "failed": failed,
        "incorrect": incorrect,
        "failed_ratio": failed / attempted,
        "failures": Counter(notes).most_common(5),
        "profile": profile(jobs),
        "meta": metadata(),
    }
    result = {"correct": incorrect == 0, "attempted": attempted, "failed": failed}

    if not trace:
        setup_times = probe_setup_times(name, runner)
        p_tail, pct = tail(sec.latencies)
        values = {
            "jobs_per_s": attempted / sec.wall,
            "job_p50_ms": 1e3 * statistics.median(sec.latencies),
            "job_tail_ms": 1e3 * p_tail,
            "ok_ratio": 1.0 - failed / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        detail.update(samples=attempted, tail_percentile=round(pct, 2), setup_samples=setup_times,
                      timed_wall_s=sec.wall, block_walls_s=sec.block_walls)
        units = {n: u for n, u, _, _ in END_TO_END}
        result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        return result, detail

    # untraced replay of exactly the traced blocks, for the overhead ratio
    replay_wl = make(name, workdir, traced=False)
    replay_wl.setup()
    replay = run_blocks(replay_wl, lambda i: sec.blocks[i] if i < len(sec.blocks) else None, None)
    spans = tracer.spans
    extra: dict = {"invariants.warnings": sec.warnings}
    if isinstance(wl, workloads.Cli):
        spans, extra = _merge_children(wl, sec, spans)
    detail.update(samples=attempted, traced_wall_s=sec.wall, untraced_wall_s=replay.wall)
    extra.update({"trace.overhead_ratio": sec.wall / replay.wall, "trace.job_s": sum(sec.latencies),
                  "trace.jobs": attempted})
    result["metrics"] = layer_metrics(tracing.aggregate(spans), extra, tracer.installed)
    return result, detail


def _merge_children(wl, sec: Section, parent_spans) -> tuple[list, dict]:
    """Spans and cli.* figures from the launcher files of a traced CLI run."""
    spans = list(parent_spans)
    per_child: dict[str, list[float]] = {"interpreter_s": [], "startup_s": [], "inprocess_s": [], "process_s": []}
    counts = Counter()
    jobs = [job for block in sec.blocks for job in block]
    for job, out in zip(jobs, sec.outputs):
        if out is None:
            continue
        per_child["process_s"].append(out["process_s"])
        counts["cli.nonzero_exit"] += out["code"] != 0
        counts["cli.traceback"] += "Traceback (most recent call last)" in out["stderr"]
        counts["invariants.warnings"] += out["stderr"].count("UserWarning")
        if job.kind.startswith("simulate") and out["code"] == 0:
            counts["qsim.estimate_miss"] += wl.estimate_missed(job, out)
        path = job.data["trace_file"]
        if not path.exists():
            continue
        child = json.loads(path.read_text())
        offset = len(spans)
        for group, start, end, parent, attrs in child["spans"]:
            spans.append([group, start, end, parent + offset if parent >= 0 else -1, attrs])
        for key in ("interpreter_s", "startup_s", "inprocess_s"):
            per_child[key].append(child[key])
    extra = dict(counts)
    for key, values in per_child.items():
        extra[f"cli.{key}"] = statistics.median(values) if values else 0.0
    return spans, extra


def layer_metrics(agg: dict, extra: dict, installed: set[str]) -> dict:
    """Every per-layer metric; those of a function this qtopo lacks are left out."""

    def get(group, key):
        return agg.get(group, {}).get(key, 0)

    def rate(group, key):
        busy = get(group, "self_s")
        return get(group, key) / busy if busy else 0.0

    values = {
        "invariants.guard_exceeded": sum(g.get("guard_exceeded", 0) for name, g in agg.items()
                                         if name.startswith("invariants.")),
        "qsim.amplitudes": sum(g.get("amplitudes", 0) for name, g in agg.items() if name.startswith("qsim.")),
        "invariants.warnings": 0,
        "qsim.estimate_miss": 0,
        "cli.nonzero_exit": 0,
        "cli.traceback": 0,
        **{f"cli.{key}": 0.0 for key in ("interpreter_s", "startup_s", "process_s", "inprocess_s")},
    }
    for name, _, _ in PER_LAYER:
        group, _, key = name.rpartition(".")
        if group.removesuffix(".large_entry") in installed:
            values[name] = get(group, key)
    for group in ("invariants.multivariate_gauss_sum", "numtheory.gauss_sum_brute"):
        if group in installed:
            values[group + ".terms_per_s"] = rate(group, "terms")
    if "linkgeom.linking_number" in installed:
        values["linkgeom.check_pairs"] = get("linkgeom.linking_number", "check_pairs")
        values["linkgeom.check_pairs_per_s"] = rate("linkgeom.linking_number", "check_pairs")
    if "linkgeom.gauss_integral" in installed:
        values["linkgeom.max_residual"] = get("linkgeom.gauss_integral", "max_residual")
    values.update(extra)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER if name in values}
