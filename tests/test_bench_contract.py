"""The benchmark's contract with qtopo: every traced target exists, and the CLI prints the benchmark's reference.

The tracer skips a target it cannot resolve, so a renamed or deleted
function would silently drop its per-layer metrics from a traced run. The
benchmark compares each CLI job's stdout with a payload it builds from
library calls, so an output change the reference does not share shows here
before a benchmark run calls the output incorrect.
"""

import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import qtopo.cli  # noqa: F401  (the tracer patches only modules already imported)
import qtopo.invariants  # noqa: F401
import qtopo.linkalg  # noqa: F401
import qtopo.linkgeom  # noqa: F401
import qtopo.numtheory  # noqa: F401
import qtopo.qsim  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_target_is_installed():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.installed == {group for _, _, group, _ in tracing.TARGETS}
    finally:
        tracer.uninstall()


# seeds 0-2 at block indices 0 and 3 hold a check job of each invariant
BLOCKS = [(seed, index) for seed in (0, 1, 2) for index in (0, 3)]


def test_the_blocks_check_every_invariant():
    checked = {job.data["invariant"] for seed, index in BLOCKS for job in gen.cli_block(seed, index)
               if job.kind == "check"}
    assert checked == {"su2k3", "abelian", "dw"}


@pytest.mark.parametrize("seed,index", BLOCKS)
def test_cli_prints_the_benchmark_reference(seed, index, tmp_path, monkeypatch):
    # the benchmark calls a CLI job incorrect when its stdout is not the library reference byte for byte;
    # Cli.prepare writes each input relative to workloads.ROOT, and the CLI reads it from the working directory
    monkeypatch.setattr(workloads, "ROOT", tmp_path)
    monkeypatch.chdir(tmp_path)
    cli = workloads.Cli(workdir=tmp_path)
    cli.load()
    jobs = gen.cli_block(seed, index)
    assert {job.kind for job in jobs} == set(gen.CLI_KINDS)
    for job in jobs:
        cli.prepare(job)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the k != 1 mod 4 warning goes to stderr, which the check does not read
            result = CliRunner().invoke(qtopo.cli.main, job.data["args"])
        out = {"code": result.exit_code, "stdout": result.stdout, "stderr": result.stderr}
        assert out["code"] == 0, (job.kind, result.output)
        assert cli.check(job, out) == [], job.kind
