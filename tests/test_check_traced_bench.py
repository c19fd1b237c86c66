"""The CI check of a traced bench run, .github/scripts/check_traced_bench.py, run as CI runs it."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / ".github" / "scripts" / "check_traced_bench.py"
_spec = importlib.util.spec_from_file_location("check_traced_bench", SCRIPT)
check_traced_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_traced_bench)


def expected_keys():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["per_layer"]]


def passing_result():
    return {"correct": True, "failed": 0, "metrics": {key: {"value": 1} for key in expected_keys()}}


def run_script(*args, cwd=ROOT):
    """The script's exit code, stdout and stderr when run with the given arguments."""
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], cwd=cwd, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def run(tmp_path, result):
    """The script's exit code, stdout and stderr on a trace whose last line is the given result."""
    trace = tmp_path / "bench-trace.txt"
    trace.write_text("workload table\n" + json.dumps(result) + "\n")
    return run_script(str(trace))


def test_passing_line(tmp_path):
    reached = len(check_traced_bench.REACHED)
    assert run(tmp_path, passing_result()) == (
        0, f"all {len(expected_keys())} per-layer metrics present; {reached} reached targets called\n", "")


def test_runs_from_any_directory(tmp_path):
    trace = tmp_path / "bench-trace.txt"
    trace.write_text(json.dumps(passing_result()) + "\n")
    code, out, err = run_script(trace.name, cwd=tmp_path)
    assert (code, err) == (0, "") and out.startswith(f"all {len(expected_keys())} per-layer metrics present")


def test_incorrect_run(tmp_path):
    result = passing_result()
    result["correct"] = False
    assert run(tmp_path, result) == (1, "", "traced run gave correct=False and failed=0\n")


def test_missing_per_layer_key(tmp_path):
    result = passing_result()
    key = expected_keys()[-1]
    del result["metrics"][key]
    assert run(tmp_path, result) == (1, "", f"traced run lacks 1 per-layer metrics: [{key!r}]\n")


@pytest.mark.parametrize("target", check_traced_bench.REACHED)
def test_required_target_at_zero(tmp_path, target):
    result = passing_result()
    result["metrics"][target]["value"] = 0
    assert run(tmp_path, result) == (1, "", f"traced run never called [{target!r}]\n")


def test_nan_token(tmp_path):
    result = passing_result()
    result["metrics"][expected_keys()[0]]["value"] = float("nan")
    code, out, err = run(tmp_path, result)
    assert "Traceback" not in err
    assert (code, out, err) == (1, "", "NaN in the result line is not strict JSON\n")


@pytest.mark.parametrize("key", ["correct", "failed", "metrics"])
def test_missing_result_key(tmp_path, key):
    result = passing_result()
    del result[key]
    code, out, err = run(tmp_path, result)
    assert "Traceback" not in err
    assert (code, out, err) == (1, "", f"the result line lacks [{key!r}]\n")


def test_no_argument():
    code, out, err = run_script()
    assert "Traceback" not in err
    assert (code, out, err) == (1, "", "usage: check_traced_bench.py <traced bench output>\n")


def test_missing_file(tmp_path):
    trace = tmp_path / "absent.txt"
    code, out, err = run_script(str(trace))
    assert "Traceback" not in err
    assert (code, out, err) == (1, "", f"cannot read the traced bench output: [Errno 2] No such file or directory: "
                                       f"{str(trace)!r}\n")


@pytest.mark.parametrize("value", ["1", None, True, [1], {"value": 1}])
def test_value_not_a_number(tmp_path, value):
    result = passing_result()
    key = check_traced_bench.REACHED[0]
    result["metrics"][key]["value"] = value
    code, out, err = run(tmp_path, result)
    assert "Traceback" not in err
    assert (code, out, err) == (1, "", f"traced run gives 1 per-layer metrics no numeric value: [{key!r}]\n")
