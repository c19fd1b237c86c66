"""The benchmark's own tests: generators, oracles, tracing and BENCHMARK.json."""

import cmath
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import crossings  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _dump(block):
    return json.dumps([(job.kind, job.data, job.props) for job in block], sort_keys=True)


@pytest.mark.parametrize("name", sorted(gen.BLOCKS))
def test_generators_are_deterministic_per_seed(name):
    make = gen.BLOCKS[name]
    assert _dump(make(3, 1)) == _dump(make(3, 1))
    assert _dump(make(3, 1)) != _dump(make(4, 1))
    assert _dump(make(3, 0)) != _dump(make(3, 1))


@pytest.mark.parametrize("name", sorted(gen.BLOCKS))
def test_every_block_has_the_same_size_mix(name):
    keys = ("m", "vertices", "size") if name != "cli" else ()  # CLI runs are dominated by start-up
    sizes = [sorted(json.dumps([job.kind, {k: v for k, v in job.props.items() if k in keys}])
                    for job in gen.BLOCKS[name](seed, index))
             for seed, index in ((1, 0), (2, 3))]
    assert sizes[0] == sizes[1]


def _geometry_jobs():
    for seed in (1, 2):
        yield from gen.geometry_block(seed, 0)
        yield from (job for job in gen.cli_block(seed, 0) if job.kind == "linking-matrix")


@pytest.mark.parametrize("job", list(_geometry_jobs()), ids=lambda job: f"{job.kind}-{len(job.data['J'])}")
def test_geometry_construction_matches_crossing_count(job):
    data = json.loads(job.data["text"])
    comps = data["components"]
    J = job.data["J"]
    for i, comp in enumerate(comps):
        pushed = crossings.push_off(comp["points"], comp["offsets"], data["delta"])
        assert crossings.linking_number(comp["points"], pushed) == J[i][i]
        for j in range(i + 1, len(comps)):
            assert crossings.linking_number(comp["points"], comps[j]["points"]) == J[i][j] == J[j][i]


def test_large_link_signature_is_that_of_the_diagonal():
    job = gen.large_link_job(gen.block_rng("test", 0, 0), 16, 1009, "light")
    rows = json.loads(job.data["text"])["J"]
    assert rows == [list(r) for r in zip(*rows)]
    np = pytest.importorskip("numpy")
    eig = np.linalg.eigvalsh(np.array(rows, dtype=float))
    assert int((eig > 1e-9).sum() - (eig < -1e-9).sum()) == job.data["signature"]


def test_move_scripts_are_legal_and_close_with_a_blow_down():
    wl = workloads.KirbySmall()
    wl.load()
    for job in gen.kirby_block(5, 0):
        link = wl.la.FramedLinkMatrix.from_rows(job.data["rows"])
        for move in job.data["script"]:
            link = wl.inv.apply_move(link, move)
        ups = sum(move[0] == "blow_up" for move in job.data["script"])
        assert job.data["script"][-1][0] == "blow_down"
        assert link.m == len(job.data["rows"]) + ups - 1


# -- oracles reject perturbed values -----------------------------------------


def test_kirby_oracle_rejects_perturbed_values():
    wl = workloads.KirbySmall()
    wl.load()
    job = gen.Job("kirby", {"rows": [[1, 2], [2, -3]], "k": 13, "invariant": "abelian",
                            "script": [("blow_up", -1), ("slide", 0, 1, 1), ("blow_down", 2)]})
    out = wl.run(job)
    assert wl.check(job, out) == []
    assert wl.check(job, dict(out, brute=out["brute"] * (1 + 1e-3)))
    assert wl.check(job, dict(out, factorized=out["factorized"] * cmath.exp(1e-3j)))
    assert wl.check(job, dict(out, dw_full=out["dw_full"] * 1.01))
    assert wl.check(job, dict(out, passed=False))


def test_large_link_oracle_rejects_perturbed_values():
    wl = workloads.LargeLink()
    wl.load()
    job = gen.large_link_job(gen.block_rng("test", 1, 0), 16, 2187, "light")
    out = wl.run(job)
    assert wl.check(job, out) == []
    assert wl.check(job, dict(out, signature=out["signature"] + 2))
    assert wl.check(job, dict(out, tau=out["tau"] * 1.001))
    link = out["link"]
    diag = wl.la.diagonalize_mod_k(link, wl.nt.ModK.from_modulus(2187))
    assert workloads.contract_problems(link.J, diag.U, diag.d, 2187) == []
    bad_d = (diag.d[0] + 1,) + diag.d[1:]
    assert workloads.contract_problems(link.J, diag.U, bad_d, 2187)
    bad_u = [list(row) for row in diag.U]
    bad_u[0] = [2 * x for x in bad_u[0]]
    assert workloads.contract_problems(link.J, bad_u, diag.d, 2187)


def test_geometry_oracle_rejects_a_wrong_matrix():
    job = gen.geometry_block(1, 0)[0]
    J = [row[:] for row in job.data["J"]]
    assert workloads.Geometry.check(job, {"J": J}) == []
    J[0][0] += 1
    assert workloads.Geometry.check(job, {"J": J})


def test_cli_oracle_rejects_perturbed_output(tmp_path):
    wl = workloads.Cli(tmp_path)
    wl.load()
    jobs = {job.kind: job for job in gen.cli_block(2, 0)}
    for kind, key in (("gauss-sum", "re"), ("tau-dw", "im"), ("simulate-small", "phi_hat")):
        job = jobs[kind]
        payload = wl.reference(job)
        good = {"code": 0, "stdout": json.dumps(payload, sort_keys=True) + "\n", "stderr": ""}
        assert wl.check(job, good) == []
        payload[key] += 1e-9
        assert wl.check(job, dict(good, stdout=json.dumps(payload, sort_keys=True) + "\n"))
    job = jobs["simulate-small"]
    payload = json.loads(good["stdout"])
    payload["phi_true"] += 0.01
    assert "phi_true is not the phase of gauss_sum_closed" in wl.check(
        job, dict(good, stdout=json.dumps(payload, sort_keys=True) + "\n"))


def test_cli_overflow_input_is_a_failure_not_a_wrong_answer(tmp_path):
    wl = workloads.Cli(tmp_path)
    wl.load()
    job = next(job for job in gen.cli_block(2, 0) if job.kind == "overflow-dw")
    assert wl.check(job, {"code": 1, "stdout": "", "stderr": "Traceback (most recent call last):"}) == []


def test_estimate_misses_are_measured_on_the_circle():
    job = gen.Job("simulate", {})
    near = {"phi_hat": 3.135, "phi_true": -3.141592653589793, "epsilon": 0.05}
    assert not workloads.Cli.estimate_missed(job, {"stdout": json.dumps(near)})
    far = dict(near, phi_hat=3.0)
    assert workloads.Cli.estimate_missed(job, {"stdout": json.dumps(far)})


# -- tracing ---------------------------------------------------------------------


def _namespace_snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "qtopo" or name.startswith("qtopo."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = id(value)
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        snap[(name, attr, key)] = id(member)
    return snap


def test_wrappers_are_gone_after_a_traced_run():
    wl = workloads.Geometry()
    wl.load()
    before = _namespace_snapshot()
    jobs = wl.warm_jobs()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wl.inv.signature is wl.la.signature and hasattr(wl.la.signature, "__wrapped__")
        sec = harness.run_blocks(wl, lambda i: jobs if i == 0 else None, None, tracer)
    finally:
        tracer.uninstall()
    assert _namespace_snapshot() == before
    assert sec.errors == [None]
    agg = tracing.aggregate(tracer.spans)
    assert agg["linkgeom.linking_number"]["calls"] == 7  # 2 * 3 push-offs + 1 pair
    assert agg["linkgeom.parse"]["calls"] == 1  # from_json -> from_json_dict counts once
    assert {"linkgeom.linking_number", "linkalg.signature"} <= tracer.installed


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [("qtopo.linkalg", "no_such_fn", "x.y", None),
                                                               ("qtopo.nope", "f", "x.z", None)])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "x.y" not in tracer.installed and "x.z" not in tracer.installed
    metrics = harness.layer_metrics({}, {}, tracer.installed - {"qsim.qft_matrix"})
    assert "qsim.qft_matrix.calls" not in metrics and "qsim.apply_unitary.calls" in metrics


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, {}], ["b", 1.0, 4.0, 0, {"terms": 5}], ["b", 5.0, 6.0, 0, {"terms": 2}],
             ["a", 6.5, 7.0, 0, {}]]
    agg = tracing.aggregate(spans)
    assert agg["a"]["calls"] == 1 and agg["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert agg["b"] == {"calls": 2, "self_s": pytest.approx(4.0), "terms": 7}


def test_tail_has_ten_samples_beyond_it():
    value, pct = harness.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


# -- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == run.NAMES
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == harness.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bench"
    bare.mkdir()
    for path in BENCH.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    import subprocess

    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "geometry", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
