import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geom_helpers import hopf_pair, outward_offsets, polylink_json
import qtopo
from qtopo import cli, invariants
from qtopo.cli import main
from qtopo.errors import GeometryError, GuardExceeded, SchemaError
from qtopo.linkgeom import PolyLink
from qtopo.numtheory import _PROVEN_BELOW


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def unknot_p1(tmp_path):
    path = tmp_path / "unknot_p1.json"
    path.write_text(json.dumps({"m": 1, "J": [[1]]}))
    return path


@pytest.fixture
def hopf_matrix(tmp_path):
    path = tmp_path / "hopf.json"
    path.write_text(json.dumps({"m": 2, "J": [[0, 1], [1, 0]]}))
    return path


@pytest.fixture
def hopf_polylink(tmp_path):
    a, b = hopf_pair()
    link = PolyLink(components=(a, b), framings=(outward_offsets(a), outward_offsets(b)), delta=0.2)
    path = tmp_path / "hopf_geom.json"
    path.write_text(polylink_json(link))
    return path


def parse(result):
    return json.loads(result.output.splitlines()[-1])


class TestTauCommands:
    def test_tau_abelian_hopf(self, runner, hopf_matrix):
        result = runner.invoke(main, ["tau-abelian", "--k", "5", "-i", str(hopf_matrix)])
        assert result.exit_code == 0
        payload = parse(result)
        assert math.isclose(payload["re"], 5.0, abs_tol=1e-9)
        assert abs(payload["im"]) < 1e-9

    def test_tau_su2k3_unknot(self, runner, unknot_p1):
        result = runner.invoke(main, ["tau-su2k3", "-i", str(unknot_p1)])
        assert result.exit_code == 0
        payload = parse(result)
        assert math.isclose(payload["re"], 1.0, abs_tol=1e-9)
        assert abs(payload["im"]) < 1e-9

    def test_tau_dw_full_range(self, runner, unknot_p1):
        result = runner.invoke(main, ["tau-dw", "--k", "5", "--range", "full", "-i", str(unknot_p1)])
        assert result.exit_code == 0
        assert math.isclose(parse(result)["re"], 0.4472136, abs_tol=1e-6)

    def test_polylink_input_auto_detected(self, runner, hopf_polylink):
        result = runner.invoke(main, ["tau-abelian", "--k", "5", "-i", str(hopf_polylink)])
        assert result.exit_code == 0
        assert math.isclose(parse(result)["re"], 5.0, abs_tol=1e-9)

    def test_output_file(self, runner, unknot_p1, tmp_path):
        out = tmp_path / "result.json"
        result = runner.invoke(main, ["tau-su2k3", "-i", str(unknot_p1), "-o", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text()) == parse(result)

    def test_methods_agree(self, runner, hopf_matrix):
        brute = runner.invoke(main, ["tau-abelian", "--k", "5", "--method", "brute", "-i", str(hopf_matrix)])
        fact = runner.invoke(main, ["tau-abelian", "--k", "5", "--method", "factorized", "-i", str(hopf_matrix)])
        assert math.isclose(parse(brute)["re"], parse(fact)["re"], abs_tol=1e-6)


class TestGaussSumCommand:
    def test_brute(self, runner):
        result = runner.invoke(main, ["gauss-sum", "--k", "5", "--a", "2"])
        assert result.exit_code == 0
        assert math.isclose(parse(result)["re"], -math.sqrt(5), abs_tol=1e-9)

    def test_closed_matches_brute(self, runner):
        brute = parse(runner.invoke(main, ["gauss-sum", "--k", "13", "--a", "7"]))
        closed = parse(runner.invoke(main, ["gauss-sum", "--k", "13", "--a", "7", "--method", "closed"]))
        assert math.isclose(brute["re"], closed["re"], abs_tol=1e-9)
        assert math.isclose(brute["im"], closed["im"], abs_tol=1e-9)

    def test_closed_rejects_prime_power(self, runner):
        result = runner.invoke(main, ["gauss-sum", "--k", "9", "--a", "2", "--method", "closed"])
        assert result.exit_code == 2


class TestLinkingMatrixCommand:
    def test_hopf_geometry(self, runner, hopf_polylink):
        result = runner.invoke(main, ["linking-matrix", "-i", str(hopf_polylink)])
        assert result.exit_code == 0
        payload = parse(result)
        assert payload["m"] == 2
        lk = payload["J"][0][1]
        assert abs(lk) == 1
        assert payload["J"] == [[0, lk], [lk, 0]]


class TestCheckCommand:
    def test_su2k3_pass(self, runner, hopf_matrix):
        result = runner.invoke(
            main, ["check", "--invariant", "su2k3", "--moves", "10", "--seed", "1", "-i", str(hopf_matrix)]
        )
        assert result.exit_code == 0
        assert parse(result)["passed"] is True

    def test_abelian_includes_method_comparison(self, runner, hopf_matrix):
        result = runner.invoke(
            main, ["check", "--invariant", "abelian", "--k", "5", "--seed", "3", "-i", str(hopf_matrix)]
        )
        assert result.exit_code == 0
        payload = parse(result)
        assert any(c["name"] == "factorized_vs_brute" for c in payload["checks"])

    def test_abelian_runs_the_brute_sum_once(self, runner, hopf_matrix, monkeypatch):
        calls = []
        brute_sum = invariants.multivariate_gauss_sum

        def counted(link, *args, **kwargs):
            calls.append(link.J)
            return brute_sum(link, *args, **kwargs)

        monkeypatch.setattr(invariants, "multivariate_gauss_sum", counted)
        result = runner.invoke(
            main, ["check", "--invariant", "abelian", "--k", "5", "--moves", "0", "-i", str(hopf_matrix)]
        )
        assert result.exit_code == 0
        assert calls == [((0, 1), (1, 0))]

    def test_factorized_vs_brute_failure_alone_fails_the_check(self, runner, hopf_matrix, monkeypatch):
        # the CLI's own check joins the library's in the one report, whose verdict is the exit code
        tau_abelian = invariants.tau_abelian

        def skewed(link, ring, method="factorized", guard=invariants.DEFAULT_GUARD):
            result = tau_abelian(link, ring, method=method, guard=guard)
            return dataclasses.replace(result, value=result.value * (1 + 1e-3)) if method == "factorized" else result

        monkeypatch.setattr(invariants, "tau_abelian", skewed)
        result = runner.invoke(main, ["check", "--invariant", "abelian", "--k", "5", "-i", str(hopf_matrix)])
        assert result.exit_code == 5, result.output
        payload = json.loads(result.stdout)
        assert [(check["name"], check["passed"]) for check in payload["checks"]] == [
            ("phase_invariance", True), ("modulus_scaling", True), ("factorized_vs_brute", False)]
        assert payload["passed"] is False
        assert "FAIL factorized_vs_brute: max deviation 1.000e-03" in result.stderr.splitlines()

    def test_empty_script_passes(self, runner, hopf_matrix):
        result = runner.invoke(
            main, ["check", "--invariant", "su2k3", "--moves", "0", "-i", str(hopf_matrix)]
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize("invariant,modulus", [("su2k3", []), ("abelian", ["--k", "5"]), ("dw", ["--k", "5"])])
    @pytest.mark.parametrize("rng", ["paper", "full"])
    def test_range_paper_is_for_dw_only(self, runner, hopf_matrix, invariant, modulus, rng):
        result = runner.invoke(main, ["check", "--invariant", invariant, *modulus, "--range", rng,
                                      "--moves", "0", "-i", str(hopf_matrix)])
        assert result.exit_code == (2 if rng == "paper" and invariant != "dw" else 0), result.output
        if result.exit_code == 2:
            assert result.output.splitlines()[-1] == (
                f"Error: Invalid value for '--range': {invariant} sums the whole group; the paper range is for dw only")

    @pytest.mark.parametrize("invariant,modulus", [("su2k3", []), ("dw", ["--k", "2", "--range", "paper"]),
                                                   ("dw", ["--k", "5"])])
    def test_moves_above_the_script_bound_is_config_error(self, runner, tmp_path, invariant, modulus):
        # checked before the input is read, and before any guard: su2k3 and a width-1 box have no other bound
        bad = tmp_path / "bad.json"
        bad.write_text("{[")
        result = runner.invoke(main, ["check", "--invariant", invariant, *modulus, "--moves", "1001", "-i", str(bad)])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[-1] == (
            "Error: Invalid value for '--moves': a random script has at most 1000 moves, got 1001")

    @pytest.mark.parametrize("modulus,message", [
        (["--invariant", "abelian"], "abelian needs a modulus k"),
        (["--invariant", "abelian", "--k", "1"],
         "modulus 1 must be >= 2 and below 3.3e+24, where primality is proven"),
        (["--invariant", "abelian", "--k", "4"], "modulus 4 is not a power of a single odd prime"),
        (["--invariant", "su2k3", "--k", "7"], "su2k3 has the fixed level k=3; leave k out"),
    ], ids=["missing", "out-of-range", "not-odd-prime-power", "fixed-level"])
    @pytest.mark.parametrize("partner", ["range", "moves", "input"])
    def test_a_k_error_beats_every_other_error(self, runner, hopf_matrix, tmp_path, modulus, message, partner):
        # invariants.require_ring runs first, before the --range and --moves checks and before the input is read
        bad = tmp_path / "bad.json"
        bad.write_text("{[")
        args = {"range": ["--range", "paper"], "moves": ["--moves", "1001"], "input": []}[partner]
        path = bad if partner == "input" else hopf_matrix
        result = runner.invoke(main, ["check", *modulus, *args, "-i", str(path)])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[-1] == f"Error: Invalid value for '--k': {message}"

    def test_abelian_warning_is_printed_once(self, hopf_matrix):
        # every evaluation warns from the same line, so Python's default filter shows it once
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        src = str(Path(qtopo.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qtopo.cli", "check", "--invariant", "abelian", "--k", "7",
             "--moves", "3", "-i", str(hopf_matrix)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert "not 1 mod 4" in proc.stderr
        assert proc.stderr.count("UserWarning") == 1


_NUMPY_FREE_CHILD = """
import contextlib, io, sys
import qtopo, qtopo.cli
from qtopo import errors, invariants, linkalg, linkgeom, numtheory, qsim

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        qtopo.cli.main(list(args), standalone_mode=False)
    return out.getvalue()

path, poly = sys.argv[1:]
run("gauss-sum", "--k", "13", "--a", "2", "--method", "brute")
run("gauss-sum", "--k", "13", "--a", "2", "--method", "closed")
for link in (path, poly):
    run("tau-abelian", "--k", "13", "-i", link)
    run("tau-su2k3", "-i", link)
    run("check", "--invariant", "su2k3", "--moves", "3", "-i", link)
    run("tau-dw", "--k", "5", "--range", "full", "-i", link)
    run("check", "--invariant", "dw", "--k", "5", "--range", "full", "-i", link)
run("linking-matrix", "-i", poly)
link = linkalg.FramedLinkMatrix.from_json(open(path).read())
linkalg.signature(link)
linkalg.diagonalize_mod_k(link, numtheory.ModK.from_modulus(13))
print("numpy" in sys.modules)
sys.stdout.write(run("tau-dw", "--k", "5", "-i", path))
print("numpy" in sys.modules)
"""


def test_numpy_loads_only_where_arrays_are_built(tmp_path, hopf_polylink):
    """Imports, gauss-sum, the factorized Abelian and dw full-range paths, su2k3 and the geometry never load numpy;
    tau-dw's brute sum over the paper range loads it."""
    env = dict(os.environ)
    src = str(Path(qtopo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"m": 3, "J": [[2, 1, 0], [1, -3, 1], [0, 1, 1]]}))

    def child(*args):
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    before, *dw, after = child("-c", _NUMPY_FREE_CHILD, str(path), str(hopf_polylink)).splitlines(keepends=True)
    assert (before, after) == ("False\n", "True\n")
    assert "".join(dw) == child("-m", "qtopo.cli", "tau-dw", "--k", "5", "-i", str(path))


class TestSimulateCommand:
    def test_k5_a2(self, runner):
        result = runner.invoke(main, ["simulate", "--k", "5", "--a", "2", "--eps", "0.05", "--seed", "7"])
        assert result.exit_code == 0
        payload = parse(result)
        gap = abs((payload["phi_hat"] - math.pi + math.pi) % (2 * math.pi) - math.pi)
        assert gap <= 0.05 or abs(abs(payload["phi_hat"]) - math.pi) <= 0.05

    def test_k3_a1(self, runner):
        result = runner.invoke(main, ["simulate", "--k", "3", "--a", "1", "--eps", "0.05", "--seed", "7"])
        assert result.exit_code == 0
        assert abs(parse(result)["phi_hat"] + math.pi / 2) <= 0.05

    def test_even_k_rejected(self, runner):
        result = runner.invoke(main, ["simulate", "--k", "4", "--a", "1"])
        assert result.exit_code == 2

    def test_bad_epsilon_rejected(self, runner):
        result = runner.invoke(main, ["simulate", "--k", "5", "--a", "1", "--eps", "1.5"])
        assert result.exit_code == 2


_MODULI = (2, 3, 4, 6, 9, 15, 25, _PROVEN_BELOW)
_BELOW_BOUND = set(_MODULI) - {_PROVEN_BELOW}


class TestModuli:
    """Every --k is one ModK; each command accepts the moduli it states it needs, and exits 2 on the rest."""

    @pytest.mark.parametrize("k", _MODULI, ids=str)
    @pytest.mark.parametrize(
        "command,accepted",
        [
            (["tau-abelian", "-i", "hopf.json"], {3, 9, 25}),
            (["check", "--invariant", "abelian", "--moves", "0", "-i", "hopf.json"], {3, 9, 25}),
            (["tau-dw", "-i", "hopf.json"], _BELOW_BOUND),
            (["check", "--invariant", "dw", "--moves", "0", "-i", "hopf.json"], _BELOW_BOUND),
            (["check", "--invariant", "su2k3", "--moves", "0", "-i", "hopf.json"], set()),  # level 3, no --k
            (["gauss-sum", "--a", "1"], _BELOW_BOUND),
            (["simulate", "--a", "1"], {3}),
        ],
        ids=["tau-abelian", "check-abelian", "tau-dw", "check-dw", "check-su2k3", "gauss-sum", "simulate"],
    )
    def test_exit_code(self, runner, hopf_matrix, command, accepted, k):
        args = [str(hopf_matrix) if arg == "hopf.json" else arg for arg in command]
        result = runner.invoke(main, [*args, "--k", str(k)])
        assert result.exit_code == (0 if k in accepted else 2), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 12])
    def test_check_dw_takes_every_k_that_tau_dw_takes(self, runner, hopf_matrix, k):
        check = runner.invoke(main, ["check", "--invariant", "dw", "--k", str(k), "--moves", "0",
                                     "-i", str(hopf_matrix)])
        tau = runner.invoke(main, ["tau-dw", "--k", str(k), "--range", "full", "-i", str(hopf_matrix)])
        assert check.exit_code == tau.exit_code == 0
        assert parse(check)["before"] == {"re": parse(tau)["re"], "im": parse(tau)["im"]}


class TestExitCodes:
    def test_schema_error_is_3(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 2, "J": [[0, 1], [2, 0]]}))
        result = runner.invoke(main, ["tau-su2k3", "-i", str(bad)])
        assert result.exit_code == 3

    def test_geometry_error_is_3(self, runner, tmp_path):
        touching = tmp_path / "touching.json"
        a, _ = hopf_pair()
        link = PolyLink(components=(a,), framings=(np.zeros_like(a),), delta=0.5)
        touching.write_text(polylink_json(link))
        result = runner.invoke(main, ["tau-su2k3", "-i", str(touching)])
        assert result.exit_code == 3

    @pytest.mark.parametrize("error,code,first_line", [
        (SchemaError("/J: bad"), 3, "schema error: /J: bad"),
        (GeometryError("too close"), 3, "geometry error: too close"),
        (GuardExceeded("too many terms"), 4, "guard exceeded: too many terms"),
    ])
    def test_a_new_command_gets_the_boundary_without_a_decorator(self, runner, monkeypatch, error, code, first_line):
        def fail():
            raise error

        monkeypatch.setitem(main.commands, "fail", click.Command("fail", callback=fail))
        result = runner.invoke(main, ["fail"])
        assert result.exit_code == code
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines()[0] == first_line

    def test_guard_exceeded_is_4(self, runner, tmp_path):
        big = tmp_path / "big.json"
        n = 12
        big.write_text(json.dumps({"m": n, "J": [[0] * n for _ in range(n)]}))
        result = runner.invoke(main, ["tau-abelian", "--k", "9", "--method", "brute", "-i", str(big)])
        assert result.exit_code == 4

    def test_guard_env_override(self, runner, unknot_p1):
        result = runner.invoke(
            main,
            ["tau-abelian", "--k", "5", "--method", "brute", "-i", str(unknot_p1)],
            env={"QTOPO_GUARD": "2"},
        )
        assert result.exit_code == 4
        result = runner.invoke(
            main,
            ["tau-abelian", "--k", "5", "--method", "brute", "-i", str(unknot_p1)],
            env={"QTOPO_GUARD": "1000"},
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize("invariant", ["abelian", "dw", "su2k3"])
    @pytest.mark.parametrize("guard", ["0", "-5"])
    def test_check_with_guard_below_one_is_4(self, runner, unknot_p1, invariant, guard):
        # su2k3's exact sum declares no terms, so no guard bounds it: it gives a value instead
        modulus = [] if invariant == "su2k3" else ["--k", "5"]
        result = runner.invoke(
            main, ["check", "--invariant", invariant, *modulus, "-i", str(unknot_p1)],
            env={"QTOPO_GUARD": guard},
        )
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if invariant == "su2k3":
            assert result.exit_code == 0
            assert parse(result)["passed"] and parse(result)["before"] == {"re": 1.0, "im": 0.0}
        else:
            assert result.exit_code == 4
            assert f"guard exceeded: 11 evaluations * 5**1 = 55 terms exceeds guard {guard}" in result.output

    def test_brute_gauss_sum_respects_guard(self, runner):
        result = runner.invoke(main, ["gauss-sum", "--k", "1009", "--a", "1"], env={"QTOPO_GUARD": "100"})
        assert result.exit_code == 4
        assert result.output.startswith("guard exceeded:")
        # the closed form sums no terms, so the guard does not apply to it
        closed = runner.invoke(main, ["gauss-sum", "--k", "1009", "--a", "1", "--method", "closed"],
                               env={"QTOPO_GUARD": "100"})
        assert closed.exit_code == 0
        default = runner.invoke(main, ["gauss-sum", "--k", "1009", "--a", "1"])
        assert default.exit_code == 0
        assert math.isclose(parse(default)["re"], math.sqrt(1009), abs_tol=1e-9)
        assert parse(default) == parse(runner.invoke(main, ["gauss-sum", "--k", "1009", "--a", "1"],
                                                     env={"QTOPO_GUARD": "1009"}))

    def test_brute_gauss_sum_charges_the_k_terms_it_sums(self, runner, monkeypatch):
        declared, summed = [], []
        charge, brute = invariants.charge, cli.gauss_sum_brute

        def spy(terms, formula, guard):
            declared.append(terms)
            charge(terms, formula, guard)

        def counted(k, a):
            summed.append(k)
            return brute(k, a)

        monkeypatch.setattr(invariants, "charge", spy)
        monkeypatch.setattr(cli, "gauss_sum_brute", counted)
        rng = random.Random(30)
        for _ in range(10):
            k, a = rng.randint(2, 300), rng.randint(-50, 50)
            args = ["gauss-sum", "--k", str(k), "--a", str(a)]
            declared.clear(), summed.clear()
            assert runner.invoke(main, args, env={"QTOPO_GUARD": str(k)}).exit_code == 0
            assert declared == summed == [k]
            result = runner.invoke(main, args, env={"QTOPO_GUARD": str(k - 1)})
            assert result.exit_code == 4
            assert result.stderr == f"guard exceeded: 1*{k} = {k} terms exceeds guard {k - 1}\n"

    def test_factorized_abelian_counts_scalar_terms_against_guard(self, runner, hopf_matrix):
        args = ["tau-abelian", "--k", "1009", "-i", str(hopf_matrix)]
        result = runner.invoke(main, args, env={"QTOPO_GUARD": "100"})
        assert result.exit_code == 4
        assert "guard exceeded: 2*1009 = 2018 terms exceeds guard 100" in result.output
        assert runner.invoke(main, args, env={"QTOPO_GUARD": "2017"}).exit_code == 4
        default = runner.invoke(main, args)
        assert default.exit_code == 0
        assert math.isclose(parse(default)["re"], 1009.0, rel_tol=1e-12)
        assert default.output == runner.invoke(main, args, env={"QTOPO_GUARD": "2018"}).output

    @pytest.mark.parametrize("m,diagonal", [(206, 1), (103, 0)], ids=["identity-206", "zero-103"])
    def test_abelian_beyond_float_range_is_4(self, runner, tmp_path, m, diagonal):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"J": [[diagonal * (i == j) for j in range(m)] for i in range(m)]}))
        result = runner.invoke(main, ["tau-abelian", "--k", "1009", "-i", str(path)])
        assert result.exit_code == 4
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "guard exceeded: |value| = 1009**(206/2)" in result.output
        assert "Traceback" not in result.output

    def test_abelian_at_the_float_range_edge_is_0(self, runner, tmp_path):
        # |value| = 1009**(205/2) ~ 7.92e307, just below the largest float
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"J": [[int(i == j) for j in range(205)] for i in range(205)]}))
        result = runner.invoke(main, ["tau-abelian", "--k", "1009", "-i", str(path)])
        assert result.exit_code == 0
        value = complex(parse(result)["re"], parse(result)["im"])
        assert math.isfinite(abs(value))
        assert math.isclose(abs(value), 1009.0**102.5, rel_tol=1e-9)

    @pytest.mark.parametrize("m", [2048, 2050])
    def test_su2k3_beyond_float_range_is_4(self, runner, tmp_path, m):
        # the zero matrix has |value| = 2**(m/2); 2**1024 is the first power of two past the largest float
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"J": [[0] * m for _ in range(m)]}))
        result = runner.invoke(main, ["tau-su2k3", "-i", str(path)])
        assert result.exit_code == 4
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output == f"guard exceeded: |value| = 2**({m}/2) ~ 1e{round(m / 2 * math.log10(2))}" \
                                " is beyond the float range\n"

    @pytest.mark.parametrize("target", ["missing-dir", "under-a-file"])
    @pytest.mark.parametrize(
        "args,input_fixture",
        [
            (["tau-abelian", "--k", "5"], "hopf_matrix"),
            (["tau-su2k3"], "hopf_matrix"),
            (["tau-dw", "--k", "5"], "hopf_matrix"),
            (["gauss-sum", "--k", "5", "--a", "1"], None),
            (["linking-matrix"], "hopf_polylink"),
            (["check", "--invariant", "dw", "--k", "5", "--moves", "3"], "hopf_matrix"),
            # a check that fails (exit 5) writes its report first, so the write failure wins
            pytest.param(["check", "--invariant", "abelian", "--k", "7", "--moves", "3"], "hopf_matrix",
                         marks=pytest.mark.filterwarnings("ignore:k=7 is not 1 mod 4")),
            (["simulate", "--k", "5", "--a", "1"], None),
        ],
        ids=["tau-abelian", "tau-su2k3", "tau-dw", "gauss-sum", "linking-matrix", "check", "check-failing",
             "simulate"],
    )
    def test_unwritable_output_is_2(self, runner, request, tmp_path, args, input_fixture, target):
        (tmp_path / "a-file").write_text("")
        out = tmp_path / ("no-such-dir" if target == "missing-dir" else "a-file") / "out.json"
        if input_fixture is not None:
            args = [*args, "-i", str(request.getfixturevalue(input_fixture))]
        result = runner.invoke(main, [*args, "-o", str(out)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("Error: --output: [Errno ")
        assert str(out) in result.stderr

    def test_missing_input_is_2(self, runner):
        result = runner.invoke(main, ["tau-su2k3", "-i", "no_such_file.json"])
        assert result.exit_code == 2

    def test_unreadable_input_is_2(self, runner, hopf_matrix, monkeypatch):
        # click checks only that the file exists; a read that fails after it names --input
        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "decode_json", denied)
        result = runner.invoke(main, ["tau-su2k3", "-i", str(hopf_matrix)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == f"Error: --input: [Errno 13] Permission denied: {str(hopf_matrix)!r}"

    @pytest.mark.parametrize(
        "data",
        [
            b'{"J": [[0, 1], []]}',
            b'{"components": [{"points": [[NaN,0,0],[1,0,0],[0,1,0]], "offsets": [[0,0,1],[0,0,1],[0,0,1]]}],'
            b' "delta": 0.1}',
            b'{"components": [{"points": [[0,0,0],[1,0,0],[0,1,0]], "offsets": [[0,0,1],[0,0,1],[0,0,1]]}],'
            b' "delta": Infinity}',
            b'{"J": [[\xff]]}',
            b"[" * 100000,
        ],
        ids=["ragged", "nan-point", "infinite-delta", "not-utf8", "deep-nesting"],
    )
    def test_malformed_inputs_are_3(self, runner, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        for args in (["tau-su2k3"], ["tau-dw", "--k", "5"]):
            result = runner.invoke(main, [*args, "-i", str(bad)])
            assert result.exit_code == 3
            assert result.output.startswith("schema error: /")

    @pytest.mark.parametrize("args", [["tau-dw", "--k", "5"], ["tau-su2k3"]])
    def test_entries_beyond_int64_give_a_value(self, runner, tmp_path, args):
        huge = tmp_path / "huge.json"
        huge.write_text('{"J": [[100000000000000000000]]}')
        small = tmp_path / "small.json"
        small.write_text('{"J": [[20]]}')  # congruent mod 4 and mod 5, same signature
        result = runner.invoke(main, [*args, "-i", str(huge)])
        assert result.exit_code == 0
        assert parse(result) == parse(runner.invoke(main, [*args, "-i", str(small)]))


_ENTRIES = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
_MATRIX_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"J": st.lists(st.lists(_ENTRIES, max_size=3), max_size=3)},
        optional={"m": st.one_of(st.integers(min_value=0, max_value=4), _ENTRIES)},
    ),
    # mostly well-formed: a symmetric matrix of plain or huge integers
    st.integers(min_value=0, max_value=3).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=m, max_size=m),
            min_size=m, max_size=m,
        ).map(lambda rows: {"J": [[rows[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]})
    ),
    st.lists(_ENTRIES, max_size=3),
    _ENTRIES,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(doc=_MATRIX_DOCS)
def test_matrix_json_never_gives_a_traceback(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "matrix_doc.json"
    path.write_text(json.dumps(doc))
    runner = CliRunner()
    for args in (["tau-su2k3"], ["tau-dw", "--k", "5"]):
        result = runner.invoke(main, [*args, "-i", str(path)])
        assert result.exit_code in (0, 3, 4), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


_INTS = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([1009, 1021, 2**63, 2**64 + 1, -(2**64) - 1, 10**18 + 3, 3**50, 10**309]),
)
# nan, infinities and subnormals included
_FLOATS = st.one_of(st.floats(), st.floats(min_value=1e-4, max_value=1.0), st.sampled_from([5e-324, 1e-300, 1e-9]))


def _choice(*values):
    return st.sampled_from([*values, "none-of-these"])


# command -> (required options, optional options)
_OPTIONS = {
    "tau-abelian": ({"--k": _INTS}, {"--method": _choice("brute", "factorized")}),
    "tau-su2k3": ({}, {}),
    "tau-dw": ({"--k": _INTS}, {"--range": _choice("paper", "full")}),
    "gauss-sum": ({"--k": _INTS, "--a": _INTS}, {"--method": _choice("brute", "closed")}),
    "linking-matrix": ({}, {}),
    "check": ({"--invariant": _choice("abelian", "su2k3", "dw")},
              {"--k": _INTS, "--range": _choice("paper", "full"), "--moves": _INTS, "--seed": _INTS}),
    "simulate": ({"--k": _INTS, "--a": _INTS}, {"--eps": _FLOATS, "--seed": _INTS}),
}


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    required, optional = _OPTIONS[command]
    options = draw(st.fixed_dictionaries(required, optional=optional))
    args = [command, *(str(x) for item in options.items() for x in item)]
    if command not in ("gauss-sum", "simulate"):
        args += ["-i", draw(st.sampled_from(["hopf.json", "hopf_geom.json", "empty.json"]))]
    if draw(st.booleans()):
        args += ["-o", "out.json"]
    return args


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(args=_invocations(), guard=st.just("10000"))
@example(args=["simulate", "--k", "5", "--a", "1", "--seed", "-1"], guard=None)
@example(args=["simulate", "--k", "5", "--a", "1", "--eps", "1e-9"], guard=None)
@example(args=["simulate", "--k", "5", "--a", "1", "--eps", "1e-300"], guard=None)
@example(args=["check", "--invariant", "dw", "--k", "5", "--moves", "100000000", "-i", "hopf.json"], guard=None)
@example(args=["check", "--invariant", "su2k3", "--moves", "100000000", "-i", "hopf.json"], guard=None)
@example(args=["tau-abelian", "--k", "1000000000000000003", "-i", "hopf.json"], guard=None)
@example(args=["tau-dw", "--k", str(10**309), "-i", "empty.json"], guard=None)
def test_no_option_gives_a_traceback(tmp_path_factory, args, guard):
    base = tmp_path_factory.getbasetemp()
    (base / "hopf.json").write_text(json.dumps({"m": 2, "J": [[0, 1], [1, 0]]}))
    (base / "empty.json").write_text(json.dumps({"J": []}))
    a, b = hopf_pair()
    geometry = PolyLink(components=(a, b), framings=(outward_offsets(a), outward_offsets(b)), delta=0.2)
    (base / "hopf_geom.json").write_text(polylink_json(geometry))
    args = [str(base / arg) if arg.endswith(".json") else arg for arg in args]
    result = CliRunner().invoke(main, args, env={"QTOPO_GUARD": guard})
    assert result.exit_code in (0, 2, 3, 4, 5), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


class TestDeterminism:
    def test_simulate_byte_identical(self, runner):
        args = ["simulate", "--k", "13", "--a", "5", "--eps", "0.05", "--seed", "42"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_check_byte_identical(self, runner, hopf_matrix):
        args = ["check", "--invariant", "su2k3", "--moves", "10", "--seed", "5", "-i", str(hopf_matrix)]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_floats_round_trip(self, runner, unknot_p1):
        result = runner.invoke(main, ["tau-abelian", "--k", "5", "-i", str(unknot_p1)])
        payload = parse(result)
        assert payload["re"] == float(repr(payload["re"]))  # full double precision
