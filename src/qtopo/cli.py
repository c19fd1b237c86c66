"""Command-line front end: JSON link data in, invariant/report JSON out.

Exit codes: 0 success, 2 invalid configuration, 3 input schema or geometry
error, 4 guard exceeded (too many terms, or a value beyond the float range),
5 property-check failure. Invalid configuration includes a negative
simulate --seed, a simulate --eps beyond the int64 shot range (below about
1.8e-9), and every --k below 2 or from 3.3e24 on, where primality is not
proven. Each --k is a numtheory.ModK, and each command states what it needs
of it: check --invariant dw takes every k that tau-dw takes. check counts a
random move script's terms against the guard before it builds the script.
Identical configuration and seed produce byte-identical output. The
environment variable QTOPO_GUARD overrides the enumeration guard (expert use).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import click

from . import invariants, linkgeom, qsim
from .errors import GeometryError, GuardExceeded, SchemaError, decode_json
from .linkalg import FramedLinkMatrix
from .linkgeom import PolyLink
from .numtheory import ModK, gauss_sum_brute, gauss_sum_closed, require_odd_prime

EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_GUARD = 4
EXIT_PROPERTY = 5


def _exit_codes(command):
    """The CLI's error boundary: library input and guard errors become exit codes."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except SchemaError as exc:
            click.echo(f"schema error: {exc}", err=True)
            sys.exit(EXIT_SCHEMA)
        except GeometryError as exc:
            click.echo(f"geometry error: {exc}", err=True)
            sys.exit(EXIT_SCHEMA)
        except GuardExceeded as exc:
            click.echo(f"guard exceeded: {exc}", err=True)
            sys.exit(EXIT_GUARD)

    return wrapper


def _guard_from_env() -> int:
    raw = os.environ.get("QTOPO_GUARD")
    if raw is None:
        return invariants.DEFAULT_GUARD
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"QTOPO_GUARD must be an integer, got {raw!r}")


def _read_json(path: Path) -> object:
    try:
        return decode_json(path)
    except OSError as exc:
        raise click.UsageError(f"--input: {exc}")


def _load_link(path: Path) -> FramedLinkMatrix:
    """Read a linking matrix, converting polygonal-link JSON when given."""
    data = _read_json(path)
    if isinstance(data, dict) and "components" in data:
        return linkgeom.linking_matrix(PolyLink.from_json_dict(data))
    return FramedLinkMatrix.from_json_dict(data)


def _emit(payload: dict, output_path: Path | None) -> None:
    text = json.dumps(payload, sort_keys=True)
    if output_path is not None:
        output_path.write_text(text + "\n")
    click.echo(text)


def _checked_by(check):
    """Click callback that runs a library validator on the option's value."""

    def callback(ctx, param, value):
        if value is not None:
            try:
                check(value)
            except ValueError as exc:
                raise click.BadParameter(str(exc), param=param)
        return value

    return callback


def _modulus(k: int, odd_prime_power: bool = False) -> ModK:
    """--k as the one modulus type, checked for what the command needs of it; any other k exits 2."""
    try:
        ring = ModK.from_modulus(k)
        if odd_prime_power:
            ring.require_odd_prime_power()
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--k'")
    return ring


_input_opt = click.option(
    "-i", "--input", "input_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
    required=True, help="Linking-matrix or polygonal-link JSON file.",
)
_output_opt = click.option(
    "-o", "--output", "output_path", type=click.Path(dir_okay=False, path_type=Path),
    default=None, help="Also write the JSON result to this file.",
)


@click.group()
def main() -> None:
    """Topological invariants of framed links via quadratic Gauss sums."""


@main.command("tau-abelian")
@click.option("--k", type=int, required=True, help="Modulus, an odd prime power.")
@click.option("--method", type=click.Choice(["brute", "factorized"]), default="factorized", show_default=True)
@_input_opt
@_output_opt
@_exit_codes
def tau_abelian_cmd(k: int, method: str, input_path: Path, output_path: Path | None) -> None:
    """Abelian gauge invariant of the link's 3-manifold."""
    ring = _modulus(k, odd_prime_power=True)
    guard = _guard_from_env()
    result = invariants.tau_abelian(_load_link(input_path), ring, method=method, guard=guard)
    _emit(result.to_json_dict(), output_path)


@main.command("tau-su2k3")
@_input_opt
@_output_opt
@_exit_codes
def tau_su2k3_cmd(input_path: Path, output_path: Path | None) -> None:
    """Level-3 SU(2) invariant of the link's 3-manifold."""
    guard = _guard_from_env()
    _emit(invariants.tau_su2_k3(_load_link(input_path), guard=guard).to_json_dict(), output_path)


@main.command("tau-dw")
@click.option("--k", type=int, required=True, help="Order of the cyclic gauge group.")
@click.option("--range", "range_convention", type=click.Choice(["paper", "full"]),
              default="paper", show_default=True, help="Summation range per variable.")
@_input_opt
@_output_opt
@_exit_codes
def tau_dw_cmd(k: int, range_convention: str, input_path: Path, output_path: Path | None) -> None:
    """Cyclic finite-group invariant of the link's 3-manifold."""
    k = _modulus(k).k
    guard = _guard_from_env()
    result = invariants.tau_dw(_load_link(input_path), k, range_convention=range_convention, guard=guard)
    _emit(result.to_json_dict(), output_path)


@main.command("gauss-sum")
@click.option("--k", type=int, required=True, help="Modulus (odd prime for --method closed).")
@click.option("--a", type=int, required=True, help="Quadratic coefficient.")
@click.option("--method", type=click.Choice(["brute", "closed"]), default="brute", show_default=True)
@_output_opt
@_exit_codes
def gauss_sum_cmd(k: int, a: int, method: str, output_path: Path | None) -> None:
    """Scalar quadratic Gauss sum G(k, a)."""
    k = _modulus(k).k
    if method == "brute":
        guard = _guard_from_env()
        if k > guard:
            raise GuardExceeded(f"{k} terms exceeds guard {guard}")
    try:
        value = gauss_sum_brute(k, a) if method == "brute" else gauss_sum_closed(k, a)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit({"k": k, "a": a, "method": method, "re": value.real, "im": value.imag}, output_path)


@main.command("linking-matrix")
@_input_opt
@_output_opt
@_exit_codes
def linking_matrix_cmd(input_path: Path, output_path: Path | None) -> None:
    """Linking matrix of a polygonal link with framings."""
    link = linkgeom.linking_matrix(PolyLink.from_json_dict(_read_json(input_path)))
    _emit({"m": link.m, "J": [list(row) for row in link.J]}, output_path)


@main.command("check")
@click.option("--invariant", type=click.Choice(["abelian", "su2k3", "dw"]), required=True)
@click.option("--k", type=int, default=None, help="Modulus for abelian (an odd prime power) and dw.")
@click.option("--range", "range_convention", type=click.Choice(["paper", "full"]), default="full",
              show_default=True, help="Summation range for dw.")
@click.option("--moves", type=int, default=10, show_default=True, help="Random moves to apply.")
@click.option("--seed", type=int, default=0, show_default=True)
@_input_opt
@_output_opt
@_exit_codes
def check_cmd(invariant: str, k: int | None, range_convention: str, moves: int, seed: int,
              input_path: Path, output_path: Path | None) -> None:
    """Verify invariance under a random script of framed-link moves.

    For the Abelian invariant the factorized and brute-force evaluations are
    also compared. Exits 5 when any asserted property fails.
    """
    if invariant in ("abelian", "dw") and k is None:
        raise click.UsageError(f"--k is required for --invariant {invariant}")
    ring = None if k is None else _modulus(k, odd_prime_power=invariant == "abelian")
    guard = _guard_from_env()
    link = _load_link(input_path)
    report = invariants.check_kirby_invariance(
        link, invariant, moves, seed=seed, ring=ring, range_convention=range_convention, guard=guard,
    )
    payload = report.to_json_dict()
    if invariant == "abelian":
        brute = report.before  # check_kirby_invariance evaluates the abelian value by brute force
        fact = invariants.tau_abelian(link, ring, method="factorized", guard=guard)
        gap = abs(brute - fact.value) / max(abs(brute), 1e-30)
        payload["checks"].append({
            "name": "factorized_vs_brute",
            "asserted": True,
            "passed": gap < 1e-6,
            "deviation": gap,
        })
        payload["passed"] = payload["passed"] and gap < 1e-6
    for check in payload["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        if not check["asserted"]:
            status = "RECORDED"
        click.echo(f"{status} {check['name']}: max deviation {check['deviation']:.3e}", err=True)
    _emit(payload, output_path)
    if not payload["passed"]:
        sys.exit(EXIT_PROPERTY)


@main.command("simulate")
@click.option("--k", type=click.IntRange(max=qsim.MAX_DIM), required=True, callback=_checked_by(require_odd_prime),
              help="Register dimension (odd prime <= 1024).")
@click.option("--a", type=int, required=True, help="Gauss-sum parameter, coprime to k.")
@click.option("--eps", "epsilon", type=float, default=0.05, show_default=True,
              callback=_checked_by(qsim.sample_schedule), help="Target phase error.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@_output_opt
@_exit_codes
def simulate_cmd(k: int, a: int, epsilon: float, seed: int, output_path: Path | None) -> None:
    """Estimate the Gauss-sum phase by simulated interferometric sampling."""
    if a % k == 0:
        raise click.BadParameter(f"{a} is not coprime to k={k}", param_hint="'--a'")
    _emit(qsim.estimate_report(k, a, epsilon, seed=seed), output_path)


if __name__ == "__main__":
    main()
