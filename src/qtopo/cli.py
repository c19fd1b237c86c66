"""Command-line front end: JSON link data in, invariant/report JSON out.

Exit codes: 0 success, 2 invalid configuration, 3 input schema or geometry
error, 4 guard exceeded (a path's declared term count is above the guard, or
a value is beyond the float range), 5 property-check failure. The command
group is the one error boundary: it maps every command's schema, geometry
and guard errors to exits 3 and 4.
Invalid configuration includes a negative simulate --seed, a simulate --eps
beyond the int64 shot range (below about 1.8e-9), a check --moves above
10**3, every --k below 2 or from 3.3e24 on, where primality is not proven,
an --a not coprime to k (gauss-sum --method closed and simulate, through
numtheory.require_coprime), and an -o file that cannot be written. Each command runs the library check
its options need (_checked) before it reads the input, so exit 2 wins over
exit 3. Each --k is a numtheory.ModK, and each command states what it needs
of it: check --invariant dw takes every k that tau-dw takes, and check
--invariant su2k3 takes no --k, the one option combination the command
rejects itself. check --range passes invariants.require_range: only dw takes
paper, as the other invariants sum the whole group. check prints one
invariants.KirbyReport, its factorized_vs_brute check included, and exits 5
on the report's verdict.
Identical configuration and seed produce byte-identical output. The
environment variable QTOPO_GUARD overrides the term guard (expert use).
Every term count, check's pre-count of its script included, goes through
invariants.charge, so each exit-4 term message reads "<formula> = <terms>
terms exceeds guard <guard>". dw's paper range counts (k-1)**m terms; its
full range counts m*k at an odd prime power k (the factorized sum, which
never loads numpy) and k**m at any other k, though check's pre-count of a dw
script counts k**m for every full-range evaluation. su2k3 sums no terms, in
tau-su2k3 or check, so no guard bounds it; check's --moves bound does.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import click

from . import invariants, linkgeom, qsim
from .errors import GeometryError, GuardExceeded, SchemaError, decode_json
from .linkalg import FramedLinkMatrix
from .linkgeom import PolyLink
from .numtheory import ModK, gauss_sum_brute, gauss_sum_closed, require_coprime, require_odd_prime

EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_GUARD = 4
EXIT_PROPERTY = 5


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
        try:
            output_path.write_text(text + "\n")
        except OSError as exc:
            raise click.UsageError(f"--output: {exc}")
    click.echo(text)


def _checked(option: str, check, *args):
    """check(*args), a library check on an option's value; its ValueError becomes exit 2 naming the option."""
    try:
        return check(*args)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=f"'{option}'")


_input_opt = click.option(
    "-i", "--input", "input_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
    required=True, help="Linking-matrix or polygonal-link JSON file.",
)
_output_opt = click.option(
    "-o", "--output", "output_path", type=click.Path(dir_okay=False, path_type=Path),
    default=None, help="Also write the JSON result to this file.",
)


class _ErrorBoundary(click.Group):
    """The CLI's one error boundary: every command's library input and guard errors become exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except SchemaError as exc:
            click.echo(f"schema error: {exc}", err=True)
            sys.exit(EXIT_SCHEMA)
        except GeometryError as exc:
            click.echo(f"geometry error: {exc}", err=True)
            sys.exit(EXIT_SCHEMA)
        except GuardExceeded as exc:
            click.echo(f"guard exceeded: {exc}", err=True)
            sys.exit(EXIT_GUARD)


@click.group(cls=_ErrorBoundary)
def main() -> None:
    """Topological invariants of framed links via quadratic Gauss sums."""


@main.command("tau-abelian")
@click.option("--k", type=int, required=True, help="Modulus, an odd prime power.")
@click.option("--method", type=click.Choice(["brute", "factorized"]), default="factorized", show_default=True)
@_input_opt
@_output_opt
def tau_abelian_cmd(k: int, method: str, input_path: Path, output_path: Path | None) -> None:
    """Abelian gauge invariant of the link's 3-manifold."""
    ring = _checked("--k", ModK.from_modulus, k)
    _checked("--k", ModK.require_odd_prime_power, ring)
    guard = _guard_from_env()
    result = invariants.tau_abelian(_load_link(input_path), ring, method=method, guard=guard)
    _emit(result.to_json_dict(), output_path)


@main.command("tau-su2k3")
@_input_opt
@_output_opt
def tau_su2k3_cmd(input_path: Path, output_path: Path | None) -> None:
    """Level-3 SU(2) invariant of the link's 3-manifold."""
    _emit(invariants.tau_su2_k3(_load_link(input_path)).to_json_dict(), output_path)


@main.command("tau-dw")
@click.option("--k", type=int, required=True, help="Order of the cyclic gauge group.")
@click.option("--range", "range_convention", type=click.Choice(["paper", "full"]),
              default="paper", show_default=True, help="Summation range per variable.")
@_input_opt
@_output_opt
def tau_dw_cmd(k: int, range_convention: str, input_path: Path, output_path: Path | None) -> None:
    """Cyclic finite-group invariant of the link's 3-manifold."""
    k = _checked("--k", ModK.from_modulus, k).k
    guard = _guard_from_env()
    result = invariants.tau_dw(_load_link(input_path), k, range_convention=range_convention, guard=guard)
    _emit(result.to_json_dict(), output_path)


@main.command("gauss-sum")
@click.option("--k", type=int, required=True, help="Modulus (odd prime for --method closed).")
@click.option("--a", type=int, required=True, help="Quadratic coefficient.")
@click.option("--method", type=click.Choice(["brute", "closed"]), default="brute", show_default=True)
@_output_opt
def gauss_sum_cmd(k: int, a: int, method: str, output_path: Path | None) -> None:
    """Scalar quadratic Gauss sum G(k, a)."""
    k = _checked("--k", ModK.from_modulus, k).k
    if method == "brute":
        invariants.charge(k, f"1*{k}", _guard_from_env())
        value = gauss_sum_brute(k, a)
    else:
        _checked("--k", require_odd_prime, k)
        _checked("--a", require_coprime, a, k)
        value = gauss_sum_closed(k, a)
    _emit({"k": k, "a": a, "method": method, "re": value.real, "im": value.imag}, output_path)


@main.command("linking-matrix")
@_input_opt
@_output_opt
def linking_matrix_cmd(input_path: Path, output_path: Path | None) -> None:
    """Linking matrix of a polygonal link with framings."""
    link = linkgeom.linking_matrix(PolyLink.from_json_dict(_read_json(input_path)))
    _emit({"m": link.m, "J": [list(row) for row in link.J]}, output_path)


@main.command("check")
@click.option("--invariant", type=click.Choice(["abelian", "su2k3", "dw"]), required=True)
@click.option("--k", type=int, default=None,
              help="Modulus for abelian (an odd prime power) and dw; su2k3 takes none.")
@click.option("--range", "range_convention", type=click.Choice(["paper", "full"]), default="full",
              show_default=True, help="Summation range for dw; abelian and su2k3 sum the whole group (full).")
@click.option("--moves", type=int, default=10, show_default=True, help="Random moves to apply.")
@click.option("--seed", type=int, default=0, show_default=True)
@_input_opt
@_output_opt
def check_cmd(invariant: str, k: int | None, range_convention: str, moves: int, seed: int,
              input_path: Path, output_path: Path | None) -> None:
    """Verify invariance under a random script of framed-link moves.

    For the Abelian invariant the factorized and brute-force evaluations are
    also compared. Exits 5 when any asserted property fails.
    """
    if invariant in ("abelian", "dw") and k is None:
        raise click.UsageError(f"--k is required for --invariant {invariant}")
    if invariant == "su2k3" and k is not None:
        raise click.BadParameter("--invariant su2k3 has the fixed level k=3; leave --k out", param_hint="'--k'")
    _checked("--range", invariants.require_range, invariant, range_convention)
    ring = None if k is None else _checked("--k", ModK.from_modulus, k)
    if invariant == "abelian":
        _checked("--k", ModK.require_odd_prime_power, ring)
    _checked("--moves", invariants.require_random_moves, moves)
    guard = _guard_from_env()
    link = _load_link(input_path)
    report = invariants.check_kirby_invariance(
        link, invariant, moves, seed=seed, ring=ring, range_convention=range_convention, guard=guard,
    )
    if invariant == "abelian":
        brute = report.before  # check_kirby_invariance evaluates the abelian value by brute force
        fact = invariants.tau_abelian(link, ring, method="factorized", guard=guard)
        gap = abs(brute - fact.value) / abs(brute)  # |brute| >= 1 at every odd prime power
        check = invariants.PropertyCheck("factorized_vs_brute", True, gap < 1e-6, gap)
        report = dataclasses.replace(report, checks=(*report.checks, check))
    for check in report.checks:
        status = "RECORDED" if not check.asserted else "PASS" if check.passed else "FAIL"
        click.echo(f"{status} {check.name}: max deviation {check.deviation:.3e}", err=True)
    _emit(report.to_json_dict(), output_path)
    if not report.passed:
        sys.exit(EXIT_PROPERTY)


@main.command("simulate")
@click.option("--k", type=click.IntRange(max=qsim.MAX_DIM), required=True,
              help="Register dimension (odd prime <= 1024).")
@click.option("--a", type=int, required=True, help="Gauss-sum parameter, coprime to k.")
@click.option("--eps", "epsilon", type=float, default=0.05, show_default=True, help="Target phase error.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@_output_opt
def simulate_cmd(k: int, a: int, epsilon: float, seed: int, output_path: Path | None) -> None:
    """Estimate the Gauss-sum phase by simulated interferometric sampling."""
    _checked("--k", require_odd_prime, k)
    _checked("--eps", qsim.sample_schedule, epsilon)
    _checked("--a", require_coprime, a, k)
    _emit(qsim.estimate_report(k, a, epsilon, seed=seed), output_path)


if __name__ == "__main__":
    main()
