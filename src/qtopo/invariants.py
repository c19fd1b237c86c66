"""Three-manifold invariants computed from framed-link matrices.

All three invariants reduce to multivariate quadratic exponential sums over
residues. Each gets a brute-force enumeration path; the Abelian invariant
additionally gets a fast factorized path (congruence-diagonalize the matrix
mod k, multiply scalar Gauss sums) whose agreement with brute force is the
load-bearing correctness check of the whole reduction.

Exponents are always an exact integer residue times an exact rational
multiple of 2*pi; no float enters before the final angle conversion. The
brute sum counts how often each exponent residue occurs, exactly, and
weighs each count by its phase once; only a denominator too large for a
count array falls back to summing phases chunk by chunk, in a fixed order.
Either way results are bit-stable across runs.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
import sys
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .errors import GuardExceeded
from .linkalg import FramedLinkMatrix, blow_down, blow_up, diagonalize_mod_k, handle_slide, signature
from .numtheory import ModK, gauss_sum_brute

DEFAULT_GUARD = 10**8
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_CHUNK = 1 << 18

Method = Literal["brute", "factorized"]


class SumRange(enum.Enum):
    """Summation range per spin variable, as written in each formula."""

    ZERO_TO_KM1 = "0..k-1"
    ONE_TWO = "1..2"
    ONE_TO_KM1 = "1..k-1"

    def bounds(self, k: int) -> tuple[int, int]:
        return {
            SumRange.ZERO_TO_KM1: (0, k - 1),
            SumRange.ONE_TWO: (1, 2),
            SumRange.ONE_TO_KM1: (1, k - 1),
        }[self]


@dataclass(frozen=True)
class InvariantResult:
    """An invariant value with the provenance needed to compare methods.

    normalized is the blow-up-insensitive rescaling value / k**(m/2) for the
    Abelian invariant; the other invariants are already normalized and carry
    normalized == value.
    """

    value: complex
    method: str
    k: int
    m: int
    normalized: complex

    def to_json_dict(self) -> dict:
        return {
            "re": self.value.real,
            "im": self.value.imag,
            "method": self.method,
            "k": self.k,
            "m": self.m,
            "normalized_re": self.normalized.real,
            "normalized_im": self.normalized.imag,
        }


def multivariate_gauss_sum(
    link: FramedLinkMatrix,
    k: int,
    phase_scale: Fraction,
    offset_range: SumRange = SumRange.ZERO_TO_KM1,
    guard: int = DEFAULT_GUARD,
) -> complex:
    """Sum of exp(2*pi*i * phase_scale * n^T J n) over a box of residues.

    phase_scale encodes each invariant's convention (for example -1/k for
    the Abelian partition sum, +1/4 when the written exponent is i*pi/2 per
    unit of the quadratic form, +1/k for the finite-group sum). The range
    enum selects which box each variable runs over.
    """
    if k < 2:
        raise ValueError(f"modulus {k} must be >= 2")
    m = link.m
    lo, hi = offset_range.bounds(k)
    width = hi - lo + 1
    total = width**m
    if total > guard:
        raise GuardExceeded(f"{width}**{m} = {total} terms exceeds guard {guard}")
    if m == 0:
        return 1.0 + 0.0j

    num = phase_scale.numerator
    den = phase_scale.denominator
    if den == 1:
        return complex(total)  # every term is exp(2*pi*i * integer) = 1
    # with num * J and the residues reduced mod den, every intermediate of
    # ((n @ J) % den * n) stays below m * (den - 1)**2, so int64 is exact
    if m * (den - 1) ** 2 >= 2**63:
        raise GuardExceeded(f"modulus {den} is too large for exact int64 phases with m={m}")
    jmat = np.array([[num * x % den for x in row] for row in link.J], dtype=np.int64)
    # meet in the middle: n = (x, y) with x the first m//2 variables, so
    # q = x^T A x + y^T B y + x^T (2C) y (mod den). A block of x rows meets a
    # chunk of y rows in one int64 matmul plus two broadcast additions, every
    # operand reduced mod den first, so no intermediate passes the bound above
    # and a block holds at most _CHUNK values of q. The x half, never larger
    # than the y half, is rebuilt for each y chunk: cheap next to the product.
    mx = m // 2
    a, b, c2 = jmat[:mx, :mx], jmat[mx:, mx:], (2 * jmat[:mx, mx:]) % den
    counts = np.zeros(den, dtype=np.int64) if den <= _CHUNK else None
    acc = 0.0 + 0.0j  # summed phases where a count array would outgrow a chunk
    x_total, y_total = width**mx, width ** (m - mx)
    for y_start in range(0, y_total, _CHUNK):
        y, qy = _half_box(m - mx, y_start, min(y_start + _CHUNK, y_total), lo, width, b, den)
        x_block = max(1, _CHUNK // len(qy))
        for x_start in range(0, x_total, x_block):
            x, qx = _half_box(mx, x_start, min(x_start + x_block, x_total), lo, width, a, den)
            cross = x @ c2
            cross %= den
            q = cross @ y.T
            del x, cross
            q %= den
            q += qx[:, None]
            q += qy
            q %= den
            if counts is not None:
                counts += np.bincount(q.ravel(), minlength=den)
            else:
                q = q * (2.0 * math.pi / den)  # the angles; rebinding frees the residues
                acc += complex(np.cos(q).sum(), np.sin(q, out=q).sum())
            del q
        del y, qy  # free this chunk before the next one is built
    if counts is None:
        return acc
    return complex(counts @ np.exp((2.0j * math.pi / den) * np.arange(den)))


def _half_box(
    h: int, start: int, stop: int, lo: int, width: int, form: np.ndarray, den: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows start..stop-1 of the box [lo, lo + width)**h reduced mod den, and their forms mod den.

    Row t's digits in base width, the first variable most significant, are
    the offsets from lo.
    """
    powers = width ** np.arange(h - 1, -1, -1, dtype=np.int64)
    rows = np.arange(start, stop, dtype=np.int64)[:, None] // powers
    rows %= width
    rows += lo
    rows %= den
    prod = rows @ form
    prod %= den
    prod *= rows
    forms = prod.sum(axis=1)
    forms %= den
    return rows, forms


def tau_abelian(
    link: FramedLinkMatrix,
    ring: ModK,
    method: Method = "factorized",
    guard: int = DEFAULT_GUARD,
) -> InvariantResult:
    """Abelian gauge invariant: the partition sum of the linking form mod an odd prime power k.

    brute sums exp(-2*pi*i * n^T J n / k) over all residue vectors;
    factorized diagonalizes J mod k and multiplies the scalar Gauss sums of
    the diagonal entries. Topological invariance (up to the blow-up modulus
    factor sqrt(k)) holds for k = 1 (mod 4); other moduli get a warning.
    """
    ring.require_odd_prime_power()
    k = ring.k
    if k % 4 != 1:
        warnings.warn(f"k={k} is not 1 mod 4; the Abelian value is not phase-invariant under blow-ups")
    if method == "brute":
        value = multivariate_gauss_sum(link, k, Fraction(-1, k), SumRange.ZERO_TO_KM1, guard)
    elif method == "factorized":
        terms = link.m * k
        if terms > guard:
            raise GuardExceeded(f"{link.m}*{k} = {terms} scalar terms exceeds guard {guard}")
        diag = diagonalize_mod_k(link, ring)
        # |G(p^e, p^v u)| = p^((e + v)/2), with v = e for a zero entry
        half_powers = sum(ring.e + ring.valuation(entry) for entry in diag.d)
        if half_powers * math.log(ring.p) / 2 > _LOG_FLOAT_MAX:
            raise GuardExceeded(
                f"|value| = {ring.p}**({half_powers}/2) ~ 1e{half_powers * math.log10(ring.p) / 2:.0f}"
                " is beyond the float range"
            )
        value = 1.0 + 0.0j
        for entry in diag.d:
            value *= gauss_sum_brute(k, entry)
    else:
        raise ValueError(f"unknown method {method!r}")
    normalized = value / k ** (link.m / 2)
    return InvariantResult(value=value, method=method, k=k, m=link.m, normalized=normalized)


def tau_su2_k3(link: FramedLinkMatrix, guard: int = DEFAULT_GUARD) -> InvariantResult:
    """SU(2) invariant at level 3, as a signed two-valued Gaussian sum.

    2**(-m/2) * exp(-i*pi*sigma/4) * sum over n in {1,2}^m of
    exp(i*pi * n^T J n / 2), with sigma the exact signature of J.
    """
    sig = signature(link)
    core = multivariate_gauss_sum(link, 3, Fraction(1, 4), SumRange.ONE_TWO, guard)
    value = complex(2 ** (-link.m / 2) * np.exp(-0.25j * math.pi * sig) * core)
    return InvariantResult(value=value, method="brute", k=3, m=link.m, normalized=value)


DwRange = Literal["paper", "full"]

_DW_RANGES: dict[str, SumRange] = {
    "paper": SumRange.ONE_TO_KM1,
    "full": SumRange.ZERO_TO_KM1,
}


def tau_dw(
    link: FramedLinkMatrix,
    k: int,
    range_convention: DwRange = "paper",
    guard: int = DEFAULT_GUARD,
) -> InvariantResult:
    """Finite-group (cyclic Z_k) invariant: normalized positive-exponent sum.

    (1/k) * sum of exp(+2*pi*i * n^T J n / k). The written formula excludes
    the zero residue from each variable ("paper"); "full" sums the whole
    group, which is the convention that is exactly handle-slide invariant.
    """
    if range_convention not in _DW_RANGES:
        raise ValueError(f"unknown range convention {range_convention!r}")
    core = multivariate_gauss_sum(link, k, Fraction(1, k), _DW_RANGES[range_convention], guard)
    value = core / k
    return InvariantResult(value=value, method="brute", k=k, m=link.m, normalized=value)


# ---------------------------------------------------------------------------
# Kirby-move scripts and invariance checking

Move = tuple  # ("blow_up", sign) | ("blow_down", index) | ("slide", i, j, sign)


def apply_move(link: FramedLinkMatrix, move: Move) -> FramedLinkMatrix:
    kind = move[0]
    if kind == "blow_up":
        return blow_up(link, move[1])
    if kind == "blow_down":
        return blow_down(link, move[1])
    if kind == "slide":
        return handle_slide(link, move[1], move[2], move[3])
    raise ValueError(f"unknown move {move!r}")


def _splittable(link: FramedLinkMatrix) -> list[int]:
    return [
        i
        for i in range(link.m)
        if link.J[i][i] in (1, -1) and all(link.J[i][j] == 0 for j in range(link.m) if j != i)
    ]


def make_move_script(
    link: FramedLinkMatrix, n_moves: int, seed: int, m_cap: int = 16
) -> list[Move]:
    """Random legal move script; legality tracked against the evolving matrix."""
    rng = random.Random(seed)
    script: list[Move] = []
    cur = link
    for _ in range(n_moves):
        options = []
        if cur.m < m_cap:
            options.append("blow_up")
        if cur.m >= 2:
            options.append("slide")
        removable = _splittable(cur)
        if removable and cur.m >= 1:
            options.append("blow_down")
        if not options:
            break
        kind = rng.choice(options)
        if kind == "blow_up":
            move: Move = ("blow_up", rng.choice((1, -1)))
        elif kind == "blow_down":
            move = ("blow_down", rng.choice(removable))
        else:
            i, j = rng.sample(range(cur.m), 2)
            move = ("slide", i, j, rng.choice((1, -1)))
        script.append(move)
        cur = apply_move(cur, move)
    return script


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    asserted: bool
    passed: bool
    deviation: float


@dataclass(frozen=True)
class KirbyReport:
    invariant: str
    k: int
    script: tuple[Move, ...]
    before: complex
    after: complex
    checks: tuple[PropertyCheck, ...]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.asserted)

    def to_json_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "k": self.k,
            "moves": [list(mv) for mv in self.script],
            "before": {"re": self.before.real, "im": self.before.imag},
            "after": {"re": self.after.real, "im": self.after.imag},
            "checks": [asdict(c) for c in self.checks],
            "notes": list(self.notes),
            "passed": self.passed,
        }


def _phasor_gap(a: complex, b: complex) -> float:
    """Distance between unit phasors; 0 iff the arguments agree mod 2*pi."""
    if abs(a) == 0 or abs(b) == 0:
        return float("nan")
    return abs(a / abs(a) - b / abs(b))


_KIRBY_TOL = 1e-9


def _worst(deviations) -> float:
    """max(0.0, d1, d2, ...): a nan deviation after the 0.0 is dropped, never propagated."""
    return max([0.0, *deviations])


def _su2k3_law(values: list[complex], script: list[Move], k: int, range_convention: DwRange):
    dev = _worst(abs(value - values[0]) for value in values[1:])
    return [PropertyCheck("value_invariance", True, dev < _KIRBY_TOL, dev)], []


def _abelian_law(values: list[complex], script: list[Move], k: int, range_convention: DwRange):
    before = values[0]
    steps = ({"blow_up": 1, "blow_down": -1}.get(move[0], 0) for move in script)
    expected = [abs(before) * k ** (net_blowups / 2) for net_blowups in itertools.accumulate(steps)]
    phase_dev = _worst(_phasor_gap(value, before) for value in values[1:])
    modulus_dev = _worst(abs(abs(value) - mod) / mod for value, mod in zip(values[1:], expected))
    checks = [
        PropertyCheck("phase_invariance", True, phase_dev < _KIRBY_TOL, phase_dev),
        PropertyCheck("modulus_scaling", True, modulus_dev < _KIRBY_TOL, modulus_dev),
    ]
    notes = [] if k % 4 == 1 else [f"k={k} is not 1 mod 4; invariance law not guaranteed"]
    return checks, notes


def _dw_law(values: list[complex], script: list[Move], k: int, range_convention: DwRange):
    slide_devs, notes = [], []
    for move, prev, value in zip(script, values, values[1:]):
        if move[0] == "slide":
            slide_devs.append(abs(value - prev))
        else:
            ratio = value / prev if prev != 0 else complex("nan")
            notes.append(f"{move[0]} changed dw value by factor {ratio:.6g} (recorded, not asserted)")
    dev = _worst(slide_devs)
    asserted = range_convention == "full"
    if not asserted:
        notes.append("paper range excludes zero residues; slide invariance recorded, not asserted")
    return [PropertyCheck("slide_invariance", asserted, dev < _KIRBY_TOL, dev)], notes


# invariant -> (evaluate(link, ring, range_convention, guard), law(values, script, k, range_convention));
# evaluate looks the tau_* function up when called, so a patched one is the one timed
_KIRBY_LAWS = {
    "su2k3": (lambda link, ring, rc, guard: tau_su2_k3(link, guard=guard).value, _su2k3_law),
    "abelian": (lambda link, ring, rc, guard: tau_abelian(link, ring, method="brute", guard=guard).value,
                _abelian_law),
    "dw": (lambda link, ring, rc, guard: tau_dw(link, ring.k, range_convention=rc, guard=guard).value, _dw_law),
}


def check_kirby_invariance(
    link: FramedLinkMatrix,
    invariant: Literal["su2k3", "abelian", "dw"],
    moves: int | Sequence[Move],
    seed: int = 0,
    ring: ModK | None = None,
    range_convention: DwRange = "full",
    guard: int = DEFAULT_GUARD,
) -> KirbyReport:
    """Apply a move script and verify the invariance law of the chosen invariant.

    su2k3: the value is asserted equal after every move. abelian (needs a
    ring with k = 1 mod 4 for the law to hold): the phase is asserted equal
    and the modulus asserted to rescale by sqrt(k) per net blow-up. dw: only
    handle slides are asserted (for the full summation range); blow-up
    behavior is recorded in the notes, not asserted.

    A random script of n moves is counted against the guard before it is
    built, as n + 1 evaluations of the largest sum it could reach.
    """
    if invariant not in _KIRBY_LAWS:
        raise ValueError(f"unknown invariant {invariant!r}")
    evaluate, law = _KIRBY_LAWS[invariant]
    if invariant == "su2k3":
        k = 3
    elif ring is None:
        raise ValueError(f"{invariant} invariance check requires a ring")
    else:
        k = ring.k

    if isinstance(moves, int):
        if invariant == "su2k3":
            m_cap = 16
        elif guard < 1:
            raise GuardExceeded(f"guard {guard} admits no terms")
        else:
            m_cap = max(link.m, int(math.log(min(guard, 10**6), k)))
        # each move changes m by at most one, so no evaluation sums more than width**m_top terms
        width = 2 if invariant == "su2k3" else k
        m_top = max(link.m, min(m_cap, link.m + moves))
        evaluations = max(moves, 0) + 1
        total = evaluations * width**m_top
        if total > guard:
            raise GuardExceeded(f"{evaluations} evaluations * {width}**{m_top} = {total} terms exceeds guard {guard}")
        script = make_move_script(link, moves, seed, m_cap=m_cap)
    else:
        script = list(moves)

    values = [evaluate(link, ring, range_convention, guard)]
    cur = link
    for move in script:
        cur = apply_move(cur, move)
        values.append(evaluate(cur, ring, range_convention, guard))
    checks, notes = law(values, script, k, range_convention)
    return KirbyReport(invariant=invariant, k=k, script=tuple(script), before=values[0], after=values[-1],
                       checks=tuple(checks), notes=tuple(notes))
