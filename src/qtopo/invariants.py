"""Three-manifold invariants computed from framed-link matrices.

All three invariants reduce to multivariate quadratic exponential sums over
residues. The Abelian and finite-group invariants get a brute-force
enumeration path. At an odd prime power k, the Abelian invariant and the
finite-group invariant over the whole group share a fast factorized path
(congruence-diagonalize the matrix mod k, multiply scalar Gauss sums), whose
agreement with brute force is the load-bearing correctness check of the
whole reduction. The level-3 SU(2) invariant is a Z/4-valued quadratic
form summed over (Z/2)^m, which variable elimination evaluates exactly in
O(m**3) integer operations; the brute sum stays its test oracle.

Exponents are always an exact integer residue times an exact rational
multiple of 2*pi; no float enters before the final angle conversion. The
brute sum counts how often each exponent residue occurs, exactly, and
weighs each count by its phase once; only a denominator too large for a
count array falls back to summing phases chunk by chunk, in a fixed order.
Either way results are bit-stable across runs.

numpy is imported on first array use, inside the functions that build
arrays (the brute sum), so the factorized paths and tau_su2_k3 never load it.
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
from typing import TYPE_CHECKING, Literal, Sequence

from .errors import GuardExceeded
from .linkalg import FramedLinkMatrix, blow_down, blow_up, diagonalize_mod_k, handle_slide, signature
from .numtheory import ModK, gauss_sum_brute

if TYPE_CHECKING:
    import numpy as np

DEFAULT_GUARD = 10**8
MAX_RANDOM_MOVES = 10**3
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_CHUNK = 1 << 18

Method = Literal["brute", "factorized"]


class SumRange(enum.Enum):
    """Summation range per variable, valued by the CLI's --range words.

    "full" is the whole group 0..k-1; "paper" is the nonzero residues 1..k-1,
    as the dw formula is written.
    """

    ZERO_TO_KM1 = "full"
    ONE_TO_KM1 = "paper"

    def bounds(self, k: int) -> tuple[int, int]:
        return (0 if self is SumRange.ZERO_TO_KM1 else 1, k - 1)

    def width(self, k: int) -> int:
        lo, hi = self.bounds(k)
        return hi - lo + 1


def charge(terms: int, formula: str, guard: int) -> None:
    """The one term-count guard: every path that sums terms declares their count and its formula here first."""
    if terms > guard:
        raise GuardExceeded(f"{formula} = {terms} terms exceeds guard {guard}")


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
    unit of the quadratic form, +1/k for the finite-group sum). offset_range
    is the box each variable runs over: the whole group Z/k, or 1..k-1.
    """
    if k < 2:
        raise ValueError(f"modulus {k} must be >= 2")
    m = link.m
    lo, width = offset_range.bounds(k)[0], offset_range.width(k)
    charge(width**m, f"{width}**{m}", guard)
    if m == 0:
        return 1.0 + 0.0j

    import numpy as np

    num = phase_scale.numerator
    den = phase_scale.denominator
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
    import numpy as np

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


def _factorized_sum(link: FramedLinkMatrix, ring: ModK, guard: int) -> complex:
    """The sum of exp(-2*pi*i * n^T J n / k) over (Z/k)^m at an odd prime power k, in m*k terms.

    J is congruence-diagonalized mod k (Murakami, Ohtsuki and Okada, Osaka
    J. Math. 29, 1992), so the sum is the product of the scalar Gauss sums
    of the diagonal entries, each summed by brute force.
    """
    k = ring.k
    charge(link.m * k, f"{link.m}*{k}", guard)
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
    return value


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
    factor sqrt(k)) holds for k = 1 (mod 4); other moduli get a warning
    after the value, so a call that raises does not warn. (The brute sum may
    import numpy, which resets the record of warnings shown: a warning issued
    before it would print twice.)
    """
    ring.require_odd_prime_power()
    k = ring.k
    if method == "brute":
        value = multivariate_gauss_sum(link, k, Fraction(-1, k), SumRange.ZERO_TO_KM1, guard)
    elif method == "factorized":
        value = _factorized_sum(link, ring, guard)
    else:
        raise ValueError(f"unknown method {method!r}")
    if k % 4 != 1:
        warnings.warn(f"k={k} is not 1 mod 4; the Abelian value is not phase-invariant under blow-ups")
    normalized = value / k ** (link.m / 2)
    return InvariantResult(value=value, method=method, k=k, m=link.m, normalized=normalized)


def _z2_gauss_sum(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """S(J) = sum over x in {0,1}^m of i**(x^T J x), exactly, as the Gaussian integer (re, im).

    With x_i**2 = x_i, x^T J x = sum J_ii x_i + 2 sum_{i<j} J_ij x_i x_j, which
    reads only J_ii mod 4 and J_ij mod 2. As in linkalg._reduce_symmetric, an
    odd diagonal is the first pivot. Summing out x_p, with a its odd diagonal
    and L the parity of its odd partners, gives (1 + i**a) i**(-a L); -a L
    re-enters the form through the exact lift sum y - 2 sum_{s<t} y_s y_t of
    parity(sum y).
    With every diagonal even, x_p (diagonal 2a) and an odd partner x_q
    (diagonal 2b) go together: with L_p and L_q the parities of their other
    partners, they give 2 (-1)**((a + L_p)(b + L_q)). Each step updates the
    later rows by O(m) whole-row XORs: O(m**3) bit operations in all. F_2 keeps
    these bitmask rows: _reduce_symmetric works on lists and has no 2x2 pivot,
    and it would spend O(m**2) Python-int updates on each pivot.
    """
    m = len(rows)
    diag = [rows[i][i] % 4 for i in range(m)]
    odd = [sum(1 << j for j, entry in enumerate(row) if entry % 2) & ~(1 << i) for i, row in enumerate(rows)]
    odd_diag = sum(1 << i for i in range(m) if diag[i] % 2)
    live = (1 << m) - 1
    twos = tilts = turn = 0  # S = 2**twos * (1 + i)**tilts * i**turn

    def members(mask: int) -> list[int]:
        return [j for j in range(m) if mask >> j & 1]

    while live:
        pick = odd_diag & live or live
        p = (pick & -pick).bit_length() - 1
        live ^= 1 << p
        d, partners = diag[p], odd[p] & live
        if d % 2:
            tilts += 1
            turn += 3 * (d == 3)  # 1 - i = -i (1 + i)
            odd_diag ^= partners
            for j in members(partners):  # add -d L = -d sum y + 2d sum_{s<t} y_s y_t, d odd
                diag[j] = (diag[j] - d) % 4
                odd[j] ^= partners ^ (1 << j)
        elif not partners:
            if d == 2:  # 1 + i**2 = 0
                return 0, 0
            twos += 1
        else:
            q = (partners & -partners).bit_length() - 1
            live ^= 1 << q
            a, b = d // 2, diag[q] // 2
            rest_p, rest_q = partners ^ (1 << q), odd[q] & live
            twos, turn = twos + 1, turn + 2 * a * b
            # (-1)**(a b + a L_q + b L_p + L_p L_q): 2b on rest_p, 2a on rest_q, 2 y_s y_t for s, t split between them
            for j in members(rest_p | rest_q):
                j_p, j_q = rest_p >> j & 1, rest_q >> j & 1
                diag[j] = (diag[j] + 2 * (b * j_p + a * j_q + j_p * j_q)) % 4
                odd[j] ^= (rest_q if j_p else 0) ^ (rest_p if j_q else 0)  # never bit j: j_p j_q + j_q j_p
    # (1 + i)**2 = 2i
    twos, turn = twos + tilts // 2, (turn + tilts // 2) % 4
    re, im = (1, tilts % 2)
    for _ in range(turn):
        re, im = -im, re
    return re << twos, im << twos


def tau_su2_k3(link: FramedLinkMatrix) -> InvariantResult:
    """SU(2) invariant at level 3, as a signed two-valued Gaussian sum.

    2**(-m/2) * exp(-i*pi*sigma/4) * sum over n in {1,2}^m of
    exp(i*pi * n^T J n / 2), with sigma the exact signature of J.
    i**(n^T J n) depends only on n mod 2, so the sum is the group sum S(J)
    over (Z/2)^m, which _z2_gauss_sum evaluates exactly in O(m**3); no term
    is summed, so no guard applies. With s = sigma mod 8,
    exp(-i*pi*sigma/4) = ((1 - i) / sqrt(2))**s, so the value is the
    Gaussian integer S * (1 - i)**s over 2**((m + s)/2), converted to floats
    once. |value| is 0 or 2**(z/2) for an integer z; a z of 2048 or more is
    beyond the float range and raises GuardExceeded.
    """
    re, im = _z2_gauss_sum(link.J)
    m, s = link.m, signature(link) % 8
    z = (re * re + im * im).bit_length() - 1 - m  # |S|**2 = 2**(m + z) or 0
    if z >= 2 * sys.float_info.max_exp:
        raise GuardExceeded(f"|value| = 2**({z}/2) ~ 1e{z * math.log10(2) / 2:.0f} is beyond the float range")
    for _ in range(s):
        re, im = re + im, im - re  # times 1 - i
    # each exact division leaves a component of at most 2**((z - 1)/2) for odd m + s, so nothing overflows
    half = (m + s + 1) // 2
    value = complex(re / 2**half, im / 2**half)
    if (m + s) % 2:
        value *= math.sqrt(2)
    return InvariantResult(value=value, method="exact", k=3, m=link.m, normalized=value)


def tau_dw(
    link: FramedLinkMatrix,
    k: int,
    range_convention: str = "paper",
    guard: int = DEFAULT_GUARD,
) -> InvariantResult:
    """Finite-group (cyclic Z_k) invariant: normalized positive-exponent sum.

    (1/k) * sum of exp(+2*pi*i * n^T J n / k). The written formula excludes
    the zero residue from each variable ("paper"); "full" sums the whole
    group, which is the convention that is exactly handle-slide invariant.
    At an odd prime power k the full sum is the conjugate of the factorized
    Abelian sum, m*k terms ("factorized"); the paper range and every other k
    sum the box by brute force ("brute").
    """
    offset_range = SumRange(range_convention)  # a ValueError for any other word
    ring = ModK.from_modulus(k)  # the range every modulus has: a k beyond the float range would overflow core / k
    if offset_range is SumRange.ZERO_TO_KM1 and ring.p > 2:
        g = _factorized_sum(link, ring, guard)  # the sum with the negative exponent
        # its conjugate, with an exact 0 kept as +0.0, the sign the brute sum gives it
        method, core = "factorized", complex(g.real, 0.0 - g.imag)
    else:
        method, core = "brute", multivariate_gauss_sum(link, k, Fraction(1, k), offset_range, guard)
    value = core / k
    return InvariantResult(value=value, method=method, k=k, m=link.m, normalized=value)


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


def require_random_moves(moves: int) -> int:
    """moves, if a random script may be that long. The guard counts terms, and su2k3's exact evaluation or a box of
    width 1 sums at most one, so the script's own length is bounded too."""
    if moves > MAX_RANDOM_MOVES:
        raise ValueError(f"a random script has at most {MAX_RANDOM_MOVES} moves, got {moves}")
    return moves


def _random_move(rng: random.Random, cur: FramedLinkMatrix, m_cap: int) -> Move | None:
    """A random move that is legal on cur, or None when no move is."""
    # a blow-down removes a +-1-framed component that links no other
    removable = [i for i in range(cur.m)
                 if cur.J[i][i] in (1, -1) and all(cur.J[i][j] == 0 for j in range(cur.m) if j != i)]
    options = [kind for kind, legal in (("blow_up", cur.m < m_cap), ("slide", cur.m >= 2), ("blow_down", removable))
               if legal]
    if not options:
        return None
    kind = rng.choice(options)
    if kind == "blow_up":
        return ("blow_up", rng.choice((1, -1)))
    if kind == "blow_down":
        return ("blow_down", rng.choice(removable))
    i, j = rng.sample(range(cur.m), 2)
    return ("slide", i, j, rng.choice((1, -1)))


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


def _su2k3_law(values: list[complex], script: list[Move], k: int, range_convention: str):
    dev = _worst(abs(value - values[0]) for value in values[1:])
    return [PropertyCheck("value_invariance", True, dev < _KIRBY_TOL, dev)], []


def _abelian_law(values: list[complex], script: list[Move], k: int, range_convention: str):
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


def _dw_law(values: list[complex], script: list[Move], k: int, range_convention: str):
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


# invariant -> (evaluate(link, ring, range_convention, guard), law(values, script, k, range_convention),
#               level, the k of an exact path that sums no terms, or None for ring.k and a count of the range's
#               brute box); evaluate looks the tau_* function up when called, so a patched one is the one timed
_KIRBY_LAWS = {
    "su2k3": (lambda link, ring, rc, guard: tau_su2_k3(link).value, _su2k3_law, 3),
    "abelian": (lambda link, ring, rc, guard: tau_abelian(link, ring, method="brute", guard=guard).value,
                _abelian_law, None),
    "dw": (lambda link, ring, rc, guard: tau_dw(link, ring.k, range_convention=rc, guard=guard).value, _dw_law,
           None),
}


def require_range(invariant: str, range_convention: str) -> SumRange:
    """The SumRange a Kirby check sums over: any SumRange word for dw, "full" for the others (else ValueError)."""
    offset_range = SumRange(range_convention)  # a ValueError for any other word
    if offset_range is not SumRange.ZERO_TO_KM1 and invariant != "dw":
        raise ValueError(f"{invariant} sums the whole group; the paper range is for dw only")
    return offset_range


def check_kirby_invariance(
    link: FramedLinkMatrix,
    invariant: Literal["su2k3", "abelian", "dw"],
    moves: int | Sequence[Move],
    seed: int = 0,
    ring: ModK | None = None,
    range_convention: str = "full",
    guard: int = DEFAULT_GUARD,
) -> KirbyReport:
    """Apply a move script, evaluating after each move, and verify the invariance law of the chosen invariant.

    su2k3: the value is asserted equal after every move. abelian (needs a
    ring with k = 1 mod 4 for the law to hold): the phase is asserted equal
    and the modulus asserted to rescale by sqrt(k) per net blow-up. dw: only
    handle slides are asserted (for the full summation range); blow-up
    behavior is recorded in the notes, not asserted. range_convention must
    pass require_range.

    moves is a script or a count n of at most MAX_RANDOM_MOVES
    (require_random_moves). A random script draws each move from
    random.Random(seed), legal on the current matrix, and ends early when
    none is. Blow-ups stop at m_cap components: the largest m with
    width**m <= min(guard, 10**6), if above the input's m, width being that
    of the box a brute evaluation sums (k, or k-1 for dw's paper range), or
    16 where the box has width 1 or, as for su2k3's exact sum, none. dw's
    full range is counted as that box even where tau_dw sums it in m*k
    terms, at an odd prime power. Before the first draw, charge counts the
    script as n + 1 evaluations of the largest box it can reach, in the one
    message form; su2k3 is never counted against the guard, so only
    MAX_RANDOM_MOVES bounds its script.
    """
    if invariant not in _KIRBY_LAWS:
        raise ValueError(f"unknown invariant {invariant!r}")
    offset_range = require_range(invariant, range_convention)
    evaluate, law, level = _KIRBY_LAWS[invariant]
    if level is None and ring is None:
        raise ValueError(f"{invariant} invariance check requires a ring")
    k = level or ring.k
    width = None if level else offset_range.width(k)

    rng = None
    if isinstance(moves, int):
        require_random_moves(moves)
        if width in (None, 1):
            m_cap = 16
        else:
            budget = min(guard, 10**6)
            m_cap = max(link.m, next(m for m in itertools.count() if width ** (m + 1) > budget))
        if width is not None:
            # each move changes m by at most one, so no evaluation sums more than width**m_top terms
            m_top = max(link.m, min(m_cap, link.m + moves))
            evaluations = max(moves, 0) + 1
            charge(evaluations * width**m_top, f"{evaluations} evaluations * {width}**{m_top}", guard)
        rng = random.Random(seed)

    script: list[Move] = []
    values = [evaluate(link, ring, range_convention, guard)]
    cur = link
    for step in range(len(moves) if rng is None else moves):
        move = moves[step] if rng is None else _random_move(rng, cur, m_cap)
        if move is None:  # no move is legal
            break
        cur = apply_move(cur, move)
        script.append(move)
        values.append(evaluate(cur, ring, range_convention, guard))
    checks, notes = law(values, script, k, range_convention)
    return KirbyReport(invariant=invariant, k=k, script=tuple(script), before=values[0], after=values[-1],
                       checks=tuple(checks), notes=tuple(notes))
