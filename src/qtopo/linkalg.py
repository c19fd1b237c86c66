"""Linking matrices of framed links and the moves that preserve the manifold.

A framed link with m components is represented by its symmetric integer
linking matrix: pairwise linking numbers off the diagonal, framings on it.
This module provides the elementary moves on such matrices (stabilization
by a split +-1 unknot and its inverse, handle slides), the exact signature
and congruence diagonalization modulo an odd prime power. The last two share
_reduce_symmetric (pivot search, slide, swap, det U = +1 on the rows of U
under J) and one step, a Schur update: each later row r becomes row r -
c_r * pivot row on and above the diagonal, mirrored below. Only c_r and the
arithmetic depend on the ring: fraction-free Bareiss over the integers, unit
pivots over Z/p**e.

Matrices are immutable and all functions pure; thread-safe throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import SchemaError, decode_json
from .numtheory import ModK

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FramedLinkMatrix:
    """Symmetric m x m integer matrix of linking numbers and framings."""

    J: Rows

    def __post_init__(self) -> None:
        """The one matrix validator; errors name the field as a JSON pointer."""
        m = len(self.J)
        for i, row in enumerate(self.J):
            if len(row) != m:
                raise SchemaError(f"/J/{i}: row length {len(row)} != {m}")
        for i, row in enumerate(self.J):
            for j, entry in enumerate(row):
                if not isinstance(entry, int) or isinstance(entry, bool):
                    raise SchemaError(f"/J/{i}/{j}: not an integer")
                if self.J[j][i] != entry:
                    raise SchemaError(f"/J/{i}/{j}: matrix is not symmetric")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "FramedLinkMatrix":
        """The one constructor: rows go to the validator as they are, so a float, string or bool entry is rejected."""
        return cls(J=tuple(tuple(row) for row in rows))

    @property
    def m(self) -> int:
        return len(self.J)

    @classmethod
    def from_json_dict(cls, data: object) -> "FramedLinkMatrix":
        """Parse and validate the {"m": int, "J": [[int,...],...]} schema."""
        if not isinstance(data, dict):
            raise SchemaError("/: expected a JSON object")
        if "J" not in data:
            raise SchemaError("/J: missing")
        rows = data["J"]
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise SchemaError("/J: expected a list of rows")
        if "m" in data:
            if not isinstance(data["m"], int) or isinstance(data["m"], bool):
                raise SchemaError("/m: expected an integer")
            if data["m"] != len(rows):
                raise SchemaError(f"/m: declared {data['m']} but J has {len(rows)} rows")
        return cls.from_rows(rows)

    @classmethod
    def from_json(cls, text: str) -> "FramedLinkMatrix":
        return cls.from_json_dict(decode_json(text))


@dataclass(frozen=True)
class DiagonalizationResult:
    """Unimodular U and residues d with U^T J U = diag(d) modulo k."""

    U: Rows
    d: tuple[int, ...]


def blow_up(link: FramedLinkMatrix, sign: int) -> FramedLinkMatrix:
    """Add a split unknot with framing +-1: block sum J (+) (sign)."""
    if sign not in (1, -1):
        raise ValueError(f"framing sign must be +1 or -1, got {sign}")
    m = link.m
    rows = [list(row) + [0] for row in link.J]
    rows.append([0] * m + [sign])
    return FramedLinkMatrix.from_rows(rows)


def blow_down(link: FramedLinkMatrix, i: int) -> FramedLinkMatrix:
    """Remove component i, which must be a split unknot with framing +-1."""
    m = link.m
    if not 0 <= i < m:
        raise ValueError(f"component {i} out of range for m={m}")
    if link.J[i][i] not in (1, -1):
        raise ValueError(f"component {i} has framing {link.J[i][i]}, expected +-1")
    if any(link.J[i][j] != 0 for j in range(m) if j != i):
        raise ValueError(f"component {i} is linked with others; cannot remove")
    rows = [
        [link.J[r][c] for c in range(m) if c != i]
        for r in range(m)
        if r != i
    ]
    return FramedLinkMatrix.from_rows(rows)


def handle_slide(link: FramedLinkMatrix, i: int, j: int, sign: int) -> FramedLinkMatrix:
    """Slide component i over component j: congruence by E = I + sign*e_j e_i^T."""
    m = link.m
    if i == j:
        raise ValueError("cannot slide a component over itself")
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"indices ({i},{j}) out of range for m={m}")
    if sign not in (1, -1):
        raise ValueError(f"slide sign must be +1 or -1, got {sign}")
    rows = [list(row) for row in link.J]
    for r in range(m):
        rows[r][i] += sign * rows[r][j]
    for c in range(m):
        rows[i][c] += sign * rows[j][c]
    return FramedLinkMatrix.from_rows(rows)


def _reduce_symmetric(
    a: list[list[int]],
    valuation: Callable[[int], int],
    cap: int,
    eliminate: Callable[[int, int], None],
) -> None:
    """Symmetric elimination driver shared by every ring, on the tableau [J; U].

    The first m = len(a[0]) rows of a are J; any rows below are the rows of U,
    which take every column operation. At step t the pivot is an entry of
    minimal valuation v in the active block a[t:m, t:]; the loop stops once v
    reaches cap (the block vanishes). Diagonal pivots are preferred; when
    every minimal-valuation entry is off-diagonal at (i, j), one slide
    (column/row i += column/row j) moves it onto the diagonal as
    a[i][i] + 2*a[i][j] + a[j][j], where the cross term dominates because both
    diagonal entries have strictly larger valuation and 2 is a unit. The pivot
    is swapped to t, then eliminate(t, v) updates the block after it.
    Contract: this loop reads only the active block and no step reads a row or
    column before its pivot, so none is cleared and entries outside the block
    go stale. Each swap negates det U, so after an odd number the last column
    of U is negated: det U = +1, and diag(U^T J U) is unchanged. A diagonal
    unit (valuation 0, the least there is; cap >= 1) is the first pivot the
    full scan would take, so the block is scanned only without one.
    """
    m = len(a[0]) if a else 0
    odd = False
    for t in range(m):
        vmin = 0
        diag = next((i for i in range(t, m) if valuation(a[i][i]) == 0), None)
        if diag is None:
            vmin = min(valuation(a[r][c]) for r in range(t, m) for c in range(t, m))
            if vmin >= cap:
                break
            diag = next((i for i in range(t, m) if valuation(a[i][i]) == vmin), None)
        if diag is None:
            i, j = next(
                (r, c)
                for r in range(t, m)
                for c in range(t, m)
                if r != c and valuation(a[r][c]) == vmin
            )
            for row in a:
                row[i] += row[j]
            for c in range(m):
                a[i][c] += a[j][c]
            diag = i
        if diag != t:
            a[diag], a[t] = a[t], a[diag]
            for row in a:
                row[diag], row[t] = row[t], row[diag]
            odd = not odd
        eliminate(t, vmin)
    if odd:
        for row in a[m:]:
            row[m - 1] = -row[m - 1]


def signature(link: FramedLinkMatrix) -> int:
    """Signature of J over the reals: #positive minus #negative eigenvalues.

    Computed by fraction-free symmetric (Bareiss) elimination over the
    integers: the t-th pivot is the leading principal minor D_(t+1) of a
    congruent matrix, so the t-th diagonal entry of its LDL^T form has the
    sign of D_(t+1) * D_t. No floating-point step; zero eigenvalues
    contribute nothing.
    """
    m = link.m
    a = [list(row) for row in link.J]
    prev, sig = 1, 0

    def bareiss(t: int, _v: int) -> None:
        # Sylvester's identity makes every division exact
        nonlocal prev, sig
        p, pivot_row = a[t][t], a[t]
        sig += 1 if (p > 0) == (prev > 0) else -1
        for r in range(t + 1, m):
            row, f = a[r], a[r][t]
            for c in range(r, m):
                row[c] = a[c][r] = (p * row[c] - f * pivot_row[c]) // prev
        prev = p

    _reduce_symmetric(a, lambda x: 0 if x else 1, 1, bareiss)
    return sig


def diagonalize_mod_k(link: FramedLinkMatrix, ring: ModK) -> DiagonalizationResult:
    """Diagonalize J by a unimodular congruence modulo k = p**e, p an odd prime (else ValueError).

    Symmetric elimination over Z/p**e with pivots of minimal p-adic
    valuation on the tableau [J mod k; I]; each pivot clears its row and
    column using the inverse of its unit part, and the rows under J become U.

    Returns an exact integer U with det(U) = +1 and the diagonal residues d;
    U^T J U = diag(d) holds entrywise modulo k.
    """
    ring.require_odd_prime_power()
    m = link.m
    k, p, e = ring.k, ring.p, ring.e
    a = [[x % k for x in row] for row in link.J] + [[int(r == c) for c in range(m)] for r in range(m)]
    u = a[m:]  # the driver swaps only J's rows, so these stay the rows of U

    def eliminate(t: int, vmin: int) -> None:
        # a slide may leave entries at or above k; every result below depends only on residues mod k
        pivot_row, inv = a[t], pow(a[t][t] // p**vmin, -1, p ** (e - vmin))
        for r in range(t + 1, m):
            row, x = a[r], pivot_row[r]
            if x == 0:
                continue
            c = (x // p**vmin) * inv % p ** (e - vmin)
            for s in range(r, m):
                row[s] = a[s][r] = (row[s] - c * pivot_row[s]) % k
            for urow in u:
                urow[r] -= c * urow[t]

    _reduce_symmetric(a, ring.valuation, e, eliminate)
    return DiagonalizationResult(U=tuple(tuple(row) for row in u), d=tuple(a[i][i] % k for i in range(m)))
