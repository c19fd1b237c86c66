"""Linking matrices of framed links and the moves that preserve the manifold.

A framed link with m components is represented by its symmetric integer
linking matrix: pairwise linking numbers off the diagonal, framings on it.
This module provides the elementary moves on such matrices (stabilization
by a split +-1 unknot and its inverse, handle slides), the exact signature,
and congruence diagonalization modulo an odd prime power.

Matrices are immutable and all functions pure; thread-safe throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import SchemaError
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
        return cls(J=tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def m(self) -> int:
        return len(self.J)

    def to_json(self) -> str:
        return json.dumps({"m": self.m, "J": [list(row) for row in self.J]})

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
        if "m" in data and data["m"] != len(rows):
            raise SchemaError(f"/m: declared {data['m']} but J has {len(rows)} rows")
        return cls(J=tuple(tuple(row) for row in rows))

    @classmethod
    def from_json(cls, text: str) -> "FramedLinkMatrix":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"/: invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class DiagonalizationResult:
    """Unimodular U and residues d with U^T J U = diag(d) modulo k."""

    U: Rows
    d: tuple[int, ...]

    def det(self) -> int:
        """Exact integer determinant of U (must be +-1)."""
        return _det_int([list(row) for row in self.U])


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


def signature(link: FramedLinkMatrix) -> int:
    """Signature of J over the reals: #positive minus #negative eigenvalues.

    Computed by symmetric congruence reduction over exact rationals, so the
    inertia is read off a diagonal form without any floating-point step.
    Zero eigenvalues contribute nothing.
    """
    m = link.m
    a = [[Fraction(x) for x in row] for row in link.J]
    sig = 0
    for t in range(m):
        if a[t][t] == 0:
            pivot = next((i for i in range(t, m) if a[i][i] != 0), None)
            if pivot is None:
                pair = next(
                    ((i, j) for i in range(t, m) for j in range(i + 1, m) if a[i][j] != 0),
                    None,
                )
                if pair is None:
                    break  # remaining block is zero
                i, j = pair
                # row/col i += row/col j turns the zero diagonal into 2*a[i][j]
                for c in range(m):
                    a[i][c] += a[j][c]
                for r in range(m):
                    a[r][i] += a[r][j]
                pivot = i
            if pivot != t:
                a[pivot], a[t] = a[t], a[pivot]
                for r in range(m):
                    a[r][pivot], a[r][t] = a[r][t], a[r][pivot]
        p = a[t][t]
        sig += 1 if p > 0 else -1
        for r in range(t + 1, m):
            f = a[r][t] / p
            if f == 0:
                continue
            for c in range(m):
                a[r][c] -= f * a[t][c]
            for c in range(m):
                a[c][r] -= f * a[c][t]
    return sig


def _det_int(rows: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [row[:] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            pivot = next((r for r in range(t + 1, n) if a[r][t] != 0), None)
            if pivot is None:
                return 0
            a[t], a[pivot] = a[pivot], a[t]
            sign = -sign
        for r in range(t + 1, n):
            for c in range(t + 1, n):
                a[r][c] = (a[r][c] * a[t][t] - a[r][t] * a[t][c]) // prev
            a[r][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def diagonalize_mod_k(link: FramedLinkMatrix, ring: ModK) -> DiagonalizationResult:
    """Diagonalize J by a unimodular congruence modulo k = p**e.

    Symmetric elimination over Z/p**e: repeatedly pick a pivot of minimal
    p-adic valuation in the active block. Diagonal pivots are preferred;
    when every minimal-valuation entry is off-diagonal at (i, j), one slide
    (column/row i += column/row j) first moves the minimal valuation onto
    the diagonal -- the cross term 2*J[i][j] dominates because 2 is a unit
    and both touched diagonal entries have strictly larger valuation. The
    pivot then clears its row and column using the inverse of its unit part.

    Returns an exact integer U with det(U) = +1 and the diagonal residues d;
    U^T J U = diag(d) holds entrywise modulo k.
    """
    m = link.m
    k, p, e = ring.k, ring.p, ring.e
    a = [[x % k for x in row] for row in link.J]
    u = [[1 if r == c else 0 for c in range(m)] for r in range(m)]

    def slide(i: int, j: int) -> None:
        for r in range(m):
            a[r][i] = (a[r][i] + a[r][j]) % k
        for c in range(m):
            a[i][c] = (a[i][c] + a[j][c]) % k
        for r in range(m):
            u[r][i] += u[r][j]

    def swap(i: int, t: int) -> None:
        a[i], a[t] = a[t], a[i]
        for r in range(m):
            a[r][i], a[r][t] = a[r][t], a[r][i]
        for r in range(m):
            u[r][i], u[r][t] = u[r][t], u[r][i]

    for t in range(m):
        vmin = min(ring.valuation(a[r][c]) for r in range(t, m) for c in range(t, m))
        if vmin >= e:
            break  # remaining block vanishes mod k; d entries stay 0
        diag = next((i for i in range(t, m) if ring.valuation(a[i][i]) == vmin), None)
        if diag is None:
            i, j = next(
                (r, c)
                for r in range(t, m)
                for c in range(t, m)
                if r != c and ring.valuation(a[r][c]) == vmin
            )
            slide(i, j)
            diag = i
        if diag != t:
            swap(diag, t)
        piv = a[t][t]
        unit = piv // p**vmin
        inv = pow(unit, -1, p ** (e - vmin))
        for r in range(t + 1, m):
            x = a[r][t]
            if x == 0:
                continue
            c = (x // p**vmin) * inv % p ** (e - vmin)
            for s in range(m):
                a[r][s] = (a[r][s] - c * a[t][s]) % k
            for s in range(m):
                a[s][r] = (a[s][r] - c * a[s][t]) % k
            for s in range(m):
                u[s][r] -= c * u[s][t]

    if _det_int(u) == -1 and m > 0:
        # negating one column fixes the determinant without touching diag(d)
        for r in range(m):
            u[r][m - 1] = -u[r][m - 1]

    d = tuple(a[i][i] % k for i in range(m))
    return DiagonalizationResult(U=tuple(tuple(row) for row in u), d=d)
