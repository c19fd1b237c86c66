"""Linking numbers of polygonal curves in R^3 and framed linking matrices.

The pairwise linking number of two disjoint closed polygonal curves is the
Gauss double integral, evaluated exactly as a sum of signed solid angles:
for each pair of segments, the image of the direction map (x - y)/|x - y|
is a geodesic quadrilateral on the unit sphere whose signed area is the
segment pair's contribution. No quadrature step size is involved; the only
numerical error is rounding, and the pre-rounding residual is checked.

Self-linking of a framed curve is the linking number with its push-off
C + delta * offsets, required to be stable under halving delta twice.

Linking numbers do not change under translation or a positive scaling, so
both linking_matrix and linking_number first centre the curves' bounding
box at the origin and scale its longest side to 1 (delta alike). The
tolerances below are therefore relative to the curves' extent, and no
coordinate can overflow in the checks at any scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, SchemaError, decode_json
from .linkalg import FramedLinkMatrix

# Floor on segment separation, relative to the extent of the curves checked;
# below it the direction map is numerically meaningless and the curves may as
# well intersect.
MIN_SEPARATION = 1e-9

# Pre-rounding distance to the nearest integer that we accept as exact.
RESIDUAL_TOL = 1e-6

Curve = np.ndarray  # (n, 3) float array, vertices of a closed polygon


def _is_number(x: object) -> bool:
    """Whether x is a JSON number that converts to a float without overflow."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, float) or abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class PolyLink:
    """Closed polygonal curves with per-vertex framing offset directions."""

    components: tuple[Curve, ...]
    framings: tuple[Curve, ...]
    delta: float

    def __post_init__(self) -> None:
        """The one link validator; errors name the field as a JSON pointer."""
        if len(self.components) != len(self.framings):
            raise ValueError("one framing offset field required per component")
        for idx, (curve, offs) in enumerate(zip(self.components, self.framings)):
            if curve.shape[0] < 3:
                raise SchemaError(f"/components/{idx}/points: expected >=3 [x,y,z] triples")
            if curve.shape != offs.shape:
                raise SchemaError(f"/components/{idx}/offsets: shape {offs.shape} != points shape {curve.shape}")
            for key, arr in (("points", curve), ("offsets", offs)):
                if not np.isfinite(arr).all():
                    raise SchemaError(f"/components/{idx}/{key}: coordinates must be finite")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise SchemaError(f"/delta: expected a positive finite number, got {self.delta}")

    @classmethod
    def from_json_dict(cls, data: object) -> "PolyLink":
        """Check the JSON types of the polygonal-link schema; the values are checked on construction."""
        if not isinstance(data, dict):
            raise SchemaError("/: expected a JSON object")
        if "components" not in data:
            raise SchemaError("/components: missing")
        if not isinstance(data["components"], list):
            raise SchemaError("/components: expected a list")
        comps = []
        offs = []
        for i, comp in enumerate(data["components"]):
            if not isinstance(comp, dict):
                raise SchemaError(f"/components/{i}: expected an object")
            for key, arrays in (("points", comps), ("offsets", offs)):
                if key not in comp:
                    raise SchemaError(f"/components/{i}/{key}: missing")
                rows = comp[key]
                if not isinstance(rows, list) or any(
                    not isinstance(pt, list) or len(pt) != 3 or not all(map(_is_number, pt)) for pt in rows
                ):
                    raise SchemaError(f"/components/{i}/{key}: expected [x,y,z] triples")
                arrays.append(np.array(rows, dtype=float))
        delta = data.get("delta")
        if not _is_number(delta):
            raise SchemaError("/delta: expected a positive number")
        return cls(components=tuple(comps), framings=tuple(offs), delta=float(delta))

    @classmethod
    def from_json(cls, text: str) -> "PolyLink":
        return cls.from_json_dict(decode_json(text))


def _normalized(curves: list[Curve], delta: float = 1.0) -> tuple[list[Curve], float]:
    """The curves with their bounding box centred at the origin and its longest side 1, and delta scaled alike."""
    pts = np.concatenate(curves)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    half = float((hi / 2 - lo / 2).max())  # halves first, as hi - lo can overflow
    if not 0.0 < half < math.inf:
        raise GeometryError(f"the curves' extent {2 * half} is not a positive finite length")
    centre = lo / 2 + hi / 2
    return [(np.asarray(c, dtype=float) - centre) / half / 2 for c in curves], delta / half / 2


def _segments(curve: Curve) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(curve, dtype=float)
    return pts, np.roll(pts, -1, axis=0)


def _segment_distance(p0, p1, q0, q1) -> float:
    """Minimum distance between two segments (clamped closest points)."""
    u = p1 - p0
    v = q1 - q0
    w = p0 - q0
    a, b, c = u @ u, u @ v, v @ v
    d, e = u @ w, v @ w
    denom = a * c - b * b
    if denom > 1e-14 * max(a * c, 1e-30):
        s = min(1.0, max(0.0, (b * e - c * d) / denom))
    else:
        s = 0.0  # near-parallel: fall back to endpoint scan
    t = (b * s + e) / c if c > 0 else 0.0
    t = min(1.0, max(0.0, t))
    # re-clamp s against the chosen t
    if a > 0:
        s = min(1.0, max(0.0, (b * t - d) / a))
    best = np.linalg.norm((p0 + s * u) - (q0 + t * v))
    for pp in (p0, p1):
        for qq in (q0, q1):
            best = min(best, np.linalg.norm(pp - qq))
    return float(best)


def _check_embedded(curve: Curve, label: str) -> None:
    a0, a1 = _segments(curve)
    n = len(a0)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent segments share a vertex
            if _segment_distance(a0[i], a1[i], a0[j], a1[j]) <= MIN_SEPARATION:
                raise GeometryError(f"{label}: segments {i} and {j} nearly intersect")


def _check_disjoint(a: Curve, b: Curve, label: str) -> None:
    a0, a1 = _segments(a)
    b0, b1 = _segments(b)
    for i in range(len(a0)):
        for j in range(len(b0)):
            if _segment_distance(a0[i], a1[i], b0[j], b1[j]) <= MIN_SEPARATION:
                raise GeometryError(
                    f"{label}: curves pass within {MIN_SEPARATION} of each other, relative to their extent"
                )


def _triangle_solid_angle(a, b, c) -> np.ndarray:
    """Signed solid angle of spherical triangles with unit-vector corners."""
    num = np.einsum("...i,...i->...", a, np.cross(b, c))
    den = (
        1.0
        + np.einsum("...i,...i->...", a, b)
        + np.einsum("...i,...i->...", b, c)
        + np.einsum("...i,...i->...", c, a)
    )
    return 2.0 * np.arctan2(num, den)


def gauss_integral(a: Curve, b: Curve) -> float:
    """Raw Gauss linking integral of two disjoint closed polygons.

    Exact per segment pair up to rounding: each pair contributes the signed
    area of the spherical quadrilateral swept by the chord direction,
    triangulated with the solid-angle formula. Returns the integral value
    (an integer for genuinely disjoint closed curves) before rounding.
    """
    a0, a1 = _segments(np.asarray(a, dtype=float))
    b0, b1 = _segments(np.asarray(b, dtype=float))

    def unit(v):
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
        if np.any(norms < MIN_SEPARATION):
            raise GeometryError("curves pass too close for a stable direction map")
        return v / norms

    # all chord directions between segment endpoints, shape (na, nb, 3)
    v00 = unit(a0[:, None, :] - b0[None, :, :])
    v10 = unit(a1[:, None, :] - b0[None, :, :])
    v11 = unit(a1[:, None, :] - b1[None, :, :])
    v01 = unit(a0[:, None, :] - b1[None, :, :])

    area = _triangle_solid_angle(v00, v10, v11) + _triangle_solid_angle(v00, v11, v01)
    return -float(area.sum()) / (4.0 * math.pi)


def linking_number(a: Curve, b: Curve) -> int:
    """Linking number of two disjoint closed polygonal curves.

    Evaluates the Gauss integral via exact solid angles and rounds; raises
    GeometryError if the curves nearly touch, relative to the pair's extent,
    or the pre-rounding residual exceeds the integer tolerance.
    """
    (a, b), _ = _normalized([a, b])
    _check_embedded(a, "first curve")
    _check_embedded(b, "second curve")
    _check_disjoint(a, b, "curve pair")
    raw = gauss_integral(a, b)
    nearest = round(raw)
    if abs(raw - nearest) >= RESIDUAL_TOL:
        raise GeometryError(f"Gauss integral {raw} is not integral (residual {abs(raw - nearest):.2e})")
    return int(nearest)


def push_off(curve: Curve, offsets: Curve, delta: float) -> Curve:
    return np.asarray(curve, dtype=float) + delta * np.asarray(offsets, dtype=float)


def self_linking(curve: Curve, offsets: Curve, delta: float) -> int:
    """Framed self-linking: linking number of the curve with its push-off.

    Emulates the shrinking-offset limit by requiring the same integer at
    delta, delta/2 and delta/4; disagreement means the framing is too
    coarse for the geometry and raises GeometryError.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    values = []
    for scale in (1.0, 0.5, 0.25):
        values.append(linking_number(curve, push_off(curve, offsets, delta * scale)))
    if len(set(values)) != 1:
        # no delta in the message: linking_matrix passes the normalized one, not the link's
        raise GeometryError(f"self-linking unstable under delta-halving: got {values}")
    return values[0]


def linking_matrix(link: PolyLink) -> FramedLinkMatrix:
    """Assemble the framed linking matrix of a polygonal link.

    Off-diagonal entries are pairwise linking numbers; diagonal entries are
    framed self-linkings at the link's delta, both on the normalized link.
    Geometry failures are re-raised tagged with the offending components.
    """
    m = len(link.components)
    if m == 0:
        return FramedLinkMatrix.from_rows([])
    curves, delta = _normalized(list(link.components), link.delta)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        try:
            rows[i][i] = self_linking(curves[i], link.framings[i], delta)
        except GeometryError as exc:
            raise GeometryError(f"component ({i},{i}): {exc}") from exc
        for j in range(i + 1, m):
            try:
                lk = linking_number(curves[i], curves[j])
            except GeometryError as exc:
                raise GeometryError(f"components ({i},{j}): {exc}") from exc
            rows[i][j] = rows[j][i] = lk
    return FramedLinkMatrix.from_rows(rows)
