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

Points are plain (x, y, z) float tuples and every loop runs on Python
floats: per segment pair the work is a few dozen flops, which per-call
array overhead would dominate. The functions accept any sequence of
[x, y, z] rows, numpy arrays included, and this module never imports numpy.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from itertools import chain

from .errors import GeometryError, SchemaError, decode_json
from .linkalg import FramedLinkMatrix

Point = tuple[float, float, float]
Curve = tuple[Point, ...]  # vertices of a closed polygon

# Floor on segment separation, relative to the extent of the curves checked;
# below it the direction map is numerically meaningless and the curves may as
# well intersect.
MIN_SEPARATION = 1e-9

# Pre-rounding distance to the nearest integer that we accept as exact.
RESIDUAL_TOL = 1e-6


def _is_number(x: object) -> bool:
    """Whether x is a real number, not a bool, that converts to a float without overflow."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    return isinstance(x, float) or abs(x) <= sys.float_info.max


def _triples(rows: object, pointer: str) -> Curve:
    """The rows as float triples; a SchemaError naming the field unless each row is three real numbers."""
    try:
        pts = [tuple(row) for row in rows]
    except TypeError:
        pts = None
    if pts is None or any(len(pt) != 3 or not all(map(_is_number, pt)) for pt in pts):
        raise SchemaError(f"{pointer}: expected [x,y,z] triples")
    return tuple((float(x), float(y), float(z)) for x, y, z in pts)


@dataclass(frozen=True)
class PolyLink:
    """Closed polygonal curves with per-vertex framing offset directions, stored as float triples."""

    components: tuple[Curve, ...]
    framings: tuple[Curve, ...]
    delta: float

    def __post_init__(self) -> None:
        """The one link validator; errors name the field as a JSON pointer."""
        if len(self.components) != len(self.framings):
            raise ValueError("one framing offset field required per component")
        fields = [
            (_triples(curve, f"/components/{idx}/points"), _triples(offs, f"/components/{idx}/offsets"))
            for idx, (curve, offs) in enumerate(zip(self.components, self.framings))
        ]
        for idx, (curve, offs) in enumerate(fields):
            if len(curve) < 3:
                raise SchemaError(f"/components/{idx}/points: expected >=3 [x,y,z] triples")
            if len(curve) != len(offs):
                raise SchemaError(
                    f"/components/{idx}/offsets: shape {(len(offs), 3)} != points shape {(len(curve), 3)}"
                )
            for key, pts in (("points", curve), ("offsets", offs)):
                if not all(map(math.isfinite, chain.from_iterable(pts))):
                    raise SchemaError(f"/components/{idx}/{key}: coordinates must be finite")
        if not (_is_number(self.delta) and math.isfinite(self.delta) and self.delta > 0):
            try:
                shown = repr(self.delta)
            except ValueError:  # an int past the interpreter's limit on digits converted to a string
                shown = "an integer too long to print"
            raise SchemaError(f"/delta: expected a positive finite number, got {shown}")
        object.__setattr__(self, "components", tuple(curve for curve, _ in fields))
        object.__setattr__(self, "framings", tuple(offs for _, offs in fields))
        object.__setattr__(self, "delta", float(self.delta))

    @classmethod
    def from_json_dict(cls, data: object) -> "PolyLink":
        """Check the JSON structure of the polygonal-link schema; the rows and values are checked on construction."""
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
            for key, rows in (("points", comps), ("offsets", offs)):
                if key not in comp:
                    raise SchemaError(f"/components/{i}/{key}: missing")
                rows.append(comp[key])
        return cls(components=tuple(comps), framings=tuple(offs), delta=data.get("delta"))

    @classmethod
    def from_json(cls, text: str) -> "PolyLink":
        return cls.from_json_dict(decode_json(text))


def _normalized(curves: list[Curve], delta: float = 1.0) -> tuple[list[Curve], float]:
    """The curves with their bounding box centred at the origin and its longest side 1, and delta scaled alike."""
    axes = list(zip(*chain.from_iterable(curves)))
    lo = [float(min(coords)) for coords in axes]
    hi = [float(max(coords)) for coords in axes]
    half = max(h / 2 - l / 2 for l, h in zip(lo, hi))  # halves first, as hi - lo can overflow
    if any(map(math.isnan, chain.from_iterable(axes))):
        half = math.nan  # min and max may pass over a NaN
    if not 0.0 < half < math.inf:
        raise GeometryError(f"the curves' extent {2 * half} is not a positive finite length")
    cx, cy, cz = (l / 2 + h / 2 for l, h in zip(lo, hi))
    return [
        tuple(((float(x) - cx) / half / 2, (float(y) - cy) / half / 2, (float(z) - cz) / half / 2) for x, y, z in c)
        for c in curves
    ], delta / half / 2


def _segment_distance(p0: Point, p1: Point, q0: Point, q1: Point) -> float:
    """Minimum distance between two segments.

    The squared distance is convex over the pair of segment parameters, so
    its minimum is either the lines' own closest pair, when that lies inside
    both segments, or on an edge of the parameter square: an endpoint of one
    segment projected onto the other.
    """
    (px, py, pz), (qx, qy, qz) = p0, q0
    ux, uy, uz = p1[0] - px, p1[1] - py, p1[2] - pz
    vx, vy, vz = q1[0] - qx, q1[1] - qy, q1[2] - qz
    wx, wy, wz = px - qx, py - qy, pz - qz
    a = ux * ux + uy * uy + uz * uz
    b = ux * vx + uy * vy + uz * vz
    c = vx * vx + vy * vy + vz * vz
    d = ux * wx + uy * wy + uz * wz
    e = vx * wx + vy * wy + vz * wz
    t0, t1 = (e / c, (e + b) / c) if c > 0 else (0.0, 0.0)
    s0, s1 = (-d / a, (b - d) / a) if a > 0 else (0.0, 0.0)
    t0 = 0.0 if t0 < 0.0 else 1.0 if t0 > 1.0 else t0
    t1 = 0.0 if t1 < 0.0 else 1.0 if t1 > 1.0 else t1
    s0 = 0.0 if s0 < 0.0 else 1.0 if s0 > 1.0 else s0
    s1 = 0.0 if s1 < 0.0 else 1.0 if s1 > 1.0 else s1
    s, t, best = 0.0, t0, math.hypot(wx - t0 * vx, wy - t0 * vy, wz - t0 * vz)
    other = math.hypot(wx + ux - t1 * vx, wy + uy - t1 * vy, wz + uz - t1 * vz)
    if other < best:
        s, t, best = 1.0, t1, other
    other = math.hypot(wx + s0 * ux, wy + s0 * uy, wz + s0 * uz)
    if other < best:
        s, t, best = s0, 0.0, other
    other = math.hypot(wx + s1 * ux - vx, wy + s1 * uy - vy, wz + s1 * uz - vz)
    if other < best:
        s, t, best = s1, 1.0, other
    # |u x v|**2 = a*c - b*b without its cancellation. One step from the nearest projection (s, t) reaches the lines'
    # closest pair; its offset r is short when nearly parallel segments cross, so the step keeps its digits down to
    # about 1e-10 rad, below which a crossing reads at most the angle times the segments' length
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    nn = nx * nx + ny * ny + nz * nz
    if nn > 1e-20 * a * c:
        rx, ry, rz = wx + s * ux - t * vx, wy + s * uy - t * vy, wz + s * uz - t * vz
        dr = ux * rx + uy * ry + uz * rz
        er = vx * rx + vy * ry + vz * rz
        if 0.0 <= s + (b * er - c * dr) / nn <= 1.0 and 0.0 <= t + (a * er - b * dr) / nn <= 1.0:
            return abs(nx * rx + ny * ry + nz * rz) / math.sqrt(nn)
    return best


def _check_embedded(curve: Curve, label: str) -> None:
    segs = list(zip(curve, curve[1:] + curve[:1]))
    n = len(segs)
    for i, (p0, p1) in enumerate(segs):
        for j in range(i + 2, n - (i == 0)):  # adjacent segments share a vertex
            if _segment_distance(p0, p1, *segs[j]) <= MIN_SEPARATION:
                raise GeometryError(f"{label}: segments {i} and {j} nearly intersect")


def _check_disjoint(a: Curve, b: Curve, label: str) -> None:
    segs_b = list(zip(b, b[1:] + b[:1]))
    for p0, p1 in zip(a, a[1:] + a[:1]):
        for q0, q1 in segs_b:
            if _segment_distance(p0, p1, q0, q1) <= MIN_SEPARATION:
                raise GeometryError(
                    f"{label}: curves pass within {MIN_SEPARATION} of each other, relative to their extent"
                )


def gauss_integral(a: Curve, b: Curve) -> float:
    """Raw Gauss linking integral of two disjoint closed polygons.

    Exact per segment pair up to rounding: each pair contributes the signed
    area of the spherical quadrilateral swept by the chord direction,
    triangulated with the solid-angle formula. Returns the integral value
    (an integer for genuinely disjoint closed curves) before rounding.
    """
    # unit chord a[i] - b[j] for each vertex pair, shared by the four segment pairs around it;
    # a repeated first column and row close both polygons
    units = []
    for px, py, pz in a:
        row = []
        for qx, qy, qz in b:
            dx, dy, dz = px - qx, py - qy, pz - qz
            norm = math.hypot(dx, dy, dz)
            if norm < MIN_SEPARATION:
                raise GeometryError("curves pass too close for a stable direction map")
            row.append((dx / norm, dy / norm, dz / norm))
        row.append(row[0])
        units.append(row)
    units.append(units[0])
    # each segment pair (i, j) is the triangles (v00, v10, v11) and (v00, v11, v01), v10 = unit(a[i+1] - b[j]);
    # a triangle of unit vectors (a, b, c) has signed solid angle 2 atan2(a.(b x c), 1 + a.b + b.c + c.a)
    half_area = 0.0
    for row0, row1 in zip(units, units[1:]):
        for j in range(len(row0) - 1):
            (ax, ay, az), (bx, by, bz) = row0[j], row1[j]
            (cx, cy, cz), (dx, dy, dz) = row1[j + 1], row0[j + 1]
            ac = ax * cx + ay * cy + az * cz
            half_area += math.atan2(
                ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz) + az * (bx * cy - by * cx),
                1.0 + (ax * bx + ay * by + az * bz) + (bx * cx + by * cy + bz * cz) + ac,
            ) + math.atan2(
                ax * (cy * dz - cz * dy) + ay * (cz * dx - cx * dz) + az * (cx * dy - cy * dx),
                1.0 + ac + (cx * dx + cy * dy + cz * dz) + (dx * ax + dy * ay + dz * az),
            )
    return -half_area / (2.0 * math.pi)


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
    return tuple(
        (x + delta * u, y + delta * v, z + delta * w) for (x, y, z), (u, v, w) in zip(curve, offsets, strict=True)
    )


def self_linking(curve: Curve, offsets: Curve, delta: float) -> int:
    """Framed self-linking: linking number of the curve with its push-off.

    Emulates the shrinking-offset limit by requiring the same integer at
    delta, delta/2 and delta/4; disagreement means the framing is too
    coarse for the geometry and raises GeometryError. So does a delta too
    small to move the curve, as the push-off then touches it.
    """
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
