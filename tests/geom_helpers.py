"""Test-side geometry: curve constructors and two oracles.

crossing_count_linking computes linking numbers the diagrammatic way,
entirely independent of the solid-angle path: project to the xy-plane, find
the transversal crossings between the two curves, read each sign off the
frame (over-strand direction, under-strand direction), and halve the signed
total.

segment_distance_np and gauss_integral_np are the same algorithms as
qtopo.linkgeom's, written on numpy arrays: the distance one segment pair at
a time, the integral broadcast over every segment pair at once.
"""

from __future__ import annotations

import json
import math

import numpy as np


def ring(n=16, radius=2.0, center=(0.0, 0.0, 0.0), plane="xy"):
    ang = 2.0 * np.pi * np.arange(n) / n
    if plane == "xy":
        pts = np.stack([radius * np.cos(ang), radius * np.sin(ang), np.zeros(n)], axis=1)
    elif plane == "xz":
        pts = np.stack([radius * np.cos(ang), np.zeros(n), radius * np.sin(ang)], axis=1)
    else:
        raise ValueError(plane)
    return pts + np.asarray(center, dtype=float)


def square(side=2.0, center=(0.0, 0.0, 0.0), plane="xy"):
    h = side / 2.0
    if plane == "xy":
        pts = np.array([[h, h, 0.0], [-h, h, 0.0], [-h, -h, 0.0], [h, -h, 0.0]])
    elif plane == "xz":
        pts = np.array([[h, 0.0, h], [-h, 0.0, h], [-h, 0.0, -h], [h, 0.0, -h]])
    else:
        raise ValueError(plane)
    return pts + np.asarray(center, dtype=float)


def hopf_pair():
    """Unit squares in the xy- and xz-planes, interlocked through the origin."""
    return square(side=2.0, plane="xy"), square(side=2.0, center=(1.0, 0.0, 0.0), plane="xz")


def polylink_json(link) -> str:
    """The polygonal-link JSON document of a PolyLink."""
    components = [{"points": c, "offsets": o} for c, o in zip(link.components, link.framings)]
    return json.dumps({"components": components, "delta": link.delta})


def outward_offsets(curve):
    """Unit in-plane radial directions from the curve's centroid (planar curves)."""
    centered = curve - curve.mean(axis=0)
    return centered / np.linalg.norm(centered, axis=1, keepdims=True)


def twisted_offsets(curve, turns=1):
    """Framing rotating `turns` times around the tangent over the loop."""
    radial = outward_offsets(curve)
    n = len(curve)
    theta = 2.0 * np.pi * turns * np.arange(n) / n
    binormal = np.array([0.0, 0.0, 1.0])
    return np.cos(theta)[:, None] * radial + np.sin(theta)[:, None] * binormal


def crossing_count_linking(a, b, tilt=0.0):
    """Linking number by signed crossings in the xy-projection.

    tilt rotates both curves about the x-axis first, for inputs whose
    default projection is degenerate. Raises if a crossing is not clearly
    transversal with separated heights.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if tilt:
        c, s = np.cos(tilt), np.sin(tilt)
        rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        a = a @ rot.T
        b = b @ rot.T
    total = 0
    na, nb = len(a), len(b)
    for i in range(na):
        p0, p1 = a[i], a[(i + 1) % na]
        for j in range(nb):
            q0, q1 = b[j], b[(j + 1) % nb]
            u = p1[:2] - p0[:2]
            v = q1[:2] - q0[:2]
            w = q0[:2] - p0[:2]
            den = u[0] * v[1] - u[1] * v[0]
            if abs(den) < 1e-12:
                continue
            s_par = (w[0] * v[1] - w[1] * v[0]) / den
            t_par = (w[0] * u[1] - w[1] * u[0]) / den
            if not (1e-9 < s_par < 1 - 1e-9 and 1e-9 < t_par < 1 - 1e-9):
                if -1e-9 < s_par < 1 + 1e-9 and -1e-9 < t_par < 1 + 1e-9:
                    raise ValueError("projection not generic: crossing at a vertex")
                continue
            za = p0[2] + s_par * (p1[2] - p0[2])
            zb = q0[2] + t_par * (q1[2] - q0[2])
            if abs(za - zb) < 1e-9:
                raise ValueError("projection not generic: equal heights at crossing")
            cross_z = (p1 - p0)[0] * (q1 - q0)[1] - (p1 - p0)[1] * (q1 - q0)[0]
            over_sign = cross_z if za > zb else -cross_z
            total += 1 if over_sign > 0 else -1
    if total % 2 != 0:
        raise ValueError("odd signed-crossing total; projection not generic")
    return total // 2


def segment_distance_np(p0, p1, q0, q1):
    """Minimum distance between two segments, on numpy 3-vectors: the nearest endpoint projection, or the lines'
    distance when their closest pair lies inside both segments."""
    p0, p1, q0, q1 = (np.asarray(x, dtype=float) for x in (p0, p1, q0, q1))
    u = p1 - p0
    v = q1 - q0
    w = p0 - q0
    a, b, c = u @ u, u @ v, v @ v
    d, e = u @ w, v @ w
    t0, t1 = (min(1.0, max(0.0, x / c)) for x in (e, e + b)) if c > 0 else (0.0, 0.0)
    s0, s1 = (min(1.0, max(0.0, x / a)) for x in (-d, b - d)) if a > 0 else (0.0, 0.0)
    ends = [(0.0, t0), (1.0, t1), (s0, 0.0), (s1, 1.0)]
    s, t = min(ends, key=lambda st: np.linalg.norm(w + st[0] * u - st[1] * v))
    r = w + s * u - t * v
    n = np.cross(u, v)
    nn = n @ n
    if nn > 1e-20 * a * c and 0.0 <= s + (b * (v @ r) - c * (u @ r)) / nn <= 1.0 \
            and 0.0 <= t + (a * (v @ r) - b * (u @ r)) / nn <= 1.0:
        return float(abs(n @ r) / np.sqrt(nn))
    return float(np.linalg.norm(r))


def _triangle_solid_angle(a, b, c):
    """Signed solid angle of spherical triangles with unit-vector corners."""
    num = np.einsum("...i,...i->...", a, np.cross(b, c))
    den = (
        1.0
        + np.einsum("...i,...i->...", a, b)
        + np.einsum("...i,...i->...", b, c)
        + np.einsum("...i,...i->...", c, a)
    )
    return 2.0 * np.arctan2(num, den)


def gauss_integral_np(a, b):
    """Raw Gauss linking integral of two closed polygons, broadcast over all segment pairs."""
    a0 = np.asarray(a, dtype=float)
    b0 = np.asarray(b, dtype=float)
    a1, b1 = np.roll(a0, -1, axis=0), np.roll(b0, -1, axis=0)

    def unit(v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    # all chord directions between segment endpoints, shape (na, nb, 3)
    v00 = unit(a0[:, None, :] - b0[None, :, :])
    v10 = unit(a1[:, None, :] - b0[None, :, :])
    v11 = unit(a1[:, None, :] - b1[None, :, :])
    v01 = unit(a0[:, None, :] - b1[None, :, :])

    area = _triangle_solid_angle(v00, v10, v11) + _triangle_solid_angle(v00, v11, v01)
    return -float(area.sum()) / (4.0 * math.pi)
