"""Linking numbers by counting signed crossings in a plane projection.

An oracle for the geometry workload's constructions that shares nothing
with qtopo's solid-angle evaluation: project both polygons to the
xy-plane, find every transversal crossing between them, read its sign off
the over- and under-strand directions, and halve the signed total.
Pure Python.
"""

from __future__ import annotations

import math


def _rotate_x(points, angle):
    c, s = math.cos(angle), math.sin(angle)
    return [(x, c * y - s * z, s * y + c * z) for x, y, z in points]


def crossing_linking_number(a, b, tilt: float = 0.0) -> int:
    """Signed-crossing linking number of closed polygons a and b.

    tilt rotates both curves about the x-axis first. Raises ValueError if
    the projection is not generic (a crossing at a vertex, or equal heights).
    """
    if tilt:
        a, b = _rotate_x(a, tilt), _rotate_x(b, tilt)
    eps = 1e-9
    total = 0
    na, nb = len(a), len(b)
    for i in range(na):
        p0, p1 = a[i], a[(i + 1) % na]
        ux, uy = p1[0] - p0[0], p1[1] - p0[1]
        for j in range(nb):
            q0, q1 = b[j], b[(j + 1) % nb]
            vx, vy = q1[0] - q0[0], q1[1] - q0[1]
            den = ux * vy - uy * vx
            if abs(den) < 1e-12:
                continue
            wx, wy = q0[0] - p0[0], q0[1] - p0[1]
            s = (wx * vy - wy * vx) / den
            t = (wx * uy - wy * ux) / den
            if not (eps < s < 1 - eps and eps < t < 1 - eps):
                if -eps <= s <= 1 + eps and -eps <= t <= 1 + eps:
                    raise ValueError("projection not generic: crossing at a vertex")
                continue
            za = p0[2] + s * (p1[2] - p0[2])
            zb = q0[2] + t * (q1[2] - q0[2])
            if abs(za - zb) < eps:
                raise ValueError("projection not generic: equal heights at a crossing")
            total += 1 if (den if za > zb else -den) > 0 else -1
    if total % 2:
        raise ValueError("odd signed-crossing total; projection not generic")
    return total // 2


def linking_number(a, b) -> int:
    """crossing_linking_number, retried at a few tilts if the projection is degenerate."""
    for tilt in (0.0, 0.3, 0.7, 1.1):
        try:
            return crossing_linking_number(a, b, tilt)
        except ValueError:
            continue
    raise ValueError("no generic projection found")


def push_off(points, offsets, delta):
    return [tuple(p[d] + delta * o[d] for d in range(3)) for p, o in zip(points, offsets)]
