import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geom_helpers import (
    crossing_count_linking,
    gauss_integral_np,
    hopf_pair,
    outward_offsets,
    polylink_json,
    ring,
    segment_distance_np,
    square,
    twisted_offsets,
)
from qtopo.errors import GeometryError, SchemaError
from qtopo.linkgeom import (
    PolyLink,
    _segment_distance,
    gauss_integral,
    linking_matrix,
    linking_number,
    push_off,
    self_linking,
)


def random_loop(rng, center, radius=1.0, n=12):
    """Closed polygon from a radially jittered circle, randomly oriented."""
    ang = 2.0 * np.pi * np.arange(n) / n
    radii = radius * (1.0 + 0.3 * np.array([rng.uniform(-1, 1) for _ in range(n)]))
    pts = np.stack([radii * np.cos(ang), radii * np.sin(ang), np.zeros(n)], axis=1)
    axis_angle = rng.uniform(0, math.pi)
    c, s = math.cos(axis_angle), math.sin(axis_angle)
    rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    return pts @ rot.T + np.asarray(center, dtype=float)


class TestLinkingNumber:
    def test_hopf_link(self):
        a, b = hopf_pair()
        lk = linking_number(a, b)
        assert abs(lk) == 1
        assert lk == crossing_count_linking(a, b, tilt=0.3)

    def test_split_link(self):
        a, b = hopf_pair()
        assert linking_number(a, b + np.array([100.0, 0.0, 0.0])) == 0

    def test_orientation_reversal_negates(self):
        a, b = hopf_pair()
        assert linking_number(a, b[::-1]) == -linking_number(a, b)
        assert linking_number(a[::-1], b) == -linking_number(a, b)

    def test_symmetric_in_arguments(self):
        rng = random.Random(2024)
        pairs = 0
        while pairs < 50:
            a = random_loop(rng, (0, 0, 0), radius=rng.uniform(0.5, 2.0))
            offset = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 3))
            b = random_loop(rng, offset, radius=rng.uniform(0.5, 2.0))
            try:
                lk_ab = linking_number(a, b)
            except GeometryError:
                continue  # curves happened to come too close; resample
            assert lk_ab == linking_number(b, a)
            pairs += 1

    def test_residual_is_small(self):
        a, b = hopf_pair()
        raw = gauss_integral(a, b)
        assert abs(raw - round(raw)) < 1e-6

    def test_double_pass_links_twice(self):
        # a loop threading the ring twice in the same sense has linking +-2;
        # the diagrammatic oracle must agree including sign
        a = ring(n=24, radius=2.0, plane="xy")
        t = 4.0 * np.pi * np.arange(40) / 40
        radii = 1.0 + 0.25 * np.cos(t / 2.0)
        b = np.stack(
            [2.0 + radii * np.cos(t), 0.15 * np.sin(t / 2.0), radii * np.sin(t)], axis=1
        )
        lk = linking_number(a, b)
        assert abs(lk) == 2
        assert lk == crossing_count_linking(a, b, tilt=0.3)

    def test_too_close_rejected(self):
        a = square(side=2.0)
        with pytest.raises(GeometryError):
            linking_number(a, a + np.array([0.0, 0.0, 1e-12]))

    def test_crossing_at_a_small_angle_rejected(self):
        # the triangle's first edge crosses the square's edge y = 0 at (0.5, 0, 0) at about 1.3e-8 rad, where
        # every endpoint projection reads above MIN_SEPARATION
        triangle = np.array([[0.2, -4e-9, 0.0], [0.8, 4e-9, 0.0], [0.5, -0.5, 0.5]])
        with pytest.raises(GeometryError, match="pass within"):
            linking_number(square(side=1.0, center=(0.5, 0.5, 0.0)), triangle)

    @pytest.mark.parametrize("vertex", [0, 3])
    def test_nan_vertex_rejected(self, vertex):
        # Python's min and max pass over a NaN or return it, depending on where it stands
        a, b = hopf_pair()
        a[vertex, 1] = np.nan
        with pytest.raises(GeometryError, match="extent nan"):
            linking_number(a, b)

    def test_self_intersecting_rejected(self):
        bowtie = np.array(
            [[0.0, 0.0, 0.0], [2.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
        )
        with pytest.raises(GeometryError):
            linking_number(bowtie, square(side=2.0, center=(10.0, 0.0, 0.0)))


class TestSelfLinking:
    def test_untwisted_planar_framing(self):
        curve = ring(n=16, radius=2.0)
        assert self_linking(curve, outward_offsets(curve), 0.2) == 0

    def test_single_twist(self):
        curve = ring(n=16, radius=2.0)
        for turns in (1, -1):
            offs = twisted_offsets(curve, turns=turns)
            value = self_linking(curve, offs, 0.2)
            assert abs(value) == 1
            # agreement with the diagrammatic oracle on (C, C_delta)
            pushed = push_off(curve, offs, 0.2)
            assert value == crossing_count_linking(curve, pushed, tilt=0.4)

    def test_matches_plain_linking_number(self):
        curve = ring(n=16, radius=2.0)
        offs = twisted_offsets(curve, turns=1)
        assert self_linking(curve, offs, 0.2) == linking_number(curve, push_off(curve, offs, 0.2))

    def test_coincident_push_off_rejected(self):
        curve = ring(n=12, radius=1.0)
        with pytest.raises(GeometryError):
            self_linking(curve, np.zeros_like(curve), 0.5)

    def test_unstable_framing_rejected(self):
        # the push-off sweeps through the short bridge strand strictly
        # between delta/2 and delta, so the three levels disagree
        curve = np.array(
            [
                [0.0, 0.00, 0.0],
                [3.8, 0.00, 0.0],
                [4.0, 0.00, 0.0],
                [6.0, 0.00, 0.0],
                [6.2, 0.00, 0.0],
                [10.0, 0.00, 0.0],
                [10.0, 2.00, 1.0],
                [5.5, 0.23, 1.0],
                [4.5, 0.17, 1.0],
                [3.5, 0.17, 1.0],
                [0.0, 2.00, 0.9],
            ]
        )
        offs = np.array(
            [
                [0.0, 0.00, 0.25],
                [0.0, 0.00, 0.25],
                [0.0, 0.28, 1.40],
                [0.0, 0.28, 1.40],
                [0.0, 0.00, 0.25],
                [0.0, 0.00, 0.25],
                [0.0, 0.00, 0.25],
                [0.0, 0.00, 0.25],
                [0.0, 0.00, 0.25],
                [0.0, 0.00, 0.25],
                [0.0, 0.00, 0.25],
            ]
        )
        with pytest.raises(GeometryError, match="unstable"):
            self_linking(curve, offs, 1.0)
        # at desk-scale delta the same framing is fine
        assert self_linking(curve, offs, 0.2) == 0


def hopf_polylink(delta=0.2):
    a, b = hopf_pair()
    return PolyLink(
        components=(a, b),
        framings=(outward_offsets(a), outward_offsets(b)),
        delta=delta,
    )


def linked_ring_polylink():
    a, b = ring_pair(12, 14, 1.3, 0.2)
    return PolyLink(components=(a, b), framings=(outward_offsets(a), outward_offsets(b)), delta=0.2)


def unit_twisted_pair():
    c1 = ring(n=16, radius=2.0)
    c2 = ring(n=16, radius=2.0, center=(10.0, 0.0, 0.0))
    turns = -1  # sense chosen to give +1 framing in this orientation
    return PolyLink(components=(c1, c2), framings=(twisted_offsets(c1, turns), twisted_offsets(c2, turns)), delta=0.2)


class TestLinkingMatrix:
    def test_hopf_untwisted(self):
        mat = linking_matrix(hopf_polylink())
        lk = mat.J[0][1]
        assert abs(lk) == 1
        assert mat.J == ((0, lk), (lk, 0))

    def test_single_unknot(self):
        curve = ring(n=12, radius=1.5)
        link = PolyLink(components=(curve,), framings=(outward_offsets(curve),), delta=0.1)
        assert linking_matrix(link).J == ((0,),)

    def test_split_pair_with_unit_twists(self):
        assert linking_matrix(unit_twisted_pair()).J == ((1, 0), (0, 1))

    def test_errors_tagged_with_component(self):
        a, b = hopf_pair()
        link = PolyLink(
            components=(a, b),
            framings=(np.zeros_like(a), outward_offsets(b)),
            delta=0.2,
        )
        with pytest.raises(GeometryError, match=r"component \(0,0\)"):
            linking_matrix(link)


def scaled(link, scale):
    return PolyLink(components=tuple(np.asarray(c) * scale for c in link.components), framings=link.framings,
                    delta=link.delta * scale)


class TestScale:
    # above ~1e154 squared lengths overflowed and every check passed on NaN; below ~1e-9 the
    # absolute separation floor was larger than the curve
    @pytest.mark.parametrize("scale", [1e-12, 1e200, 1e300])
    def test_hopf_link_at_any_scale(self, scale):
        assert linking_matrix(scaled(hopf_polylink(), scale)).J == linking_matrix(hopf_polylink()).J

    def test_crossing_squares_at_1e200_rejected(self):
        a, b = square(side=2.0, plane="xy"), square(side=2.0, center=(2.0, 0.0, 0.0), plane="xz")
        link = PolyLink(components=(a, b), framings=(outward_offsets(a), outward_offsets(b)), delta=0.2)
        for scale in (1.0, 1e200):
            with pytest.raises(GeometryError, match=r"components \(0,1\)"):
                linking_matrix(scaled(link, scale))

    def test_delta_rounding_to_zero_rejected(self):
        # 1e-200 over the extent 2e200 underflows to 0, so the push-off is the curve itself
        a = square(side=2.0, plane="xy")
        link = PolyLink(components=(a * 1e200,), framings=(outward_offsets(a),), delta=1e-200)
        with pytest.raises(GeometryError, match=r"^component \(0,0\): curve pair: curves pass within"):
            linking_matrix(link)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(t=st.integers(min_value=-150, max_value=300), which=st.sampled_from(["hopf", "twisted"]))
    def test_matrix_unchanged_under_scaling(self, t, which):
        link = hopf_polylink() if which == "hopf" else unit_twisted_pair()
        assert linking_matrix(scaled(link, 10.0**t)).J == linking_matrix(link).J


def rotation(alpha, beta, gamma):
    """Rotation matrix from z-y-z Euler angles."""
    def about(axis, t):
        c, s = math.cos(t), math.sin(t)
        i, j = [a for a in range(3) if a != axis]
        r = np.eye(3)
        r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
        return r

    return about(2, alpha) @ about(1, beta) @ about(2, gamma)


def ring_pair(n1, n2, dx, dz):
    """An xy-ring and an xz-ring of radius 2, the second centred at (dx, 0, dz)."""
    return ring(n=n1, radius=2.0), ring(n=n2, radius=2.0, center=(dx, 0.0, dz), plane="xz")


_ANGLES = st.floats(min_value=0.0, max_value=2.0 * math.pi)
_SIDES = st.integers(min_value=12, max_value=16)


class TestRigidMotionAndRelabelling:
    """linking_matrix and linking_number do not depend on placement, vertex labels or argument order."""

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(angles=st.tuples(_ANGLES, _ANGLES, _ANGLES),
           shift=st.tuples(*[st.floats(min_value=-100.0, max_value=100.0)] * 3),
           which=st.sampled_from(["linked-rings", "twisted"]))
    def test_matrix_unchanged_under_rigid_motion(self, angles, shift, which):
        link = linked_ring_polylink() if which == "linked-rings" else unit_twisted_pair()
        rot = rotation(*angles)
        moved = PolyLink(components=tuple(c @ rot.T + np.array(shift) for c in link.components),
                         framings=tuple(o @ rot.T for o in link.framings), delta=link.delta)
        assert linking_matrix(moved).J == linking_matrix(link).J

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(offsets=st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15)),
           which=st.sampled_from(["linked-rings", "twisted"]))
    def test_matrix_unchanged_under_cyclic_relabelling(self, offsets, which):
        link = linked_ring_polylink() if which == "linked-rings" else unit_twisted_pair()
        relabelled = PolyLink(components=tuple(np.roll(c, t, axis=0) for c, t in zip(link.components, offsets)),
                              framings=tuple(np.roll(o, t, axis=0) for o, t in zip(link.framings, offsets)),
                              delta=link.delta)
        assert linking_matrix(relabelled).J == linking_matrix(link).J

    # the rings meet only on the x-axis, where these centres keep every crossing far from the other ring
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(n1=_SIDES, n2=_SIDES, dx=st.sampled_from([0.7, -1.1, 3.1, -3.1, 4.5]),
           dz=st.floats(min_value=-1.0, max_value=1.0), angles=st.tuples(_ANGLES, _ANGLES, _ANGLES))
    def test_symmetric_and_odd_under_reversal(self, n1, n2, dx, dz, angles):
        rot = rotation(*angles)
        a, b = (c @ rot.T for c in ring_pair(n1, n2, dx, dz))
        lk = linking_number(a, b)
        assert abs(lk) == (0 if abs(dx) > 4 else 1)
        assert linking_number(b, a) == lk
        assert linking_number(a[::-1], b) == -lk


class TestPolyLinkJson:
    def test_round_trip(self):
        link = hopf_polylink()
        again = PolyLink.from_json(polylink_json(link))
        assert again.delta == link.delta
        for c1, c2 in zip(link.components, again.components):
            assert np.allclose(c1, c2)
        assert linking_matrix(again).J == linking_matrix(link).J

    @pytest.mark.parametrize(
        "payload,pointer",
        [
            ("{}", "/components"),
            ('{"components": 3, "delta": 0.1}', "/components"),
            ('{"components": [{"points": [[0,0,0],[1,0,0],[0,1,0]]}], "delta": 0.1}', "/components/0/offsets"),
            ('{"components": [], "delta": -1}', "/delta"),
            ('{"components": [], "delta": "x"}', "/delta"),
            ('{"components": [], "delta": true}', "/delta"),
            ('{"components": []}', "/delta"),
            ('{"components": [{"points": [[0,0],[1,0],[0,1]], "offsets": [[0,0],[1,0],[0,1]]}], "delta": 0.1}',
             "/components/0/points"),
            ('{"components": [{"points": [[NaN,0,0],[1,0,0],[0,1,0]], "offsets": [[0,0,1],[0,0,1],[0,0,1]]}],'
             ' "delta": 0.1}', "/components/0/points"),
            ('{"components": [{"points": [[0,0,0],[1,0,0],[0,1,0]], "offsets": [[0,0,1],[0,0,-Infinity],[0,0,1]]}],'
             ' "delta": 0.1}', "/components/0/offsets"),
            ('{"components": [], "delta": Infinity}', "/delta"),
            ('{"components": [], "delta": NaN}', "/delta"),
            pytest.param('{"components": [], "delta": 1%s}' % ("0" * 400), "/delta", id="delta-beyond-float"),
            ('{"components": [{"points": [[0,0,0],[1,0,true],[0,1,0]], "offsets": [[0,0,1],[0,0,1],[0,0,1]]}],'
             ' "delta": 0.1}', "/components/0/points"),
            pytest.param('{"components": [{"points": [[0,0,0],[1,0,0],[0,1,0]], "offsets": [[0,0,1],[0,0,1%s],'
                         '[0,0,1]]}], "delta": 0.1}' % ("0" * 400), "/components/0/offsets", id="offset-beyond-float"),
            ('{"components": [{"points": [[0,0,0],[1,0,0]], "offsets": [[0,0,1],[0,0,1]]}], "delta": 0.1}',
             "/components/0/points: expected >=3 [x,y,z] triples"),
            ('{"components": [{"points": [[0,0,0],[1,0,0],[0,1,0]], "offsets": [[0,0,1],[0,0,1]]}], "delta": 0.1}',
             "/components/0/offsets: shape (2, 3) != points shape (3, 3)"),
            # the validator checks every row before delta
            pytest.param('{"components": [{"points": [[0,0,0],[1,0,0]], "offsets": [[0,0,1],[0,0,1]]}], "delta": "x"}',
                         "/components/0/points: expected >=3 [x,y,z] triples", id="row-before-delta"),
            ('{"components": [5], "delta": 0.1}', "/components/0: expected an object"),
            ("[1, 2]", "/: expected a JSON object"),
        ],
    )
    def test_schema_errors_name_field(self, payload, pointer):
        with pytest.raises(SchemaError) as err:
            PolyLink.from_json(payload)
        assert str(err.value).startswith(pointer)

    def test_deep_nesting_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="^/: invalid JSON"):
            PolyLink.from_json("[" * 100000)


class TestConstructor:
    @pytest.mark.parametrize(
        "points,offsets,pointer",
        [
            (np.zeros((4, 2)), np.zeros((4, 2)), "/components/0/points"),
            (np.arange(4.0), np.zeros((4, 3)), "/components/0/points"),
            (square(), np.zeros((4, 2)), "/components/0/offsets"),
            (square(), np.arange(4.0), "/components/0/offsets"),
        ],
        ids=["2d-points", "1d-points", "2d-offsets", "1d-offsets"],
    )
    def test_rejects_non_triples(self, points, offsets, pointer):
        with pytest.raises(SchemaError, match=f"^{pointer}: expected \\[x,y,z\\] triples$"):
            PolyLink(components=(points,), framings=(offsets,), delta=0.2)

    @pytest.mark.parametrize("delta", [True, "0.1", None, -1])
    def test_rejects_delta(self, delta):
        a = square()
        message = f"^/delta: expected a positive finite number, got {re.escape(repr(delta))}$"
        with pytest.raises(SchemaError, match=message):
            PolyLink(components=(a,), framings=(outward_offsets(a),), delta=delta)

    def test_rejects_a_delta_too_long_to_print(self):
        # 10**400 is beyond the float range and still prints; 10**5000 passes the interpreter's digit limit
        with pytest.raises(SchemaError, match=f"^/delta: expected a positive finite number, got {10**400}$"):
            PolyLink(components=(), framings=(), delta=10**400)
        with pytest.raises(SchemaError, match="^/delta: expected a positive finite number, got an integer too long"
                                              " to print$"):
            PolyLink(components=(), framings=(), delta=10**5000)

    def test_stores_delta_as_float(self):
        a = square()
        link = PolyLink(components=(a,), framings=(outward_offsets(a),), delta=1)
        assert type(link.delta) is float and link.delta == 1.0

    def test_stores_float_triples(self):
        a, b = hopf_pair()
        link = hopf_polylink()
        assert link.components == tuple(tuple(map(tuple, c.tolist())) for c in (a, b))
        assert {type(x) for curve in link.components + link.framings for pt in curve for x in pt} == {float}


def _box_point(rng):
    return np.array([rng.uniform(-0.5, 0.5) for _ in range(3)])


def _perpendicular(rng, u):
    w = np.cross(u, _box_point(rng))
    return w / np.linalg.norm(w)


def _near_parallel(rng, u):
    """A direction at a random small angle to u. Near 1e-10 rad _segment_distance stops stepping to the lines'
    closest pair, one rounding of |u x v|**2 decides, and the two answers differ by up to the angle times the
    overlap; the two implementations round alike on these pairs."""
    angle = 10.0 ** rng.choice([rng.uniform(-12.0, -8.5), rng.uniform(-6.0, -2.0)])
    return u + angle * np.linalg.norm(u) * _perpendicular(rng, u)


def _segment_pair(family, rng):
    """One segment pair (p0, p1, q0, q1) of the family, in or near the unit box."""
    p0, p1, q0, q1 = (_box_point(rng) for _ in range(4))
    u = p1 - p0
    if family == "generic":
        return p0, p1, q0, q1
    if family == "zero-length":
        return rng.choice([(p0, p0, q0, q1), (p0, p1, q0, q0), (p0, p0, q0, q0)])
    if family == "parallel":
        return p0, p1, q0, q0 + rng.uniform(-1.0, 1.0) * u
    if family == "collinear-overlapping":
        return p0, p1, p0 + rng.uniform(-0.5, 0.5) * u, p0 + rng.uniform(0.5, 1.5) * u
    v = _near_parallel(rng, u)
    if family == "near-parallel":
        # a gap well above the tilt; test_near_parallel_crossing_family covers crossings
        start = p0 + rng.uniform(-0.5, 1.5) * u + rng.uniform(0.05, 0.3) * _perpendicular(rng, u)
        return p0, p1, start, start + rng.uniform(-1.0, 1.0) * v
    # near-parallel, sharing one of the four endpoint pairs: the endpoint projections give 0 to a rounding
    shared = rng.choice([p0, p1])
    other = shared + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0) * v
    return (p0, p1, *rng.choice([(shared, other), (other, shared)]))


_FAMILIES = ["generic", "zero-length", "parallel", "collinear-overlapping", "near-parallel", "near-parallel-shared"]


class TestNumpyOracle:
    """The plain-float geometry against the same algorithms written on numpy arrays."""

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_segment_distance(self, family):
        rng = random.Random(f"segments-{family}")
        for _ in range(400):
            pair = _segment_pair(family, rng)
            found = _segment_distance(*(tuple(map(float, pt)) for pt in pair))
            assert abs(found - segment_distance_np(*pair)) <= 1e-15, pair

    @pytest.mark.parametrize("swap", [False, True])
    def test_near_parallel_endpoint_touching_the_other_interior(self, swap):
        # at 4e-8 rad; the segments meet at p1 = (1, 0, 0), inside q0-q1
        p = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        q = ((0.5, 2e-8, 0.0), (1.5, -2e-8, 0.0))
        pair = (*q, *p) if swap else (*p, *q)
        assert _segment_distance(*pair) < 1e-20
        assert segment_distance_np(*pair) < 1e-20

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("height", [0.0, 3e-9])
    def test_near_parallel_crossing_inside_both(self, swap, height):
        # at 1e-8 rad the lines' closest pair is at x = 0.5, inside both segments, where every endpoint projection
        # reads about 5e-9
        p = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        q = ((0.0, -5e-9, height), (1.0, 5e-9, height))
        pair = (*q, *p) if swap else (*p, *q)
        assert abs(_segment_distance(*pair) - height) < 1e-20
        assert abs(segment_distance_np(*pair) - height) < 1e-20

    def test_near_parallel_crossing_family(self):
        rng = random.Random("segments-near-parallel-crossing")
        for _ in range(400):
            p0, p1 = _box_point(rng), _box_point(rng)
            u = p1 - p0
            side = _perpendicular(rng, u)
            up = np.cross(u, side) / np.linalg.norm(u)
            # from 10**-9.5 rad, above the 1e-10 where the step stops, to 1e-5
            tilt = 10.0 ** rng.uniform(-9.5, -5.0) * np.linalg.norm(u) * side
            v = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0) * (u + tilt)
            height = rng.uniform(0.0, 2e-9)
            crossing = p0 + rng.uniform(0.1, 0.9) * u + height * up
            q0 = crossing - rng.uniform(0.1, 0.9) * v
            pair = (p0, p1, q0, q0 + v)
            found = _segment_distance(*(tuple(map(float, pt)) for pt in pair))
            assert abs(found - segment_distance_np(*pair)) <= 1e-15, pair
            assert abs(found - height) <= 1e-15, pair

    def test_gauss_integral(self):
        rng = random.Random(2025)
        pairs = 0
        while pairs < 60:
            a = random_loop(rng, (0, 0, 0), radius=rng.uniform(0.5, 2.0), n=rng.randint(3, 20))
            b = random_loop(rng, tuple(rng.uniform(-2.0, 2.0) for _ in range(3)), radius=rng.uniform(0.5, 2.0),
                            n=rng.randint(3, 20))
            # a pair that nearly touches sits next to a jump of the integral by an integer
            if min(segment_distance_np(a[i - 1], a[i], b[j - 1], b[j]) for i in range(len(a))
                   for j in range(len(b))) < 0.01:
                continue
            raw = gauss_integral(tuple(map(tuple, a.tolist())), tuple(map(tuple, b.tolist())))
            assert abs(raw - gauss_integral_np(a, b)) <= 1e-12
            pairs += 1
