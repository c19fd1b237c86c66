import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geom_helpers import (
    crossing_count_linking,
    hopf_pair,
    outward_offsets,
    polylink_json,
    ring,
    square,
    twisted_offsets,
)
from qtopo.errors import GeometryError, SchemaError
from qtopo.linkgeom import (
    PolyLink,
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
    return PolyLink(components=tuple(c * scale for c in link.components), framings=link.framings,
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

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(t=st.integers(min_value=-150, max_value=300), which=st.sampled_from(["hopf", "twisted"]))
    def test_matrix_unchanged_under_scaling(self, t, which):
        link = hopf_polylink() if which == "hopf" else unit_twisted_pair()
        assert linking_matrix(scaled(link, 10.0**t)).J == linking_matrix(link).J


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
            ('{"components": [{"points": [[0,0],[1,0],[0,1]], "offsets": [[0,0],[1,0],[0,1]]}], "delta": 0.1}',
             "/components/0/points"),
            ('{"components": [{"points": [[NaN,0,0],[1,0,0],[0,1,0]], "offsets": [[0,0,1],[0,0,1],[0,0,1]]}],'
             ' "delta": 0.1}', "/components/0/points"),
            ('{"components": [{"points": [[0,0,0],[1,0,0],[0,1,0]], "offsets": [[0,0,1],[0,0,-Infinity],[0,0,1]]}],'
             ' "delta": 0.1}', "/components/0/offsets"),
            ('{"components": [], "delta": Infinity}', "/delta"),
            ('{"components": [], "delta": NaN}', "/delta"),
            pytest.param('{"components": [], "delta": 1%s}' % ("0" * 400), "/delta", id="delta-beyond-float"),
        ],
    )
    def test_schema_errors_name_field(self, payload, pointer):
        with pytest.raises(SchemaError) as err:
            PolyLink.from_json(payload)
        assert str(err.value).startswith(pointer)
