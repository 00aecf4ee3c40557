"""Tests for the mechanical timing model (seek curve, rotation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.mechanics import DiskMechanics, SeekProfile
from repro.errors import GeometryError


def profile(**overrides):
    params = dict(
        settle_ms=1.2,
        settle_cylinders=32,
        max_cylinders=30_000,
        avg_seek_ms=4.5,
        full_stroke_ms=10.0,
    )
    params.update(overrides)
    return SeekProfile(**params)


class TestSeekProfile:
    def test_zero_distance_is_free(self):
        assert profile().time(0) == 0.0

    def test_settle_region_is_flat(self):
        p = profile()
        times = [p.time(d) for d in range(1, 33)]
        assert all(t == pytest.approx(1.2) for t in times)

    def test_step_after_settle_region(self):
        p = profile()
        assert p.time(33) >= 1.2 + p.step_ms

    def test_monotone_nondecreasing(self):
        p = profile()
        d = np.arange(0, p.max_cylinders + 1)
        t = p.time(d)
        assert (np.diff(t) >= -1e-12).all()

    def test_average_anchor(self):
        p = profile()
        assert p.time(p.knee_cylinders) == pytest.approx(4.5)

    def test_full_stroke_anchor(self):
        p = profile()
        assert p.time(p.max_cylinders) == pytest.approx(10.0)

    def test_vectorised_matches_scalar(self):
        p = profile()
        d = np.array([0, 1, 32, 33, 500, 10_000, 30_000])
        vec = p.time(d)
        scal = np.array([p.time(int(x)) for x in d])
        np.testing.assert_allclose(vec, scal)

    @pytest.mark.parametrize("name", ["atlas10k3", "cheetah36es", "toy",
                                      "minidrive"])
    def test_table_is_the_curve_bit_for_bit(self, name):
        from repro.api.registry import DRIVES

        p = DRIVES.get(name).factory().mechanics.seek
        d = np.arange(p.max_cylinders + 1)
        assert np.array_equal(p.table, p.time(d))
        assert all(p.table[x] == p.time(int(x)) for x in d[:: 97])

    def test_table_is_shared_and_read_only(self):
        a, b = profile(), profile()
        assert a.table is b.table
        assert profile(max_cylinders=20_000).table is not a.table
        with pytest.raises(ValueError):
            a.table[1] = 0.0

    def test_rejects_negative_settle(self):
        with pytest.raises(GeometryError):
            profile(settle_ms=-1.0)

    def test_rejects_inverted_anchors(self):
        with pytest.raises(GeometryError):
            profile(avg_seek_ms=0.5)

    def test_rejects_tiny_max(self):
        with pytest.raises(GeometryError):
            profile(max_cylinders=10)

    @given(
        d1=st.integers(min_value=0, max_value=30_000),
        d2=st.integers(min_value=0, max_value=30_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_monotone(self, d1, d2):
        p = profile()
        lo, hi = sorted((d1, d2))
        assert p.time(lo) <= p.time(hi) + 1e-12


class TestDiskMechanics:
    def test_rotation_from_rpm(self):
        m = DiskMechanics(rpm=10_000, seek=profile())
        assert m.rotation_ms == pytest.approx(6.0)

    def test_head_switch_defaults_to_settle(self):
        m = DiskMechanics(rpm=10_000, seek=profile())
        assert m.head_switch_ms == pytest.approx(1.2)

    def test_head_switch_override(self):
        m = DiskMechanics(rpm=10_000, seek=profile(), head_switch_ms=0.8)
        assert m.head_switch_ms == pytest.approx(0.8)

    def test_avg_rotational_latency_is_half_revolution(self):
        m = DiskMechanics(rpm=10_000, seek=profile())
        assert m.avg_rotational_latency_ms() == pytest.approx(3.0)

    def test_seek_time_delegates(self):
        m = DiskMechanics(rpm=10_000, seek=profile())
        assert m.seek_time(5) == pytest.approx(1.2)

    def test_rejects_nonpositive_rpm(self):
        with pytest.raises(GeometryError):
            DiskMechanics(rpm=0, seek=profile())

    def test_with_settle_produces_new_settle(self):
        m = DiskMechanics(rpm=10_000, seek=profile())
        m2 = m.with_settle(2.0)
        assert m2.settle_ms == pytest.approx(2.0)
        assert m2.head_switch_ms == pytest.approx(2.0)
        assert m.settle_ms == pytest.approx(1.2)  # original untouched
