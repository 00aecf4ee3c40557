"""Hypothesis properties pinning the drive's angular-scan SPTF scheduler
bit-identical to the numpy-per-step reference scheduler."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.registry import DRIVES
from repro.disk import DiskDrive
from repro.perf.reference import reference_sptf

# built once: models are immutable, every example gets fresh drives
MODELS = {name: DRIVES.get(name).factory() for name in DRIVES.names()}


@st.composite
def sptf_batches(draw):
    """(model, starts, lengths, window, head track, clock) with no run
    crossing a zone, so the batch reaches the SPTF scheduler.

    Start angles are drawn from a small per-batch pool and each run
    draws its own track, so equal angles on different tracks (cost ties)
    are common."""
    name = draw(st.sampled_from(sorted(MODELS)))
    model = MODELS[name]
    geom = model.geometry
    n = draw(st.integers(1, 48))
    pool = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=4))
    starts, lengths = [], []
    for _ in range(n):
        zone_index = draw(st.integers(0, len(geom.zones) - 1))
        zone = geom.zone(zone_index)
        spt = zone.sectors_per_track
        # leave the zone's last track free so a run may spill one track
        tz = draw(st.integers(0, geom.zone_tracks(zone_index) - 2))
        angle = draw(st.sampled_from(pool)) % spt
        sector = (angle - zone.skew_sectors * tz) % spt
        starts.append(geom.zone_first_lbn(zone_index) + tz * spt + sector)
        lengths.append(draw(st.integers(1, spt)))
    window = draw(st.sampled_from([1, 2, 3, 8, n, n + 7, 128]))
    track = draw(st.integers(0, geom.n_tracks - 1))
    clock = draw(st.one_of(
        st.floats(0.0, 1e6, allow_nan=False),
        # whole-ms clocks land exactly on sector boundaries of the toy
        # disk (1 ms per sector), where rotational waits snap to zero
        st.integers(0, 10**6).map(float),
    ))
    return model, np.array(starts), np.array(lengths), window, track, clock


def _drive(model, track, clock) -> DiskDrive:
    drive = DiskDrive(model)
    drive.reset(track, clock)
    return drive


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batch=sptf_batches())
def test_scan_matches_reference(batch):
    model, starts, lengths, window, track, clock = batch
    fast_drive = _drive(model, track, clock)
    ref_drive = _drive(model, track, clock)

    fast = fast_drive.service_runs(
        starts, lengths, policy="sptf", window=window, collect=True
    )
    ref = reference_sptf(
        ref_drive, ref_drive._prepare_runs(starts, lengths), window, True
    )

    assert fast.total_ms == ref.total_ms
    assert fast.seek_ms == ref.seek_ms
    assert fast.rotation_ms == ref.rotation_ms
    assert fast.transfer_ms == ref.transfer_ms
    assert fast.switch_ms == ref.switch_ms
    assert fast.overhead_ms == ref.overhead_ms
    assert fast.n_blocks == ref.n_blocks
    assert np.array_equal(fast.order, ref.order)
    assert np.array_equal(fast.per_request_ms, ref.per_request_ms)
    assert fast_drive.now_ms == ref_drive.now_ms
    assert fast_drive.current_track == ref_drive.current_track


def test_equal_angles_on_different_tracks():
    """Forty requests at one start angle, each on its own track: every
    step has rotational ties that only the seek or the request index
    breaks."""
    model = MODELS["atlas10k3"]
    geom = model.geometry
    spt = geom.zone(0).sectors_per_track
    skew = geom.zone(0).skew_sectors
    starts = np.array([tz * spt + (7 - skew * tz) % spt for tz in range(40)])
    lengths = np.ones_like(starts)
    angles = DiskDrive(model)._prepare_runs(starts, lengths)["a0"]
    assert len(set(angles.tolist())) == 1
    for window in (1, 5, 40):
        a, b = _drive(model, 3, 0.0), _drive(model, 3, 0.0)
        fast = a.service_runs(starts, lengths, policy="sptf",
                              window=window, collect=True)
        ref = reference_sptf(b, b._prepare_runs(starts, lengths), window,
                             True)
        assert np.array_equal(fast.order, ref.order)
        assert fast.total_ms == ref.total_ms


def test_window_must_be_positive():
    drive = DiskDrive(MODELS["minidrive"])
    with pytest.raises(ValueError, match="window"):
        drive.service_runs([0, 10], [1, 1], policy="sptf", window=0)
