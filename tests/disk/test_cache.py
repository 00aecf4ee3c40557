"""Tests for the firmware track cache (modern-storage ablation feature)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import DiskDrive, TrackCache


class TestTrackCache:
    def test_miss_then_hit(self):
        c = TrackCache(4)
        assert not c.hit(3, 3)
        c.insert(3, 3)
        assert c.hit(3, 3)

    def test_multi_track_hit_needs_all(self):
        c = TrackCache(4)
        c.insert(3, 4)
        assert c.hit(3, 4)
        assert not c.hit(3, 5)

    def test_lru_eviction(self):
        c = TrackCache(2)
        c.insert(1, 1)
        c.insert(2, 2)
        c.insert(3, 3)  # evicts 1
        assert not c.hit(1, 1)
        assert c.hit(2, 2)
        assert c.hit(3, 3)

    def test_hit_refreshes_recency(self):
        c = TrackCache(2)
        c.insert(1, 1)
        c.insert(2, 2)
        c.hit(1, 1)      # 1 becomes most recent
        c.insert(3, 3)   # evicts 2
        assert c.hit(1, 1)
        assert not c.hit(2, 2)

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 9), st.integers(0, 3)),
            max_size=60,
        ),
    )
    def test_matches_tick_model(self, capacity, ops):
        """Hits, refreshes and overflow evict exactly what a stamp-per-touch
        LRU (evict the smallest stamp) evicts."""
        cache = TrackCache(capacity)
        stamps: dict[int, int] = {}
        tick = 0
        for is_insert, first, span in ops:
            tracks = range(first, first + span + 1)
            if is_insert:
                cache.insert(first, first + span)
            else:
                buffered = all(t in stamps for t in tracks)
                assert cache.hit(first, first + span) == buffered
                if not buffered:
                    continue
            for t in tracks:
                tick += 1
                stamps[t] = tick
            while len(stamps) > capacity:
                del stamps[min(stamps, key=stamps.get)]
            assert list(cache._lru) == sorted(stamps, key=stamps.get)

    def test_clear(self):
        c = TrackCache(4)
        c.insert(1, 2)
        c.clear()
        assert not c.hit(1, 1)


class TestCachedDrive:
    def test_no_cache_by_default(self, small_model):
        assert DiskDrive(small_model).cache is None

    def test_repeat_read_hits(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=8)
        miss = drive.service(100).total_ms
        hit = drive.service(100).total_ms
        assert hit < miss / 3
        assert hit == pytest.approx(
            small_model.mechanics.command_overhead_ms
            + DiskDrive.CACHE_BLOCK_MS
        )

    def test_same_track_neighbour_hits(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=8)
        drive.service(100)
        hit = drive.service(101)
        assert hit.seek_ms == 0.0
        assert hit.rotation_ms == 0.0

    def test_other_track_still_misses(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=8)
        drive.service(100)
        spt = small_model.geometry.track_length(0)
        miss = drive.service(100 + 5 * spt)
        assert miss.total_ms > 0.5

    def test_hits_do_not_move_the_head(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=8)
        drive.service(100)
        track = drive.current_track
        drive.service(100)  # hit
        assert drive.current_track == track

    def test_batch_path_uses_cache(self, small_model):
        drive = DiskDrive(small_model, cache_tracks=8)
        lbns = np.array([100, 103, 100, 101])
        res = drive.service_lbns(lbns, policy="fifo", collect=True)
        # first request misses, the rest hit the cached track
        assert res.per_request_ms[0] > res.per_request_ms[1] * 3
        assert res.n_requests == 4

    def test_cached_beats_uncached_on_clustered_reads(self, small_model):
        rng = np.random.default_rng(2)
        spt = small_model.geometry.track_length(0)
        lbns = rng.integers(0, 4 * spt, size=200)  # 4 tracks, heavy reuse
        cold = DiskDrive(small_model).service_lbns(lbns, policy="fifo")
        warm = DiskDrive(small_model, cache_tracks=8).service_lbns(
            lbns, policy="fifo"
        )
        assert warm.total_ms < cold.total_ms / 5
