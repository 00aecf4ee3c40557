"""Scatter-gather semantics of the sharded storage manager."""

import numpy as np
import pytest

from repro.api import Dataset
from repro.errors import DatasetError, QueryError
from repro.query.scatter import ShardedPrepared
from repro.query.workload import BeamQuery, RangeQuery

SHAPE = (24, 12, 12)


def make(small_model, layout="multimap", n=4, **kw):
    return Dataset.create(SHAPE, layout=layout, drive=small_model,
                          seed=17).with_shards(n, **kw)


class TestPrepare:
    def test_cross_shard_beam_fans_out(self, small_model):
        ds = make(small_model, n=4)
        prepared = ds.storage.prepare(
            ds.mapper, BeamQuery(axis=2, fixed=(0, 3, 0))
        )
        assert isinstance(prepared, ShardedPrepared)
        assert len(prepared.subs) == 4
        assert sorted(prepared.disks) == [0, 1, 2, 3]
        assert prepared.n_cells == SHAPE[2]

    def test_single_shard_beam_stays_local(self, small_model):
        ds = make(small_model, n=4)
        prepared = ds.storage.prepare(
            ds.mapper, BeamQuery(axis=1, fixed=(0, 0, 5))
        )
        # fixed[2]=5 lives in exactly one last-axis slab
        assert len(prepared.subs) == 1
        assert prepared.n_cells == SHAPE[1]

    def test_range_cells_partition_across_chunks(self, small_model):
        ds = make(small_model, n=3)
        q = RangeQuery((2, 3, 1), (20, 9, 11))
        prepared = ds.storage.prepare(ds.mapper, q)
        assert prepared.n_cells == q.n_cells()
        assert sum(s.n_cells for s in prepared.subs) == q.n_cells()

    def test_beam_blocks_conserved_vs_unsharded(self, small_model):
        """Beams fetch exactly their cells (merge_gap=0), so block
        counts are invariant under sharding; range plans may read
        through different gap patterns per chunk shape, so only the
        cell totals are pinned for them (see the partition test)."""
        plain = Dataset.create(SHAPE, layout="multimap",
                               drive=small_model, seed=17)
        sharded = make(small_model, n=4)
        q = BeamQuery(axis=2, fixed=(1, 2, 0))
        p1 = plain.storage.prepare(plain.mapper, q)
        p2 = sharded.storage.prepare(sharded.mapper, q)
        assert p1.n_blocks == p2.n_blocks == SHAPE[2]

    def test_invalid_queries_raise(self, small_model):
        ds = make(small_model, n=2)
        with pytest.raises(QueryError):
            ds.storage.prepare(ds.mapper, BeamQuery(axis=9, fixed=(0,) * 3))
        with pytest.raises(QueryError):
            ds.storage.prepare(
                ds.mapper, RangeQuery((0, 0, 0), (25, 12, 12))
            )
        with pytest.raises(QueryError):
            ds.storage.prepare(ds.mapper, object())


class TestExecute:
    def test_makespan_is_max_over_disks(self, small_model):
        from repro.query.scatter import scatter_execute

        ds = make(small_model, n=4)
        prepared = ds.storage.prepare(
            ds.mapper, BeamQuery(axis=2, fixed=(3, 4, 0))
        )
        result, per_disk = scatter_execute(
            ds.storage, prepared, rng=np.random.default_rng(1)
        )
        assert len(per_disk) == 4
        busiest = max(d["busy_ms"] for d in per_disk.values())
        assert result.total_ms == pytest.approx(busiest)
        assert result.total_ms < sum(
            d["busy_ms"] for d in per_disk.values()
        )
        assert result.n_blocks == sum(
            d["blocks"] for d in per_disk.values()
        )

    def test_cross_shard_beam_speeds_up(self, small_model):
        """A beam along the split axis is faster on 4 shards than 1."""
        def time_beam(n):
            ds = Dataset.create(SHAPE, layout="multimap",
                                drive=small_model, seed=29).with_shards(n)
            rng = np.random.default_rng(5)
            res = ds.storage.run_query(
                ds.mapper, BeamQuery(axis=2, fixed=(0, 0, 0)), rng=rng
            )
            return res.total_ms

        assert time_beam(4) < time_beam(1)

    def test_multiple_chunks_per_disk(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=3).with_shards(
            2, chunk_shape=(24, 12, 3),
        )
        assert ds.shard_map.n_chunks == 4
        assert ds.shard_map.chunk_counts() == [2, 2]
        rep = ds.random_beams(axis=2, n=3).run()
        assert len(rep) == 3
        assert rep.meta["shards"]["n_chunks"] == 4

    def test_shard_stats_accumulate(self, small_model):
        ds = make(small_model, n=3)
        ds.random_beams(axis=2, n=4).run()
        stats = ds.storage.shard_stats
        assert stats.n_queries == 4
        assert sum(stats.queries) >= 4
        assert 0.0 < stats.parallel_efficiency <= 1.0
        ds.storage.reset_shard_stats()
        assert ds.storage.shard_stats.n_queries == 0

    def test_beam_range_entry_points(self, small_model):
        ds = make(small_model, n=2)
        rng = np.random.default_rng(3)
        res = ds.storage.beam(ds.mapper, 2, (0, 1, 0), rng=rng)
        assert res.n_cells == SHAPE[2]
        res = ds.storage.range(ds.mapper, (0, 0, 0), (4, 4, 8), rng=rng)
        assert res.n_cells == 4 * 4 * 8

    def test_plain_prepared_falls_through(self, small_model):
        """A plain PreparedQuery on the sharded manager takes the
        one-shot single-disk path."""
        ds = make(small_model, n=2)
        chunk_mapper = ds.mapper.chunk_mappers[0]
        plan = chunk_mapper.beam_plan(1, (0, 0, 0))
        prepared = ds.storage.prepare_plan(chunk_mapper, plan, SHAPE[1])
        res = ds.storage.execute_prepared(
            prepared, rng=np.random.default_rng(1)
        )
        assert res.n_cells == SHAPE[1]

    def test_subplans_helper(self, small_model):
        plain = Dataset.create(SHAPE, layout="naive", drive=small_model)
        p = plain.storage.prepare(
            plain.mapper, BeamQuery(axis=1, fixed=(0, 0, 0))
        )
        assert p.subs == (p,)


class TestDatasetIntegration:
    def test_with_layout_clone_keeps_sharding(self, small_model):
        ds = make(small_model, n=3)
        clone = ds.with_layout("naive")
        assert clone.n_shards == 3
        assert clone.shard_map.n_disks == 3
        assert clone.volume.n_disks == 3

    def test_with_layout_clone_keeps_identical_chunk_grid(self,
                                                          small_model):
        """Fairness: clones compare layouts on the SAME declustering,
        even when one layout's cube alignment shaped the default."""
        for src, dst in (("naive", "multimap"), ("multimap", "naive")):
            ds = Dataset.create((24, 8, 200), layout=src,
                                drive=small_model, seed=1).with_shards(
                2, strategy="cube_aligned",
            )
            clone = ds.with_layout(dst)
            assert clone.shard_map.grid == ds.shard_map.grid
            assert [c.disk for c in clone.shard_map.chunks] == \
                [c.disk for c in ds.shard_map.chunks]

    def test_store_rejected_on_sharded(self, small_model):
        ds = make(small_model, n=2)
        with pytest.raises(DatasetError):
            _ = ds.store
        with pytest.raises(DatasetError):
            ds.insert((0, 0, 0))
        with pytest.raises(DatasetError):
            ds.bulk_load(np.zeros((1, 3), dtype=np.int64))

    def test_shard_after_store_rejected(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        ds.insert((1, 2, 3))
        with pytest.raises(DatasetError):
            ds.with_shards(2)

    def test_invalid_shard_count(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        with pytest.raises(DatasetError):
            ds.with_shards(0)

    def test_failed_with_shards_leaves_dataset_intact(self, small_model):
        """A rejected call must not half-mutate the stack: volume,
        storage, and mapper all stay the originals."""
        from repro.errors import ReproError

        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=2)
        volume, storage, mapper = ds.volume, ds.storage, ds.mapper
        with pytest.raises(ReproError):
            ds.with_shards(2, strategy="typo")
        assert ds.volume is volume
        assert ds.storage is storage
        assert ds.mapper is mapper
        assert not ds.is_sharded
        # the untouched stack still answers queries
        assert ds.random_beams(axis=1, n=1).run().total_ms > 0

    def test_hand_wired_pool_not_silently_dropped(self, small_model):
        """A pool wired directly into storage.cache (the escape hatch
        with_cache documents) cannot be carried across the rebuild —
        refuse loudly instead of running the experiment uncached."""
        from repro.cache import BufferPool

        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        ds.storage.cache = BufferPool(1024)
        with pytest.raises(DatasetError):
            ds.with_shards(2)
        # with_cache-managed specs still carry over fine
        ds.storage.cache = None
        ds = ds.with_cache(1024).with_shards(2)
        assert ds.cache is not None

    def test_cube_aligned_keeps_basic_cubes_whole(self, small_model):
        """cube_aligned splits on an axis with real cube boundaries and
        every chunk boundary lands on a multiple of the cube side."""
        ds = Dataset.create((24, 8, 200), layout="multimap",
                            drive=small_model, seed=1)
        K = ds._basic_cube_sides()
        ds = ds.with_shards(2, strategy="cube_aligned")
        assert ds.shard_map.n_chunks > 1  # a real split happened
        split_axes = [
            d for d in range(3) if ds.shard_map.grid[d] > 1
        ]
        for axis in split_axes:
            assert K[axis] < ds.shape[axis]
            for chunk in ds.shard_map.chunks:
                assert chunk.origin[axis] % K[axis] == 0

    def test_cube_aligned_single_cube_stays_whole(self):
        """When every basic cube spans its axis (the whole dataset is
        one cube column), cube_aligned refuses to split — one chunk
        beats a broken cube."""
        ds = Dataset.create((24, 8), layout="multimap",
                            drive="minidrive", seed=1)
        K = ds._basic_cube_sides()
        assert all(k >= s for k, s in zip(K, ds.shape))
        ds = ds.with_shards(2, strategy="cube_aligned")
        assert ds.shard_map.n_chunks == 1

    def test_seeded_runs_reproducible(self, small_model):
        def run():
            return make(small_model, n=3).random_beams(axis=2, n=4) \
                .run().to_json()

        assert run() == run()
