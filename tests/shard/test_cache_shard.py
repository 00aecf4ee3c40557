"""Shared vs per-shard buffer-pool composition on sharded datasets."""

import pytest

from repro.api import Dataset
from repro.cache import BufferPool, ShardedBufferPool
from repro.errors import CacheError, DatasetError

SHAPE = (24, 12, 12)


class TestShardedBufferPool:
    def test_routes_by_disk(self):
        pool = ShardedBufferPool(3, 64, prefetch="none")
        assert pool.active
        assert pool.capacity == 3 * 64
        import numpy as np

        from repro.mappings.base import RequestPlan

        plan = RequestPlan(np.array([0]), np.array([4]))
        pool.admit_plan(None, 2, plan)
        assert pool.pools[2].occupancy == 4
        assert pool.pools[0].occupancy == 0
        assert pool.occupancy == 4

    def test_invalidate_is_per_shard(self):
        import numpy as np

        from repro.mappings.base import RequestPlan

        pool = ShardedBufferPool(2, 64)
        plan = RequestPlan(np.array([0]), np.array([4]))
        pool.admit_plan(None, 0, plan)
        pool.admit_plan(None, 1, plan)
        pool.invalidate(0, np.arange(4))
        assert pool.pools[0].occupancy == 0
        assert pool.pools[1].occupancy == 4
        pool.clear()
        assert pool.occupancy == 0

    def test_aggregate_stats_sum_members(self):
        import numpy as np

        from repro.mappings.base import RequestPlan

        pool = ShardedBufferPool(2, 64)
        plan = RequestPlan(np.array([0]), np.array([4]))
        pool.admit_plan(None, 0, plan)
        miss, hits, _ = pool.filter_plan(0, plan)
        assert hits == 4 and miss.n_runs == 0
        pool.filter_plan(1, plan)  # cold member: all miss
        agg = pool.stats
        assert agg.accesses == 8
        assert agg.hits == 4 and agg.misses == 4
        assert agg.hits + agg.misses == agg.accesses

    def test_out_of_range_disk_rejected(self):
        pool = ShardedBufferPool(2, 16)
        with pytest.raises(CacheError):
            pool.filter_plan(2, None)
        with pytest.raises(CacheError):
            ShardedBufferPool(0, 16)

    def test_describe_matches_pool_surface(self):
        import json

        pool = ShardedBufferPool(2, 16, policy="slru", prefetch="track")
        out = pool.describe()
        json.dumps(out)
        assert out["scope"] == "per_shard"
        assert out["capacity_blocks"] == 32
        assert out["policy"] == "slru" or "slru" in str(out["policy"])
        assert len(out["pools"]) == 2
        assert "hit_ratio" in out["stats"]


class TestDatasetComposition:
    def test_shared_pool_spans_shards(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=5).with_shards(3).with_cache(
            4096, prefetch="track",
        )
        assert isinstance(ds.cache, BufferPool)
        ds.random_beams(axis=2, n=4).repeats(2).run()
        assert ds.cache.stats.hits > 0

    def test_per_shard_pools(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=5).with_shards(3).with_cache(
            2048, prefetch="track", scope="per_shard",
        )
        assert isinstance(ds.cache, ShardedBufferPool)
        assert ds.cache.n_disks == 3
        rep = ds.random_beams(axis=2, n=4).repeats(2).run()
        assert ds.cache.stats.hits > 0
        assert rep.meta["cache"]["scope"] == "per_shard"

    def test_with_shards_reinstates_cache_spec(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=5).with_cache(
            1024, scope="per_shard",
        ).with_shards(4)
        assert isinstance(ds.cache, ShardedBufferPool)
        assert ds.cache.n_disks == 4

    def test_invalid_scope_rejected(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        with pytest.raises(DatasetError):
            ds.with_cache(1024, scope="nope")

    def test_rejected_cache_config_leaves_spec_unchanged(self,
                                                         small_model):
        """A pool constructor failure must not commit a stale spec."""
        from repro.errors import ReproError

        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model)
        with pytest.raises(ReproError):
            ds.with_cache(1024, service_ms_per_block=-1)
        assert ds.cache is None
        assert "cache" not in ds.describe()
        # and the dataset still shards cleanly afterwards
        ds = ds.with_shards(2)
        assert ds.cache is None

    def test_per_shard_capacity_zero_detaches(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=5).with_shards(2).with_cache(
            0, scope="per_shard",
        )
        assert ds.cache is None
