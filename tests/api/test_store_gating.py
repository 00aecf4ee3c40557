"""CellStore gating behind the façade under sharding/replication.

PR 4 gated online updates off sharded datasets; these tests pin the
exact error type and message, and that un-sharding back to 1 member
disk restores update support (a 1-shard dataset's lone chunk mapper is
bit-identical to the full-dataset mapper, the pinned parity guarantee).
"""

import pytest

from repro.api import Dataset
from repro.errors import DatasetError

SHAPE = (24, 12, 12)

GATE_MSG = (
    "online updates (CellStore) are not supported on sharded "
    "datasets; stream writes through Dataset.ingest() instead"
)


def make(small_model, **opts):
    return Dataset.create(SHAPE, layout="multimap", drive=small_model,
                          seed=5, **opts)


class TestShardedGate:
    def test_store_property_raises_dataset_error(self, small_model):
        ds = make(small_model).with_shards(2)
        with pytest.raises(DatasetError) as exc:
            ds.store
        assert str(exc.value) == GATE_MSG

    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_cell_ops_raise_with_same_message(self, small_model, op):
        ds = make(small_model).with_shards(3)
        with pytest.raises(DatasetError) as exc:
            getattr(ds, op)((0, 0, 0))
        assert str(exc.value) == GATE_MSG

    def test_bulk_load_raises_before_clearing_cache(self, small_model):
        ds = make(small_model).with_shards(2).with_cache(2048)
        ds.random_beams(axis=1, n=3).run()
        occupied = ds.cache.occupancy
        assert occupied > 0
        with pytest.raises(DatasetError) as exc:
            ds.bulk_load([(0, 0, 0)])
        assert str(exc.value) == GATE_MSG
        # the gate fired before the cache was cleared
        assert ds.cache.occupancy == occupied

    def test_one_shard_many_chunks_also_gated(self, small_model):
        """1 member disk but an explicit chunk_shape that tiles the
        dataset into several chunks: chunk 0's mapper does NOT span the
        dataset, so updates must stay gated (a raw chunk mapper would
        crash or mis-map cells outside chunk 0)."""
        ds = make(small_model).with_shards(1, chunk_shape=(24, 12, 4))
        assert ds.n_shards == 1
        assert len(ds.mapper.chunk_mappers) > 1
        with pytest.raises(DatasetError) as exc:
            ds.insert((0, 0, 6))  # a valid cell outside chunk 0
        assert str(exc.value) == GATE_MSG

    def test_replicated_dataset_also_gated(self, small_model):
        ds = make(small_model).with_shards(3).with_replication(2)
        with pytest.raises(DatasetError) as exc:
            ds.store
        assert str(exc.value) == GATE_MSG

    def test_sharding_after_store_still_refused(self, small_model):
        ds = make(small_model)
        ds.insert((1, 2, 3))
        with pytest.raises(DatasetError, match="cannot shard"):
            ds.with_shards(2)


class TestUnshardingRestoresUpdates:
    def test_one_shard_dataset_supports_updates(self, small_model):
        ds = make(small_model).with_shards(1)
        assert ds.insert((1, 2, 3)) == "cell"
        ds.delete((1, 2, 3))
        stats = ds.store_stats()
        assert stats.n_cells == ds.n_cells

    def test_reshard_back_to_one_restores_support(self, small_model):
        ds = make(small_model).with_shards(4)
        with pytest.raises(DatasetError):
            ds.store
        ds = ds.with_shards(1)
        assert ds.n_shards == 1
        assert ds.insert((0, 0, 0)) == "cell"

    def test_one_shard_store_matches_unsharded(self, small_model):
        """The 1-shard store works against the chunk mapper, which is
        placement-identical to the plain mapper."""
        opts = dict(points_per_cell=4, fill_factor=0.5)
        plain = make(small_model).configure_store(**opts)
        one = make(small_model).with_shards(1).configure_store(**opts)
        for ds in (plain, one):
            ds.bulk_load([(0, 0, 0), (1, 1, 1)], counts=[2, 2])
            ds.insert((0, 0, 0))
        assert plain.store_stats() == one.store_stats()
        r_p = plain.read_cells([(0, 0, 0)])
        r_o = one.read_cells([(0, 0, 0)])
        assert r_p == r_o

    def test_one_shard_write_invalidates_cache(self, small_model):
        """The write-invalidate path resolves the chunk mapper (the
        ShardedMapper has no cell-level lbns)."""
        ds = make(small_model).with_shards(1).with_cache(2048)
        ds.random_beams(axis=1, n=3).run()
        ds.insert((2, 3, 4))  # must not raise
        ds.reorganize() if ds.needs_reorganization else None
