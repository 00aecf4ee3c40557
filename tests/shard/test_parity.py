"""Parity: ``with_shards(1)`` is bit-identical to the unsharded stack.

The acceptance bar of the shard subsystem: a 1-shard dataset runs the
full shard machinery (shard map, chunk mapper, scatter-gather executor,
multi-queue traffic path) yet must produce bit-identical results and
JSON to the unsharded stack across the executor, batch ``Report`` JSON,
and traffic JSON.  Every comparison below is ``==`` on full JSON or
dataclass fields, no tolerances — the same bar the capacity-0 cache
parity holds.
"""

import numpy as np
import pytest

from repro.api import Dataset
from repro.query.workload import random_beam, random_range_cube
from repro.traffic import QueryMix

LAYOUTS = ["multimap", "naive", "zorder", "hilbert"]
SHAPE = (24, 12, 12)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestBatchParity:
    def test_report_json_identical(self, small_model, layout):
        plain = Dataset.create(SHAPE, layout=layout, drive=small_model,
                               seed=11)
        r_plain = plain.query().random_beams(axis=1, n=5) \
                       .range_selectivity(5.0).run()
        sharded = Dataset.create(SHAPE, layout=layout, drive=small_model,
                                 seed=11).with_shards(1)
        r_sharded = sharded.query().random_beams(axis=1, n=5) \
                           .range_selectivity(5.0).run()
        assert r_plain.to_json() == r_sharded.to_json()

    def test_executor_results_identical(self, small_model, layout):
        """Query-by-query QueryResult equality through the managers."""
        ds1 = Dataset.create(SHAPE, layout=layout, drive=small_model)
        ds2 = Dataset.create(SHAPE, layout=layout,
                             drive=small_model).with_shards(1)
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        for _ in range(3):
            q1 = random_beam(SHAPE, 1, rng1)
            q2 = random_beam(SHAPE, 1, rng2)
            assert ds1.storage.run_query(ds1.mapper, q1, rng=rng1) \
                == ds2.storage.run_query(ds2.mapper, q2, rng=rng2)
        for _ in range(2):
            q1 = random_range_cube(SHAPE, 8.0, rng1)
            q2 = random_range_cube(SHAPE, 8.0, rng2)
            assert ds1.storage.run_query(ds1.mapper, q1, rng=rng1) \
                == ds2.storage.run_query(ds2.mapper, q2, rng=rng2)

    def test_round_robin_strategy_also_identical(self, small_model,
                                                 layout):
        plain = Dataset.create(SHAPE, layout=layout, drive=small_model,
                               seed=3)
        sharded = Dataset.create(
            SHAPE, layout=layout, drive=small_model, seed=3,
        ).with_shards(1, strategy="round_robin")
        batch = plain.query().random_beams(axis=2, n=4)
        assert batch.run().to_json() == \
            sharded.random_beams(axis=2, n=4).run().to_json()


class TestTrafficParity:
    @pytest.mark.parametrize("layout", ["multimap", "zorder"])
    def test_seeded_traffic_json_identical(self, small_model, layout):
        def run(ds):
            return (
                ds.traffic()
                .clients(3, mix=QueryMix.beams(1, 2), queries=6)
                .slice_runs(8)
                .run()
            )

        plain = Dataset.create(SHAPE, layout=layout, drive=small_model,
                               seed=9)
        sharded = Dataset.create(SHAPE, layout=layout, drive=small_model,
                                 seed=9).with_shards(1)
        assert run(plain).to_json() == run(sharded).to_json()

    def test_one_shot_slice_none_parity(self, small_model):
        """slice_runs(None): whole-query batches, still identical."""
        def run(ds):
            return (
                ds.traffic()
                .clients(1, mix=QueryMix.beams(1), queries=6)
                .slice_runs(None)
                .run()
            )

        plain = Dataset.create(SHAPE, layout="multimap",
                               drive=small_model, seed=13)
        sharded = Dataset.create(SHAPE, layout="multimap",
                                 drive=small_model, seed=13).with_shards(1)
        assert run(plain).to_json() == run(sharded).to_json()


class TestCachedParity:
    def test_cached_one_shard_identical(self, small_model):
        """An active pool composes with 1-shard parity bit-for-bit."""
        def build(shard):
            ds = Dataset.create(SHAPE, layout="multimap",
                                drive=small_model, seed=21)
            if shard:
                ds = ds.with_shards(1)
            return ds.with_cache(2048, policy="slru", prefetch="track")

        r_plain = build(False).query().random_beams(axis=1, n=6) \
                              .repeats(2).run()
        r_shard = build(True).query().random_beams(axis=1, n=6) \
                             .repeats(2).run()
        assert r_plain.to_json() == r_shard.to_json()


class TestMetaGating:
    def test_one_shard_meta_has_no_shard_keys(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=1).with_shards(1)
        report = ds.random_beams(axis=1, n=2).run()
        assert "shards" not in report.meta
        assert "shards" not in ds.describe()
        assert ds.n_shards == 1 and ds.is_sharded

    def test_multi_shard_meta_present(self, small_model):
        ds = Dataset.create(SHAPE, layout="multimap", drive=small_model,
                            seed=1).with_shards(3)
        report = ds.random_beams(axis=2, n=2).run()
        assert report.meta["shards"]["n_shards"] == 3
        assert ds.describe()["shards"]["strategy"] == "disk_modulo"
        assert ds.n_shards == 3
