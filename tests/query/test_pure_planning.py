"""Pure planning: ``plan`` books nothing, ``prepare`` commits once.

``StorageManager.plan`` is a function of the mapper, the query and the
committed routing state; only ``commit`` touches the cache, the replica
routing totals and the perf probes.  A query that fails to plan must
therefore leave no trace.
"""

import json

import numpy as np
import pytest

from repro.api.dataset import Dataset
from repro.cache.pool import BufferPool
from repro.errors import ReplicaError
from repro.mappings.base import RequestPlan
from repro.perf.profile import PROBES, profiled
from repro.query.workload import BeamQuery, RangeQuery

BOX = RangeQuery((0, 0, 0), (48, 12, 12))
BEAM = BeamQuery(0, (0, 6, 6))


def _base():
    return Dataset.create((48, 12, 12), layout="multimap",
                          drive="minidrive", seed=42)


def _state(ds):
    """Every piece of state a commit may touch, as plain values."""
    st = ds.storage
    out = {
        "cache": ds.cache.stats.to_dict() if ds.cache is not None else None,
        "occupancy": ds.cache.occupancy if ds.cache is not None else None,
        "probes": json.dumps(PROBES.snapshot(), sort_keys=True),
    }
    if hasattr(st, "replica_stats"):
        out["replica"] = st.replica_stats.to_dict()
        out["rr"] = dict(st._rr_counts)
    if ds.telemetry is not None:
        out["spans"] = ds.telemetry.tracer.n_queries
    return out


STACKS = {
    "plain": lambda: _base(),
    "cached": lambda: _base().with_cache(1024, prefetch="track"),
    "sharded_cached": lambda: _base().with_shards(2).with_cache(1024),
    "replicated_rr": lambda: (
        _base().with_shards(2)
        .with_replication(2, read_policy="round_robin")
        .with_cache(1024).with_telemetry()
    ),
    "replicated_ll": lambda: (
        _base().with_shards(3)
        .with_replication(2, read_policy="least_loaded")
    ),
}


class TestFailedPlanCommitsNothing:
    def test_unreadable_chunk_leaves_no_trace(self):
        ds = (Dataset.create((48, 12, 12), layout="multimap",
                             drive="minidrive", seed=42)
              .with_shards(3).with_replication(1).with_cache(4096))
        storage = ds.storage
        storage.fail_disk(2)
        before = (storage.replica_stats.to_dict(),
                  dict(storage._rr_counts), ds.cache.stats.to_dict())
        with pytest.raises(ReplicaError):
            storage.prepare(ds.mapper, RangeQuery((0, 0, 0), (48, 12, 12)))
        after = (storage.replica_stats.to_dict(),
                 dict(storage._rr_counts), ds.cache.stats.to_dict())
        assert after == before


@pytest.mark.parametrize("stack", sorted(STACKS))
class TestPlanIsPure:
    def test_plan_books_nothing(self, stack):
        ds = STACKS[stack]()
        ds.run([BEAM, BOX])  # warm cache and routing state
        with profiled():
            before = _state(ds)
            for query in (BEAM, BOX, BEAM):
                ds.storage.plan(ds.mapper, query)
            assert _state(ds) == before

    def test_prepare_is_plan_then_commit(self, stack):
        a, b = STACKS[stack](), STACKS[stack]()
        a.run([BEAM, BOX])
        b.run([BEAM, BOX])
        for query in (BOX, BEAM, BOX):
            prepared = a.storage.prepare(a.mapper, query)
            committed = b.storage.commit(b.storage.plan(b.mapper, query))
            assert prepared == committed
        assert _state(a) == _state(b)

    def test_raw_runs_carried_without_telemetry(self, stack):
        ds = STACKS[stack]().with_telemetry(trace=False, metrics=False)
        planned = ds.storage.plan(ds.mapper, BOX)
        for sub in planned.subs:
            assert sub.raw_runs >= sub.n_runs > 0


class TestPeekMatchesFilter:
    @pytest.mark.parametrize("resident", [8, 4000])
    def test_peek_predicts_filter(self, resident):
        # a few resident blocks exercise the set lookup, many the
        # vectorized isin; both must agree with what filter_plan serves
        pool = BufferPool(8192)
        for lbn in range(0, 2 * resident, 2):
            pool._admit((0, lbn), scan=False, prefetch=False)
        plan = RequestPlan(np.array([0, 40], dtype=np.int64),
                           np.array([20, 10], dtype=np.int64),
                           policy="sorted")
        stats = pool.stats.to_dict()
        peeked = pool.peek_plan(0, plan)
        assert pool.stats.to_dict() == stats
        _, hits, runs = pool.filter_plan(0, plan)
        assert peeked == (hits, runs) and hits > 0

    def test_cold_disk_peeks_and_filters_nothing(self):
        pool = BufferPool(64)
        pool._admit((1, 5), scan=False, prefetch=False)
        plan = RequestPlan(np.array([5], dtype=np.int64),
                           np.array([3], dtype=np.int64), policy="sorted")
        assert pool.peek_plan(0, plan) == (0, 0)
        miss, hits, runs = pool.filter_plan(0, plan)
        assert miss is plan and (hits, runs) == (0, 0)
        assert pool.stats.misses == 3
