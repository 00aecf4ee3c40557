"""Scatter-gather execution of queries sharded across member disks.

The shard layer (:mod:`repro.shard`) splits one logical query into
per-chunk :class:`~repro.query.executor.PreparedQuery` sub-plans, each
bound — via its ``disk_index`` — to the member disk that owns the chunk.
This module holds the concurrent-execution half: a
:class:`ShardedPrepared` bundles the sub-plans, and
:func:`scatter_execute` services them with the paper's multi-disk
semantics — drives work in parallel, each preserving its own
seek/rotation state, and the query completes when the slowest drive
finishes (makespan = max over drives), exactly how the §5.3 chunked
evaluation overlaps per-disk fetches.

It is also the one-shot path: :meth:`StorageManager.execute_prepared`
calls :func:`scatter_execute` with a plain
:class:`~repro.query.executor.PreparedQuery`, which is its own single
sub-plan.  A :class:`ShardedPrepared` with a single sub-plan therefore
makes the very same sequence of drive calls as an unsharded query, which
is what makes a 1-shard dataset bit-identical to the unsharded stack
(the parity ``tests/shard/test_parity.py`` pins).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.query.executor import PreparedQuery, QueryResult

__all__ = ["ShardedPrepared", "scatter_execute"]


@dataclass(frozen=True)
class ShardedPrepared:
    """One logical query prepared as per-chunk, per-disk sub-plans.

    ``subs`` holds one fully prepared :class:`PreparedQuery` per
    intersected chunk, in chunk-enumeration order; sub-plans of the same
    disk are serviced sequentially in that order, different disks in
    parallel.  Aggregate counters below sum over the sub-plans, so the
    object quacks enough like a :class:`PreparedQuery` for reporting.
    """

    mapper_name: str
    subs: tuple[PreparedQuery, ...]
    n_cells: int

    def __post_init__(self) -> None:
        if not self.subs:
            raise QueryError("a sharded query needs at least one sub-plan")

    @property
    def disks(self) -> tuple[int, ...]:
        """Involved disks, in first-appearance (chunk) order."""
        seen: dict[int, None] = {}
        for sub in self.subs:
            seen.setdefault(sub.disk_index, None)
        return tuple(seen)

    @property
    def disk_index(self) -> int:
        """The first involved disk (the query's reporting home)."""
        return self.subs[0].disk_index

    @property
    def policy(self) -> str:
        """The effective policy — the shared one, or ``"mixed"`` when
        the per-sub-plan SPTF clamp resolved differently across chunks
        (a single sub-plan always reports its own, the parity case)."""
        first = self.subs[0].policy
        if all(sub.policy == first for sub in self.subs[1:]):
            return first
        return "mixed"

    @property
    def n_runs(self) -> int:
        return sum(sub.n_runs for sub in self.subs)

    @property
    def n_blocks(self) -> int:
        return sum(sub.n_blocks for sub in self.subs)

    @property
    def cache_hits(self) -> int:
        return sum(sub.cache_hits for sub in self.subs)

    @property
    def cache_runs(self) -> int:
        return sum(sub.cache_runs for sub in self.subs)

    @property
    def cache_ms(self) -> float:
        return sum(sub.cache_ms for sub in self.subs)


def scatter_execute(
    storage,
    prepared: ShardedPrepared | PreparedQuery,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[QueryResult, dict[int, dict]]:
    """Service a prepared query's sub-plans with scatter-gather semantics.

    Per disk (first-appearance order): the head is randomised once from
    ``rng``, then that disk's sub-plans are serviced back to back, each
    admitted to the cache after service.  Drives run concurrently, so the query's
    ``total_ms`` is the *makespan*: the largest per-disk busy time
    (mechanical service plus memory-served cache time).  The mechanical
    component fields (seek/rotation/transfer/switch) sum the work done
    across all drives.

    Returns ``(result, per_disk)`` where ``per_disk`` maps each involved
    disk to its ``{"busy_ms", "blocks", "runs"}`` contribution (the
    gather half the shard stats merge into reports).
    """
    volume = storage.volume
    by_disk: dict[int, list[PreparedQuery]] = {}
    for sub in prepared.subs:
        by_disk.setdefault(sub.disk_index, []).append(sub)

    tele = getattr(storage, "obs", None)
    parts: list[tuple] = []
    per_disk: dict[int, dict] = {}
    seek = rotation = transfer = switch = 0.0
    blocks = runs = 0
    makespan = 0.0
    for disk, subs in by_disk.items():
        drive = volume.drive(disk)
        if rng is not None:
            drive.randomize_position(rng)
        busy = 0.0
        d_blocks = d_runs = 0
        for sub in subs:
            res = drive.service_runs(
                sub.plan.starts,
                sub.plan.lengths,
                policy=sub.policy,
                window=storage.window,
            )
            storage.admit_prepared(sub)
            if tele is not None:
                parts.append((sub, res))
            busy += res.total_ms + sub.cache_ms
            d_blocks += res.n_blocks + sub.cache_hits
            d_runs += res.n_requests + sub.cache_runs
            seek += res.seek_ms
            rotation += res.rotation_ms
            transfer += res.transfer_ms
            switch += res.switch_ms
        blocks += d_blocks
        runs += d_runs
        makespan = max(makespan, busy)
        per_disk[disk] = {
            "busy_ms": busy, "blocks": d_blocks, "runs": d_runs,
        }

    result = QueryResult(
        mapper=prepared.mapper_name,
        total_ms=makespan,
        n_cells=prepared.n_cells,
        n_blocks=blocks,
        n_runs=runs,
        seek_ms=seek,
        rotation_ms=rotation,
        transfer_ms=transfer,
        switch_ms=switch,
        policy=prepared.policy,
    )
    if tele is not None:
        from repro.obs.span import record_scatter

        record_scatter(tele, prepared, parts, result)
    return result, per_disk
