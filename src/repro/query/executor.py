"""The storage manager: executes queries against a mapping on the volume.

This is the component the paper calls the "database storage manager"
(§5.1): it asks the mapper for a request plan, applies the issue-order
conventions of §5.2, hands the batch to the owning drive, and reports the
timing breakdown.  Every query can start from a randomised head position,
matching the paper's averaging over runs at random locations.

Preparation is two steps.  :meth:`StorageManager.plan` is pure: the
mapper plan, the §5.2 coalescing, the SPTF clamp and the raw-run count
are a function of the mapper and the query, and planning changes
nothing (EXPLAIN calls it directly).  :meth:`StorageManager.commit`
books a planned query once: the cache filter, read routing on the
replicated manager, and the perf probes.  :meth:`StorageManager.prepare`
is plan then commit.

When a :class:`repro.cache.BufferPool` is attached, the commit's cache
filter carves resident blocks out of the plan (served at memory speed)
and only the miss runs reach the drive, still in the plan's issue
order; once serviced, the missed blocks and their prefetched neighbors
are admitted back into the pool (:meth:`StorageManager.admit_prepared`).
Without a pool — or with a capacity-0 pool — every path below is
bit-identical to the uncached storage manager.

Execution has one service routine for every prepared form: a one-shot
:meth:`StorageManager.execute_prepared` goes through
:func:`repro.query.scatter.scatter_execute`, since a
:class:`PreparedQuery` is its own single sub-plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import ClassVar

import numpy as np

from repro.errors import QueryError
from repro.lvm.volume import LogicalVolume
from repro.mappings.base import Mapper, RequestPlan, coalesce_ranks
from repro.perf.profile import PROBES
from repro.query.scheduler import effective_policy, merge_plan_runs
from repro.query.workload import BeamQuery, RangeQuery

__all__ = ["PreparedQuery", "QueryResult", "StorageManager", "WritePrepared"]


@dataclass(frozen=True)
class PreparedQuery:
    """A query after issue-order preparation, ready to be serviced.

    The plan has already been coalesced (for ``"sorted"``/``"sptf"``
    batches) and ``policy`` is the *effective* policy after the SPTF batch
    clamp — servicing ``plan`` under ``policy`` is exactly what
    :meth:`StorageManager.execute_plan` would do.  Keeping this stage
    separate lets the traffic simulator split the plan into service slices
    (:func:`repro.query.scheduler.slice_plan`) and interleave slices from
    different clients at the drive, resuming the drive position between
    them.

    With a buffer pool attached, ``plan`` holds only the *miss* runs —
    ``cache_hits`` blocks (in ``cache_runs`` contiguous stretches) were
    already carved out at the cache-filter step and cost ``cache_ms`` of
    memory service instead of drive time.  All three stay zero on the
    uncached path.

    ``raw_runs`` is the mapper plan's run count before coalescing
    (``None`` when no storage manager planned it, e.g. an ingest
    staging sub); it is a diagnostic, excluded from equality.
    """

    mapper_name: str
    disk_index: int
    plan: RequestPlan
    policy: str
    n_cells: int
    raw_runs: int | None = field(compare=False, repr=False)
    cache_hits: int = 0
    cache_runs: int = 0
    cache_ms: float = 0.0

    @property
    def subs(self) -> tuple[PreparedQuery]:
        """A single-disk query is its own only sub-plan."""
        return (self,)

    @property
    def n_runs(self) -> int:
        return self.plan.n_runs

    @property
    def n_blocks(self) -> int:
        return self.plan.n_blocks


@dataclass(frozen=True)
class WritePrepared(PreparedQuery):
    """A prepared write batch (an ingest flush's blocks on one disk).

    Serviced exactly like a read batch — writes follow the same §5.2
    issue-order conventions — but ``is_write`` routes it past every
    cache admit/filter path (written blocks were *invalidated* at
    preparation instead) and lets the traffic engine drop, rather than
    fail over, a dead replica's copy of a flush.  ``n_cells`` counts the
    points acknowledged by this batch.
    """

    is_write: ClassVar[bool] = True


@dataclass(frozen=True)
class QueryResult:
    """Timing of one executed query on one disk."""

    mapper: str
    total_ms: float
    n_cells: int
    n_blocks: int
    n_runs: int
    seek_ms: float
    rotation_ms: float
    transfer_ms: float
    switch_ms: float
    policy: str

    @property
    def ms_per_cell(self) -> float:
        return self.total_ms / self.n_cells if self.n_cells else 0.0

    @property
    def ms_per_block(self) -> float:
        return self.total_ms / self.n_blocks if self.n_blocks else 0.0


class StorageManager:
    """Executes beam and range queries for any mapper on a volume.

    Parameters
    ----------
    volume:
        The logical volume whose drives service the requests.
    window:
        Drive command-queue depth for SPTF batches (real drives of the
        paper's era exposed 32-256 tagged commands).
    sptf_run_limit:
        Batches with more runs than this fall back to one elevator pass.
    cache:
        Optional :class:`repro.cache.BufferPool` shared by every query
        this manager prepares (and by every other manager handed the
        same pool — the per-volume cache of the traffic simulator).
        ``None`` or a capacity-0 pool leaves all paths bit-identical to
        the uncached manager.
    """

    def __init__(
        self,
        volume: LogicalVolume,
        *,
        window: int = 128,
        sptf_run_limit: int = 150_000,
        coalesce_gap_blocks: int = 24,
        cache=None,
    ):
        self.volume = volume
        self.window = int(window)
        self.sptf_run_limit = int(sptf_run_limit)
        self.coalesce_gap_blocks = int(coalesce_gap_blocks)
        self.cache = cache
        #: attached :class:`repro.obs.Telemetry`, or None (the default:
        #: every path below is then bit-identical to a build without obs)
        self.obs = None

    # ------------------------------------------------------------------
    # preparation: a pure plan, then one commit
    # ------------------------------------------------------------------

    def prepare_plan(
        self, mapper: Mapper, plan: RequestPlan, n_cells: int
    ) -> PreparedQuery:
        """Apply the issue-order conventions of §5.2 without servicing.

        Pure: coalesces nearby runs of sortable batches and resolves the
        effective scheduling policy.  The cache filter is not applied
        here but at :meth:`commit`.
        """
        raw_runs = plan.n_runs
        if plan.policy in ("sorted", "sptf"):
            gap = plan.merge_gap
            if gap is None:
                gap = self.coalesce_gap_blocks
            plan = merge_plan_runs(plan, gap)
        return PreparedQuery(
            mapper_name=mapper.name,
            disk_index=mapper.disk_index,
            plan=plan,
            policy=effective_policy(plan, self.sptf_run_limit),
            n_cells=int(n_cells),
            raw_runs=raw_runs,
        )

    def plan(self, mapper: Mapper, query) -> PreparedQuery:
        """Plan a :class:`BeamQuery` / :class:`RangeQuery` without
        booking anything: no cache access, no routing, no probes."""
        if isinstance(query, BeamQuery):
            plan = mapper.beam_plan(query.axis, query.fixed, query.lo,
                                    query.hi)
            return self.prepare_plan(mapper, plan, query.n_cells(mapper.dims))
        if isinstance(query, RangeQuery):
            plan = mapper.range_plan(query.lo, query.hi)
            return self.prepare_plan(mapper, plan, query.n_cells())
        raise QueryError(f"unknown query type {type(query).__name__}")

    def commit(self, planned: PreparedQuery) -> PreparedQuery:
        """Book a planned read: the one preparation step with side effects.

        With a buffer pool attached, the cache filter partitions the
        plan: resident blocks are served from memory (refreshing their
        recency) and only the miss runs — still in the §5.2 issue order
        — go to the drive; the SPTF clamp is then resolved again on what
        the drive will actually queue, since a warm cache can shrink a
        too-large batch back under the limit.
        """
        prepared = planned
        cache = self.cache
        if cache is not None and cache.active:
            plan, hits, runs = cache.filter_plan(planned.disk_index,
                                                 planned.plan)
            if hits:
                prepared = replace(
                    planned,
                    plan=plan,
                    policy=effective_policy(plan, self.sptf_run_limit),
                    cache_hits=hits,
                    cache_runs=runs,
                    cache_ms=hits * cache.service_ms_per_block,
                )
        if PROBES.enabled:
            PROBES.count("plans_prepared")
            PROBES.count("cells_planned", prepared.n_cells)
            PROBES.count("runs_prepared", prepared.plan.n_runs)
        return prepared

    def prepare(self, mapper: Mapper, query):
        """Plan a query and commit the plan: what execution services."""
        t0 = perf_counter()
        prepared = self.commit(self.plan(mapper, query))
        if PROBES.enabled:
            PROBES.add_time("prepare_plan_ms", (perf_counter() - t0) * 1e3)
        return prepared

    def prepare_write(
        self, mapper: Mapper, lbns, n_points: int
    ) -> WritePrepared:
        """Prepare a write batch of whole blocks on ``mapper``'s disk.

        Writes take the same issue-order treatment as reads (sorted
        runs, SPTF clamp) but never consult the cache filter — every
        block goes to the drive — and instead *invalidate* any resident
        frames of the written blocks, so no reader is served pre-flush
        contents.  Runs merge only on exact adjacency (``merge_gap=0``):
        a write must not touch blocks it does not own.
        """
        lbns = np.unique(np.asarray(lbns, dtype=np.int64).ravel())
        if lbns.size == 0:
            raise QueryError("a write batch needs at least one block")
        starts, lengths = coalesce_ranks(lbns)
        plan = RequestPlan(starts, lengths, policy="sorted", merge_gap=0)
        cache = self.cache
        if cache is not None and cache.active:
            cache.invalidate(mapper.disk_index, lbns)
        return WritePrepared(
            mapper_name=mapper.name,
            disk_index=mapper.disk_index,
            plan=plan,
            policy=effective_policy(plan, self.sptf_run_limit),
            n_cells=int(n_points),
            raw_runs=int(lbns.size),
        )

    def execute_prepared(
        self,
        prepared: PreparedQuery,
        *,
        rng: np.random.Generator | None = None,
    ) -> QueryResult:
        """Service a prepared query in one batch on its disk.

        A single-disk query is its own only sub-plan, so this is
        :func:`~repro.query.scatter.scatter_execute` on one drive: the
        drive timing components cover only the miss runs, and blocks the
        cache filter already claimed add their memory service time to
        ``total_ms`` (and to the block/run counts) without touching the
        mechanical breakdown.  Missed blocks are admitted to the pool —
        with their prefetched neighbors — once serviced.
        """
        from repro.query.scatter import scatter_execute

        return scatter_execute(self, prepared, rng=rng)[0]

    def admit_prepared(self, prepared) -> None:
        """Admit a serviced query's missed blocks (plus prefetch).

        No-op without an active pool.  The traffic simulator calls this
        when a query's *last* slice completes; the one-shot paths call
        it once per serviced sub-plan.  Write batches are never
        admitted — their blocks were invalidated at preparation.
        """
        cache = self.cache
        if cache is None or not cache.active:
            return
        for sub in prepared.subs:
            if self._admits(sub):
                cache.admit_plan(self.volume, sub.disk_index, sub.plan)

    def _admits(self, sub: PreparedQuery) -> bool:
        """Whether a serviced sub-plan's blocks enter the pool."""
        return not getattr(sub, "is_write", False)

    def execute_plan(
        self,
        mapper: Mapper,
        plan: RequestPlan,
        n_cells: int,
        *,
        rng: np.random.Generator | None = None,
    ) -> QueryResult:
        """Prepare, commit and service a mapper plan on its disk."""
        prepared = self.commit(self.prepare_plan(mapper, plan, n_cells))
        return self.execute_prepared(prepared, rng=rng)

    # ------------------------------------------------------------------
    # query entry points
    # ------------------------------------------------------------------

    def run_query(
        self,
        mapper: Mapper,
        query,
        *,
        rng: np.random.Generator | None = None,
    ) -> QueryResult:
        """Prepare and service a :class:`BeamQuery` or
        :class:`RangeQuery` in one batch."""
        return self.execute_prepared(self.prepare(mapper, query), rng=rng)

    def beam(
        self,
        mapper: Mapper,
        axis: int,
        fixed,
        lo: int = 0,
        hi: int | None = None,
        *,
        rng: np.random.Generator | None = None,
    ) -> QueryResult:
        return self.run_query(
            mapper, BeamQuery(int(axis), tuple(fixed), lo, hi), rng=rng
        )

    def range(
        self,
        mapper: Mapper,
        lo,
        hi,
        *,
        rng: np.random.Generator | None = None,
    ) -> QueryResult:
        return self.run_query(
            mapper, RangeQuery(tuple(lo), tuple(hi)), rng=rng
        )
