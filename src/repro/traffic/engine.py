"""Discrete-event engine servicing many clients on shared drives.

The simulation advances through a single event heap keyed on simulated
milliseconds.  Clients submit queries according to their arrival process;
each query is prepared once by its client's :class:`StorageManager`
(coalescing + effective policy, exactly the one-shot path) and split into
*service slices* (:func:`repro.query.scheduler.slice_plan`).  Every drive
services one slice at a time from a FIFO queue, and a multi-slice query
re-enters the queue behind whatever arrived meanwhile — so requests from
different clients interleave at the drive rather than running whole
queries back-to-back, and a query's later slices resume from wherever
the contending traffic left the head.

One run is a :class:`_Loop`: it owns the heap, the per-drive states and
the run counters, and has one handler per event kind — ``on_arrive``
(submit a query), ``on_slice_done`` (a drive finished a slice),
``on_failure`` (kill or revive a member disk) and, for the cache-done
event, :meth:`_Loop.complete` itself.

Sharded datasets (whose managers prepare a
:class:`~repro.query.scatter.ShardedPrepared` of per-disk sub-plans)
occupy *several* drive queues at once: every sub-plan's slices queue on
the drive that owns its chunk, drives drain concurrently, and the query
completes at its slowest disk.  That is the §5.3 makespan rule the
batch executor (:func:`~repro.query.scatter.scatter_execute`) applies,
and here it has one implementation, :meth:`_Query.finish_disk`: when a
disk's last pending sub-plan ends at ``t`` — its last slice served, or
the sub-plan dropped or failed over — that disk's portion finishes at
``t`` plus its share of cache memory time, and the query completes when
no disk is pending, at the latest such finish.  A disk whose sub-plans
all hit the cache finishes after its memory share alone.  If the last
pending disk finishes on a slice, the query completes on the spot;
otherwise (an all-hit query, a dropped write, a cache-served failover) a
cache-done event completes it.  A one-sub prepared query follows exactly
the single-drive path, which keeps 1-shard runs bit-identical to
unsharded ones.

Head position (``TrafficConfig.head``):

* ``"random"`` — every query starts from a uniformly random head
  position *pre-drawn from the submitting client's stream at submission
  time* (one draw per involved disk, in sub-plan order) and applied when
  its first slice on that drive is dispatched.  Pre-drawing keeps each
  client's random stream a pure function of its own submission order,
  so per-drive served-block totals are invariant under re-interleavings,
  while a lone zero-think closed-loop client consumes draws in exactly
  the order of :meth:`repro.api.QueryBatch.run` (query, head, query,
  head, ...) — the parity the regression tests pin.
* ``"carry"`` — the head stays wherever the previous request left it;
  idle gaps advance the drive clock (:meth:`DiskDrive.advance_clock`)
  so the platter keeps rotating while the queue is empty.

Caching: when a client's storage manager carries a
:class:`repro.cache.BufferPool`, queries are cache-filtered at
*submission* (inside :meth:`StorageManager.prepare`) and the missed
blocks are admitted — with their prefetched neighbors — when the last
slice completes, so concurrent clients sharing one pool interact the
way shared caches do: one client's miss work becomes another's hits,
and one client's scan can pollute everyone's working set.  Memory-served
blocks add their (bus-speed) service time to the query's completion
without occupying the drive.  Without a pool the engine is bit-identical
to the pre-cache behaviour.

Failures: a :class:`~repro.replica.failures.FailureSchedule` passed as
``TrafficSim(..., failures=...)`` kills and revives member disks at
fixed simulated times.  A killed disk stops servicing immediately: its
queued jobs — and the job whose slice was in flight, whose partial work
is lost — re-dispatch through the owning client's replicated storage
manager (:meth:`ReplicatedStorageManager.failover_sub`), restarting the
whole sub-plan on a surviving copy's disk; queries submitted afterwards
avoid dead disks at prepare time.  A client without replicas whose disk
dies raises — the engine never silently drops queries.  The report's
meta gains gated ``"failures"`` (the schedule plus re-dispatch totals)
and ``"replicas"`` (the managers' placement + routing snapshots)
entries; without a schedule and without replicated clients both keys
are absent, keeping the JSON bit-identical to pre-replica runs.

Determinism: no wall-clock, no hash-order iteration; ties in the event
heap break by submission sequence number.  Same clients + same seeds
⇒ bit-identical :class:`TrafficReport`.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from time import perf_counter

from repro.disk.drive import BatchResult, DiskDrive
from repro.errors import QueryError
from repro.obs.span import record_traffic_query
from repro.perf.profile import PROBES
from repro.query.scheduler import slice_plan
from repro.traffic.clients import TrafficClient
from repro.traffic.stats import (
    DriveStats,
    QueryTrace,
    TrafficReport,
    describe_query,
)

__all__ = ["TrafficConfig", "TrafficSim"]


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of the traffic engine.

    ``slice_runs`` bounds how many runs of one query the drive services
    before other queued requests may cut in; ``None`` services each
    query as one batch (the one-shot executor's behaviour, required for
    exact parity with :class:`StorageManager` timings).  ``horizon_ms``
    stops open-loop clients from *submitting* past the horizon (queries
    already submitted still finish).
    """

    slice_runs: int | None = 256
    head: str = "random"
    horizon_ms: float | None = None

    def __post_init__(self) -> None:
        if self.head not in ("random", "carry"):
            raise QueryError(f"unknown head mode {self.head!r}")
        if self.slice_runs is not None and self.slice_runs < 1:
            raise QueryError("slice_runs must be >= 1 or None")

    def describe(self) -> dict:
        return {
            "slice_runs": self.slice_runs,
            "head": self.head,
            "horizon_ms": self.horizon_ms,
        }


class _Query:
    """One submitted query, possibly fanned out over several drives.

    ``disk_remaining`` counts each involved disk's pending sub-plans
    (only disks with pending work are keys, so the query is done when it
    is empty), and ``disk_cache`` holds each disk's *unbilled* share of
    the memory service time.  :meth:`finish_disk` is the makespan rule.
    """

    __slots__ = ("cs", "query", "prepared", "arrival_ms",
                 "start_ms", "started", "acc", "index", "disk",
                 "cache_ms", "cache_hits", "cache_runs", "n_slices",
                 "disk_cache", "disk_remaining", "done_ms",
                 "failover_subs", "abandoned", "obs")

    def __init__(self, cs, query, prepared, arrival_ms, index):
        self.cs = cs
        self.query = query
        self.prepared = prepared
        self.arrival_ms = arrival_ms
        self.start_ms = arrival_ms
        self.started = False
        self.acc: BatchResult = BatchResult.empty()
        self.index = index
        # both prepared forms expose the same aggregate surface
        # (ShardedPrepared sums its sub-plans)
        self.disk = prepared.disk_index
        self.cache_ms = prepared.cache_ms
        self.cache_hits = prepared.cache_hits
        self.cache_runs = prepared.cache_runs
        self.n_slices = 0
        self.disk_cache: dict[int, float] = {}
        self.disk_remaining: dict[int, int] = {}
        self.done_ms = arrival_ms
        # sub-plans re-dispatched onto replicas after a disk failure
        # (admitted to the cache at completion alongside the original),
        # and the dead-disk sub-plans they replaced (whose blocks were
        # never fully serviced, so they must NOT be admitted — even if
        # the disk is revived before the query completes)
        self.failover_subs: list = []
        self.abandoned: list = []
        # telemetry scratchpad (None when the client's storage carries
        # no Telemetry): the cache shares and the hit/run counts behind
        # them (never zeroed by billing), serviced slices, and failover
        # events — distilled into one span tree at completion
        self.obs: dict | None = None

    def add_share(self, sub) -> None:
        """Add a sub-plan's cache share to its disk (and its hit/run
        counts to the telemetry scratchpad, which the monitor's
        cache-hit-ratio column consumes)."""
        disk = sub.disk_index
        self.disk_cache[disk] = self.disk_cache.get(disk, 0.0) + sub.cache_ms
        obs = self.obs
        if obs is not None:
            obs["cache"][disk] = obs["cache"].get(disk, 0.0) + sub.cache_ms
            obs["hits"][disk] = obs["hits"].get(disk, 0) + sub.cache_hits
            obs["runs"][disk] = obs["runs"].get(disk, 0) + sub.cache_runs

    def bill(self, disk: int, t: float) -> None:
        """Close ``disk``'s portion at ``t``: the query ends no earlier
        than ``t`` plus the disk's unbilled memory time, which is then
        zeroed, so a failover that re-opens the disk later never
        double-counts it."""
        self.done_ms = max(self.done_ms, t + self.disk_cache.get(disk, 0.0))
        self.disk_cache[disk] = 0.0

    def finish_disk(self, disk: int, t: float) -> bool:
        """One pending sub-plan on ``disk`` is over at ``t``; True when
        that was the query's last pending work.

        The key is DELETED at zero, not left there: a later failover
        onto this disk must see it as not pending and re-open it, or the
        query would never complete.
        """
        left = self.disk_remaining[disk] - 1
        if left:
            self.disk_remaining[disk] = left
            return False
        del self.disk_remaining[disk]
        self.bill(disk, t)
        return not self.disk_remaining

    def trace(self, completion_ms: float) -> QueryTrace:
        acc = self.acc
        return QueryTrace(
            client=self.cs.client.name,
            label=describe_query(self.query),
            index=self.index,
            disk=self.disk,
            arrival_ms=self.arrival_ms,
            start_ms=self.start_ms,
            completion_ms=completion_ms,
            service_ms=acc.total_ms + self.cache_ms,
            n_slices=self.n_slices,
            n_runs=acc.n_requests + self.cache_runs,
            n_blocks=acc.n_blocks + self.cache_hits,
            n_cells=self.prepared.n_cells,
            seek_ms=acc.seek_ms,
            rotation_ms=acc.rotation_ms,
            transfer_ms=acc.transfer_ms,
            switch_ms=acc.switch_ms,
        )


class _Job:
    """One sub-plan of a query moving through one drive's queue.

    ``disk`` is the sub-plan's member index on its OWN client's volume —
    the key of the query's ``disk_cache``/``disk_remaining`` maps.  (A
    shared :class:`_DriveState` records whatever index the first client
    discovered the drive under, which need not match.)
    """

    __slots__ = ("qs", "slices", "next_slice", "head_pos", "policy",
                 "disk", "source", "sub")

    def __init__(self, qs: _Query, slices, head_pos, policy: str,
                 disk: int, source=None, sub=None):
        self.qs = qs
        self.slices = slices
        self.next_slice = 0
        self.head_pos = head_pos
        self.policy = policy
        self.disk = disk
        # the sub-plan's SubSource on a replicated manager (None
        # otherwise) — what failover re-dispatch re-plans from — and
        # the PreparedQuery itself, marked abandoned on re-dispatch
        self.source = source
        self.sub = sub


class _DriveState:
    """Per-drive FIFO queue plus servicing bookkeeping."""

    __slots__ = ("drive", "disk", "queue", "busy", "busy_ms",
                 "served_slices", "served_blocks", "failed", "current",
                 "epoch")

    def __init__(self, drive: DiskDrive, disk: int):
        self.drive = drive
        self.disk = disk
        self.queue: deque[_Job] = deque()
        self.busy = False
        self.busy_ms = 0.0
        self.served_slices = 0
        self.served_blocks = 0
        self.failed = False
        self.current: _Job | None = None
        # bumped on failure so in-flight slice_done events of the dead
        # drive are recognised as stale and ignored
        self.epoch = 0


class _ClientState:
    """Mutable per-run bookkeeping for one client."""

    __slots__ = ("client", "issued", "stream", "stopped")

    def __init__(self, client: TrafficClient):
        self.client = client
        self.issued = 0
        self.stream = None  # open-loop arrival iterator
        self.stopped = False  # open-loop horizon reached


def _distinct(items, key=None) -> list:
    """``items`` whose key (the item itself by default) is not None, one
    per key object in first-seen order.  Keys compare by identity:
    clients often share one storage, pool, pipeline or telemetry."""
    seen: dict[int, object] = {}
    for item in items:
        k = item if key is None else key(item)
        if k is not None:
            seen.setdefault(id(k), item)
    return list(seen.values())


def _monitor_of(storage):
    """The monitor attached to a storage manager's telemetry, or None."""
    return getattr(getattr(storage, "obs", None), "monitor", None)


def _put(meta: dict, key: str, payloads: list) -> None:
    """Set ``meta[key]`` (unless already given) to the lone payload or
    the list of them.  Absent when there are none, so a run without the
    layer keeps its JSON layout bit-for-bit."""
    if payloads:
        meta.setdefault(key, payloads[0] if len(payloads) == 1 else payloads)


class TrafficSim:
    """Run a set of :class:`TrafficClient` s to completion.

    Drives are discovered from each prepared query's member disks on the
    client's volume, so clients of different datasets contend exactly
    when their plans land on the same :class:`DiskDrive` object (e.g.
    two layouts sharing one :class:`LogicalVolume`), and a sharded
    client occupies one queue per involved member disk.
    """

    def __init__(self, clients, config: TrafficConfig | None = None,
                 meta: dict | None = None, failures=None):
        self.clients = list(clients)
        if not self.clients:
            raise QueryError("traffic needs at least one client")
        names = [c.name for c in self.clients]
        if len(set(names)) != len(names):
            raise QueryError("client names must be unique")
        self.config = config or TrafficConfig()
        self.meta = dict(meta or {})
        if failures is None:
            self.failures = None
        else:
            from repro.replica.failures import FailureSchedule

            self.failures = FailureSchedule.coerce(failures)

    def run(self) -> TrafficReport:
        return _Loop(self).run()


class _Loop:
    """One run of a :class:`TrafficSim`: the event heap, the drive
    states and the run counters, with one handler per event kind.

    Heap entries are ``(t, seq, handler, payload)``; ``seq`` is unique,
    so ties at one time pop in push order and handlers never compare.
    """

    def __init__(self, sim: TrafficSim):
        self.sim = sim
        self.cfg = sim.config
        self.states = [_ClientState(c) for c in sim.clients]
        #: each client's storage manager, in client order (repeats kept)
        self.storages = [c.storage for c in sim.clients]
        self.heap: list[tuple] = []
        self.seq = 0
        #: id(drive) -> state, in discovery order
        self.drives: dict[int, _DriveState] = {}
        self.dead_ids: set[int] = set()  # id(drive) of dead drives
        self.traces: list[QueryTrace] = []
        self.makespan = 0.0
        self.n_events = 0
        self.n_redispatched = 0
        self.n_dropped_writes = 0

    def push(self, t: float, handler, payload) -> None:
        heapq.heappush(self.heap, (t, self.seq, handler, payload))
        self.seq += 1

    def run(self) -> TrafficReport:
        # wall-clock probes only (meta-gated, never simulated time), so
        # determinism of the report body is untouched
        probing = PROBES.enabled
        if probing:
            wall_t0 = perf_counter()
            probe_mark = PROBES.snapshot()
        # failures first: a kill at t applies ahead of any same-t
        # submission; then the initial arrivals, in client list order
        if self.sim.failures is not None:
            for ev in self.sim.failures:
                self.push(ev.t_ms, self.on_failure, ev)
        for cs in self.states:
            arrival = cs.client.arrival
            if arrival.closed:
                self.push(arrival.first_arrival(), self.on_arrive, cs)
            else:
                cs.stream = arrival.arrivals(cs.client.rng)
                self.schedule_open(cs)
        heap = self.heap
        while heap:
            t, _, handler, payload = heapq.heappop(heap)
            self.n_events += 1
            handler(payload, t)
        meta = self.report_meta()
        if probing:
            # gated on the probes being enabled, so default runs keep
            # their JSON layout bit-for-bit
            PROBES.count("traffic_events", self.n_events)
            PROBES.add_time(
                "traffic_run_ms", (perf_counter() - wall_t0) * 1e3
            )
            meta.setdefault("perf", PROBES.delta(probe_mark))
        return TrafficReport(
            traces=tuple(self.traces),
            drives=tuple(
                DriveStats(
                    disk=ds.disk,
                    busy_ms=ds.busy_ms,
                    served_slices=ds.served_slices,
                    served_blocks=ds.served_blocks,
                )
                for ds in self.drives.values()
            ),
            makespan_ms=self.makespan,
            meta=meta,
        )

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def on_arrive(self, cs: _ClientState, t: float) -> None:
        if cs.issued >= cs.client.n_queries:
            return
        self.submit(cs, t)
        if not cs.client.arrival.closed:
            # open loop: keep the stream flowing independently
            self.schedule_open(cs)

    def on_slice_done(self, payload, t: float) -> None:
        ds, job, epoch, res = payload
        if epoch != ds.epoch:
            # the drive died while this slice was in flight; the job
            # was already re-dispatched at kill time and the slice's
            # work is lost, never counted
            return
        qs = job.qs
        qs.acc = qs.acc + res
        if qs.obs is not None:
            # the slice was dispatched at t - res.total_ms
            qs.obs["slices"].append((
                job.disk, t - res.total_ms, res,
                bool(getattr(job.sub, "is_write", False)),
            ))
        ds.busy_ms += res.total_ms
        ds.served_slices += 1
        ds.served_blocks += res.n_blocks
        ds.busy = False
        ds.current = None
        if job.next_slice < len(job.slices):
            ds.queue.append(job)
        elif qs.finish_disk(job.disk, t):
            self.complete(qs, qs.done_ms)
        self.start(ds, t)

    def on_failure(self, ev, t: float) -> None:
        if ev.action == "kill":
            self.kill(ev.disk, t)
        else:
            self.revive(ev.disk, t)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def drive_state(self, cs: _ClientState, disk: int) -> _DriveState:
        drive = cs.client.storage.volume.drive(disk)
        key = id(drive)
        ds = self.drives.get(key)
        if ds is None:
            ds = _DriveState(drive, disk)
            ds.failed = key in self.dead_ids
            self.drives[key] = ds
        return ds

    def schedule_open(self, cs: _ClientState) -> None:
        if cs.stopped or cs.issued >= cs.client.n_queries:
            return
        t_next = next(cs.stream)
        horizon = self.cfg.horizon_ms
        if horizon is not None and t_next > horizon:
            cs.stopped = True
            return
        self.push(t_next, self.on_arrive, cs)

    def submit(self, cs: _ClientState, t: float) -> None:
        """Draw, prepare, and enqueue one query of ``cs`` at ``t``."""
        c = cs.client
        query = c.mix.draw(c.mapper.dims, c.rng, cs.issued)
        # the client routes its own submissions: reads through the
        # storage manager's prepare (the one-shot path), ingest
        # batches through the client's pipeline — identical calls
        # for a plain client, so read-only runs are untouched
        prepared = c.prepare(query)
        subs = prepared.subs
        # one head draw per involved disk, in sub-plan order — drawn at
        # submission even for all-hit queries, keeping the client's
        # stream draw-for-draw with the one-shot path
        heads: dict[int, tuple] = {}
        for sub in subs:
            disk = sub.disk_index
            if disk not in heads:
                ds = self.drive_state(cs, disk)
                heads[disk] = (ds, ds.drive.draw_position(c.rng)
                               if self.cfg.head == "random" else None)
        qs = _Query(cs, query, prepared, t, cs.issued)
        cs.issued += 1
        tele = getattr(c.storage, "obs", None)
        if tele is not None:
            qs.obs = {"tele": tele, "cache": {}, "hits": {}, "runs": {},
                      "slices": [], "events": []}
        sources = getattr(prepared, "sources", None)
        real = []
        for i, sub in enumerate(subs):
            qs.add_share(sub)
            if sub.plan.n_runs > 0:
                disk = sub.disk_index
                qs.disk_remaining[disk] = qs.disk_remaining.get(disk, 0) + 1
                real.append((sub, sources[i] if sources else None))
        # a disk whose sub-plans all hit the cache is done after its
        # memory service alone (it never occupies the drive queue)
        for disk in qs.disk_cache:
            if disk not in qs.disk_remaining:
                qs.bill(disk, t)
        if not real:
            # every block of every sub-plan hit the cache at prepare
            # time: the query completes at its slowest disk's memory
            # service (the batch path's makespan)
            self.push(qs.done_ms, self.complete, qs)
            return
        for sub, source in real:
            disk = sub.disk_index
            ds, head = heads[disk]
            if ds.failed:
                # a replicated manager never routes here (prepare
                # skips failed disks), so this client has no copies
                # to divert to — fail loudly, never drop the query
                raise QueryError(
                    f"disk {disk} has failed and client "
                    f"{c.name!r} has no replicas to fail over to"
                )
            # the first sub-plan per drive applies the head draw; later
            # sub-plans of the same query on that drive resume from
            # wherever it ends up (the batch path's sequence)
            heads[disk] = (ds, None)
            job = _Job(qs, slice_plan(sub.plan, self.cfg.slice_runs),
                       head, sub.policy, disk, source=source, sub=sub)
            self.enqueue(ds, job, t)

    def enqueue(self, ds: _DriveState, job: _Job, t: float) -> None:
        job.qs.n_slices += len(job.slices)
        ds.queue.append(job)
        self.start(ds, t)

    def start(self, ds: _DriveState, t: float) -> None:
        """Dispatch the head of ``ds``'s queue if the drive is idle."""
        if ds.failed or ds.busy or not ds.queue:
            return
        job = ds.queue.popleft()
        ds.busy = True
        ds.current = job
        drive = ds.drive
        if self.cfg.head == "carry":
            drive.advance_clock(t)
        qs = job.qs
        if job.next_slice == 0:
            if not qs.started:
                # events pop in time order, so the first dispatch of
                # any sub-plan is the query's earliest service start
                qs.started = True
                qs.start_ms = t
            if job.head_pos is not None:
                drive.reset(*job.head_pos)
        sl = job.slices[job.next_slice]
        job.next_slice += 1
        res = drive.service_runs(
            sl.starts, sl.lengths,
            policy=job.policy,
            window=qs.cs.client.storage.window,
        )
        # the result is counted at slice_done, not here: a slice
        # interrupted by a disk failure is LOST work and must not
        # inflate the dead drive's served totals or the query's
        # accumulated service (its stale slice_done is discarded)
        self.push(t + res.total_ms, self.on_slice_done,
                  (ds, job, ds.epoch, res))

    def complete(self, qs: _Query, t_done: float) -> None:
        """End-of-query bookkeeping; also the cache-done event handler."""
        cs = qs.cs
        # admit the serviced blocks (plus prefetch) into the shared
        # pool; a no-op for cache-only jobs and uncached managers.
        # Sub-plans abandoned by failover were never fully serviced
        # (their frames were dropped with the disk), so they are
        # skipped even if their disk has since been revived.
        storage = cs.client.storage
        if qs.abandoned:
            for sub in qs.prepared.subs:
                if not any(sub is a for a in qs.abandoned):
                    storage.admit_prepared(sub)
        else:
            storage.admit_prepared(qs.prepared)
        for sub in qs.failover_subs:
            if not any(sub is a for a in qs.abandoned):
                storage.admit_prepared(sub)
        self.makespan = max(self.makespan, t_done)
        self.traces.append(qs.trace(t_done))
        if qs.obs is not None:
            record_traffic_query(
                qs.obs["tele"],
                client=cs.client.name,
                label=describe_query(qs.query),
                index=qs.index,
                n_cells=qs.prepared.n_cells,
                policy=qs.prepared.policy,
                arrival_ms=qs.arrival_ms,
                start_ms=qs.start_ms,
                done_ms=t_done,
                prepared=qs.prepared,
                cache=qs.obs["cache"],
                slices=qs.obs["slices"],
                events=qs.obs["events"],
                hits=qs.obs["hits"],
                runs=qs.obs["runs"],
            )
        arrival = cs.client.arrival
        if arrival.closed and cs.issued < cs.client.n_queries:
            self.push(arrival.next_after_completion(t_done),
                      self.on_arrive, cs)

    def redispatch(self, job: _Job, t: float, dead: int) -> None:
        """Restart one dead disk's sub-plan on a surviving copy, or drop
        it if it is a write."""
        qs = job.qs
        c = qs.cs.client
        storage = c.storage
        write = getattr(job.source, "is_write", False)
        if write:
            # a write sub targets ONE copy; the surviving copies' subs
            # of the same flush already carry the batch, so a dead
            # copy's write is DROPPED (rebuild restores it), never
            # replayed elsewhere.  No live copy left means acknowledged
            # data would be lost — that raises.
            rm = getattr(storage, "replica_map", None)
            live = (
                rm.live_copies(job.source.chunk, storage.failed)
                if rm is not None else ()
            )
            if not live:
                raise QueryError(
                    f"disk {dead} failed mid-flush and chunk "
                    f"{job.source.chunk} has no surviving copy: "
                    f"an acknowledged ingest batch would be lost"
                )
            self.n_dropped_writes += 1
            event = ("dropped_write", t, job.disk, None)
        else:
            if job.source is None or not hasattr(storage, "failover_sub"):
                raise QueryError(
                    f"disk {dead} failed mid-run and client "
                    f"{c.name!r} has no replicas to fail over to"
                )
            source, sub = storage.failover_sub(job.source)
            self.n_redispatched += 1
            event = ("failover", t, job.disk, sub.disk_index)
        if qs.obs is not None:
            qs.obs["events"].append(event)
        if job.sub is not None:
            qs.abandoned.append(job.sub)
        # the dead disk's portion is over: bill its (already served)
        # memory time and release the pending slot
        qs.finish_disk(job.disk, t)
        if not write:
            qs.add_share(sub)
            qs.failover_subs.append(sub)
            new = sub.disk_index
            if sub.plan.n_runs > 0:
                qs.disk_remaining[new] = qs.disk_remaining.get(new, 0) + 1
                # no head draw: the replica drive resumes from wherever
                # contending traffic left it (a drawn head would also
                # perturb the client's pre-kill stream)
                self.enqueue(
                    self.drive_state(qs.cs, new),
                    _Job(qs, slice_plan(sub.plan, self.cfg.slice_runs),
                         None, sub.policy, new, source=source, sub=sub),
                    t,
                )
                return
            # the whole failover sub hit the cache at re-prepare
            if new not in qs.disk_remaining:
                qs.bill(new, t)
        if not qs.disk_remaining:
            self.push(qs.done_ms, self.complete, qs)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def member_drives(self, disk: int) -> list[int]:
        """``id`` of member ``disk``'s drive on every client volume that
        has it (repeats kept)."""
        keys = [id(st.volume.drive(disk)) for st in self.storages
                if disk < st.volume.n_disks]
        if not keys:
            # a typo'd disk index must not silently measure the healthy
            # path while the meta reports a failure was injected
            raise QueryError(
                f"failure schedule names disk {disk}, but no "
                f"client volume has that many member disks"
            )
        return keys

    def kill(self, disk: int, t: float) -> None:
        keys = self.member_drives(disk)
        # mark storages first, so failover re-prepares avoid the
        # dead disk (and caches drop its frames)
        for st in _distinct(s for s in self.storages
                            if hasattr(s, "fail_disk")):
            if disk < st.volume.n_disks:
                st.fail_disk(disk)
        affected: list[_DriveState] = []
        for key in keys:
            self.dead_ids.add(key)
            ds = self.drives.get(key)
            if ds is not None and not ds.failed:
                affected.append(ds)
        for ds in affected:
            ds.failed = True
            ds.epoch += 1  # in-flight slice_done becomes stale
            ds.busy = False
            jobs = list(ds.queue)
            if ds.current is not None:
                # the in-flight slice's partial work is lost; the
                # whole sub-plan restarts on a replica
                jobs.insert(0, ds.current)
            ds.queue.clear()
            ds.current = None
            for job in jobs:
                self.redispatch(job, t, disk)
        self.notify_monitors(t, "kill", disk)

    def revive(self, disk: int, t: float) -> None:
        keys = self.member_drives(disk)
        for st in _distinct(s for s in self.storages
                            if hasattr(s, "revive_disk")):
            if disk < st.volume.n_disks:
                st.revive_disk(disk)
        for key in keys:
            self.dead_ids.discard(key)
            ds = self.drives.get(key)
            if ds is not None:
                ds.failed = False
                self.start(ds, t)
        self.notify_monitors(t, "revive", disk)

    def notify_monitors(self, t: float, action: str, disk: int) -> None:
        """Report one capacity event to every attached monitor (after
        the storages applied it, so ``failed`` is current)."""
        for st in _distinct((st for st in self.storages
                             if disk < st.volume.n_disks), key=_monitor_of):
            total = st.volume.n_disks
            failed = getattr(st, "failed", None)
            n_failed = (len(failed) if failed is not None
                        else 1 if action == "kill" else 0)
            _monitor_of(st).record_disk_event(
                t, action, disk, total - n_failed, total
            )

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------

    def report_meta(self) -> dict:
        """The report meta: the caller's entries, then one entry per
        attached layer, each gated on the layer being present."""
        sim = self.sim
        clients = sim.clients
        meta = dict(sim.meta)
        meta.setdefault("config", self.cfg.describe())
        meta.setdefault("clients", [c.describe() for c in clients])
        pools = _distinct(getattr(st, "cache", None) for st in self.storages)
        _put(meta, "cache", [p.describe() for p in pools if p.active])
        pipelines = _distinct(getattr(c, "pipeline", None) for c in clients)
        if sim.failures is not None:
            fail_meta = {
                "schedule": sim.failures.describe()["events"],
                "redispatched_subs": self.n_redispatched,
            }
            if pipelines:
                # only under ingest clients: read-only failure runs
                # keep their failures payload bit-for-bit
                fail_meta["dropped_write_subs"] = self.n_dropped_writes
            meta.setdefault("failures", fail_meta)
        _put(meta, "ingest", [p.describe() for p in pipelines])
        # k > 1 only: single-copy managers match the sharded stack
        _put(meta, "replicas", [
            st.describe_replicas() for st in _distinct(self.storages)
            if getattr(getattr(st, "replica_map", None), "k", 1) > 1
        ])
        # a monitor-only Telemetry describes to {}: its payload lives
        # under "monitor" instead, so the empty "obs" block is skipped
        teles = _distinct(getattr(st, "obs", None) for st in self.storages)
        _put(meta, "obs", [d for d in (x.describe() for x in teles) if d])
        _put(meta, "monitor", [
            m.describe()
            for m in _distinct(getattr(x, "monitor", None) for x in teles)
        ])
        return meta
