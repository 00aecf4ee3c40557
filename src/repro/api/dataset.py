"""The :class:`Dataset` façade — the package's single public entry point.

One object owns the whole stack the paper layers behind its two
interfaces (the LVM adjacency API of §3 and the database storage manager
of §5.1): a simulated drive, a :class:`~repro.lvm.volume.LogicalVolume`,
a registered layout's mapper, a
:class:`~repro.query.executor.StorageManager`, and (optionally, via
:meth:`Dataset.with_cache`) a shared :class:`~repro.cache.BufferPool`::

    from repro.api import Dataset

    ds = Dataset.create((216, 64, 64), layout="multimap", drive="atlas10k3")
    report = ds.random_beams(axis=1, n=5).run()
    print(report.render_table())

Datasets are values: one frozen stack spec each.  Every ``with_*`` call
validates its arguments and returns a *new* dataset, leaving the
receiver untouched (``ds = ds.with_shards(4).with_cache(4096)``).  The
stack is built lazily, at most once per dataset, on first access to
``storage``, ``volume`` or ``mapper``, with fresh drives, pool and
telemetry — both layouts of a comparison occupy the same LBN region of
identical disks, the paper's fairness condition.  The wiring goes
through the same :func:`~repro.api.registry.build_mapper` helper as
:func:`repro.datasets.grid.build_chunk_mappers`, so a façade stack is
bit-identical to a hand-wired one; ``with_shards(1)`` is pinned
bit-identical to the unsharded stack (``tests/shard/test_parity.py``).
Online updates (§4.6) go through a lazily created
:class:`~repro.core.store.CellStore` on unsharded datasets.

Determinism: a seeded dataset owns a :class:`numpy.random.SeedSequence`
of its spec's seed; every ``run()`` without an explicit ``rng`` draws
the next spawned child, so a fresh or derived dataset with the same seed
replays the identical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from repro.api.registry import DRIVES, LAYOUTS, DriveEntry, build_mapper
from repro.api.report import Report, make_record
from repro.core.store import CellStore, StoreStats
from repro.disk.models import DiskModel
from repro.errors import DatasetError, QueryError
from repro.lvm.volume import LogicalVolume
from repro.perf.profile import PROBES
from repro.query.executor import QueryResult, StorageManager
from repro.query.workload import (
    BeamQuery,
    RangeQuery,
    random_beam,
    random_range_cube,
)

__all__ = ["Dataset", "QueryBatch"]


def _resolve_drive(drive) -> tuple[str, object]:
    """Turn a drive spec (registry name, DiskModel, or factory) into a
    ``(display_name, factory)`` pair."""
    if isinstance(drive, tuple) and len(drive) == 2 and callable(drive[1]):
        return str(drive[0]), drive[1]
    if isinstance(drive, str):
        entry: DriveEntry = DRIVES.get(drive)
        return entry.name, entry.factory
    if isinstance(drive, DiskModel):
        return drive.name, lambda: drive
    if callable(drive):
        name = getattr(drive, "__name__", type(drive).__name__)
        return name, drive
    raise DatasetError(
        f"drive must be a registered name, a DiskModel, or a factory; "
        f"got {type(drive).__name__}"
    )


def _make_pool(cache: dict | None, n_disks: int):
    """A fresh buffer pool for a cache spec (``None`` when detached)."""
    if cache is None:
        return None
    from repro.cache import BufferPool, ShardedBufferPool

    opts = dict(cache)
    capacity = opts.pop("capacity_blocks")
    if opts.pop("scope", "shared") == "per_shard":
        return ShardedBufferPool(n_disks, capacity, **opts)
    return BufferPool(capacity, **opts)


def _make_telemetry(obs: dict | None):
    """A fresh :class:`~repro.obs.Telemetry` (and monitor) for a
    telemetry spec (``None`` when detached)."""
    if obs is None:
        return None
    from repro.obs import Telemetry

    opts = dict(obs)
    monitor = opts.pop("monitor", None)
    if monitor is not None:
        from repro.monitor import Monitor

        monitor = Monitor() if monitor is True else Monitor(**monitor)
    return Telemetry(**opts, monitor=monitor)


class QueryBatch:
    """A fluent, appendable batch of queries bound to one dataset.

    Entries may be concrete (:class:`BeamQuery` / :class:`RangeQuery`) or
    *lazy* (random beams and random range cubes), in which case the query
    is drawn from the run's generator immediately before execution — the
    same interleaving as the paper's "averaged over runs at random
    locations" methodology, and stream-compatible with hand-wired loops.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self._entries: list[tuple] = []
        self._repeats = 1

    # ------------------------------------------------------------------
    # builders (each returns self for chaining)
    # ------------------------------------------------------------------

    def beam(self, axis: int, fixed=None, lo: int = 0,
             hi: int | None = None) -> "QueryBatch":
        """Append a beam query; ``fixed=None`` draws a random position per
        run (``lo``/``hi`` still bound the span along ``axis``)."""
        if fixed is None:
            self._entries.append(("random_beam", int(axis), lo, hi))
        else:
            self._entries.append(
                ("query", BeamQuery(int(axis), tuple(fixed), lo, hi))
            )
        return self

    def random_beams(self, axis: int, n: int = 5) -> "QueryBatch":
        """Append ``n`` random full-length beams along ``axis``."""
        if n < 1:
            raise QueryError("n must be >= 1")
        for _ in range(int(n)):
            self._entries.append(("random_beam", int(axis), 0, None))
        return self

    def range(self, lo, hi) -> "QueryBatch":
        """Append the half-open box ``[lo, hi)``."""
        self._entries.append(
            ("query", RangeQuery(tuple(lo), tuple(hi)))
        )
        return self

    def range_selectivity(self, pct: float) -> "QueryBatch":
        """Append a ~``pct``-% cube at a random anchor per run (§5.1)."""
        if not 0 < pct <= 100:
            raise QueryError("selectivity must be in (0, 100]")
        self._entries.append(("random_range", float(pct)))
        return self

    def add(self, queries) -> "QueryBatch":
        """Append pre-built workload query objects."""
        if isinstance(queries, (BeamQuery, RangeQuery)):
            queries = [queries]
        for q in queries:
            if not isinstance(q, (BeamQuery, RangeQuery)):
                raise QueryError(
                    f"unknown query type {type(q).__name__}"
                )
            self._entries.append(("query", q))
        return self

    def repeats(self, n: int) -> "QueryBatch":
        """Execute the whole batch ``n`` times (lazy entries redraw)."""
        if n < 1:
            raise QueryError("repeats must be >= 1")
        self._repeats = int(n)
        return self

    def __len__(self) -> int:
        return len(self._entries)

    def bound_to(self, dataset: "Dataset") -> "QueryBatch":
        """A copy of this batch bound to another dataset (shapes must
        match so every stored query stays in bounds)."""
        if dataset.shape != self._dataset.shape:
            raise QueryError(
                f"batch built for shape {self._dataset.shape} cannot run "
                f"on shape {dataset.shape}"
            )
        clone = QueryBatch(dataset)
        clone._entries = list(self._entries)
        clone._repeats = self._repeats
        return clone

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, *, rng: np.random.Generator | None = None,
            repeats: int | None = None) -> Report:
        """Execute the batch and return a :class:`Report`.

        Without ``rng``, the dataset's seed sequence provides the next
        child generator.  One generator drives both lazy query positions
        and the randomised initial head position of every execution.
        """
        ds = self._dataset
        if rng is None:
            rng = ds.rng()
        n_rep = self._repeats if repeats is None else int(repeats)
        if n_rep < 1:
            raise QueryError("repeats must be >= 1")
        probe_mark = PROBES.snapshot() if PROBES.enabled else None
        records = []
        for rep in range(n_rep):
            for entry in self._entries:
                kind = entry[0]
                if kind == "query":
                    q = entry[1]
                elif kind == "random_beam":
                    _, axis, lo, hi = entry
                    q = random_beam(ds.shape, axis, rng)
                    if lo != 0 or hi is not None:
                        q = BeamQuery(q.axis, q.fixed, lo, hi)
                else:  # random_range
                    q = random_range_cube(ds.shape, entry[1], rng)
                res = ds.storage.run_query(ds.mapper, q, rng=rng)
                records.append(make_record(q, res, rep))
        meta = {"repeats": n_rep, "seed": ds.seed}
        if ds.cache is not None and ds.cache.active:
            # pool-LIFETIME cumulative snapshot taken after the batch —
            # earlier batches on the same dataset are included (call
            # ds.cache.reset_stats() first to scope stats to one batch);
            # absent on uncached runs so their report JSON stays
            # bit-identical to pre-cache
            meta["cache"] = ds.cache.describe()
        if ds.n_shards > 1:
            # per-shard gather totals, cumulative like the cache snapshot
            # (ds.storage.reset_shard_stats() scopes them); gated on > 1
            # so 1-shard reports stay bit-identical to unsharded ones
            meta["shards"] = ds.storage.describe_shards()
        if ds.replication_k > 1:
            # copy placement + routing totals (failed disks, failovers,
            # degraded queries); gated on k > 1 so single-copy reports
            # stay bit-identical to the sharded stack
            meta["replicas"] = ds.storage.describe_replicas()
        if probe_mark is not None:
            # preparation counters/timers for this batch; gated on the
            # probes being enabled so default report JSON is untouched
            meta["perf"] = PROBES.delta(probe_mark)
        tele = getattr(ds.storage, "obs", None)
        if tele is not None:
            # telemetry-LIFETIME totals (spans and metrics accumulate
            # across batches; ds.telemetry.reset() scopes them); gated
            # on attachment so detached report JSON is untouched — and
            # a monitor-only Telemetry describes to {}, whose payload
            # lives under "monitor" instead
            obs_meta = tele.describe()
            if obs_meta:
                meta["obs"] = obs_meta
            mon = getattr(tele, "monitor", None)
            if mon is not None:
                meta["monitor"] = mon.describe()
        return Report(
            records=tuple(records),
            layout=ds.layout,
            drive=ds.drive_name,
            shape=ds.shape,
            meta=meta,
        )


@dataclass(frozen=True)
class _StackSpec:
    """Everything a :class:`Dataset` stack is built from.

    Frozen: a ``with_*`` call derives a new spec with
    :func:`dataclasses.replace`, so no call can change another dataset's
    configuration.  The dict-valued parts are never mutated once built.
    """

    shape: tuple
    layout: str
    drive_name: str
    drive_factory: Callable
    cell_blocks: int
    depth: int | None
    seed: object
    sm_opts: dict  # window / sptf_run_limit / coalesce_gap_blocks
    layout_opts: dict
    shard_map: object = None  # repro.shard.ShardMap when sharded
    replicas: dict | None = None  # k / placement / read_policy
    cache: dict | None = None  # pool options
    obs: dict | None = None  # telemetry options
    ingest: dict | None = None  # ingest-run defaults
    store_opts: dict = field(default_factory=dict)

    @property
    def n_disks(self) -> int:
        return 1 if self.shard_map is None else self.shard_map.n_disks


def _from_spec(name: str) -> property:
    """A read-only :class:`Dataset` attribute backed by its spec."""
    return property(lambda self: getattr(self._spec, name))


class Dataset:
    """A placed multidimensional dataset: drive + volume + mapper +
    storage manager behind one object.  Use :meth:`create`; configure
    with the ``with_*`` calls, each of which returns a new dataset."""

    def __init__(self, spec: _StackSpec):
        self._spec = spec
        # runtime state, built from the spec by _build() on first use
        self._volume = None
        self._storage = None
        self._mapper = None
        self._store: CellStore | None = None
        self._seedseq = (
            None if spec.seed is None else np.random.SeedSequence(spec.seed)
        )

    @classmethod
    def create(cls, shape, layout: str = "multimap",
               drive="atlas10k3", *, cell_blocks: int = 1,
               depth: int | None = None, seed=None, window: int = 128,
               sptf_run_limit: int = 150_000,
               coalesce_gap_blocks: int = 24,
               **layout_opts) -> "Dataset":
        """The dataset ``shape`` under a registered layout.

        Parameters mirror the hand-wired idiom: ``depth`` pins the
        adjacency depth D; the default ``None`` uses the drive's native
        settle region, which is 128 on both paper drives — exactly the
        value the paper's prototype pins — while small test/toy disks get
        their own maximum instead of an out-of-range error.
        ``cell_blocks`` is the LBNs per cell (§5.2 maps one cell to one
        512-byte block), and ``**layout_opts`` pass through to the mapper
        (e.g. MultiMap's ``strategy=`` / ``zones=``).
        """
        drive_name, factory = _resolve_drive(drive)
        LAYOUTS.get(layout)  # a typo fails here, not at first use
        return cls(_StackSpec(
            shape=tuple(int(s) for s in shape), layout=str(layout),
            drive_name=drive_name, drive_factory=factory,
            cell_blocks=int(cell_blocks),
            depth=None if depth is None else int(depth), seed=seed,
            sm_opts={
                "window": window,
                "sptf_run_limit": sptf_run_limit,
                "coalesce_gap_blocks": coalesce_gap_blocks,
            },
            layout_opts=dict(layout_opts),
        ))

    # ------------------------------------------------------------------
    # the spec and the stack built from it
    # ------------------------------------------------------------------

    shape = _from_spec("shape")
    layout = _from_spec("layout")
    drive_name = _from_spec("drive_name")
    cell_blocks = _from_spec("cell_blocks")
    depth = _from_spec("depth")
    seed = _from_spec("seed")

    @property
    def layout_opts(self) -> dict:
        return dict(self._spec.layout_opts)

    def _build(self) -> None:
        """Turn the spec into runtime state: the volume (one drive, or
        one per shard), the storage manager the spec calls for, the
        pool, and the telemetry.  Runs at most once per dataset."""
        if self._storage is not None:
            return
        s = self._spec
        volume = LogicalVolume(
            [s.drive_factory() for _ in range(s.n_disks)], depth=s.depth
        )
        entry = LAYOUTS.get(s.layout)
        if s.shard_map is None:
            storage = StorageManager(volume, **s.sm_opts)
            mapper = build_mapper(entry, s.shape, volume, 0,
                                  cell_blocks=s.cell_blocks,
                                  **s.layout_opts)
        else:
            from repro.replica import ReplicatedStorageManager
            from repro.shard import ShardedStorageManager

            opts = dict(cell_blocks=s.cell_blocks,
                        layout_opts=s.layout_opts, **s.sm_opts)
            if s.replicas is None:
                storage = ShardedStorageManager(volume, s.shard_map,
                                                entry, **opts)
            else:
                storage = ReplicatedStorageManager(
                    volume, s.shard_map, entry, **s.replicas, **opts
                )
            mapper = storage.mapper
        storage.cache = _make_pool(s.cache, s.n_disks)
        storage.obs = _make_telemetry(s.obs)
        self._volume, self._storage, self._mapper = volume, storage, mapper

    @property
    def volume(self) -> LogicalVolume:
        self._build()
        return self._volume

    @property
    def storage(self) -> StorageManager:
        self._build()
        return self._storage

    @property
    def mapper(self):
        """The placed mapper (a
        :class:`~repro.shard.ShardedMapper` when sharded)."""
        self._build()
        return self._mapper

    def _derive(self, **changes) -> "Dataset":
        """A new dataset of this spec with ``changes`` applied; the
        receiver is untouched."""
        if "cache" not in changes and self._storage is not None \
                and self._storage.cache is not None \
                and self._spec.cache is None:
            # a pool wired into storage.cache by hand is not part of the
            # spec; dropping it silently would run the derived
            # experiment uncached
            raise DatasetError(
                "a derived dataset builds its stack from the spec and "
                "cannot carry a hand-wired pool; derive first, then set "
                "storage.cache (or use with_cache)"
            )
        spec = replace(self._spec, **changes)
        if spec.replicas is not None and spec.replicas["k"] > spec.n_disks:
            k = spec.replicas["k"]
            raise DatasetError(
                f"k={k} copies need at least k member disks; the "
                f"dataset has {spec.n_disks} (with_shards({k}) or more "
                f"first)"
            )
        return Dataset(spec)

    # ------------------------------------------------------------------
    # layouts
    # ------------------------------------------------------------------

    def with_layout(self, layout: str, **layout_opts) -> "Dataset":
        """The same dataset under another registered mapping.

        Like every derived dataset it builds a fresh, identical volume
        from the same drive factory, so both layouts occupy the same LBN
        region of identical disks — the fairness condition of the
        paper's evaluation — and it carries the rest of the spec (seed,
        shards, replicas, cache, telemetry, ingest and store options),
        each instantiated privately.
        """
        LAYOUTS.get(layout)
        return self._derive(layout=str(layout),
                            layout_opts=dict(layout_opts))

    # ------------------------------------------------------------------
    # sharding (scale-out across member disks)
    # ------------------------------------------------------------------

    def with_shards(self, n_shards: int, strategy: str = "disk_modulo",
                    *, chunk_shape=None) -> "Dataset":
        """This dataset declustered across ``n_shards`` identical member
        disks.

        The volume holds ``n_shards`` drives from the same factory, a
        :class:`~repro.shard.ShardMap` assigns each chunk a disk via the
        registered ``strategy``
        (:data:`repro.lvm.striping.STRATEGIES`: ``round_robin``,
        ``disk_modulo``, ``cube_aligned``), and queries execute
        scatter-gather (per-disk sub-plans in parallel, query time =
        makespan over drives).  ``chunk_shape`` overrides the default
        last-axis slab chunking.  ``with_shards(1)`` runs the full shard
        machinery but is **bit-identical** to the unsharded stack — the
        parity the shard regression tests pin.  Replication, cache and
        telemetry specs carry over onto the new disk count.  Online
        updates are not available on sharded datasets.
        """
        from repro.lvm.striping import STRATEGIES
        from repro.shard import ShardMap

        if self._store is not None:
            raise DatasetError(
                "cannot shard after the cell store was created"
            )
        n = int(n_shards)
        if n < 1:
            raise DatasetError("n_shards must be >= 1")
        entry = (STRATEGIES.get(strategy) if isinstance(strategy, str)
                 else strategy)
        align = None
        if chunk_shape is None and getattr(entry, "align_cubes", False) \
                and LAYOUTS.get(self.layout).wiring == "volume":
            # the basic-cube granule that keeps every cube intact on
            # one disk; ShardMap.build picks the aligned split axis
            align = self._basic_cube_sides()
        # the map is part of the spec, so derived datasets (other
        # layouts included) rebuild the identical chunk grid — the
        # fairness condition for cross-layout comparisons
        return self._derive(shard_map=ShardMap.build(
            self.shape, n, strategy, chunk_shape=chunk_shape, align=align
        ))

    def _basic_cube_sides(self) -> tuple[int, ...]:
        """The basic-cube sides K the unsharded MultiMap placement would
        plan (outer-zone candidate) — the ``cube_aligned`` granule:
        chunk boundaries land on this plan's cube boundaries, so
        sharding never cuts through what the single-disk layout would
        have kept as one cube.  (Each chunk's mapper then plans its own
        cubes for the chunk's dimensions.)  A 1-disk probe volume
        suffices: the granule depends only on the identical drives'
        zones and adjacency depth."""
        from repro.core.planner import plan_basic_cube

        volume = LogicalVolume([self._spec.drive_factory()],
                               depth=self.depth)
        zone_infos = volume.zones(0)
        t_outer = zone_infos[0].track_length // self.cell_blocks
        min_tracks = min(z.tracks for z in zone_infos)
        plan = plan_basic_cube(
            self.shape, t_outer, min_tracks, volume.depth(0),
            strategy=self._spec.layout_opts.get("strategy", "compact"),
        )
        return plan.K

    @property
    def n_shards(self) -> int:
        """Member-disk count (1 for the unsharded stack)."""
        return self._spec.n_disks

    @property
    def is_sharded(self) -> bool:
        return self._spec.shard_map is not None

    @property
    def shard_map(self):
        """The chunk-to-disk placement, or ``None`` when unsharded."""
        return self._spec.shard_map

    # ------------------------------------------------------------------
    # replication (fault tolerance across member disks)
    # ------------------------------------------------------------------

    def with_replication(self, k: int, placement: str = "rotated",
                         read_policy: str = "primary") -> "Dataset":
        """This dataset with ``k`` copies of every chunk on distinct
        member disks (shard first).

        The stack uses a
        :class:`~repro.replica.ReplicatedStorageManager`: copy 0 of
        every chunk stays exactly where :meth:`with_shards` placed it
        (replica mappers allocate after every primary), reads route to a
        copy picked by the registered ``read_policy``
        (:data:`repro.replica.READ_POLICIES`: ``primary``,
        ``round_robin``, ``least_loaded``), and replica homes come from
        the registered ``placement``
        (:data:`repro.replica.PLACEMENTS`: ``rotated`` chained
        declustering, or ``locality_aligned`` to keep replicas of
        adjacent chunks together).  Killing a member disk
        (``storage.fail_disk`` / :class:`repro.replica.FailureInjector`
        / a traffic failure schedule) transparently diverts reads to
        surviving copies.  ``with_replication(1)`` runs the full replica
        machinery but is **bit-identical** to the sharded stack — the
        parity ``tests/replica/test_parity.py`` pins.
        """
        from repro.replica import PLACEMENTS, READ_POLICIES

        if self._store is not None:
            raise DatasetError(
                "cannot replicate after the cell store was created"
            )
        if not self.is_sharded:
            raise DatasetError(
                "with_replication needs a sharded dataset; call "
                "with_shards(n) first (n >= k member disks)"
            )
        k = int(k)
        if k < 1:
            raise DatasetError("k must be >= 1")
        if isinstance(placement, str):
            PLACEMENTS.get(placement)
        if isinstance(read_policy, str):
            READ_POLICIES.get(read_policy)
        return self._derive(replicas=dict(
            k=k, placement=placement, read_policy=read_policy,
        ))

    @property
    def replication_k(self) -> int:
        """Copies per chunk (1 for the unreplicated stack)."""
        return 1 if self._spec.replicas is None else int(
            self._spec.replicas["k"]
        )

    @property
    def is_replicated(self) -> bool:
        return self._spec.replicas is not None

    @property
    def replica_map(self):
        """The chunk-copy placement, or ``None`` when unreplicated."""
        return self.storage.replica_map if self.is_replicated else None

    # ------------------------------------------------------------------
    # caching
    # ------------------------------------------------------------------

    def with_cache(self, capacity_blocks: int, policy: str = "lru",
                   prefetch: str = "none", scope: str = "shared",
                   **cache_opts) -> "Dataset":
        """This dataset with a fresh :class:`~repro.cache.BufferPool`.

        ``capacity_blocks == 0`` (the default state) detaches any pool
        — queries then run bit-identical to a dataset that never had
        one.  ``policy`` / ``prefetch`` resolve through the
        :data:`~repro.cache.POLICIES` / :data:`~repro.cache.PREFETCHERS`
        registries; extra keywords pass to the pool (e.g.
        ``service_ms_per_block``, ``scan_threshold``,
        ``prefetch_opts={"steps": 8}``).  Every dataset derived from
        this one builds a private pool of the same spec, keeping layout
        comparisons fair.

        ``scope`` picks the composition on sharded datasets:
        ``"shared"`` (default) is one host-side pool spanning every
        member disk; ``"per_shard"`` gives each disk a private
        :class:`~repro.cache.ShardedBufferPool` member of
        ``capacity_blocks`` frames (the per-controller cache of a disk
        array), so one shard's scan cannot evict another's working set.
        """
        if capacity_blocks < 0:
            raise DatasetError("capacity_blocks must be >= 0")
        if scope not in ("shared", "per_shard"):
            raise DatasetError(
                f"cache scope must be 'shared' or 'per_shard', "
                f"got {scope!r}"
            )
        from repro.cache import EvictionPolicy, Prefetcher

        # every derived dataset re-instantiates this spec for its
        # private pool, so it must be re-instantiable: a pre-built
        # (stateful) policy/prefetcher object would be *shared* across
        # datasets and leak one's residency into another's measurements
        # — wire such an object into storage.cache by hand instead
        if isinstance(policy, EvictionPolicy) \
                or isinstance(prefetch, Prefetcher):
            raise DatasetError(
                "with_cache takes registered names or classes, not "
                "instances; build a BufferPool directly for that"
            )
        cache = dict(
            capacity_blocks=int(capacity_blocks), policy=policy,
            prefetch=prefetch, **cache_opts,
        )
        if scope != "shared":
            # recorded only when non-default, so shared-pool specs (and
            # their report meta) keep the pre-shard JSON layout
            cache["scope"] = scope
        # a throwaway pool validates names and options now — even on
        # the capacity-0 path, so a typo in a sweep's baseline cell
        # fails loudly instead of running uncached
        _make_pool(cache, self.n_shards)
        return self._derive(cache=cache if capacity_blocks else None)

    @property
    def cache(self):
        """The attached buffer pool, or ``None``."""
        return self.storage.cache

    # ------------------------------------------------------------------
    # telemetry (repro.obs) — per-query tracing and metrics
    # ------------------------------------------------------------------

    def with_telemetry(self, trace: bool = True, metrics: bool = True,
                       exporter: str | None = None,
                       monitor=None) -> "Dataset":
        """This dataset with a fresh :class:`~repro.obs.Telemetry`.

        ``trace`` records one deterministic span tree per query (phases:
        prepare, cache, per-disk service with seek/rotate/transfer
        attribution, ingest flush, failover, reorganisation);
        ``metrics`` accumulates counters and latency histograms;
        ``exporter`` names a default :data:`~repro.obs.EXPORTERS` entry
        (``jsonl``, ``chrome``, ``prometheus``) for
        ``ds.telemetry.export()``; ``monitor`` attaches a
        :class:`~repro.monitor.Monitor` (``True`` for defaults, or an
        options dict like ``{"window_ms": 25.0}``) for windowed
        time-series, SLO alerts, and health tracking — see also
        :meth:`with_monitor`.  ``trace=False, metrics=False`` with no
        monitor detaches — the default state, in which every result and
        report is bit-identical to a build without telemetry (the same
        parity guarantee ``with_cache(0)`` gives).  Every dataset
        derived from this one records into its own fresh handle of the
        same spec; this dataset's handle keeps its own recording.
        """
        if monitor is False:
            monitor = None
        if monitor is not None and monitor is not True \
                and not isinstance(monitor, dict):
            raise DatasetError(
                f"monitor must be True, False, None, or an options dict "
                f"(got {type(monitor).__name__}); derived datasets "
                f"re-instantiate the spec, so pass options rather than "
                f"a Monitor instance"
            )
        if not trace and not metrics and monitor is None:
            return self._derive(obs=None)
        obs = dict(trace=bool(trace), metrics=bool(metrics),
                   exporter=exporter)
        if monitor is not None:
            # gated so monitor-less specs (and their describe() JSON)
            # keep the pre-monitor layout
            obs["monitor"] = True if monitor is True else dict(monitor)
        _make_telemetry(obs)  # bad exporter/monitor options fail now
        return self._derive(obs=obs)

    def with_monitor(self, monitor=True, **options) -> "Dataset":
        """This dataset with continuous monitoring attached (or
        detached).

        Sugar over :meth:`with_telemetry`: merges a monitor into the
        current telemetry spec, attaching default trace + metrics when
        nothing was attached yet.  ``monitor=True`` uses defaults,
        keyword ``options`` (e.g. ``window_ms=25.0``, ``rules={...}``)
        configure the :class:`~repro.monitor.Monitor`, and
        ``monitor=False``/``None`` removes just the monitor (detaching
        telemetry entirely if nothing else was attached).
        """
        spec = dict(self._spec.obs or {"trace": True, "metrics": True,
                                       "exporter": None})
        spec.pop("monitor", None)
        if monitor is None or monitor is False:
            if options:
                raise DatasetError(
                    "with_monitor(False) removes the monitor; monitor "
                    "options make no sense alongside it"
                )
            if self._spec.obs is None:
                return self._derive()
            return self.with_telemetry(**spec)
        if monitor is True:
            monitor = {}
        if isinstance(monitor, dict):
            monitor = {**monitor, **options} or True
        return self.with_telemetry(**spec, monitor=monitor)

    @property
    def telemetry(self):
        """The attached :class:`~repro.obs.Telemetry`, or ``None``."""
        return self.storage.obs

    @property
    def monitor(self):
        """The attached :class:`~repro.monitor.Monitor`, or ``None``."""
        return getattr(self.telemetry, "monitor", None)

    # ------------------------------------------------------------------
    # fluent queries
    # ------------------------------------------------------------------

    def query(self) -> QueryBatch:
        """An empty fluent batch bound to this dataset."""
        return QueryBatch(self)

    def beam(self, axis: int, fixed=None, lo: int = 0,
             hi: int | None = None) -> QueryBatch:
        return self.query().beam(axis, fixed, lo, hi)

    def random_beams(self, axis: int, n: int = 5) -> QueryBatch:
        return self.query().random_beams(axis, n)

    def range(self, lo, hi) -> QueryBatch:
        return self.query().range(lo, hi)

    def range_selectivity(self, pct: float) -> QueryBatch:
        return self.query().range_selectivity(pct)

    def traffic(self) -> "TrafficRun":
        """An empty fluent traffic run bound to this dataset (the
        concurrent analogue of :meth:`query`); see
        :class:`repro.api.traffic.TrafficRun`."""
        from repro.api.traffic import TrafficRun

        return TrafficRun(self)

    # ------------------------------------------------------------------
    # streaming ingest (repro.ingest) — the write path at scale
    # ------------------------------------------------------------------

    def with_ingest(self, stream="uniform", loader: str = "fixed",
                    **opts) -> "Dataset":
        """This dataset with a streaming-ingest spec.

        ``stream``/``loader`` resolve through the
        :data:`repro.ingest.STREAMS` / :data:`repro.ingest.LOADERS`
        registries (validated now, so a typo'd sweep cell fails loudly);
        extra keywords (``n_points``, ``batch_points``,
        ``flush_points``, ``seed``, stream options like ``n_clusters``)
        become the defaults of :meth:`ingest` runs.  Like the rest of
        the spec it carries into every derived dataset, so per-layout
        ingest comparisons share their write workload.
        """
        from repro.ingest import LOADERS, STREAMS
        from repro.ingest.streams import RecordStream

        if isinstance(stream, str):
            STREAMS.get(stream)
        elif not (isinstance(stream, RecordStream)
                  or (isinstance(stream, type)
                      and issubclass(stream, RecordStream))):
            raise DatasetError(
                f"stream must be a registered name or RecordStream, "
                f"got {type(stream).__name__}"
            )
        if isinstance(loader, str):
            LOADERS.get(loader)
        return self._derive(ingest=dict(stream=stream, loader=loader,
                                        **opts))

    def ingest(self, **overrides) -> "IngestRun":
        """A fluent streaming-ingest run bound to this dataset (the
        write-path analogue of :meth:`query`); see
        :class:`repro.api.ingest.IngestRun`.  Keyword overrides layer on
        top of any :meth:`with_ingest` spec."""
        from repro.api.ingest import IngestRun

        return IngestRun(self, overrides)

    def run(self, queries: Iterable | QueryBatch | None = None, *,
            repeats: int | None = None,
            rng: np.random.Generator | None = None) -> Report:
        """Execute a batch (or pre-built workload queries) → Report.

        ``repeats=None`` defers to the batch's own ``.repeats(n)`` setting
        (1 when unset); an explicit value overrides it.  A batch built on
        another dataset of the same shape is rebound to *this* dataset,
        so ``clone.run(batch)`` times the clone's layout.
        """
        if isinstance(queries, QueryBatch):
            if queries._dataset is not self:
                queries = queries.bound_to(self)
            return queries.run(rng=rng, repeats=repeats)
        batch = self.query()
        if queries is not None:
            batch.add(queries)
        return batch.run(rng=rng, repeats=repeats)

    def explain(self, query, *, analyze: bool = False) -> dict:
        """EXPLAIN (and optionally ANALYZE) one query on this dataset.

        EXPLAIN is static and side-effect-free: the plan comes from the
        storage manager's pure planning step, without the commit that
        books a query (live drives, cache policy/stats, replica routing
        counters, and perf probes are all left untouched), and
        its run structure, access-pattern classification, predicted
        mechanical cost, expected cache hits, shard fan-out, and
        replica routing are returned as a JSON-friendly dict.  With
        ``analyze=True`` the query is then executed once for real —
        drives move and the cache warms, as a normal ``run()`` would —
        under a private trace, adding ``measured`` and
        ``reconciliation`` (the predicted-vs-measured model-error
        report).  See :mod:`repro.explain`.
        """
        from repro.explain import analyze_query, explain_query

        data = explain_query(self, query)
        if analyze:
            measured, reconciliation = analyze_query(
                self, query, data["predicted"]
            )
            data["measured"] = measured
            data["reconciliation"] = reconciliation
        return data

    # ------------------------------------------------------------------
    # updates (§4.6) — CellStore behind the same object
    # ------------------------------------------------------------------

    def configure_store(self, **store_opts) -> "Dataset":
        """This dataset with :class:`CellStore` options
        (``points_per_cell``, ``fill_factor``, ``reclaim_threshold``,
        ``max_overflow_pages``) for its store."""
        if self._store is not None:
            raise DatasetError("cell store already created")
        return self._derive(store_opts=dict(store_opts))

    def _store_mapper(self):
        """The cell-level mapper updates run against.

        Datasets declustered over several member disks — or chunked
        into several pieces even on one disk — have no single cell
        mapper, so updates are gated; a 1-shard dataset whose *lone*
        chunk spans the whole dataset has a chunk mapper that *is* the
        full-dataset mapper (the pinned parity guarantee), so a 1-shard
        dataset supports updates.
        """
        mapper = self.mapper
        chunk_mappers = getattr(mapper, "chunk_mappers", None)
        if self.n_shards > 1 or (
            chunk_mappers is not None and len(chunk_mappers) > 1
        ):
            raise DatasetError(
                "online updates (CellStore) are not supported on "
                "sharded datasets; stream writes through "
                "Dataset.ingest() instead"
            )
        return mapper if chunk_mappers is None else chunk_mappers[0]

    @property
    def store(self) -> CellStore:
        """The lazily created cell store (default options unless
        :meth:`configure_store` derived this dataset)."""
        if self._store is None:
            self._store = CellStore(
                self._store_mapper(), self.volume, **self._spec.store_opts
            )
        return self._store

    def _invalidate_cell_blocks(self, cell_coord) -> None:
        """Write-invalidate the cache frames of one cell's home blocks."""
        if self.cache is None or not self.cache.active:
            return
        mapper = self._store.mapper
        first = int(mapper.lbns(np.asarray([cell_coord],
                                           dtype=np.int64))[0])
        self.cache.invalidate(
            mapper.disk_index,
            np.arange(first, first + self.cell_blocks, dtype=np.int64),
        )

    def bulk_load(self, coords, counts=None) -> int:
        store = self.store  # resolve (and gate sharded) before clearing
        # mass (re)placement: anything cached may now be stale
        if self.cache is not None:
            self.cache.clear()
        return store.bulk_load(coords, counts)

    def insert(self, cell_coord, n: int = 1) -> str:
        store = self.store  # resolve (and gate sharded) first
        self._invalidate_cell_blocks(cell_coord)
        return store.insert(cell_coord, n)

    def delete(self, cell_coord, n: int = 1) -> None:
        store = self.store
        self._invalidate_cell_blocks(cell_coord)
        store.delete(cell_coord, n)

    @property
    def needs_reorganization(self) -> bool:
        return self.store.needs_reorganization

    def reorganize(self) -> int:
        """§4.6 reorganisation; relocation frees and reuses LBNs, so an
        attached pool is cleared rather than served stale frames."""
        moved = self.store.reorganize()
        if self.cache is not None:
            self.cache.clear()
        return moved

    def store_stats(self) -> StoreStats:
        return self.store.stats()

    def read_cells(self, coords, *,
                   rng: np.random.Generator | None = None) -> QueryResult:
        """Fetch specific cells (including any overflow chains)."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim == 1:
            coords = coords[np.newaxis, :]
        plan = self.store.read_plan(coords)
        if rng is None:
            rng = self.rng()
        return self.storage.execute_plan(
            self._store.mapper, plan, coords.shape[0], rng=rng
        )

    # ------------------------------------------------------------------
    # seeding
    # ------------------------------------------------------------------

    def rng(self) -> np.random.Generator:
        """The next child generator of this dataset's seed sequence.

        Seeded datasets spawn children via ``SeedSequence.spawn`` — each
        call yields an independent, reproducible stream; unseeded datasets
        return fresh OS entropy.  Every ``run()`` without an explicit
        ``rng=`` draws from here.
        """
        if self._seedseq is None:
            return np.random.default_rng()
        return np.random.default_rng(self._seedseq.spawn(1)[0])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.mapper.n_cells

    def describe(self) -> dict:
        """JSON-friendly summary of the wiring."""
        out = {
            "shape": list(self.shape),
            "layout": self.layout,
            "layout_opts": dict(self.layout_opts),
            "drive": self.drive_name,
            "cell_blocks": self.cell_blocks,
            "depth": self.depth,
            "seed": self.seed,
            "n_cells": self.n_cells,
        }
        spec = self._spec
        if spec.cache is not None:
            # gated so uncached datasets keep the pre-cache JSON layout
            out["cache"] = dict(spec.cache)
        if self.n_shards > 1:
            # gated on > 1: a 1-shard dataset reports as unsharded (it
            # is bit-identical to one, the pinned parity guarantee)
            out["shards"] = spec.shard_map.describe()
        if self.replication_k > 1:
            # gated on k > 1: a single-copy dataset reports as the
            # sharded stack it is bit-identical to
            out["replicas"] = dict(spec.replicas)
        if spec.obs is not None:
            # gated so detached datasets keep the pre-obs JSON layout
            out["obs"] = dict(spec.obs)
        if spec.ingest is not None:
            # gated so read-only datasets keep the pre-ingest JSON layout
            out["ingest"] = {
                k: (v if isinstance(v, (str, int, float, bool, type(None)))
                    else str(v))
                for k, v in spec.ingest.items()
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(shape={self.shape}, layout={self.layout!r}, "
            f"drive={self.drive_name!r})"
        )
