"""The three benchmark workloads.

Each workload generates its own inputs from a seed (queries, hot sets,
point streams), so the program under test receives only generated
inputs.  One *round* of a workload builds every stack it uses from its
own fresh ``Dataset.create`` calls (never deriving one configuration
from another instance: the ``with_*`` builders mutate and return
``self``), then runs a timed phase and checks every operation.  A run
measures at least ``sim_rounds`` rounds; the simulated metrics pool
exactly those first rounds.

``paper_batch``
    The paper's experiment (§5, Fig. 6-8): one caller, one query
    outstanding, every registered layout on the same seeded beams on
    axes 1 and 2 and 1% / 10% range cubes, through ``QueryBatch.run``.
    No cache, shards, traffic or telemetry.  Drive SPTF service does
    most of the multimap work and curve planning most of the hilbert and
    zorder work; a change to the cache, shard, traffic or obs layers
    should read unchanged here.
``storm_hot``
    The full stack under concurrency: 8 zero-think closed-loop clients
    on multimap over 4 shards x 2 replicas, one shared LRU pool of
    16,384 blocks, telemetry and monitor attached.  Each client replays
    Zipf(1.1) draws, each in its own order of preference, from one
    shared hot set of 128 beams (two thirds on axis 1, a third on axis
    2, half to full length): about 5k blocks, which fit in the pool.
    Cache filtering, plan preparation, shard routing, the traffic loop
    and obs/monitor recording do the work; the drive does little.
``ingest_mixed``
    Writes beside reads: one open-loop Poisson ingest client (20
    batches per simulated second) streams 8,192 clustered points
    through the adaptive loader while 8 closed-loop readers issue beams
    on axes 1 and 2 and 1% ranges.  Multimap on 2 shards with a shared
    LRU pool of 2,048 blocks, far smaller than the 131,072 cells, so
    the pool churns.  Write preparation, cache invalidation, eviction
    and drive writes do the work; no telemetry.

The traffic workloads end each round with a short one-shot phase that
replays more draws of the round's read mix through ``QueryBatch.run`` on
the same stack, one at a time: the time a single caller waits per query
on that stack.

Times are process CPU time.  The simulator is single-threaded and does
no I/O, so on an idle machine its CPU time is its wall time; CPU time
leaves out what other tenants of a shared machine take from it.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import process_time

import numpy as np

from repro import BeamQuery, Dataset, RangeQuery
from repro.traffic.arrivals import ClosedLoop, PoissonArrivals
from repro.traffic.clients import Replay

SHAPE = (64, 64, 32)
DRIVE = "atlas10k3"
LAYOUTS = ("naive", "zorder", "hilbert", "gray", "multimap")


# ----------------------------------------------------------------------
# input generation (the benchmark's own; the program only sees results)
# ----------------------------------------------------------------------

def gen_beam(rng, axis: int, partial: bool = False) -> BeamQuery:
    """A beam along ``axis`` at a random position; ``partial`` draws a
    random span of half to full length."""
    fixed = tuple(int(rng.integers(0, s)) for s in SHAPE)
    n = SHAPE[axis]
    if not partial:
        return BeamQuery(axis, fixed)
    length = int(rng.integers(n // 2, n + 1))
    lo = int(rng.integers(0, n - length + 1))
    return BeamQuery(axis, fixed, lo, lo + length)


def gen_range(rng, pct: float) -> RangeQuery:
    """A cube covering about ``pct`` % of the grid at a random anchor."""
    frac = (pct / 100.0) ** (1.0 / len(SHAPE))
    side = [max(1, int(round(s * frac))) for s in SHAPE]
    lo = [int(rng.integers(0, s - w + 1)) for s, w in zip(SHAPE, side)]
    return RangeQuery(tuple(lo), tuple(a + w for a, w in zip(lo, side)))


def reader_mix(rng, n: int) -> list:
    """Beams on axes 1 and 2 and 1% ranges, a third each."""
    kinds = rng.integers(0, 3, size=n)
    return [gen_range(rng, 1.0) if k == 2 else gen_beam(rng, int(k) + 1)
            for k in kinds]


def clustered_points(rng, n: int, n_clusters: int = 4,
                     spread: float = 0.05) -> np.ndarray:
    """Gaussian hot spots around random centres, clipped to the grid."""
    dims = np.asarray(SHAPE)
    centres = np.stack([rng.integers(0, s, n_clusters) for s in SHAPE], 1)
    pick = rng.integers(0, n_clusters, size=n)
    noise = rng.normal(0.0, spread * dims, size=(n, len(SHAPE)))
    pts = np.rint(centres[pick] + noise).astype(np.int64)
    return np.clip(pts, 0, dims - 1)


# ----------------------------------------------------------------------
# per-round results and checks
# ----------------------------------------------------------------------

@dataclass
class Round:
    """What one round measured and checked."""

    cpu_s: float = 0.0             # timed phase, process CPU seconds
    reads: int = 0                 # read queries in the timed phase
    points: int = 0                # points ingested in the timed phase
    query_ms: list = field(default_factory=list)
    sim_ms: list = field(default_factory=list)   # simulated read latency
    sim_span_s: float = 0.0        # simulated seconds the reads took
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""
    layer: dict = field(default_factory=dict)  # traced-run extras

    def op(self, ok: bool, what: str) -> None:
        """Count one operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(1, what)

    def fail(self, n: int, what: str) -> None:
        """Mark ``n`` already counted operations failed."""
        self.failed = min(self.attempted, self.failed + n)
        if len(self.failures) < 5:
            self.failures.append(what)


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _muted(tracer):
    return tracer.muted() if tracer is not None else nullcontext()


def _oneshot(ds, queries, rng, rnd: Round, tracer) -> list:
    """Closed loop, one query outstanding, through ``QueryBatch.run``.
    Appends each query's CPU time; returns the results."""
    results = []
    for q in queries:
        if tracer is not None:
            tracer.op += 1
        t0 = process_time()
        with _span(tracer, "api.query"):
            rep = ds.query().add(q).run(rng=rng)
        rnd.query_ms.append((process_time() - t0) * 1e3)
        results.append(rep.records[0].result)
    return results


def _planned_blocks(ds, q) -> int:
    """Blocks the stack plans for ``q``, prepared with the cache and
    telemetry detached so the probe records nothing."""
    st = ds.storage
    cache, obs = st.cache, st.obs
    st.cache, st.obs = None, None
    try:
        return int(st.prepare(ds.mapper, q).n_blocks)
    finally:
        st.cache, st.obs = cache, obs


def _check_served(ds, q, n_cells_served: int, n_blocks_served: int,
                  rnd: Round, planned: dict, what: str) -> None:
    """One read: it served the cells it asked for and exactly the
    blocks its plan planned."""
    key = id(q)
    if key not in planned:
        planned[key] = _planned_blocks(ds, q)
    rnd.op(n_cells_served == q.n_cells(SHAPE)
           and n_blocks_served == planned[key],
           f"{what}: cells {n_cells_served}/{q.n_cells(SHAPE)} blocks "
           f"{n_blocks_served}/{planned[key]}")


def _check_oneshot(ds, queries, results, rnd: Round, planned: dict,
                   rows: list) -> None:
    for q, res in zip(queries, results):
        _check_served(ds, q, res.n_cells, res.n_blocks, rnd, planned,
                      f"{ds.layout} {q}")
        rows.append((res.total_ms, res.n_blocks, res.n_runs))


def _check_traffic_reads(ds, rep, client_queries: dict, rnd: Round,
                         planned: dict, rows: list) -> list:
    """Check every read trace; a read that never completed fails."""
    reads = [t for t in rep.traces if t.client in client_queries]
    for tr in reads:
        _check_served(ds, client_queries[tr.client][tr.index],
                      tr.n_cells, tr.n_blocks, rnd, planned,
                      f"{tr.client}#{tr.index}")
        rnd.sim_ms.append(tr.latency_ms)
        rows.append((tr.client, tr.index, tr.latency_ms, tr.n_blocks,
                     tr.n_runs))
    sent = sum(len(qs) for qs in client_queries.values())
    if len(reads) < sent:
        rnd.attempted += sent - len(reads)
        rnd.fail(sent - len(reads), f"{sent - len(reads)} reads lost")
    return reads


def _check_cache(ds, rnd: Round) -> None:
    """After a cached run, hits + misses == accesses (else the whole
    round fails)."""
    s = ds.cache.stats
    if s.hits + s.misses != s.accesses:
        rnd.fail(rnd.attempted, f"cache hits {s.hits} + misses "
                 f"{s.misses} != accesses {s.accesses}")


def _traffic_layer(ds, rep, reads) -> dict:
    """Traced-run extras read from a traffic report and the pool."""
    busy = sum(d.busy_ms for d in rep.drives)
    s = ds.cache.stats
    out = {
        "traffic.slices": sum(t.n_slices for t in rep.traces),
        "traffic.sim_queue_ms_mean": float(
            np.mean([t.queue_ms for t in reads])
        ),
        "disk.sim_busy_share": busy / (rep.makespan_ms * len(rep.drives)),
        "cache.hit_ratio": s.hit_ratio,
        "cache.evictions": s.evictions,
        "cache.admitted": s.admitted,
    }
    tele = ds.telemetry
    if tele is not None and tele.tracer is not None:
        out["obs.spans"] = tele.tracer.n_spans
    return out


def _traffic_round(ds, inp, tracer, rnd: Round, add_clients=None):
    """The traffic workloads' round: closed-loop readers replaying
    ``inp["clients"]`` (plus whatever ``add_clients`` adds), the timed
    run (wrapped as ``traffic.run`` when traced), then the one-shot
    probe and the read checks.  Returns the report, the read traces and
    the digest rows."""
    tr = ds.traffic()
    for name, qs in inp["clients"].items():
        tr.clients(1, mix=Replay(qs), arrival=ClosedLoop(),
                   queries=len(qs), name=name)
    if add_clients is not None:
        add_clients(tr)
    if tracer is not None:
        tracer.op += 1
        tracer.wrap(tr, "run", "traffic.run")
    t0 = process_time()
    rep = tr.run()
    rnd.cpu_s = process_time() - t0
    probe = _oneshot(ds, inp["probe"],
                     np.random.default_rng(inp["head_seed"]), rnd, tracer)

    rows: list = []
    planned: dict = {}
    with _muted(tracer):
        reads = _check_traffic_reads(ds, rep, inp["clients"], rnd,
                                     planned, rows)
        _check_oneshot(ds, inp["probe"], probe, rnd, planned, rows)
    rnd.reads = len(reads)
    rnd.sim_span_s = max(t.completion_ms for t in reads) / 1e3
    return rep, reads, rows


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class PaperBatch:
    name = "paper_batch"
    sim_rounds = 40
    beams_per_axis = 12
    ranges = ((1.0, 4), (10.0, 2))  # (selectivity %, count)

    def sizes(self) -> dict:
        return {"shape": SHAPE, "drive": DRIVE, "layouts": LAYOUTS,
                "beams_per_axis": self.beams_per_axis,
                "ranges_pct_count": self.ranges}

    def inputs(self, rng) -> dict:
        qs = [gen_beam(rng, axis) for axis in (1, 2)
              for _ in range(self.beams_per_axis)]
        qs += [gen_range(rng, pct) for pct, k in self.ranges
               for _ in range(k)]
        return {"queries": qs, "head_seed": int(rng.integers(2**63))}

    def planned_ops(self, inp) -> int:
        return len(inp["queries"]) * len(LAYOUTS)

    def build(self, seed: int) -> list:
        stacks = []
        for layout in LAYOUTS:
            ds = Dataset.create(SHAPE, layout=layout, drive=DRIVE,
                                seed=seed)
            m = ds.mapper  # force placement
            if hasattr(m, "code_table"):
                m.code_table()  # force the lazy curve code table
            stacks.append(ds)
        return stacks

    def run(self, stacks, inp, tracer) -> Round:
        rnd = Round()
        queries = inp["queries"]
        t0 = process_time()
        results = []
        for ds in stacks:
            with _span(tracer, f"layout.{ds.layout}"):
                results.append(_oneshot(
                    ds, queries, np.random.default_rng(inp["head_seed"]),
                    rnd, tracer,
                ))
        rnd.cpu_s = process_time() - t0
        rnd.reads = len(rnd.query_ms)

        rows: list = []
        beam_ms = {}
        with _muted(tracer):
            for ds, res in zip(stacks, results):
                _check_oneshot(ds, queries, res, rnd, {}, rows)
                rnd.sim_ms.extend(r.total_ms for r in res)
                beam_ms[ds.layout] = float(np.mean(
                    [r.total_ms for q, r in zip(queries, res)
                     if isinstance(q, BeamQuery)]
                ))
        rnd.sim_span_s = sum(rnd.sim_ms) / 1e3
        # Fig. 6: on non-streaming beams multimap beats every other
        # layout; its beams fail otherwise
        best = min(v for k, v in beam_ms.items() if k != "multimap")
        if beam_ms["multimap"] >= best:
            rnd.fail(2 * self.beams_per_axis,
                     f"Fig. 6 ordering: multimap {beam_ms['multimap']:.2f}"
                     f" ms vs best other layout {best:.2f} ms")
        rnd.digest = _digest(rows)
        # no pool: the drive serves every simulated millisecond
        rnd.layer = {"disk.sim_busy_share": 1.0}
        return rnd


class StormHot:
    name = "storm_hot"
    sim_rounds = 16
    clients = 8
    per_client = 120
    hot_beams = 128
    zipf = 1.1
    cache_blocks = 16_384
    shards = 4
    replicas = 2
    probe = 40

    def sizes(self) -> dict:
        return {"shape": SHAPE, "drive": DRIVE, "layout": "multimap",
                "clients": self.clients, "per_client": self.per_client,
                "hot_beams": self.hot_beams, "zipf": self.zipf,
                "cache_blocks": self.cache_blocks, "shards": self.shards,
                "replicas": self.replicas, "oneshot_probe": self.probe}

    def inputs(self, rng) -> dict:
        # two thirds of the hot beams run along axis 1, inside one
        # shard; the rest along axis 2, scattered over every shard
        axes = np.where(np.arange(self.hot_beams) % 3 == 2, 2, 1)
        hot = [gen_beam(rng, int(a), partial=True) for a in axes]
        w = 1.0 / np.arange(1, self.hot_beams + 1) ** self.zipf
        w /= w.sum()

        def draws(n):
            # each caller ranks the shared hot set in its own order
            favourites = rng.permutation(self.hot_beams)
            return [hot[favourites[k]]
                    for k in rng.choice(self.hot_beams, n, p=w)]

        return {
            "clients": {f"r{i}": draws(self.per_client)
                        for i in range(self.clients)},
            "probe": draws(self.probe),
            "head_seed": int(rng.integers(2**63)),
        }

    def planned_ops(self, inp) -> int:
        return self.clients * self.per_client + self.probe

    def build(self, seed: int) -> list:
        ds = (Dataset.create(SHAPE, layout="multimap", drive=DRIVE,
                             seed=seed)
              .with_shards(self.shards)
              .with_replication(self.replicas)
              .with_cache(self.cache_blocks)
              .with_telemetry(monitor=True))
        ds.mapper  # every chunk and copy mapper is placed by now
        return [ds]

    def run(self, stacks, inp, tracer) -> Round:
        (ds,) = stacks
        rnd = Round()
        rep, reads, rows = _traffic_round(ds, inp, tracer, rnd)
        _check_cache(ds, rnd)
        rnd.digest = _digest(rows)
        if tracer is not None:
            rnd.layer = _traffic_layer(ds, rep, reads)
        return rnd


class IngestMixed:
    name = "ingest_mixed"
    sim_rounds = 24
    points = 8_192
    batch_points = 64
    flush_points = 1024  # per-disk backlog that triggers a flush
    rate = 20.0  # ingest batches per simulated second
    readers = 8
    per_reader = 30
    cache_blocks = 2_048
    shards = 2
    probe = 64

    def sizes(self) -> dict:
        return {"shape": SHAPE, "drive": DRIVE, "layout": "multimap",
                "points": self.points, "batch_points": self.batch_points,
                "flush_points": self.flush_points,
                "ingest_rate_per_sim_s": self.rate,
                "loader": "adaptive", "stream": "clustered (4 centres)",
                "readers": self.readers, "per_reader": self.per_reader,
                "cache_blocks": self.cache_blocks, "shards": self.shards,
                "oneshot_probe": self.probe}

    def inputs(self, rng) -> dict:
        return {
            "coords": clustered_points(rng, self.points),
            "clients": {f"r{i}": reader_mix(rng, self.per_reader)
                        for i in range(self.readers)},
            "probe": reader_mix(rng, self.probe),
            "head_seed": int(rng.integers(2**63)),
        }

    def planned_ops(self, inp) -> int:
        return (self.readers * self.per_reader + self.probe
                + self.points // self.batch_points)

    def build(self, seed: int) -> list:
        ds = (Dataset.create(SHAPE, layout="multimap", drive=DRIVE,
                             seed=seed)
              .with_shards(self.shards)
              .with_cache(self.cache_blocks))
        ds.mapper
        return [ds]

    def run(self, stacks, inp, tracer) -> Round:
        (ds,) = stacks
        rnd = Round()

        def add_ingest(tr):
            tr.ingest(arrival=PoissonArrivals(rate_qps=self.rate),
                      name="ingest", stream="replay", coords=inp["coords"],
                      loader="adaptive", batch_points=self.batch_points,
                      flush_points=self.flush_points)

        rep, reads, rows = _traffic_round(ds, inp, tracer, rnd, add_ingest)
        # every batch acknowledged with its points, none left buffered
        writes = [t for t in rep.traces if t.client == "ingest"]
        for t in writes:
            rnd.op(t.n_cells == self.batch_points,
                   f"ingest batch {t.index}: {t.n_cells} points acked")
        sent = -(-len(inp["coords"]) // self.batch_points)
        if len(writes) < sent:
            rnd.attempted += sent - len(writes)
            rnd.fail(sent - len(writes),
                     f"{sent - len(writes)} ingest batches unacknowledged")
        stats = rep.meta["ingest"]["stats"]
        if stats["buffered_points"] or \
                stats["streamed_points"] != len(inp["coords"]):
            rnd.fail(len(writes), f"ingest left {stats['buffered_points']}"
                     f" points buffered of {stats['streamed_points']}")
        _check_cache(ds, rnd)
        rnd.points = stats["flushed_points"]
        rows.extend((t.index, t.latency_ms, t.n_blocks) for t in writes)
        rnd.digest = _digest(rows)
        if tracer is not None:
            rnd.layer = _traffic_layer(ds, rep, reads)
            rnd.layer.update({
                "ingest.blocks_written_per_point":
                    sum(t.n_blocks for t in writes) / len(inp["coords"]),
                "ingest.overflow_points": stats["overflow_points"],
                "ingest.flushes": stats["flushes"],
            })
        return rnd


WORKLOADS = {w.name: w for w in (PaperBatch(), StormHot(), IngestMixed())}
