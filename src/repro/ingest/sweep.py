"""Ingest throughput sweeps: write-path MB/s, layouts × loaders.

``run_ingest_sweep`` streams one fixed, seeded record stream into each
registered layout under each registered loader and records goodput —
the write-path analogue of the scale-out sweep.  Every (layout, loader)
cell builds a fresh same-seed dataset, shards it identically, and
replays the *identical* stream, so only the placement (where cells land
on the platter) and the ingest plan (cell capacity, chunk split) differ.

The expected shape: MultiMap's flushes write whole basic cubes as a few
long sequential runs, so its goodput beats the space-filling curves
(whose buffered cells scatter across the platter) and naive (bound by
its worst axis); the adaptive loader samples the stream's density and
sizes cells so clustered hot spots don't chain into overflow pages,
so on a skewed stream ``adaptive`` ≥ ``fixed`` for every layout.
"""

from __future__ import annotations

from repro.bench.sweep import Param, Sweep, register, strs

__all__ = ["run_ingest_sweep", "render_ingest_sweep"]


#: the :class:`~repro.ingest.report.IngestReport` fields a cell records
_CELL_FIELDS = ("mb_per_s", "points_per_s", "stage_ms", "write_ms",
                "total_ms", "flushes", "home_blocks", "blocks_written",
                "overflow_points", "plan")


def _measure(run, layout, loader, row) -> dict:
    """One cell: a fresh same-seed dataset, sharded and replicated
    identically, fed the identical stream.  The chunk grid is the shard
    default (the adaptive loader's chunk-shape suggestion depends only
    on the stream sample, so when it re-chunks, it re-chunks every
    layout the same way — the fairness condition of the sweep)."""
    ds = run.dataset(layout)
    if run.n_shards > 1:
        ds = ds.with_shards(run.n_shards, strategy=run.strategy)
    if run.k > 1:
        ds = ds.with_replication(run.k)
    report = ds.with_ingest(
        stream=run.stream,
        loader=loader,
        n_points=run.n_points,
        batch_points=run.batch_points,
        flush_points=run.flush_points,
        seed=run.seed,
        reorganize=run.reorganize,
    ).ingest().run()
    return {field: getattr(report, field) for field in _CELL_FIELDS}


INGEST = register(Sweep(
    name="ingest",
    help="ingest-MB/s sweep, layouts x loaders",
    description="Stream a seeded record stream into each layout under each "
    "registered bulk loader (buffered, flushed as whole basic cubes, "
    "replica-consistent) and report write goodput, overflow and write "
    "makespan per mapping — the write-path half of MultiMap's locality "
    "dividend.",
    shape=(64, 16, 16),
    drive="minidrive",
    axis=Param("loaders", ("fixed", "adaptive"), "--loaders",
               "comma-separated registered loaders", type=strs),
    params=(
        Param("stream", "clustered", "--stream",
              "registered record stream (uniform, clustered, drifting)"),
        Param("n_points", 4096, "--points",
              "points streamed per cell (default 4096)", type=int,
              count=True),
        Param("batch_points", 256, "--batch-points",
              "points per arriving batch (default 256)", type=int,
              count=True),
        Param("flush_points", 1024, "--flush-points",
              "per-disk backlog that triggers a flush", type=int,
              count=True),
        Param("n_shards", 2, "--shards", "member disks (default 2)",
              type=int, count=True),
        Param("k", 1, "--k", "replication factor (default 1)", type=int,
              count=True),
        Param("strategy", "disk_modulo", "--strategy",
              "registered declustering strategy"),
        Param("seed", 42, "--seed", "stream + head-position seed",
              type=int),
        Param("reorganize", False, "--reorganize",
              "fold overflow chains back after the stream (modelled "
              "background I/O counted in total time)", type=bool),
    ),
    # the stream always runs with its registered defaults; the empty
    # record keeps the historical meta (and BENCH_ingest.json) intact
    setup=lambda run: {"stream_opts": {}},
    measure=_measure,
    title="ingest sweep: shape={shape} on {drive}, {n_points} points of "
    "{stream} stream, {n_shards} shard(s) x{k}, seed={seed}",
    tables=(
        ("ingest goodput (MB/s) per loader", "{} MB/s", "{mb_per_s:.3f}"),
        ("overflowed points per loader", "{} spills", "{overflow_points}"),
        ("write makespan (ms) per loader", "{} write ms",
         "{write_ms:.2f}"),
    ),
))

run_ingest_sweep = INGEST.run
render_ingest_sweep = INGEST.render
