"""Speedup-vs-disks sweeps: the scale-out analogue of the traffic storm.

``run_scale_sweep`` replays one fixed, seeded beam workload against each
registered layout at rising shard counts and records per-query makespan
timings — producing the throughput/speedup-vs-disks curve per layout.
Every (layout, n_shards) cell builds a fresh same-seed dataset, shards it
with :meth:`Dataset.with_shards`, and runs the *identical* query objects,
so only the placement and the scatter-gather parallelism differ.

The sweep chunks along one *split axis* (default: axis 1, recomputed per
shard count) and queries beams over the non-streaming axes, so beams
along the split axis fan out across all drives while each layout keeps
paying its own cost structure on the untouched axes.  The expected
shape: MultiMap's throughput is monotone non-decreasing in shard count
and stays ahead of every baseline at every tested N — beams on the
split axis parallelise its cheap semi-sequential hops, while the
space-filling curves' cross-disk beams still pay scattered positioning
on every member disk and naive remains bound by its unsplit worst axis.
"""

from __future__ import annotations

import numpy as np

from repro.bench.sweep import Param, Sweep, ints, register
from repro.query.workload import random_beam

__all__ = ["beam_axes", "mb_per_s", "scale_beams", "run_scale_sweep",
           "render_scale_sweep"]


def beam_axes(shape, axes=None) -> tuple[int, ...]:
    """``axes``, or by default every non-streaming axis (the traffic
    storm's mix)."""
    if axes is not None:
        return tuple(int(a) for a in axes)
    return tuple(range(1, len(shape))) if len(shape) > 1 else (0,)


def scale_beams(shape, *, n_beams: int = 12, axes=None, seed: int = 0):
    """A fixed beam workload cycling over :func:`beam_axes` at seeded
    random positions — the same concrete queries for every (layout,
    shard-count) cell."""
    shape = tuple(int(s) for s in shape)
    axes = beam_axes(shape, axes)
    rng = np.random.default_rng(seed)
    return [
        random_beam(shape, axes[i % len(axes)], rng)
        for i in range(int(n_beams))
    ]


def mb_per_s(blocks: int, total_ms: float) -> float:
    """Served 512-byte blocks per simulated second, in MB/s."""
    return blocks * 512 / 1e6 / (total_ms / 1000.0) if total_ms > 0 else 0.0


def _setup(run) -> dict:
    """One chunk shape per shard count, handed to every layout — the
    fairness condition of the sweep (cells compare placements, never
    chunk grids).  An explicit ``chunk_shape`` is used at every count;
    cube_aligned strategies split on a basic-cube boundary (ignoring
    ``split_axis``, so meta records none) whose granule depends only on
    shape/drive, so one probe dataset resolves it; otherwise
    ``split_axis`` is slabbed into ``n`` pieces."""
    from repro.lvm.striping import STRATEGIES
    from repro.shard.map import ShardMap

    shape = run.shape
    split_axis = run.split_axis % len(shape)
    entry = (STRATEGIES.get(run.strategy) if isinstance(run.strategy, str)
             else run.strategy)
    aligned = (bool(getattr(entry, "align_cubes", False))
               and run.chunk_shape is None)
    if aligned:
        align = run.dataset("multimap")._basic_cube_sides()
    shapes: dict[int, tuple[int, ...]] = {}
    for n in run.shard_counts:
        if run.chunk_shape is not None:
            shapes[n] = tuple(run.chunk_shape)
        elif aligned:
            shapes[n] = ShardMap.build(
                shape, n, run.strategy, align=align
            ).chunks[0].shape
        else:
            cs = list(shape)
            cs[split_axis] = -(-shape[split_axis] // n)
            shapes[n] = tuple(cs)
    axes = beam_axes(shape, run.axes)
    return {
        "split_axis": None if aligned else split_axis,
        "chunk_shapes": shapes,
        "axes": axes,
        "_queries": scale_beams(shape, n_beams=run.n_beams, axes=axes,
                                seed=run.seed),
    }


def _measure(run, layout, n, row) -> dict:
    ds = run.dataset(layout).with_shards(
        n, strategy=run.strategy, chunk_shape=run.chunk_shapes[n]
    )
    report = ds.query().add(run._queries).run()
    blocks = sum(r.result.n_blocks for r in report.records)
    total_ms = report.total_ms
    base_ms = next(iter(row.values()))["total_ms"] if row else total_ms
    return {
        "n_shards": n,
        "total_ms": total_ms,
        "mean_query_ms": report.mean("total_ms"),
        "ms_per_cell": report.mean("ms_per_cell"),
        "served_blocks": blocks,
        "mb_per_s": mb_per_s(blocks, total_ms),
        "speedup": base_ms / total_ms if total_ms > 0 else 0.0,
    }


def _disks(n: int) -> str:
    return f"{n} disk" + ("s" if n > 1 else "")


SCALE = register(Sweep(
    name="scale",
    help="speedup-vs-disks sweep per layout",
    description="Replay a seeded beam workload against each layout at "
    "rising shard counts (chunks declustered across member disks, "
    "queries serviced scatter-gather) and report throughput, speedup "
    "relative to the first shard count, and ms/cell per mapping — the "
    "multi-disk half of MultiMap's locality dividend.",
    shape=(64, 64, 32),
    drive="atlas10k3",
    axis=Param("shard_counts", (1, 2, 4), "--shards",
               "comma-separated shard counts to sweep", type=ints,
               count=True),
    params=(
        Param("strategy", "disk_modulo", "--strategy",
              "registered declustering strategy "
              "(round_robin, disk_modulo, cube_aligned, ...)"),
        Param("split_axis", 1, "--split-axis",
              "axis the chunking slabs (default 1)", type=int),
        Param("chunk_shape", None, help="explicit chunk shape for every "
              "shard count (overrides split_axis)", type=ints),
        Param("n_beams", 12, "--beams",
              "beams in the fixed workload (default 12)", type=int,
              count=True),
        Param("axes", None, "--axes", "beam axes, cycled (default: every "
              "non-streaming axis)", type=ints),
        Param("seed", 42, "--seed", "workload + head-position seed",
              type=int),
    ),
    setup=_setup,
    measure=_measure,
    title="scale-out sweep: shape={shape} on {drive}, strategy={strategy}, "
    "{n_beams} beams over axes {axes}, seed={seed}",
    tables=(
        ("throughput (MB/s) vs shard count",
         _disks, "{mb_per_s:.2f}"),
        ("speedup vs shard count (relative to first column)",
         _disks, "{speedup:.2f}x"),
        ("mean ms/cell vs shard count",
         _disks,
         "{ms_per_cell:.4f}"),
    ),
))

run_scale_sweep = SCALE.run
render_scale_sweep = SCALE.render
