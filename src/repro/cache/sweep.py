"""Hit-ratio-vs-capacity sweeps: the caching analogue of the storm.

``run_cache_sweep`` replays the same seeded *overlapping-beam* workload
against each registered layout at rising pool capacities and records the
cache hit ratio, prefetch accuracy, and query timings — producing the
hit-ratio-vs-capacity curve per layout that quantifies the second half
of MultiMap's locality dividend: under a placement that keeps spatial
neighbors physically adjacent, one beam's miss work (plus track-aligned
prefetch) is the neighboring beams' memory hits, while space-filling
curves scatter a beam across many tracks and pay the pollution.

The workload (:func:`overlapping_beams`) draws beams whose anchors
cluster inside a sub-region of the dataset and repeats the whole batch,
so queries overlap both spatially (neighboring anchors share tracks)
and temporally (repeats re-read the same cells) — the
repeated/overlapping access the paper's OLAP and earthquake scenarios
produce.  Every (layout, capacity) cell replays identical queries on a
fresh same-seed dataset, so only placement and pool behaviour differ.
"""

from __future__ import annotations

import numpy as np

from repro.bench.sweep import Param, Sweep, ints, register
from repro.query.workload import BeamQuery

__all__ = ["overlapping_beams", "run_cache_sweep", "render_cache_sweep"]


def overlapping_beams(
    shape,
    *,
    n_beams: int = 16,
    axes=(1,),
    region_frac: float = 0.4,
    seed: int = 0,
) -> list[BeamQuery]:
    """Full-length beams whose anchors cluster in one sub-region.

    ``region_frac`` bounds each fixed coordinate to the first
    ``frac * dim`` cells, so distinct beams cross and share neighboring
    cells; cycling through ``axes`` mixes access directions the way the
    paper's multi-dimensional workloads do.  Deterministic for a given
    ``seed``.
    """
    shape = tuple(int(s) for s in shape)
    rng = np.random.default_rng(seed)
    queries = []
    for i in range(int(n_beams)):
        axis = int(axes[i % len(axes)])
        fixed = tuple(
            0 if d == axis
            else int(rng.integers(0, max(1, int(s * region_frac))))
            for d, s in enumerate(shape)
        )
        queries.append(BeamQuery(axis=axis, fixed=fixed))
    return queries


def _measure(run, layout, capacity, row) -> dict:
    """One cell; capacity 0 runs with no pool at all (the parity
    baseline)."""
    ds = run.dataset(layout).with_cache(capacity, policy=run.policy,
                                        prefetch=run.prefetch)
    report = ds.query().add(run._queries).repeats(run.repeats).run()
    cell = {
        "capacity": capacity,
        "total_ms": report.total_ms,
        "mean_query_ms": report.mean("total_ms"),
    }
    if ds.cache is not None:
        stats = ds.cache.stats
        cell.update(
            hit_ratio=stats.hit_ratio,
            prefetch_accuracy=stats.prefetch_accuracy,
            occupancy=ds.cache.occupancy,
        )
    else:
        cell.update(hit_ratio=0.0, prefetch_accuracy=0.0, occupancy=0)
    return cell


CACHE = register(Sweep(
    name="cache",
    help="hit-ratio-vs-capacity sweep per layout",
    description="Replay a seeded overlapping-beam workload against each "
    "layout at rising buffer-pool capacities and report the cache hit "
    "ratio, prefetch accuracy, and query timings — the memory half of "
    "MultiMap's locality dividend.  The default shape fills whole "
    "minidrive tracks along dim 0.",
    shape=(120, 16, 16),
    drive="minidrive",
    axis=Param("capacities", (0, 4096, 12288, 24576), "--capacities",
               "comma-separated pool capacities in blocks "
               "(0 = uncached baseline)", type=ints),
    params=(
        Param("policy", "lru", "--policy",
              "eviction policy (lru, slru, scan, or registered)"),
        Param("prefetch", "track", "--prefetch",
              "prefetcher (none, track, adjacent, or registered)"),
        Param("n_beams", 16, "--beams", "beams per round (default 16)",
              type=int, count=True),
        Param("repeats", 3, "--repeats",
              "rounds over the same beams (default 3)", type=int,
              count=True),
        Param("axes", (1,), "--axes", "beam axes, cycled (default 1)",
              type=ints),
        Param("region_frac", 0.4, "--region",
              "fraction of each dim beam anchors cluster in", type=float),
        Param("seed", 42, "--seed", "workload + head-position seed",
              type=int),
    ),
    setup=lambda run: {"_queries": overlapping_beams(
        run.shape, n_beams=run.n_beams, axes=run.axes,
        region_frac=run.region_frac, seed=run.seed,
    )},
    measure=_measure,
    title="cache sweep: shape={shape} on {drive}, policy={policy}, "
    "prefetch={prefetch}, {n_beams} beams x {repeats} repeats, seed={seed}",
    tables=(
        ("cache hit ratio vs pool capacity (blocks)", "cap {}",
         "{hit_ratio:.1%}"),
        ("mean query time (ms) vs pool capacity", "cap {}",
         "{mean_query_ms:.2f}"),
        ("prefetch accuracy vs pool capacity", "cap {}",
         "{prefetch_accuracy:.1%}"),
    ),
))

run_cache_sweep = CACHE.run
render_cache_sweep = CACHE.render
