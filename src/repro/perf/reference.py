"""Pure-Python references the fast paths are pinned against.

:func:`reference_prepare` rebuilds a :class:`PreparedQuery` the slow,
obviously-correct way: enumerate the query's cells one by one, translate
each through ``mapper.lbns`` individually, expand cell blocks in Python,
and coalesce with plain loops — then apply the §5.2 issue-order rules
(per-policy merge gap, SPTF clamp) by hand.  The hypothesis suite under
``tests/perf`` asserts the vectorized
:meth:`~repro.query.executor.StorageManager.prepare` output is
bit-identical to this for every registered layout, and the perf sweep
times the two against each other for its ``speedup_vs_reference``
metric.

Parity is pinned at the *prepared* level (after the storage manager's
run merging) rather than on raw mapper plans: MultiMap's axis-0 beam
plans may legitimately contain touching-but-unmerged runs per basic-cube
column, which any honest per-cell reference would have merged already;
after ``merge_gap=0`` coalescing the two descriptions coincide exactly.

:func:`reference_sptf` is the drive's original windowed SPTF scheduler:
each step evaluates the seek curve and rotational wait of every request
in the window with numpy and takes the argmin.  The hypothesis suite
asserts :meth:`~repro.disk.drive.DiskDrive.service_runs` picks the same
request at every step, with bit-identical timings and head state, and
the perf sweep times the two for its ``exec_speedup_vs_reference``.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.multimap import MultiMapMapper
from repro.disk.drive import SNAP_REV, BatchResult
from repro.errors import QueryError
from repro.mappings.base import RequestPlan
from repro.query.executor import PreparedQuery
from repro.query.workload import BeamQuery, RangeQuery

__all__ = ["reference_prepare", "reference_intersections", "reference_sptf"]


def _reference_cells(mapper, query) -> list[tuple[int, ...]]:
    """The query's cells in issue order: beams walk their axis
    ascending, ranges enumerate with dimension 0 varying fastest (the
    :func:`~repro.mappings.base.enumerate_box` convention)."""
    if isinstance(query, BeamQuery):
        hi = mapper.dims[query.axis] if query.hi is None else int(query.hi)
        cells = []
        for v in range(int(query.lo), hi):
            c = [int(x) for x in query.fixed]
            c[query.axis] = v
            cells.append(tuple(c))
        return cells
    spans = [
        range(int(a), int(b)) for a, b in zip(query.lo, query.hi)
    ]
    return [
        tuple(reversed(c)) for c in itertools.product(*reversed(spans))
    ]


def _reference_raw_policy(mapper, query) -> tuple[str, int | None]:
    """The (policy, merge_gap) the mapper's raw plan carries."""
    multimap = isinstance(mapper, MultiMapMapper)
    if isinstance(query, BeamQuery):
        if multimap and int(query.axis) != 0:
            return "fifo", 0  # semi-sequential path, coordinate order
        return "sorted", 0
    if multimap and mapper.n_dims > 1:
        return "sptf", None
    return "sorted", None


def reference_prepare(storage, mapper, query) -> PreparedQuery:
    """Prepare ``query`` per-cell in pure Python (uncached path only)."""
    cache = getattr(storage, "cache", None)
    if cache is not None and cache.active:
        raise QueryError("reference_prepare models the uncached path")
    cells = _reference_cells(mapper, query)
    policy, merge_gap = _reference_raw_policy(mapper, query)
    cb = int(mapper.cell_blocks)
    lbns = [
        int(mapper.lbns(np.asarray([c], dtype=np.int64))[0]) for c in cells
    ]
    if policy == "fifo":
        # one cell per request, given order, never merged or clamped
        plan = RequestPlan(
            np.asarray(lbns, dtype=np.int64),
            np.full(len(lbns), cb, dtype=np.int64),
            policy="fifo",
            merge_gap=0,
        )
    else:
        blocks = sorted({b + i for b in lbns for i in range(cb)})
        gap = (
            storage.coalesce_gap_blocks if merge_gap is None else merge_gap
        )
        runs: list[list[int]] = []
        for b in blocks:
            if runs and b <= runs[-1][1] + gap:
                runs[-1][1] = b + 1  # read through the hole
            else:
                runs.append([b, b + 1])
        plan = RequestPlan(
            np.asarray([r[0] for r in runs], dtype=np.int64),
            np.asarray([r[1] - r[0] for r in runs], dtype=np.int64),
            policy=policy,
            merge_gap=merge_gap,
        )
    effective = plan.policy
    if effective == "sptf" and plan.n_runs > storage.sptf_run_limit:
        effective = "sorted"
    n_cells = (
        query.n_cells(mapper.dims)
        if isinstance(query, BeamQuery)
        else query.n_cells()
    )
    return PreparedQuery(
        mapper_name=mapper.name,
        disk_index=mapper.disk_index,
        plan=plan,
        policy=effective,
        n_cells=int(n_cells),
        raw_runs=None,  # the oracle pins plans, not raw-run diagnostics
    )


def reference_intersections(shard_map, lo, hi) -> list[tuple]:
    """The pre-vectorization per-chunk intersection loop, for pinning
    :meth:`~repro.shard.map.ShardMap.intersections`."""
    out = []
    ndim = len(shard_map.dims)
    for chunk in shard_map.chunks:
        llo, lhi = [], []
        for d in range(ndim):
            a = max(int(lo[d]), chunk.origin[d])
            b = min(int(hi[d]), chunk.origin[d] + chunk.shape[d])
            if a >= b:
                break
            llo.append(a - chunk.origin[d])
            lhi.append(b - chunk.origin[d])
        else:
            out.append((chunk, tuple(llo), tuple(lhi)))
    return out


def reference_sptf(drive, info, window: int, collect: bool) -> BatchResult:
    """Windowed SPTF over ``drive._prepare_runs`` output, numpy per step.

    Services the batch from the drive's current head state and leaves
    the head where the last request ends, exactly like ``service_runs``
    with ``policy="sptf"``.
    """
    rot = drive.mechanics.rotation_ms
    overhead = drive.mechanics.command_overhead_ms
    mech = drive.mechanics
    surfaces = drive.geometry.surfaces
    n = info["starts"].size
    cyl0 = info["cyl0"]
    track0 = info["track0"]
    a0 = info["a0"]
    cyle = info["cyle"]
    tracke = info["tracke"]
    xfer = info["transfer"] + info["switch"]

    # Admission in issue order: the window holds the first `window`
    # not-yet-serviced requests, like a drive command queue.
    pending = np.arange(n, dtype=np.int64)
    in_window = min(window, n)
    window_idx = list(range(in_window))
    next_admit = in_window

    t0 = drive.now_ms
    t = t0
    cur_cyl = drive.current_track // surfaces
    cur_track = drive.current_track

    order = np.empty(n, dtype=np.int64)
    per_request = np.empty(n, dtype=np.float64) if collect else None
    seek_total = rot_total = 0.0

    for step in range(n):
        widx = np.asarray(window_idx, dtype=np.int64)
        cand = pending[widx]
        dist = np.abs(cyl0[cand] - cur_cyl)
        seeks = mech.seek_time(dist)
        seeks = np.where(
            dist == 0,
            np.where(track0[cand] != cur_track, mech.head_switch_ms, 0.0),
            seeks,
        )
        arrival = t + overhead + seeks
        waits = (a0[cand] - arrival / rot) % 1.0
        waits = np.where(waits > 1.0 - SNAP_REV, 0.0, waits) * rot
        costs = seeks + waits
        k = int(np.argmin(costs))
        chosen = int(cand[k])

        seek_total += float(seeks[k])
        rot_total += float(waits[k])
        service_time = overhead + float(costs[k]) + float(xfer[chosen])
        if collect:
            per_request[step] = service_time
        t += service_time
        cur_cyl = int(cyle[chosen])
        cur_track = int(tracke[chosen])
        order[step] = chosen

        del window_idx[k]
        if next_admit < n:
            window_idx.append(next_admit)
            next_admit += 1

    drive.reset(cur_track, t)
    return BatchResult(
        total_ms=t - t0,
        n_requests=n,
        n_blocks=int(info["lengths"].sum()),
        seek_ms=seek_total,
        rotation_ms=rot_total,
        transfer_ms=float(info["transfer"].sum()),
        switch_ms=float(info["switch"].sum()),
        overhead_ms=overhead * n,
        per_request_ms=per_request,
        order=order if collect else None,
    )
