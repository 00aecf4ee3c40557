"""The ``repro-bench perf`` sweep: plan-preparation throughput per layout.

For each layout the sweep builds a dataset, replays a pinned seeded
workload (full-length beams cycling every axis, random range cubes, and
one full-box scan) through :meth:`StorageManager.prepare`, and records:

* ``plans_per_s`` / ``cells_per_s`` — fast-path preparation throughput
  (best of ``repeats`` passes);
* ``prep_share`` — preparation wall time as a fraction of prepare +
  simulated service, the prep-vs-service split;
* ``speedup_vs_reference`` — the same storage manager against
  :func:`repro.perf.reference.reference_prepare` on a capped subset of
  the workload.  Every subset plan is asserted bit-identical between
  the two pipelines before timing is trusted, so the number can never
  describe diverging plans;
* ``exec_speedup_vs_reference`` — the drive's SPTF scheduler against
  :func:`repro.perf.reference.reference_sptf` on every prepared plan
  the drive services by SPTF, timed interleaved on fresh drives that
  start from the same head draws.  Every result is asserted
  bit-identical (order, per-request times, head state) first.  Layouts
  without SPTF plans record ``None``.

The two speedups compare measurements taken on the same machine in the
same process, so they are stable across hardware — :func:`check_perf`
gates primarily on them, with a very wide band on the absolute
throughputs, which is what keeps the CI gate meaningful on shared
runners.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.disk.drive import DiskDrive
from repro.errors import BenchmarkError
from repro.perf.memo import MEMO
from repro.perf.reference import reference_prepare, reference_sptf
from repro.query.workload import BeamQuery, RangeQuery, random_beam, \
    random_range_cube

__all__ = ["run_perf_sweep", "render_perf_sweep", "check_perf"]


def _query_cells(query, shape) -> int:
    if isinstance(query, BeamQuery):
        return query.n_cells(shape)
    return query.n_cells()


def _build_workload(shape, n_beams, n_ranges, selectivity_pct,
                    full_ranges, seed) -> list:
    rng = np.random.default_rng(seed)
    queries = []
    n_dims = len(shape)
    for i in range(n_beams):
        queries.append(random_beam(shape, i % n_dims, rng))
    for _ in range(n_ranges):
        queries.append(random_range_cube(shape, selectivity_pct, rng))
    for _ in range(full_ranges):
        queries.append(RangeQuery((0,) * n_dims, tuple(shape)))
    return queries


def _assert_prepared_equal(fast, ref, layout, query) -> None:
    same = (
        fast.mapper_name == ref.mapper_name
        and fast.disk_index == ref.disk_index
        and fast.policy == ref.policy
        and fast.n_cells == ref.n_cells
        and fast.plan.policy == ref.plan.policy
        and fast.plan.merge_gap == ref.plan.merge_gap
        and np.array_equal(fast.plan.starts, ref.plan.starts)
        and np.array_equal(fast.plan.lengths, ref.plan.lengths)
    )
    if not same:
        raise BenchmarkError(
            f"vectorized plan diverged from reference for layout "
            f"{layout!r} on {query!r}"
        )


def _sptf_batches(storage, prepared) -> list:
    """``(model, runs)`` for each prepared plan the drive schedules by SPTF
    (zone-crossing batches take the drive's exact scalar path instead)."""
    batches = []
    for p in prepared:
        if p.policy != "sptf":
            continue
        model = storage.volume.models[p.disk_index]
        runs = DiskDrive(model)._prepare_runs(p.plan.starts, p.plan.lengths)
        if not runs["cross_zone"].any():
            batches.append((model, runs))
    return batches


def _same_batch(a, b) -> bool:
    return (
        a.total_ms == b.total_ms
        and a.seek_ms == b.seek_ms
        and a.rotation_ms == b.rotation_ms
        and np.array_equal(a.per_request_ms, b.per_request_ms)
        and np.array_equal(a.order, b.order)
    )


def _time_sptf(batches, window, repeats, seed, layout) -> tuple[float, float]:
    """Best-of-``repeats`` ms to schedule ``batches`` with the drive's scan
    and with :func:`reference_sptf`, interleaved, after asserting the two
    agree bit for bit on every batch."""
    rng = np.random.default_rng(seed)
    heads = [DiskDrive(model).draw_position(rng) for model, _ in batches]

    def run(schedule):
        out = []
        t0 = perf_counter()
        for (model, runs), head in zip(batches, heads):
            drive = DiskDrive(model)
            drive.reset(*head)
            res = schedule(drive, runs)
            out.append((res, drive.now_ms, drive.current_track))
        return perf_counter() - t0, out

    def fast(drive, runs):
        return drive._service_sptf(runs, window, True)

    def ref(drive, runs):
        return reference_sptf(drive, runs, window, True)

    fast_best = ref_best = float("inf")
    for _ in range(repeats):
        fast_s, fast_out = run(fast)
        ref_s, ref_out = run(ref)
        fast_best = min(fast_best, fast_s)
        ref_best = min(ref_best, ref_s)
    for (a, a_now, a_track), (b, b_now, b_track) in zip(fast_out, ref_out):
        if not (_same_batch(a, b) and a_now == b_now and a_track == b_track):
            raise BenchmarkError(
                f"SPTF scan diverged from reference_sptf for layout "
                f"{layout!r}"
            )
    return fast_best * 1e3, ref_best * 1e3


def run_perf_sweep(
    shape,
    layouts=("naive", "zorder", "hilbert", "multimap"),
    *,
    drive: str = "atlas10k3",
    n_beams: int = 12,
    n_ranges: int = 4,
    selectivity_pct: float = 12.5,
    full_ranges: int = 1,
    repeats: int = 3,
    ref_plans: int = 8,
    ref_cell_cap: int = 4096,
    seed: int = 42,
) -> dict:
    """Measure plan-preparation throughput per layout.

    Returns ``{layout: metrics, "meta": {...}}``; the metrics dict is
    the JSON payload ``BENCH_perf.json`` pins.
    """
    from repro.api.dataset import Dataset

    shape = tuple(int(s) for s in shape)
    if repeats < 1:
        raise BenchmarkError("repeats must be >= 1")
    queries = _build_workload(shape, n_beams, n_ranges, selectivity_pct,
                              full_ranges, seed)
    total_cells = sum(_query_cells(q, shape) for q in queries)
    data: dict = {}
    for layout in layouts:
        t0 = perf_counter()
        ds = Dataset.create(shape, layout=layout, drive=drive, seed=seed)
        mapper = ds.mapper
        if hasattr(mapper, "code_table"):
            mapper.code_table()
        build_ms = (perf_counter() - t0) * 1e3
        storage = ds.storage

        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            for q in queries:
                storage.prepare(mapper, q)
            best = min(best, perf_counter() - t0)
        prep_ms = best * 1e3

        # prep-vs-service split: one more prepare pass, then execute
        rng = np.random.default_rng(seed)
        t0 = perf_counter()
        prepared = [storage.prepare(mapper, q) for q in queries]
        prep_once_ms = (perf_counter() - t0) * 1e3
        t0 = perf_counter()
        for p in prepared:
            storage.execute_prepared(p, rng=rng)
        exec_ms = (perf_counter() - t0) * 1e3

        # reference subset: cap per-query cells so the per-cell Python
        # pipeline stays seconds-scale, and pin bit-identical plans
        subset = [
            q for q in queries if _query_cells(q, shape) <= ref_cell_cap
        ][:ref_plans]
        if not subset:
            raise BenchmarkError(
                "ref_cell_cap excluded every query from the reference "
                "subset; raise it or shrink the workload"
            )
        fast_best = float("inf")
        sub_fast = []
        for _ in range(repeats):
            t0 = perf_counter()
            sub_fast = [storage.prepare(mapper, q) for q in subset]
            fast_best = min(fast_best, perf_counter() - t0)
        fast_ms = fast_best * 1e3
        t0 = perf_counter()
        sub_ref = [reference_prepare(storage, mapper, q) for q in subset]
        ref_ms = (perf_counter() - t0) * 1e3
        for q, fast, ref in zip(subset, sub_fast, sub_ref):
            _assert_prepared_equal(fast, ref, layout, q)

        batches = _sptf_batches(storage, prepared)
        exec_speedup = None
        if batches:
            sptf_ms, sptf_ref_ms = _time_sptf(
                batches, storage.window, repeats, seed, layout
            )
            exec_speedup = round(sptf_ref_ms / sptf_ms, 1)

        data[layout] = {
            "n_plans": len(queries),
            "n_cells": int(total_cells),
            "build_ms": round(build_ms, 3),
            "prep_ms": round(prep_ms, 3),
            "plans_per_s": round(len(queries) / (prep_ms / 1e3), 1),
            "cells_per_s": round(total_cells / (prep_ms / 1e3), 1),
            "exec_ms": round(exec_ms, 3),
            "prep_share": round(
                prep_once_ms / (prep_once_ms + exec_ms), 4
            ),
            "ref_plans": len(subset),
            "ref_ms": round(ref_ms, 3),
            "fast_ms": round(fast_ms, 3),
            "speedup_vs_reference": round(ref_ms / fast_ms, 1),
            "sptf_batches": len(batches),
            "exec_speedup_vs_reference": exec_speedup,
        }
    data["meta"] = {
        "shape": list(shape),
        "drive": drive,
        "n_beams": n_beams,
        "n_ranges": n_ranges,
        "selectivity_pct": selectivity_pct,
        "full_ranges": full_ranges,
        "repeats": repeats,
        "ref_plans": ref_plans,
        "ref_cell_cap": ref_cell_cap,
        "seed": seed,
        "memo": MEMO.stats(),
    }
    return data


def render_perf_sweep(data: dict) -> str:
    from repro.bench.reporting import render_table

    headers = ["layout", "plans/s", "cells/s", "prep ms", "exec ms",
               "prep share", "speedup vs ref", "exec vs ref"]
    rows = []
    for layout, row in data.items():
        if layout == "meta":
            continue
        rows.append([
            layout,
            f"{row['plans_per_s']:.0f}",
            f"{row['cells_per_s']:.0f}",
            f"{row['prep_ms']:.2f}",
            f"{row['exec_ms']:.2f}",
            f"{row['prep_share']:.3f}",
            f"{row['speedup_vs_reference']:.1f}x",
            (
                "-" if row["exec_speedup_vs_reference"] is None
                else f"{row['exec_speedup_vs_reference']:.1f}x"
            ),
        ])
    return render_table(headers, rows)


def check_perf(
    data: dict,
    baseline: dict,
    *,
    tolerance: float = 0.5,
    throughput_tolerance: float = 0.9,
) -> list[str]:
    """Compare a sweep against a pinned baseline; returns violations.

    ``speedup_vs_reference`` and ``exec_speedup_vs_reference`` are
    machine-relative (both pipelines timed on the same box), so they get
    the tight band: each layout must keep at least ``(1 - tolerance)``
    of each baseline speedup (a baseline without SPTF plans records
    ``None`` and is not gated).  The absolute
    throughputs only guard against catastrophic collapse — shared CI
    runners are allowed to be up to ``1 / (1 - throughput_tolerance)``
    times slower than the machine that produced the baseline.
    """
    if not 0 <= tolerance < 1 or not 0 <= throughput_tolerance < 1:
        raise BenchmarkError("tolerances must be in [0, 1)")
    violations = []
    for layout, base in baseline.items():
        if layout == "meta":
            continue
        cur = data.get(layout)
        if cur is None:
            violations.append(f"{layout}: missing from this sweep")
            continue
        for metric in ("speedup_vs_reference", "exec_speedup_vs_reference"):
            if base.get(metric) is None:
                continue
            floor = base[metric] * (1 - tolerance)
            value = cur.get(metric)
            if value is None or value < floor:
                shown = "none" if value is None else f"{value:.1f}x"
                violations.append(
                    f"{layout}: {metric} {shown} fell below "
                    f"{floor:.1f}x (baseline {base[metric]:.1f}x)"
                )
        for metric in ("plans_per_s", "cells_per_s"):
            floor = base[metric] * (1 - throughput_tolerance)
            if cur[metric] < floor:
                violations.append(
                    f"{layout}: {metric} {cur[metric]:.0f} fell below "
                    f"{floor:.0f} (baseline {base[metric]:.0f})"
                )
    return violations
