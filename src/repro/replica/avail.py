"""Availability/overhead-vs-k sweeps: the fault-tolerance storm.

``run_avail_sweep`` replays one fixed, seeded beam workload against each
registered layout at rising replication factors k, twice per cell: once
healthy, once *degraded* with one member disk killed (the same seeded
victim for every cell, so layouts and k values face the identical
failure).  Each cell records healthy and degraded throughput, the
k-fold storage overhead, single-failure chunk availability, and how
many queries completed degraded (k=1 loses the dead disk's chunks — the
unreadable queries are skipped and counted).

The expected shape: k=1 cannot serve every query degraded; any k >= 2
serves them all, and MultiMap keeps its locality dividend in degraded
mode — failover reads land on replica chunks laid out by the very same
mapping, so its degraded MB/s stays ahead of every baseline
(``examples/failover.py`` asserts this end to end).
"""

from __future__ import annotations

from repro.bench.sweep import Param, Sweep, ints, register
from repro.errors import ReplicaError
from repro.replica.failures import FailureInjector
from repro.shard.scale import beam_axes, mb_per_s, scale_beams

__all__ = ["run_avail_sweep", "render_avail_sweep"]


def _setup(run) -> dict:
    """The seeded victim (one draw, shared by every cell) and the
    workload."""
    if any(k > run.n_disks for k in run.ks):
        raise ReplicaError(
            f"every k in {run.ks} must be <= n_disks={run.n_disks}"
        )
    axes = beam_axes(run.shape, run.axes)
    return {
        "killed_disk": (
            FailureInjector(run.n_disks, seed=run.seed).pick_disk()
            if run.kill_disk is None else run.kill_disk
        ),
        "axes": axes,
        "_queries": scale_beams(run.shape, n_beams=run.n_beams, axes=axes,
                                seed=run.seed),
    }


def _measure(run, layout, k, row) -> dict:
    """Healthy, then degraded with the victim killed; queries that lose
    every copy (k=1) are skipped and counted."""
    def build():
        return run.dataset(layout).with_shards(run.n_disks).with_replication(
            k, placement=run.placement, read_policy=run.read_policy,
        )

    report = build().query().add(run._queries).run()
    h_blocks = sum(r.result.n_blocks for r in report.records)
    h_ms = report.total_ms

    degraded = build()
    degraded.storage.fail_disk(run.killed_disk)
    rng = degraded.rng()
    d_blocks = completed = skipped = 0
    d_ms = 0.0
    for q in run._queries:
        try:
            res = degraded.storage.run_query(degraded.mapper, q, rng=rng)
        except ReplicaError:
            skipped += 1
            continue
        completed += 1
        d_blocks += res.n_blocks
        d_ms += res.total_ms
    return {
        "k": k,
        "healthy_ms": h_ms,
        "healthy_mb_per_s": mb_per_s(h_blocks, h_ms),
        "degraded_ms": d_ms,
        "degraded_mb_per_s": mb_per_s(d_blocks, d_ms),
        "availability": degraded.replica_map.readable_fraction(
            {run.killed_disk}
        ),
        "completed": completed,
        "skipped": skipped,
        "storage_overhead": k,
    }


AVAIL = register(Sweep(
    name="avail",
    help="availability/overhead-vs-k sweep per layout",
    description="Replay a seeded beam workload against each layout at "
    "rising replication factors, healthy and with one seeded member-disk "
    "failure, and report throughput in both modes plus single-failure "
    "availability — the fault-tolerance half of MultiMap's locality "
    "dividend.",
    shape=(64, 16, 16),
    drive="atlas10k3",
    axis=Param("ks", (1, 2, 3), "--ks",
               "comma-separated replication factors to sweep", type=ints,
               count=True),
    params=(
        Param("n_disks", 3, "--disks", "member disks (>= max k, default 3)",
              type=int, count=True),
        Param("placement", "rotated", "--placement",
              "registered replica placement (rotated, locality_aligned, "
              "...)"),
        Param("read_policy", "primary", "--read-policy",
              "registered read policy "
              "(primary, round_robin, least_loaded, ...)"),
        Param("n_beams", 8, "--beams",
              "beams in the fixed workload (default 8)", type=int,
              count=True),
        Param("axes", None, "--axes", "beam axes, cycled (default: every "
              "non-streaming axis)", type=ints),
        Param("kill_disk", None, "--kill-disk",
              "member disk to kill (default: seeded draw)", type=int),
        Param("seed", 42, "--seed", "workload + head-position + victim seed",
              type=int),
    ),
    setup=_setup,
    measure=_measure,
    title="availability sweep: shape={shape} on {drive}, {n_disks} disks, "
    "placement={placement}, read_policy={read_policy}, disk {killed_disk} "
    "killed, {n_beams} beams over axes {axes}, seed={seed}",
    tables=(
        ("healthy throughput (MB/s) vs replication factor", "k={}",
         "{healthy_mb_per_s:.2f}"),
        ("degraded throughput (MB/s), one disk down", "k={}",
         "{degraded_mb_per_s:.2f}"),
        ("single-failure availability (chunks readable, queries completed)",
         "k={}", lambda c: f"{c['availability']:.1%} ({c['completed']}/"
         f"{c['completed'] + c['skipped']} q)"),
    ),
))

run_avail_sweep = AVAIL.run
render_avail_sweep = AVAIL.render
