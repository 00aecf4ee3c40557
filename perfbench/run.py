"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_batch --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs every round twice, untraced and then with the layer wrappers of
``layers.py``, and reports the per-layer metrics, the tracing overhead,
and whether the traced simulation matched the untraced one.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  See README.md
for the workloads, metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: rounds a traced run measures at least (it reports no simulated
#: metrics, so it needs no ``sim_rounds``)
TRACE_MIN_ROUNDS = 5
#: round index of the unmeasured warm-up round's inputs
WARMUP = 999_999

END_TO_END = {
    "setup_s": "s",
    "queries_per_cpu_s": "queries/s",
    "query_cpu_ms_p50": "ms",
    "query_cpu_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "sim_latency_ms_p50": "sim_ms",
    "sim_latency_ms_p99": "sim_ms",
    "sim_throughput_qps": "sim_q/s",
}


def tail_percentile(n: int) -> float:
    """The highest percentile (at most 99) with >= 10 samples beyond."""
    return max(0.0, min(99.0, 100.0 * (1.0 - 10.0 / n))) if n else 0.0


def provenance(args, wl) -> dict:
    import numpy as np

    import repro

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "repro": repro.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "sizes": wl.sizes(),
    }


def one_round(wl, seed: int, r: int, tracer):
    """Inputs, fresh stacks (timed: the set-up) and the timed phase."""
    import numpy as np

    from layers import ingest_traced, instrument, placement_traced
    from repro.perf.memo import MEMO

    rng = np.random.default_rng([seed, r])
    inp = wl.inputs(rng)
    ds_seed = int(rng.integers(2**31))
    MEMO.clear()
    MEMO.reset_stats()
    gc.collect()
    if tracer is None:
        t0 = process_time()
        stacks = wl.build(ds_seed)
        setup_s = process_time() - t0
        return inp, setup_s, wl.run(stacks, inp, None)
    t0 = process_time()
    with placement_traced(tracer):
        stacks = wl.build(ds_seed)
    setup_s = process_time() - t0
    tracer.count("memo_hits", MEMO.hits)
    tracer.count("memo_misses", MEMO.misses)
    for ds in stacks:
        instrument(tracer, ds)
    with ingest_traced(tracer):
        rnd = wl.run(stacks, inp, tracer)
    return inp, setup_s, rnd


def measure(wl, args):
    """Rounds until ``--seconds`` have passed, and at least the
    workload's ``sim_rounds`` (TRACE_MIN_ROUNDS when traced); the
    calibration kernel runs before each."""
    from calibrate import kernel_s
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    rounds, setups, overheads, kernels = [], [], [], []
    attempted = failed = 0
    failures: list = []
    try:
        one_round(wl, args.seed, WARMUP, None)  # imports, first calls
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return tracer, [], [], [], [], 1, 1, ["warm-up round raised"]
    min_rounds = TRACE_MIN_ROUNDS if args.trace else wl.sim_rounds
    deadline = perf_counter() + args.seconds
    r = 0
    while r < min_rounds or perf_counter() < deadline:
        kernels.append(kernel_s())
        inp = None
        try:
            inp, setup_s, rnd = one_round(wl, args.seed, r, None)
            if tracer is not None:
                ref = rnd
                _, setup_s, rnd = one_round(wl, args.seed, r, tracer)
                overheads.append(rnd.cpu_s / ref.cpu_s)
                if rnd.digest != ref.digest:
                    rnd.fail(rnd.attempted, "traced simulation differs "
                             "from the untraced one")
        except Exception:  # a raising round fails all its operations
            traceback.print_exc(file=sys.stderr)
            n = wl.planned_ops(inp) if inp is not None else 1
            attempted += n
            failed += n
            failures.append(f"round {r} raised")
            break
        rounds.append(rnd)
        setups.append(setup_s)
        attempted += rnd.attempted
        failed += rnd.failed
        failures.extend(rnd.failures)
        r += 1
    return (tracer, rounds, setups, overheads, kernels, attempted, failed,
            failures)


def end_to_end(rounds, setups, sim_rounds: int, scale: float) -> dict:
    """metric -> (value, samples).  CPU times pool every round and are
    multiplied by ``scale``, the calibration's reference over measured
    speed.  The simulated metrics pool the first ``sim_rounds`` rounds
    only, so they depend on the seed and not on how fast the machine
    ran."""
    import numpy as np

    if not rounds:
        return {}
    cpu = np.concatenate([r.query_ms for r in rounds]) * scale
    sim_part = rounds[:sim_rounds]
    sim = np.concatenate([r.sim_ms for r in sim_part])
    p_cpu, p_sim = tail_percentile(len(cpu)), tail_percentile(len(sim))
    reads = sum(r.reads for r in sim_part)
    out = {
        "setup_s": (float(np.median(setups)) * scale, len(setups)),
        "queries_per_cpu_s": (
            float(np.median([r.reads / r.cpu_s for r in rounds])) / scale,
            len(rounds),
        ),
        "query_cpu_ms_p50": (float(np.median(cpu)), len(cpu)),
        "query_cpu_ms_p99": (float(np.percentile(cpu, p_cpu)), len(cpu)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
        "sim_latency_ms_p50": (float(np.median(sim)), len(sim)),
        "sim_latency_ms_p99": (float(np.percentile(sim, p_sim)),
                               len(sim)),
        "sim_throughput_qps": (
            reads / sum(r.sim_span_s for r in sim_part), reads
        ),
    }
    if p_cpu < 99.0 or p_sim < 99.0:
        print(f"note: tail percentiles are p{p_cpu:.1f} (cpu) and "
              f"p{p_sim:.1f} (sim): too few samples for p99")
    return out


def per_layer(tracer, rounds, overheads) -> dict:
    """metric -> (value, rounds) for the traced run."""
    import numpy as np

    from layers import PER_LAYER, layer_metrics

    extra: dict = {}
    for rnd in rounds:
        for k, v in rnd.layer.items():
            extra.setdefault(k, []).append(v)
    # counts sum over rounds; ratios and shares are round means
    extra = {k: float(np.sum(v)) if PER_LAYER[k] == "count"
             else float(np.mean(v)) for k, v in extra.items()}
    extra["perf.memo_hits"] = tracer.counts["memo_hits"]
    extra["perf.memo_misses"] = tracer.counts["memo_misses"]
    extra["bench.tracing_overhead"] = (
        float(np.median(overheads)) if overheads else 0.0
    )
    return {k: (v, len(rounds))
            for k, v in layer_metrics(tracer, extra).items()}


def print_roots(tracer) -> None:
    """For each top-level span kind: its time, the sum of the self times
    under it (equal by construction) and the largest shares."""
    from layers import PLACE

    for root in sorted({r for r, _ in tracer.root_self_s} - {PLACE}):
        selfs = {name: v for (r, name), v in tracer.root_self_s.items()
                 if r == root}
        total = tracer.total_s[root]
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:6]
        print(f"within {root} ({total:.3f} s, self times of its spans "
              f"sum to {sum(selfs.values()):.3f} s): "
              + ", ".join(f"{name} {v / total:.0%}" for name, v in top))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing (run from a full checkout)", file=sys.stderr)
        return 2
    # at most two threads: the measured work is the Python simulator
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    print("provenance " + json.dumps(provenance(args, wl)))
    (tracer, rounds, setups, overheads, kernels, attempted, failed,
     failures) = measure(wl, args)
    for what in failures[:10]:
        print(f"FAILED: {what}")

    from calibrate import REFERENCE_S

    scale = REFERENCE_S / float(np.median(kernels)) if kernels else 1.0
    print(f"calibration: kernel median {np.median(kernels or [0]):.5f} s "
          f"over {len(kernels)} rounds, reference {REFERENCE_S} s: "
          f"CPU times scaled by {scale:.4f}")
    if tracer is None:
        values = end_to_end(rounds, setups, wl.sim_rounds, scale)
        units = END_TO_END
        if rounds and rounds[0].points:
            pts = float(np.median([r.points / r.cpu_s for r in rounds]))
            pts /= scale
            print(f"  {'ingest_points_per_cpu_s':32s} {pts:14.6g} "
                  f"{'points/s':10s} n={len(rounds)}")
    else:
        from layers import PER_LAYER

        values = per_layer(tracer, rounds, overheads)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")
        print_roots(tracer)
    print(f"rounds: {len(rounds)}  attempted: {attempted}  "
          f"failed: {failed}  failed_frac: "
          f"{failed / attempted if attempted else 1.0:.4f}")
    for name, (value, n) in values.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:10s} n={n}")
    print(json.dumps({
        "correct": failed == 0 and bool(rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
