#!/usr/bin/env python3
"""Explain & diagnosis: why is this query slow, and is the model right?

Three acts.  First, EXPLAIN inspects a beam query on MultiMap and
z-order without executing anything: the prepared plan's run structure,
the paper's sequential / semi-sequential / random classification of
every inter-run step, the predicted mechanical cost from the drive
model, and the dominant-cost class — MultiMap's primary beam streams
(transfer-bound) while z-order's shatters into single-block runs
(seek-bound).  Second, ANALYZE executes each query once under a
private trace and reconciles prediction against measurement phase by
phase — the summed model error at this scale is a few percent.  Third,
regression attribution diffs two runs and localises what moved.

EXPLAIN has zero side effects: the live drives never move, cache and
replica-routing state are snapshotted and restored, so a fleet of
explains leaves a later measured run byte-identical.

Run:  python examples/explain_diagnosis.py
"""

from repro.api import Dataset
from repro.explain import attribute_runs, render_attribution
from repro.query.workload import BeamQuery

SHAPE = (240, 12, 12)
BEAM = BeamQuery(0, (0, 6, 6))


def act_one_explain() -> None:
    print("=== EXPLAIN: predicted plan structure and cost ===")
    header = (f"{'layout':<10} {'runs':>5} {'blocks':>7} {'pattern':<16} "
              f"{'predicted':>10} {'dominant cost':<15}")
    print(header)
    print("-" * len(header))
    for layout in ("multimap", "zorder"):
        ds = Dataset.create(SHAPE, layout=layout, drive="minidrive",
                            seed=42)
        out = ds.explain(BEAM)
        plan, pred = out["plan"], out["predicted"]
        print(f"{layout:<10} {plan['runs']:>5} {plan['blocks']:>7} "
              f"{plan['pattern']:<16} {pred['makespan_ms']:>8.2f}ms "
              f"{pred['dominant_cost']:<15}")
    print()


def act_two_analyze() -> None:
    print("=== ANALYZE: prediction vs one measured execution ===")
    for layout in ("multimap", "zorder"):
        ds = Dataset.create(SHAPE, layout=layout, drive="minidrive",
                            seed=42)
        out = ds.explain(BEAM, analyze=True)
        rec = out["reconciliation"]
        total = rec["per_phase"]["total"]
        print(f"{layout:<10} predicted {total['predicted_ms']:>8.2f} ms"
              f"  measured {total['measured_ms']:>8.2f} ms"
              f"  rel error {100 * rec['summed_rel_error']:>5.2f}%"
              f"  cost_match={rec['cost_match']}")
    print()


def act_three_attribute() -> None:
    print("=== Attribution: what changed between two runs? ===")

    from repro.obs.trace_cmd import slowest_queries

    def run_report(layout):
        ds = Dataset.create(SHAPE, layout=layout,
                            drive="minidrive", seed=7)
        ds = ds.with_telemetry(trace=True)
        report = ds.random_beams(axis=0, n=4).run()
        tracer = ds.telemetry.tracer
        return {
            "dataset": ds.describe(),
            "makespan_ms": report.total_ms,
            "phase_ms": {cat: round(ms, 3)
                         for cat, ms in tracer.phase_ms().items()},
            "slowest": slowest_queries(tracer, 3),
        }

    base = run_report("multimap")
    cur = run_report("zorder")
    out = attribute_runs(base, cur)
    print(render_attribution(out))


def main() -> None:
    act_one_explain()
    act_two_analyze()
    act_three_attribute()


if __name__ == "__main__":
    main()
