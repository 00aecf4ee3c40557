"""Layout-vs-load sweeps: the "traffic storm" scenario.

``run_storm`` replays the same seeded multi-client workload against each
registered layout at rising client counts and collects throughput and
latency-percentile aggregates — the concurrent analogue of the paper's
Figure 6 comparisons.  Fairness mirrors :meth:`Dataset.with_layout`:
every (layout, client-count) cell builds a fresh dataset from the same
seed, so client *k* draws the identical query stream in every cell and
only the placement (and the contention it causes) differs.

:data:`STORM_PARAMS` is the storm argument group the ``traffic``,
``trace`` and ``dashboard`` subcommands share, and
:func:`storm_traffic` turns its settings into a traffic run.
"""

from __future__ import annotations

from repro.bench.sweep import Param, Sweep, ints, register
from repro.traffic.arrivals import make_arrival
from repro.traffic.clients import BeamDraw, QueryMix, RangeDraw

__all__ = ["STORM", "STORM_PARAMS", "parse_mix", "run_storm",
           "render_storm", "storm_traffic"]


def parse_mix(text) -> QueryMix:
    """``beam:1,beam:2,range:1.0`` -> :class:`QueryMix` (a mix passes
    through)."""
    if isinstance(text, QueryMix):
        return text
    parts = []
    for item in (v.strip() for v in text.split(",") if v.strip()):
        kind, _, arg = item.partition(":")
        try:
            if kind == "beam":
                parts.append(BeamDraw(int(arg)))
            elif kind == "range":
                parts.append(RangeDraw(float(arg)))
            else:
                raise ValueError(kind)
        except ValueError:
            raise ValueError(
                f"mix parts are beam:<axis> or range:<pct>; got {item!r}"
            ) from None
    if not parts:
        raise ValueError(
            "mix needs at least one beam:<axis> or range:<pct> part"
        )
    return QueryMix(parts)


def _slice_runs(value) -> int | None:
    """0 means the whole query per batch; a negative value reaches the
    engine's check and raises."""
    return int(value) or None


STORM_PARAMS = (
    Param("mix", None, "--mix", "query mix, e.g. 'beam:1,beam:2,range:1.0' "
          "(default: beams over axes 1..n-1)", type=parse_mix),
    Param("arrival", "closed", "--arrival", "arrival model (default closed)",
          choices=("closed", "poisson", "bursty")),
    Param("think_ms", 0.0, "--think-ms", "closed-loop think time in ms",
          type=float),
    Param("rate", 50.0, "--rate", "per-client rate for poisson (q/s) or "
          "bursty (bursts/s)", type=float),
    Param("seed", 42, "--seed",
          "base seed; every client stream derives from it", type=int),
    Param("slice_runs", 64, "--slice-runs", "runs per service slice; 0 = "
          "whole query per batch (default 64)", type=_slice_runs),
    Param("head", "random", "--head", "per-query random head position or "
          "carry-over", choices=("random", "carry")),
)


def storm_traffic(ds, clients: int, queries: int, *, mix=None,
                  arrival="closed", rate: float = 50.0,
                  think_ms: float = 0.0, slice_runs: int | None = 64,
                  head: str = "random"):
    """``ds``'s traffic run set up from the storm group's settings:
    ``clients`` clients of ``queries`` queries each (not yet run)."""
    return (
        ds.traffic()
        .clients(int(clients), mix=mix, queries=int(queries),
                 arrival=make_arrival(arrival, rate=rate,
                                      think_ms=think_ms))
        .slice_runs(slice_runs)
        .head(head)
    )


def _setup(run) -> dict:
    return {
        "mix": (QueryMix.beams(*range(1, len(run.shape)))
                if run.mix is None else run.mix),
        "arrival": make_arrival(run.arrival, rate=run.rate,
                                think_ms=run.think_ms),
    }


def _measure(run, layout, n_clients, row) -> dict:
    return storm_traffic(
        run.dataset(layout), n_clients, run.queries_per_client,
        mix=run.mix, arrival=run.arrival, slice_runs=run.slice_runs,
        head=run.head,
    ).run().aggregate()


STORM = register(Sweep(
    name="traffic",
    help="multi-client traffic storm across layouts",
    description="Sweep layouts x client counts under a seeded concurrent "
    "workload and report throughput and latency percentiles per mapping "
    "(one aggregate per cell, see TrafficReport.aggregate).",
    shape=(64, 64, 32),
    drive="atlas10k3",
    axis=Param("client_counts", (1, 2, 4, 8), "--clients",
               "comma-separated client counts to sweep", type=ints,
               count=True),
    params=(
        Param("queries_per_client", 20, "--queries",
              "queries per client (default 20)", type=int, count=True),
        *STORM_PARAMS,
    ),
    setup=_setup,
    measure=_measure,
    title="traffic storm: shape={shape} on {drive}, {queries_per_client} "
    "queries/client, mix={mix}, arrival={arrival[model]}, seed={seed}",
    tables=(
        ("throughput (queries/s) vs client count", "{} cl",
         "{throughput_qps:.2f}"),
        *((f"{p} latency (ms) vs client count", "{} cl",
           f"{{latency_ms[{p}]:.2f}}") for p in ("p50", "p95", "p99")),
    ),
))

run_storm = STORM.run
render_storm = STORM.render
