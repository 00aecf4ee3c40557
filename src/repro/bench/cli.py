"""Command-line entry point: ``python -m repro.bench`` / ``repro-bench``
(also installed as ``multimap-bench``).

The default mode regenerates paper figures.  The six layout × parameter
sweeps (``traffic``, ``cache``, ``scale``, ``avail``, ``ingest``,
``perf``) are declarations on :mod:`repro.bench.sweep`; their
subcommands are built in one loop from its registry, one flag per
declared parameter plus ``--shape``, ``--layouts``, ``--drive``,
``--json`` and ``--quiet``.  ``perf`` alone adds ``--check`` to gate
against a pinned baseline such as ``BENCH_perf.json`` (exit 1 on
regression).  ``traffic``, ``trace`` (a telemetry-attached storm) and
``dashboard`` (a monitored storm) share the storm argument group
:data:`repro.traffic.storm.STORM_PARAMS`.  ``explain`` inspects a
query's plan and predicted cost per layout, and ``diff`` compares two
exported run reports, exiting 1 on a regression.  The ``--list-*``
flags (one per registry, driven by ``_LISTINGS``) print the registered
names with descriptions.

Examples::

    repro-bench --list-layouts --list-drives
    repro-bench --scale small --figure fig6a
    repro-bench traffic --arrival poisson --rate 50 --json storm.json
    repro-bench scale --shape 64,64,32 --shards 1,2,4,8
    repro-bench perf --check BENCH_perf.json --json results/perf.json
    repro-bench dashboard --shards 2 --k 2 --kill-at 40 --json run_a.json
    repro-bench diff run_a.json run_b.json --attribute
    repro-bench explain --axis 1 --analyze --model --json explain.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.bench.harness import FIGURES, run_all
from repro.bench.sweep import DEFAULT_LAYOUTS, SWEEPS, ints, strs, write_json

__all__ = ["main"]


def _arg_type(convert):
    """A parameter's converter as an argparse type, keeping its error
    message."""
    def parse(text):
        try:
            return convert(text)
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = convert.__name__
    return parse


def _positive(text: str) -> int:
    """Counts that must be >= 1 (a zero or negative value would silently
    render an empty table)."""
    value = int(text)
    if value <= 0:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def _add_output_args(p, shown: str = "table") -> None:
    p.add_argument("--json", default=None,
                   help="JSON output file (or directory)")
    p.add_argument("--quiet", action="store_true",
                   help=f"suppress {shown} output")


def _add_params(parser, params) -> None:
    """One flag per declared parameter (``flag=None`` ones stay
    library-only)."""
    for p in params:
        if p.flag is None:
            continue
        if p.type is bool:
            parser.add_argument(p.flag, dest=p.name, action="store_true",
                                help=p.help)
            continue
        metavar = None if p.choices else p.flag[2:].upper().replace("-", "_")
        parser.add_argument(
            p.flag, dest=p.name, default=p.default, choices=p.choices,
            type=_arg_type(p.type) if p.type else None, help=p.help,
            metavar=metavar,
        )


def _add_sweep_parser(subparsers, sweep) -> None:
    """A sweep's subcommand, derived from its declaration (``perf``
    alone adds its ``--check`` gate)."""
    p = subparsers.add_parser(sweep.name, help=sweep.help,
                              description=sweep.description)
    default_shape = ",".join(str(s) for s in sweep.shape)
    p.add_argument("--shape", type=ints, default=sweep.shape,
                   help=f"dataset dims, comma-separated "
                   f"(default {default_shape})")
    p.add_argument("--layouts", type=strs, default=DEFAULT_LAYOUTS,
                   help="comma-separated registered layouts")
    _add_params(p, sweep.all_params)
    p.add_argument("--drive", default=sweep.drive,
                   help=f"registered drive model (default {sweep.drive})")
    _add_output_args(p)
    if sweep.name == "perf":
        _add_perf_check(p)

    def run(args) -> int:
        data = sweep.run(
            args.shape, layouts=args.layouts, drive=args.drive,
            **{q.name: getattr(args, q.name) for q in sweep.all_params
               if q.flag},
        )
        if not args.quiet:
            print(sweep.render(data))
        if args.json:
            write_json(args.json, data, f"{sweep.name}.json", args.quiet)
        return _perf_check(args, data) if sweep.name == "perf" else 0

    p.set_defaults(func=run)


def _add_perf_check(p) -> None:
    p.add_argument("--check", default=None, metavar="BASELINE",
                   help="baseline JSON (e.g. BENCH_perf.json) to gate "
                   "against; exit 1 on regression")
    p.add_argument("--tolerance", type=float, default=0.5,
                   help="allowed fractional drop in speedup_vs_reference "
                   "and exec_speedup_vs_reference (default 0.5)")
    p.add_argument("--throughput-tolerance", type=float, default=0.9,
                   help="allowed fractional drop in absolute plans/s and "
                   "cells/s — wide by design, shared runners vary "
                   "(default 0.9)")


def _perf_check(args, data) -> int:
    if not args.check:
        return 0
    from repro.perf import check_perf

    baseline = json.loads(Path(args.check).read_text())
    violations = check_perf(
        data, baseline,
        tolerance=args.tolerance,
        throughput_tolerance=args.throughput_tolerance,
    )
    if violations:
        print(f"perf check FAILED against {args.check}:")
        for v in violations:
            print(f"  {v}")
        return 1
    if not args.quiet:
        print(f"perf check passed against {args.check}")
    return 0


#: one row per registry the CLI can list: (argparse dest, printed
#: title, defining module, registry attribute, --help text).  Both the
#: flag definitions in :func:`main` and :func:`_list_registries` are
#: generated from this table, so adding a registry is one line here.
_LISTINGS = (
    ("list_layouts", "layouts", "repro.api.registry", "LAYOUTS",
     "print registered layout names and exit"),
    ("list_drives", "drives", "repro.api.registry", "DRIVES",
     "print registered drive-model names and exit"),
    ("list_strategies", "strategies", "repro.lvm.striping", "STRATEGIES",
     "print registered declustering strategies and exit"),
    ("list_policies", "cache policies", "repro.cache", "POLICIES",
     "print registered cache eviction policies and exit"),
    ("list_prefetchers", "prefetchers", "repro.cache", "PREFETCHERS",
     "print registered cache prefetchers and exit"),
    ("list_placements", "replica placements", "repro.replica",
     "PLACEMENTS", "print registered replica placements and exit"),
    ("list_read_policies", "read policies", "repro.replica",
     "READ_POLICIES", "print registered replica read policies and exit"),
    ("list_loaders", "bulk loaders", "repro.ingest", "LOADERS",
     "print registered bulk loaders and exit"),
    ("list_streams", "record streams", "repro.ingest", "STREAMS",
     "print registered record streams and exit"),
    ("list_probes", "perf probes", "repro.perf.profile", "PROBE_SPECS",
     "print the perf profiling counters/timers and exit"),
    ("list_exporters", "trace exporters", "repro.obs", "EXPORTERS",
     "print registered trace exporters and exit"),
    ("list_rules", "SLO rules", "repro.monitor", "RULES",
     "print registered SLO monitoring rules and exit"),
    ("list_costs", "dominant-cost classes", "repro.explain",
     "COST_CLASSES",
     "print the dominant-cost classifier's classes and exit"),
)


def _list_registries(args) -> bool:
    """Print the requested registry listings; True if any were asked.

    :class:`~repro.registry.DocsView` resolves each entry's description
    uniformly (``.description`` attribute, else the registrant's
    docstring first line), and ``Registry.items()`` sorts by name, so
    every section prints identically to its hand-written predecessor.
    """
    from importlib import import_module

    from repro.registry import DocsView

    sections = []
    for dest, kind, module, attr, _ in _LISTINGS:
        if not getattr(args, dest):
            continue
        registry = getattr(import_module(module), attr)
        docs = DocsView(registry)
        sections.append((kind, [(name, docs[name]) for name in registry]))
    for kind, rows in sections:
        print(f"registered {kind}:")
        width = max((len(name) for name, _ in rows), default=0)
        for name, desc in rows:
            print(f"  {name:<{width}}  {desc}")
    return bool(sections)


def _add_storm_parser(subparsers, name, *, clients, queries, **kw):
    """``trace``/``dashboard``: one layout, one storm; the storm group
    is the ``traffic`` sweep's own parameters."""
    from repro.traffic.storm import STORM_PARAMS

    p = subparsers.add_parser(name, **kw)
    p.add_argument("--shape", type=ints, default=(64, 64, 32),
                   help="dataset dims, comma-separated (default 64,64,32)")
    p.add_argument("--layout", default="multimap",
                   help="registered layout (default multimap)")
    p.add_argument("--drive", default="atlas10k3",
                   help="registered drive model (default atlas10k3)")
    p.add_argument("--clients", type=int, default=clients,
                   help=f"concurrent clients (default {clients})")
    p.add_argument("--queries", type=int, default=queries,
                   help=f"queries per client (default {queries})")
    _add_params(p.add_argument_group("storm"), STORM_PARAMS)
    _add_output_args(p)
    return p


def _storm_kwargs(args) -> dict:
    from repro.traffic.storm import STORM_PARAMS

    return dict(
        layout=args.layout, drive=args.drive, clients=args.clients,
        queries=args.queries,
        **{p.name: getattr(args, p.name) for p in STORM_PARAMS},
    )


def _trace_main(args) -> int:
    from repro.obs.trace_cmd import render_trace, run_trace

    data, tele = run_trace(
        args.shape, top=args.top, bins=args.bins, exporter=args.export,
        **_storm_kwargs(args),
    )
    if not args.quiet:
        print(render_trace(data))
    if args.export:
        text = tele.export(args.export, path=args.trace_out)
        if args.trace_out:
            if not args.quiet:
                print(f"wrote {args.export} trace to {args.trace_out}")
        else:
            print(text, end="" if text.endswith("\n") else "\n")
    if args.json:
        write_json(args.json, data, "trace.json", args.quiet)
    return 0


def _add_trace_parser(subparsers) -> None:
    p = _add_storm_parser(
        subparsers, "trace", clients=2, queries=8,
        help="telemetry-attached storm: slowest queries, phase totals, "
        "per-disk utilisation",
        description="Run one traffic storm with tracing and metrics "
        "attached, then print the top-N slowest queries with per-phase "
        "breakdowns, aggregate phase totals, and a per-disk utilisation "
        "timeline.  --export renders the span trace through a "
        "registered exporter (see --list-exporters).",
    )
    p.add_argument("--top", type=_arg_type(_positive), default=5,
                   help="slowest queries to show (default 5, must be "
                   "positive)")
    p.add_argument("--bins", type=int, default=24,
                   help="time bins in the utilisation timeline "
                   "(default 24)")
    p.add_argument("--export", default=None,
                   help="render the span trace through this exporter "
                   "(jsonl, chrome, prometheus)")
    p.add_argument("--trace-out", default=None,
                   help="file for the exported trace (default: stdout)")
    p.set_defaults(func=_trace_main)


def _dashboard_main(args) -> int:
    from repro.monitor.dashboard import render_dashboard, run_dashboard

    data, tele = run_dashboard(
        args.shape,
        window_ms=args.window_ms,
        shards=args.shards,
        k=args.k,
        kill_at=args.kill_at,
        kill_disk=args.kill_disk,
        revive_at=args.revive_at,
        **_storm_kwargs(args),
    )
    if not args.quiet:
        print(render_dashboard(data))
    if args.json:
        write_json(args.json, data, "dashboard.json", args.quiet)
    return 0


def _add_dashboard_parser(subparsers) -> None:
    p = _add_storm_parser(
        subparsers, "dashboard", clients=4, queries=16,
        help="monitored storm: windowed series, SLO alerts, health",
        description="Run one traffic storm with continuous monitoring "
        "attached — optionally killing (and reviving) a member disk "
        "mid-storm — then render the windowed time-series as sparkline "
        "rows and a per-drive utilisation heatmap, plus every SLO "
        "alert and the health-state timeline.  The --json export feeds "
        "repro-bench diff.  Rules are listed by --list-rules.",
    )
    p.add_argument("--window-ms", type=float, default=50.0,
                   help="tumbling-window size in simulated ms "
                   "(default 50)")
    p.add_argument("--shards", type=int, default=None,
                   help="decluster across this many member disks first")
    p.add_argument("--k", type=int, default=None,
                   help="replication factor (k >= 2 keeps a killed "
                   "disk's data answerable)")
    p.add_argument("--kill-at", type=float, default=None,
                   help="kill a member disk at this simulated ms")
    p.add_argument("--kill-disk", type=int, default=0,
                   help="member disk to kill (default 0)")
    p.add_argument("--revive-at", type=float, default=None,
                   help="revive the killed disk at this simulated ms")
    p.set_defaults(func=_dashboard_main)


def _parse_box(spec: str):
    """``lo,lo,..:hi,hi,..`` -> (lo tuple, hi tuple)."""
    try:
        lo_s, hi_s = spec.split(":")
        lo = tuple(int(v) for v in lo_s.split(","))
        hi = tuple(int(v) for v in hi_s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"box must look like lo,lo:hi,hi — got {spec!r}"
        ) from None
    return lo, hi


def _explain_main(args) -> int:
    from repro.explain import render_explain, run_explain

    data = run_explain(
        ints(args.shape),
        layouts=strs(args.layouts),
        drive=args.drive,
        axis=args.axis,
        fixed=ints(args.fixed) if args.fixed else None,
        box=args.box,
        shards=args.shards,
        k=args.k,
        cache_blocks=args.cache_blocks,
        cache_policy=args.cache_policy,
        prefetch=args.prefetch,
        seed=args.seed,
        analyze=args.analyze,
        model=args.model,
    )
    if not args.quiet:
        print(render_explain(data))
    if args.json:
        write_json(args.json, data, "explain.json", args.quiet)
    return 0


def _add_explain_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "explain",
        help="inspect a query's plan and predicted cost (EXPLAIN), "
        "optionally execute and reconcile (ANALYZE)",
        description="EXPLAIN one beam or range query per layout: the "
        "prepared plan's run structure and access-pattern "
        "classification, the predicted mechanical cost from the drive "
        "model, expected cache hits, shard fan-out, and replica "
        "routing — with zero side effects on the dataset.  With "
        "--analyze the query is then executed once under a private "
        "trace and the prediction is reconciled against measurement "
        "per phase and per disk.  --model prints the analytic model's "
        "predicted beam/range speedups.",
    )
    p.add_argument("--shape", default="240,12,12",
                   help="dataset dimensions, comma separated")
    p.add_argument("--layouts", default="multimap",
                   help="comma-separated layouts to explain")
    p.add_argument("--drive", default="minidrive",
                   help="drive model (see --list-drives)")
    p.add_argument("--axis", type=int, default=None,
                   help="beam axis (default 0)")
    p.add_argument("--fixed", default=None,
                   help="beam's pinned coordinates, comma separated "
                   "(default: centre of each other dimension)")
    p.add_argument("--box", type=_parse_box, default=None,
                   help="range query instead of a beam: lo,lo,..:hi,hi,..")
    p.add_argument("--shards", type=_arg_type(_positive), default=None,
                   help="shard the dataset over this many disks")
    p.add_argument("--k", type=_arg_type(_positive), default=None,
                   help="replication factor (needs --shards)")
    p.add_argument("--cache-blocks", type=int, default=0,
                   help="attach a buffer pool of this many blocks")
    p.add_argument("--cache-policy", default="lru",
                   help="pool eviction policy (see --list-policies)")
    p.add_argument("--prefetch", default="none",
                   help="pool prefetcher (see --list-prefetchers)")
    p.add_argument("--seed", type=int, default=42, help="base seed")
    p.add_argument("--analyze", action="store_true",
                   help="execute the query once and reconcile "
                   "predicted vs measured cost")
    p.add_argument("--model", action="store_true",
                   help="print the analytic model's predicted "
                   "beam/range speedups")
    _add_output_args(p, "plan-tree")
    p.set_defaults(func=_explain_main)


def _diff_main(args) -> int:
    from repro.monitor.diff import diff_runs, render_diff

    base = json.loads(Path(args.base).read_text())
    cur = json.loads(Path(args.current).read_text())
    data = diff_runs(base, cur, tolerance=args.tolerance)
    if getattr(args, "attribute", False):
        from repro.explain import attribute_runs

        data["attribution"] = attribute_runs(
            base, cur, tolerance=args.tolerance
        )
    if not args.quiet:
        print(render_diff(data))
        if "attribution" in data:
            from repro.explain import render_attribution

            print(render_attribution(data["attribution"]))
    if args.json:
        write_json(args.json, data, "diff.json", args.quiet)
    return 1 if data["regressions"] else 0


def _add_diff_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "diff",
        help="compare two exported run reports; exit 1 on regression",
        description="Load two --json exports (trace or dashboard runs) "
        "and compare phase totals, latency quantiles, and the "
        "window-by-window series, flagging every metric that moved "
        "beyond the tolerance band in the bad direction.  Two same-seed "
        "runs are bit-identical, so a clean diff is an exact-zero "
        "check; exits 1 when regressions are flagged.",
    )
    p.add_argument("base", help="baseline report JSON")
    p.add_argument("current", help="current report JSON")
    p.add_argument("--tolerance", type=float, default=0.1,
                   help="relative band a metric may move before it "
                   "flags (default 0.1)")
    p.add_argument("--attribute", action="store_true",
                   help="rank the suspects behind the regression "
                   "(phases, disks, queries, monitor signals)")
    _add_output_args(p)
    p.set_defaults(func=_diff_main)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multimap-bench",
        description="Regenerate the MultiMap paper's figures on the "
        "simulated disks, or run the traffic simulator.",
    )
    parser.add_argument(
        "--scale",
        choices=("paper", "small"),
        default="paper",
        help="experiment sizing (paper = full chunks and sweeps)",
    )
    parser.add_argument(
        "--figure",
        action="append",
        choices=FIGURES,
        help="run only the given figure(s); repeatable",
    )
    parser.add_argument(
        "--out", default=None, help="directory for JSON results"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress table output"
    )
    for dest, _, _, _, help_text in _LISTINGS:
        parser.add_argument(
            "--" + dest.replace("_", "-"), action="store_true",
            help=help_text,
        )
    subparsers = parser.add_subparsers(dest="command")
    for name in SWEEPS:
        _add_sweep_parser(subparsers, SWEEPS.get(name))
    _add_trace_parser(subparsers)
    _add_dashboard_parser(subparsers)
    _add_explain_parser(subparsers)
    _add_diff_parser(subparsers)
    args = parser.parse_args(argv)
    listed = _list_registries(args)
    if args.command is not None:
        # a listing combined with a subcommand prints both: the listing
        # must never silently swallow the requested run
        return args.func(args)
    if listed:
        return 0
    run_all(
        scale_name=args.scale,
        out_dir=args.out,
        only=tuple(args.figure) if args.figure else None,
        quiet=args.quiet,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
