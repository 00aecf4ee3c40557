"""Which public calls of which layer the traced run wraps, and the
per-layer metrics computed from the spans.

Layer names follow the modules under ``src/repro``.  ``explain``,
``analytic``, ``index`` and ``datasets`` are on no serving path these
workloads exercise and stay unmeasured.
"""

from __future__ import annotations

from contextlib import contextmanager

#: every per-layer metric, in report order, with its unit
PER_LAYER = {
    "mappings.place_s": "s",
    "mappings.plan_s": "s",
    "mappings.plan_calls": "count",
    "mappings.raw_runs_per_plan": "runs",
    "perf.memo_hits": "count",
    "perf.memo_misses": "count",
    "api.query_self_s": "s",
    "query.prepare_self_s": "s",
    "query.prepare_calls": "count",
    "query.coalesced_runs_per_plan": "runs",
    "query.admit_self_s": "s",
    "shard.prepare_self_s": "s",
    "shard.subplans_per_query": "subplans",
    "disk.service_s": "s",
    "disk.service_calls": "count",
    "disk.requests": "count",
    "disk.us_per_request": "us",
    "disk.sptf_call_share": "ratio",
    "disk.sim_busy_share": "ratio",
    "cache.filter_s": "s",
    "cache.admit_s": "s",
    "cache.invalidate_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.admitted": "count",
    "traffic.run_s": "s",
    "traffic.loop_self_s": "s",
    "traffic.slices": "count",
    "traffic.sim_queue_ms_mean": "sim_ms",
    "ingest.stage_s": "s",
    "ingest.batch_self_s": "s",
    "ingest.flush_build_s": "s",
    "ingest.write_prepare_s": "s",
    "ingest.blocks_written_per_point": "blocks",
    "ingest.overflow_points": "count",
    "ingest.flushes": "count",
    "obs.record_self_s": "s",
    "obs.spans": "count",
    "monitor.ingest_s": "s",
    "bench.tracing_overhead": "ratio",
}


#: the span around mapper construction (set-up, not a serving path)
PLACE = "mappings.place"


def instrument(tracer, ds) -> None:
    """Wrap the public calls of every layer of one built dataset."""
    st = ds.storage
    sharded = hasattr(st, "shard_map")

    def on_plan(args, kwargs, plan):
        # a mapper may plan through its own beam/range entry points;
        # count the outermost call only
        if tracer.parent_name() != "mappings.plan":
            tracer.count("plan_calls")
            tracer.count("raw_runs", plan.n_runs)

    if sharded:
        mappers = [m for copies in getattr(
            st, "copy_mappers", [[m] for m in st.mapper.chunk_mappers]
        ) for m in copies]
    else:
        mappers = [ds.mapper]
    for m in mappers:
        tracer.wrap(m, "beam_plan", "mappings.plan", on_plan)
        tracer.wrap(m, "range_plan", "mappings.plan", on_plan)

    def on_prepare_plan(args, kwargs, prepared):
        if st.cache is None or not st.cache.active:
            tracer.count("coalesced_runs", prepared.n_runs)

    def on_shard_prepare(args, kwargs, prepared):
        tracer.count("subplans", len(prepared.subs))

    tracer.wrap(st, "prepare", "shard.prepare" if sharded
                else "query.prepare",
                on_shard_prepare if sharded else None)
    tracer.wrap(st, "prepare_plan", "query.prepare_plan", on_prepare_plan)
    tracer.wrap(st, "admit_prepared", "query.admit")
    tracer.wrap(st, "prepare_write", "query.prepare_write")

    def on_service(args, kwargs, res):
        tracer.count("requests", res.n_requests)
        policy = kwargs.get("policy", args[2] if len(args) > 2 else None)
        if policy == "sptf":
            tracer.count("sptf_calls")

    for i in range(st.volume.n_disks):
        tracer.wrap(st.volume.drive(i), "service_runs", "disk.service",
                    on_service)

    pool = st.cache
    if pool is not None:
        def on_filter(args, kwargs, result):
            tracer.count("coalesced_runs", args[1].n_runs)

        tracer.wrap(pool, "filter_plan", "cache.filter", on_filter)
        tracer.wrap(pool, "admit_plan", "cache.admit")
        tracer.wrap(pool, "invalidate", "cache.invalidate")

    tele = st.obs
    if tele is not None:
        tracer.wrap(tele, "observe_query", "obs.record")
        if tele.monitor is not None:
            tracer.wrap(tele.monitor, "ingest", "monitor.ingest")


@contextmanager
def placement_traced(tracer):
    """Wrap mapper construction wherever the stack builds mappers."""
    import repro.api.dataset
    import repro.replica.executor
    import repro.shard.executor

    for mod in (repro.api.dataset, repro.shard.executor,
                repro.replica.executor):
        tracer.wrap(mod, "build_mapper", PLACE)
    try:
        yield
    finally:
        tracer.restore()


@contextmanager
def ingest_traced(tracer):
    """Wrap the ingest pipeline, which ``TrafficRun.run`` builds itself."""
    from repro.ingest.pipeline import IngestPipeline

    tracer.wrap(IngestPipeline, "stage", "ingest.stage")
    tracer.wrap(IngestPipeline, "build_flush", "ingest.flush_build")
    tracer.wrap(IngestPipeline, "prepare_batch", "ingest.batch")
    try:
        yield
    finally:
        tracer.restore()


def layer_metrics(tracer, extra: dict) -> dict:
    """Per-layer values from the spans plus workload-level ``extra``
    counts (cache, traffic and ingest totals read from the reports)."""
    s, t, n, c = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "mappings.place_s": t[PLACE],
        "mappings.plan_s": s["mappings.plan"],
        "mappings.plan_calls": c["plan_calls"],
        "mappings.raw_runs_per_plan": ratio(c["raw_runs"],
                                            c["plan_calls"]),
        "api.query_self_s": s["api.query"],
        "query.prepare_self_s": s["query.prepare"]
        + s["query.prepare_plan"],
        "query.prepare_calls": n["query.prepare_plan"],
        "query.coalesced_runs_per_plan": ratio(
            c["coalesced_runs"], n["query.prepare_plan"]
        ),
        "query.admit_self_s": s["query.admit"],
        "shard.prepare_self_s": s["shard.prepare"],
        "shard.subplans_per_query": ratio(c["subplans"],
                                          n["shard.prepare"]),
        "disk.service_s": s["disk.service"],
        "disk.service_calls": n["disk.service"],
        "disk.requests": c["requests"],
        "disk.us_per_request": ratio(s["disk.service"] * 1e6,
                                     c["requests"]),
        "disk.sptf_call_share": ratio(c["sptf_calls"],
                                      n["disk.service"]),
        "cache.filter_s": s["cache.filter"],
        "cache.admit_s": s["cache.admit"],
        "cache.invalidate_s": s["cache.invalidate"],
        "traffic.run_s": t["traffic.run"],
        "traffic.loop_self_s": s["traffic.run"],
        "ingest.stage_s": s["ingest.stage"],
        "ingest.batch_self_s": s["ingest.batch"],
        "ingest.flush_build_s": s["ingest.flush_build"],
        "ingest.write_prepare_s": s["query.prepare_write"],
        "obs.record_self_s": s["obs.record"],
        "monitor.ingest_s": t["monitor.ingest"],
    }
    out.update(extra)
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}
