"""Golden digests of the monitored report payload.

The parity suites strip ``meta["obs"]`` and ``meta["monitor"]``, so
nothing there pins their *content*.  This suite does: a fixed-seed,
2-shard x k=2 cached storm with a kill at 40 ms and a revive at 160 ms,
then 10 interleaved one-shot ``QueryBatch.run`` calls, a
``telemetry.reset()`` and 3 more one-shots.  The sha256 of every
report's ``to_json()`` is pinned, so the incremental tracer totals and
the dirty-window monitor rendering must reproduce the full-history
payloads byte for byte.

The hypothesis half checks the same contract on arbitrary
interleavings: after any mix of traffic runs, one-shots, disk events,
resets and partial reads, the incremental ``describe()`` equals
``describe()`` on a fresh ``Telemetry`` + ``Monitor`` that replays the
same roots and events from scratch.
"""

import hashlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.monitor import Monitor
from repro.obs import Telemetry
from repro.traffic import PoissonArrivals

#: thresholds low enough that every builtin rule fires on the storm
RULES = {
    "latency_threshold": {"threshold_ms": 20.0},
    "burn_rate": {"objective_ms": 15.0, "windows": 3},
    "queue_saturation": {"utilization": 0.5},
    "degraded_capacity": None,
}

#: sha256 of ``Report.to_json()``: the storm, 10 one-shots, then 3
#: one-shots after ``telemetry.reset()``
GOLDEN = (
    "7cb47f052b645cd4faa24fdec6670e6814d2a11c0a9a4393479a41b022513ad8",
    "80b807a558634d1abed50b3a42f103f422e424b370f38ffb99e1e82dc7a34c6b",
    "514618c9e18d12a327f315e1eaab27efaf132a6fba9c9fb64e264bf8181ca10c",
    "e82ef8a3c43234e2ccd02398f04a703741b94c52e2f2167b54febd42223c58cf",
    "454bfbdc0f19ad1485482b13983977f12c0e25652327bb041860159b4563016f",
    "4ec8c7e4c77503b2d31ecd4dde711a4659dc101ae460010b2d637210328a9ffc",
    "a7f587ed370cffe71bfcdc9016483293350a0b57b4b68176972d9af3758d24c8",
    "85ed3fb048798cb05750c905d2fc95b95742cd370b33fae039ec9c94600b1973",
    "251150971d39a0473d451d75bea21c736f47909a27c4829928c82fd240f905f1",
    "f6edde5d75f527459171959a48202c251d44c5bca3f81e7d6c4090d760773a4e",
    "b04e01e1f678c1a726c7edfdf0bae5f6785cefc668c66c7929e63cdf28b04a2b",
    "a6aedfe3dfa15a5e2061fd19927bbb4989580c03f2f3dbd1a23a238999e719cf",
    "ca193e51c890be6eeb6e82072b115542a1a15f5cc1788ace2aa8134391b6ccb3",
    "c85f59a5d6b550eb12e5f96883d4ac42f382dc2536f823e9f78465375167d8d9",
)


def monitored(make_dataset, seed=42):
    return (
        make_dataset(seed=seed)
        .with_shards(2).with_replication(2).with_cache(256)
        .with_monitor(window_ms=25.0, rules=RULES)
    )


def one_shot(ds, i):
    """The i-th one-shot: beams on axes 0, 1, 2, then a range."""
    if i % 4 == 3:
        return ds.range((2, 1, 1), (6, 5, 4)).run()
    return ds.random_beams(axis=i % 4, n=2).run()


def golden_reports(make_dataset):
    ds = monitored(make_dataset)
    yield (
        ds.traffic()
        .clients(3, queries=8, arrival=PoissonArrivals(rate_qps=20.0))
        .kill(40.0, 0, revive_at_ms=160.0)
        .run()
    )
    for i in range(10):
        yield one_shot(ds, i)
    ds.telemetry.reset()
    for i in range(3):
        yield one_shot(ds, i)


def sha(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def test_golden_digests(make_dataset):
    digests = tuple(sha(r) for r in golden_reports(make_dataset))
    assert digests == GOLDEN


def test_golden_payloads_carry_obs_and_monitor(make_dataset):
    reports = list(golden_reports(make_dataset))
    storm = reports[0].meta["monitor"]
    assert {a["rule"] for a in storm["alerts"]} == set(RULES)
    assert storm["events"]
    for report in reports[1:]:
        assert report.meta["obs"]["trace"]["n_spans"] > 0
        assert report.meta["monitor"]["n_windows"] > 0
    # the reset scopes the last three reports to their own queries
    assert [r.meta["obs"]["trace"]["n_queries"] for r in reports[-3:]] \
        == [2, 4, 6]


# ----------------------------------------------------------------------
# incremental == replayed from scratch
# ----------------------------------------------------------------------


def recording(ds):
    """Log every root, disk event and reset that reaches ``ds``'s
    telemetry, in order, by shadowing the bound methods."""
    tele = ds.telemetry
    mon = tele.monitor
    log = []
    observe, event, reset = (tele.observe_query, mon.record_disk_event,
                             tele.reset)

    def observe_query(root, *, advance):
        log.append(("root", root, advance))
        observe(root, advance=advance)

    def record_disk_event(*args):
        log.append(("event", args))
        event(*args)

    def reset_all():
        log.append(("reset",))
        reset()

    tele.observe_query = observe_query
    mon.record_disk_event = record_disk_event
    tele.reset = reset_all
    return log


def replay(log) -> Telemetry:
    """A fresh Telemetry + Monitor fed the log since its last reset."""
    tele = Telemetry(monitor=Monitor(window_ms=25.0, rules=RULES))
    start = max((i + 1 for i, op in enumerate(log) if op[0] == "reset"),
                default=0)
    for op in log[start:]:
        if op[0] == "root":
            tele.observe_query(op[1], advance=op[2])
        else:
            tele.monitor.record_disk_event(*op[1])
    return tele


OPS = st.one_of(
    st.tuples(st.just("traffic"), st.integers(1, 3), st.booleans()),
    st.tuples(st.just("oneshot"), st.integers(0, 3)),
    st.tuples(st.just("event"), st.floats(0.0, 400.0),
              st.sampled_from(["kill", "revive"])),
    st.tuples(st.just("reset")),
    # partial reads between describes must not swallow invalidations
    st.tuples(st.just("peek")),
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(ops=st.lists(OPS, min_size=1, max_size=8))
def test_incremental_equals_replay(make_dataset, ops):
    ds = monitored(make_dataset)
    log = recording(ds)
    tele = ds.telemetry
    for op in ops:
        if op[0] == "traffic":
            run = ds.traffic().clients(op[1], queries=3)
            if op[2]:
                run = run.kill(20.0, 0, revive_at_ms=90.0)
            run.run()
        elif op[0] == "oneshot":
            one_shot(ds, op[1])
        elif op[0] == "event":
            live = 1 if op[2] == "kill" else 2
            tele.monitor.record_disk_event(op[1], op[2], 0, live, 2)
        elif op[0] == "peek":
            tele.monitor.series.capacity_series()
            tele.monitor.series.rows()
            tele.monitor.alerts()
            continue
        else:
            tele.reset()
        fresh = replay(log)
        assert tele.describe() == fresh.describe()
        assert tele.monitor.describe() == fresh.monitor.describe()
