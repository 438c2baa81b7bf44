"""The embedded time-series store: folding, sidecar, exact
reconciliation against the cluster report, and byte-level determinism.

The determinism tests are the acceptance criteria for the continuous-
monitoring layer: two identical seeded traffic runs (including one with
a mid-load node kill) must produce byte-identical ``.tsdb`` sidecars
and identical alert event sequences, and the folded per-tenant latency
quantiles must reconcile with **zero tolerance** against the
``ClusterReport`` percentiles, heatmap-style.
"""

import copy
import gzip
import json

import pytest

from repro.cluster.traffic import run_traffic, sample_profile
from repro.faults import FaultEvent, FaultPlan
from repro.obs import EventBus, MetricRegistry, NULL_TRACER, Observability
from repro.obs.alerts import ClusterMonitor
from repro.obs.export import prometheus_text
from repro.obs.tsdb import (
    Series,
    TimeSeriesStore,
    TSDB_VERSION,
    reconcile_tsdb,
)
from repro.util import jsonl


def _bus_store(step=0.05, **kwargs):
    """A store subscribed to a fresh bus, for event-folding tests."""
    store = TimeSeriesStore(step=step, **kwargs)
    bus = EventBus()
    bus.subscribe(store.fold_event)
    return store, bus


# -- folding mechanics ------------------------------------------------------


def test_counter_buckets_sum_increments():
    store = TimeSeriesStore(step=0.1)
    store.record("counter", "hits", 0.01)
    store.record("counter", "hits", 0.09)
    store.record("counter", "hits", 0.11)
    series = store.get("hits")
    assert series.fine == {0: 2.0, 1: 1.0}
    assert store.counter_total("hits") == 3.0
    assert store.counter_total("hits", since=0.1) == 1.0
    assert store.counter_total("hits", until=0.09) == 2.0


def test_gauge_buckets_keep_last_value():
    store = TimeSeriesStore(step=0.1)
    store.record("gauge", "depth", 0.02, 4.0)
    store.record("gauge", "depth", 0.08, 7.0)
    assert store.get("depth").fine == {0: 7.0}
    assert store.gauge_last("depth") == 7.0
    assert store.gauge_last("depth", since=0.2) is None


def test_hist_buckets_keep_exact_samples():
    store = TimeSeriesStore(step=0.1)
    for t, v in ((0.01, 0.5), (0.05, 0.2), (0.15, 0.9)):
        store.record("hist", "lat", t, v)
    assert store.samples("lat") == [0.2, 0.5, 0.9]
    assert store.samples("lat", until=0.1 - 1e-9) == [0.2, 0.5]
    # points expose per-bucket sample counts
    assert store.points("lat") == [(0.0, 2.0), (0.1, 1.0)]


def test_labels_split_series_and_kind_label_is_allowed():
    store = TimeSeriesStore()
    store.record("counter", "ev", 0.0, 1.0, kind="a")
    store.record("counter", "ev", 0.0, 1.0, kind="b")
    assert store.counter_total("ev", kind="a") == 1.0
    assert store.counter_total("ev", kind="b") == 1.0
    assert store.counter_total("ev") == 0.0  # unlabeled series distinct
    assert len(store) == 2


def test_kind_conflict_rejected():
    store = TimeSeriesStore()
    store.record("counter", "x", 0.0)
    with pytest.raises(ValueError, match="already registered"):
        store.record("gauge", "x", 0.1, 1.0)


def test_boundary_sample_lands_in_opening_bucket():
    store = TimeSeriesStore(step=0.05)
    # 3 * 0.05 is not exact in floats; the epsilon keeps it in bucket 3
    store.record("counter", "edge", 0.15000000000000002)
    assert store.bucket_of(0.15) == 3
    assert list(store.get("edge").fine) == [3]


def test_fold_event_vocabulary():
    store, bus = _bus_store()
    bus.emit("cluster.start", sim_time=0.0, policy="fair", slots=8, jobs=3)
    bus.emit("job.submitted", sim_time=0.01, tenant="etl")
    bus.emit("admission.accept", sim_time=0.01, tenant="etl", splits=4)
    bus.emit("admission.reject", sim_time=0.02, tenant="etl")
    bus.emit("admission.shed", sim_time=0.03, tenant="etl")
    bus.emit("job.finish", sim_time=0.30, tenant="etl",
             outcome="completed", latency=0.29, deadline_miss=True)
    bus.emit("job.finish", sim_time=0.31, tenant="etl", outcome="failed")
    bus.emit("node.lost", sim_time=0.32, node=1)
    bus.emit("cluster.finish", sim_time=0.40, utilization=0.5)
    assert store.counter_total("cluster.jobs.submitted", tenant="etl") == 1
    assert store.counter_total("cluster.jobs.rejected", tenant="etl") == 1
    assert store.counter_total("cluster.jobs.shed", tenant="etl") == 1
    assert store.counter_total("cluster.jobs.completed", tenant="etl") == 1
    assert store.counter_total("cluster.jobs.failed", tenant="etl") == 1
    assert store.counter_total(
        "cluster.jobs.deadline_missed", tenant="etl"
    ) == 1
    assert store.counter_total("cluster.nodes.lost") == 1
    assert store.samples("cluster.job.latency", tenant="etl") == [0.29]
    assert store.gauge_last("cluster.slots") == 8.0
    assert store.gauge_last("cluster.utilization") == 0.5
    # every kind also lands in the cluster.events counter
    assert store.counter_total("cluster.events", kind="job.finish") == 2
    assert store.watermark == 0.40


def test_fold_event_ignores_alert_and_slo_kinds_and_unstamped():
    store, bus = _bus_store()
    bus.emit("alert.firing", sim_time=0.1, alert="x")
    bus.emit("slo.status", sim_time=0.1, slo="y")
    bus.emit("job.submitted", tenant="etl")  # no sim_time
    assert len(store) == 0


def test_running_jobs_gauge_tracks_accept_and_finish():
    store, bus = _bus_store()
    bus.emit("admission.accept", sim_time=0.0, tenant="a")
    bus.emit("admission.accept", sim_time=0.1, tenant="a")
    assert store.gauge_last("cluster.jobs.running", tenant="a") == 2.0
    bus.emit("job.finish", sim_time=0.2, tenant="a", outcome="completed",
             latency=0.2)
    assert store.gauge_last("cluster.jobs.running", tenant="a") == 1.0


# -- sidecar round-trip, merge, torn-tail tolerance --------------------------


def _small_store():
    store = TimeSeriesStore(step=0.05, meta={"origin": "test"})
    store.record("counter", "c", 0.02, 2.0, tenant="a")
    store.record("gauge", "g", 0.04, 1.5)
    store.record("hist", "h", 0.06, 0.25, tenant="a")
    store.alerts.append(
        {"t": 0.05, "alert": "r", "transition": "firing", "kind": "static",
         "value": 2.0, "threshold": 1.0}
    )
    store.statuses.append({"slo": "s", "healthy": True})
    return store


def test_sidecar_round_trip(tmp_path):
    path = str(tmp_path / "run.tsdb")
    store = _small_store()
    store.save(path)
    loaded, warnings = TimeSeriesStore.load(path)
    assert warnings == []
    assert loaded.meta["origin"] == "test"
    assert loaded.counter_total("c", tenant="a") == 2.0
    assert loaded.gauge_last("g") == 1.5
    assert loaded.samples("h", tenant="a") == [0.25]
    assert loaded.alerts[0]["alert"] == "r"
    assert loaded.statuses[0]["slo"] == "s"
    assert loaded.to_lines() == store.to_lines()


def test_save_merges_existing_sidecar(tmp_path):
    path = str(tmp_path / "acc.tsdb")
    _small_store().save(path)
    merged = _small_store().save(path)
    assert merged.runs == 2
    assert merged.counter_total("c", tenant="a") == 4.0  # counters sum
    assert merged.gauge_last("g") == 1.5                 # gauges overwrite
    assert merged.samples("h", tenant="a") == [0.25, 0.25]
    assert len(merged.alerts) == 2
    assert {a["run"] for a in merged.alerts} == {0, 1}
    loaded, _ = TimeSeriesStore.load(path)
    assert loaded.runs == 2


def test_save_refuses_to_replace_a_sidecar_it_cannot_read(tmp_path):
    path = tmp_path / "acc.tsdb"
    _small_store().save(str(path))
    assert _small_store().save(str(path)).runs == 2
    lines = TimeSeriesStore.load(str(path))[0].to_lines()
    lines[0]["v"] = 99
    jsonl.write_frame(str(path), lines)
    damaged = path.read_bytes()
    with pytest.raises(ValueError, match="version 99"):
        _small_store().save(str(path))
    assert path.read_bytes() == damaged
    # so is a file that was never a sidecar, and one holding a level
    # of buckets this build cannot fold
    path.write_text("just some notes\n")
    with pytest.raises(ValueError, match="line 1"):
        _small_store().save(str(path))
    assert path.read_text() == "just some notes\n"
    lines[0]["v"] = TSDB_VERSION
    lines[1]["coarse"] = [[0, 1.0]]
    jsonl.write_frame(str(path), lines)
    two_level = path.read_bytes()
    with pytest.raises(ValueError, match="coarse"):
        _small_store().save(str(path))
    assert path.read_bytes() == two_level


def test_save_starts_fresh_only_on_a_missing_file(tmp_path):
    path = str(tmp_path / "new.tsdb")
    store = _small_store()
    assert store.save(path) is store
    assert store.runs == 1 and store.warnings == []
    assert TimeSeriesStore.load(path)[0].counter_total("c", tenant="a") == 2.0


def test_save_keeps_the_salvage_warnings_of_what_it_folded_in(tmp_path):
    path = tmp_path / "torn.tsdb"
    _small_store().save(str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])  # a real crash never writes the trailer
    merged = _small_store().save(str(path))
    assert merged.runs == 2
    assert any("torn gzip stream" in w for w in merged.warnings)


def test_merge_rejects_step_mismatch():
    a = TimeSeriesStore(step=0.05)
    b = TimeSeriesStore(step=0.1)
    with pytest.raises(ValueError, match="cannot merge"):
        a.merge(b)


def test_torn_final_line_dropped_with_warning(tmp_path):
    path = str(tmp_path / "torn.tsdb")
    lines = _small_store().to_lines()
    text = "".join(json.dumps(l, sort_keys=True) + "\n" for l in lines)
    text += '{"type": "series", "name": "torn'  # torn mid-record
    with open(path, "wb") as handle:
        handle.write(gzip.compress(text.encode(), 9, mtime=0))
    loaded, warnings = TimeSeriesStore.load(path)
    assert any("torn final record" in w for w in warnings)
    assert loaded.counter_total("c", tenant="a") == 2.0


def test_torn_gzip_stream_salvaged(tmp_path):
    path = str(tmp_path / "cut.tsdb")
    store = TimeSeriesStore()
    for i in range(200):
        store.record("counter", "many", i * 0.05, 1.0, idx=str(i % 7))
    store.save(path)
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) - 40])  # tear the gzip frame
    loaded, warnings = TimeSeriesStore.load(path)
    assert any("torn" in w for w in warnings)
    assert loaded.meta is not None  # header survived


def test_early_malformed_line_is_hard_error(tmp_path):
    path = str(tmp_path / "bad.tsdb")
    lines = _small_store().to_lines()
    text = json.dumps(lines[0], sort_keys=True) + "\n"
    text += "not json at all\n"
    text += json.dumps(lines[1], sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    with pytest.raises(ValueError, match="line 2"):
        TimeSeriesStore.load(path)


#: a series record broken each way, as ``(line, field, value)`` edits of
#: ``_small_store().to_lines()`` (line 1: counter ``c``, 2: gauge ``g``,
#: 3: hist ``h``), with the name the error must give
MALFORMED_SERIES = {
    "no name": (1, "name", None, "series"),
    "null bucket": (1, "fine", [[None, 1.0]], "'c'"),
    "bucket not a pair": (1, "fine", [[0]], "'c'"),
    "list counter value": (1, "fine", [[0, [2.0]]], "'c'"),
    "text gauge value": (2, "fine", [[0, "1.5"]], "'g'"),
    "scalar hist samples": (3, "fine", [[1, 0.25]], "'h'"),
    "text hist sample": (3, "fine", [[1, ["0.25"]]], "'h'"),
    "labels not an object": (1, "labels", ["tenant", "a"], "'c'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SERIES))
def test_malformed_series_record_is_a_value_error(tmp_path, case):
    line, field, value, named = MALFORMED_SERIES[case]
    lines = _small_store().to_lines()
    if value is None:
        del lines[line][field]
    else:
        lines[line][field] = value
    path = tmp_path / "bad.tsdb"
    jsonl.write_frame(str(path), lines)
    damaged = path.read_bytes()
    with pytest.raises(ValueError, match=named):
        TimeSeriesStore.load(str(path))
    # save() folds the file in first: it refuses, and leaves it as it was
    with pytest.raises(ValueError, match=named):
        _small_store().save(str(path))
    assert path.read_bytes() == damaged


@pytest.mark.parametrize("field", ["step", "runs", "watermark"])
def test_non_numeric_header_field_is_a_value_error(tmp_path, field):
    lines = _small_store().to_lines()
    lines[0][field] = [1]
    path = tmp_path / "bad.tsdb"
    jsonl.write_frame(str(path), lines)
    damaged = path.read_bytes()
    with pytest.raises(ValueError, match="is not a number"):
        _small_store().save(str(path))
    assert path.read_bytes() == damaged


def test_load_rejects_wrong_format_and_version(tmp_path):
    path = str(tmp_path / "wrong.tsdb")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "meta", "format": "wal"}) + "\n")
    with pytest.raises(ValueError, match="not a tsdb"):
        TimeSeriesStore.load(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(
            {"type": "meta", "format": "tsdb", "v": TSDB_VERSION + 1}
        ) + "\n")
    with pytest.raises(ValueError, match="version"):
        TimeSeriesStore.load(path)


def test_series_round_trip_refuses_fields_it_cannot_fold():
    series = Series("s", "hist", {"tenant": "a"})
    series.observe(3, 0.5, 0.3)
    record = series.to_dict()
    rebuilt = Series.from_dict(record)
    assert rebuilt.fine == {3: [0.5]}
    assert rebuilt.last_t == 0.3
    # a second bucket level (written by builds before this one) would
    # be lost by a merge that does not know it: refuse the record
    with pytest.raises(ValueError, match="coarse"):
        Series.from_dict({**record, "coarse": [[0, [0.1, 0.2]]]})


# -- real traffic: reconciliation + determinism ------------------------------


def _monitored_run(faults=None):
    profile = sample_profile()
    policy = profile.cluster_policy()
    bus = EventBus()
    monitor = ClusterMonitor.for_policy(policy).attach(bus)
    lifecycle = []
    bus.subscribe(
        lambda e: lifecycle.append((e.kind, e.sim_time, dict(e.attrs)))
        if e.kind.startswith(("alert.", "slo.")) else None
    )
    obs = Observability(NULL_TRACER, MetricRegistry(), enabled=True, bus=bus)
    report = run_traffic(profile, obs=obs, faults=faults)
    return monitor, report, lifecycle


def _kill_plan():
    return FaultPlan(
        [FaultEvent("kill_node", node=1, at_time=0.35)],
        seed=sample_profile().seed,
    )


@pytest.fixture(scope="module")
def monitored():
    """One monitored run of the sample profile for the whole module.
    Read-only; the determinism tests below make their own second run
    and compare it with this one, which is what makes sharing sound."""
    return _monitored_run()


@pytest.fixture(scope="module")
def monitored_chaos():
    """The same, with a node killed mid-load."""
    return _monitored_run(faults=_kill_plan())


def _sidecar_bytes(monitor, path):
    monitor.save(str(path))
    return path.read_bytes()


def test_tsdb_reconciles_exactly_with_cluster_report(monitored):
    monitor, report, _ = monitored
    assert reconcile_tsdb(monitor.store, report) == []


def test_tsdb_reconciles_under_chaos(monitored_chaos):
    monitor, report, _ = monitored_chaos
    assert reconcile_tsdb(monitor.store, report) == []
    assert monitor.store.counter_total("cluster.nodes.lost") == 1.0


def test_reconcile_reports_mismatch_when_tampered(monitored):
    monitor, report, _ = monitored
    store = copy.deepcopy(monitor.store)
    series = store.get("cluster.jobs.completed", tenant="etl")
    bucket = next(iter(series.fine))
    series.fine[bucket] += 1.0
    problems = reconcile_tsdb(store, report)
    assert problems
    assert any("etl completed" in p for p in problems)


def test_identical_runs_produce_byte_identical_sidecars(monitored, tmp_path):
    again, _, _ = _monitored_run()
    assert _sidecar_bytes(monitored[0], tmp_path / "a.tsdb") == (
        _sidecar_bytes(again, tmp_path / "b.tsdb")
    )


def test_identical_chaos_runs_are_deterministic(monitored_chaos, tmp_path):
    monitor_a, _, events_a = monitored_chaos
    monitor_b, _, events_b = _monitored_run(faults=_kill_plan())
    assert _sidecar_bytes(monitor_a, tmp_path / "a.tsdb") == (
        _sidecar_bytes(monitor_b, tmp_path / "b.tsdb")
    )
    assert events_a == events_b
    assert events_a  # the monitored run actually alerted


def test_alert_event_sequences_identical_across_runs(monitored):
    _, _, events_a = monitored
    _, _, events_b = _monitored_run()
    assert events_a == events_b
    transitions = [k for k, _, _ in events_a if k.startswith("alert.")]
    assert "alert.firing" in transitions
    assert "alert.resolved" in transitions


def test_monitoring_is_a_pure_observer(monitored):
    """Bare vs monitored runs of the same profile: identical timeline."""
    bare = run_traffic(sample_profile(), policy="fair")
    _, report, _ = monitored
    assert report.makespan == bare.makespan
    assert [o.to_dict() for o in report.outcomes] == [
        o.to_dict() for o in bare.outcomes
    ]


# -- Prometheus export -------------------------------------------------------


def test_tsdb_prometheus_text_round_trips(monitored):
    from repro.obs.export import parse_prometheus_text

    monitor, _, _ = monitored
    payload = prometheus_text(monitor.store)
    parsed = parse_prometheus_text(payload)
    assert parsed
    assert "repro_cluster_jobs_completed_total" in payload
    assert 'quantile="0.95"' in payload


def test_tsdb_prometheus_time_range_filters():
    store = TimeSeriesStore(step=0.1)
    store.record("counter", "c", 0.05, 1.0)
    store.record("counter", "c", 0.55, 5.0)
    full = prometheus_text(store)
    early = prometheus_text(store, until=0.2)
    late = prometheus_text(store, since=0.5)
    assert " 6" in full
    assert " 1" in early
    assert " 5" in late
