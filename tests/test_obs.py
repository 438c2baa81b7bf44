"""Tests for the observability subsystem: registry, tracer, recorder,
and the accounting invariants that tie probe counters to sim.Metrics."""

import pytest

from repro.bench import fig7_microbenchmark, harness
from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.mapreduce.counters import Counters
from repro.obs import (
    NULL_OBS,
    NULL_REGISTRY,
    NULL_STREAM_PROBE,
    NULL_TRACER,
    FlightRecorder,
    MetricRegistry,
    RunReport,
    Tracer,
    current_obs,
)
from repro.sim.calibration import to_ticks
from repro.sim.metrics import Metrics
from tests.conftest import make_ctx, micro_records, micro_schema


class FakeClock:
    """A deterministic monotonic clock for byte-identical traces."""

    def __init__(self, step: float = 0.001):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestRegistry:
    def test_counter_identity_per_labels(self):
        reg = MetricRegistry()
        a = reg.counter("hdfs.bytes.disk", column="url")
        b = reg.counter("hdfs.bytes.disk", column="url")
        c = reg.counter("hdfs.bytes.disk", column="ip")
        assert a is b and a is not c
        a.inc(10)
        b.inc(5)
        assert a.value == 15 and c.value == 0

    def test_label_order_is_irrelevant(self):
        reg = MetricRegistry()
        a = reg.counter("m", x=1, y=2)
        b = reg.counter("m", y=2, x=1)
        assert a is b

    def test_gauge_set(self):
        reg = MetricRegistry()
        g = reg.gauge("queue.depth")
        g.set(5)
        g.set(4)
        assert g.value == 4

    def test_histogram_buckets_and_total(self):
        reg = MetricRegistry()
        h = reg.histogram("fetch.bytes", boundaries=(10, 100))
        for v in (5, 50, 500, 7):
            h.observe(v)
        assert h.counts == [2, 1, 1]  # <=10, <=100, overflow
        assert h.count == 4
        assert h.total == 562

    def test_histogram_boundaries_must_ascend(self):
        with pytest.raises(ValueError):
            MetricRegistry().histogram("h", boundaries=(10, 10))

    def test_histogram_reregister_same_boundaries_ok(self):
        reg = MetricRegistry()
        a = reg.histogram("h", boundaries=(1, 2))
        assert reg.histogram("h", boundaries=(1, 2)) is a
        with pytest.raises(ValueError):
            reg.histogram("h", boundaries=(1, 3))

    def test_kind_mismatch_rejected(self):
        reg = MetricRegistry()
        reg.counter("m", k=1)
        with pytest.raises(ValueError):
            reg.gauge("m", k=1)
        with pytest.raises(ValueError):
            reg.histogram("m", k=1)

    def test_find_and_value_of(self):
        reg = MetricRegistry()
        reg.counter("hdfs.bytes.disk", column="a").inc(3)
        reg.counter("hdfs.bytes.disk", column="b").inc(4)
        reg.counter("hdfs.bytes.net", column="a").inc(9)
        assert len(reg.find("hdfs.bytes.disk")) == 2
        assert reg.value_of("hdfs.bytes.disk") == 7
        assert reg.value_of("hdfs.bytes.disk", column="b") == 4
        assert reg.value_of("nope", default=-1) == -1

    def test_snapshot_is_deterministic_and_json_ready(self):
        import json

        reg = MetricRegistry()
        reg.counter("b", z=1).inc(2)
        reg.counter("a").inc(1)
        reg.histogram("h", boundaries=(4,)).observe(3)
        snap = reg.snapshot()
        assert [e["name"] for e in snap] == ["a", "b", "h"]
        json.dumps(snap)  # must not raise
        hist = snap[-1]
        assert hist["kind"] == "histogram"
        assert hist["counts"] == [1, 0]


class TestHistogramQuantiles:
    def test_quantiles_are_monotone_and_within_range(self):
        h = MetricRegistry().histogram("h", boundaries=(10, 100, 1000))
        for v in range(1, 201):
            h.observe(v)
        p50, p95, p99 = h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)
        assert 1 <= p50 <= p95 <= p99 <= 200
        assert p50 == pytest.approx(100, rel=0.15)

    def test_single_value_clamps_to_observed(self):
        # All mass in one bucket: interpolation against the bucket edge
        # would report ~10; the observed min/max clamp it to the truth.
        h = MetricRegistry().histogram("h", boundaries=(10, 100))
        for _ in range(3):
            h.observe(7)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(7.0)

    def test_overflow_bucket_uses_observed_max(self):
        h = MetricRegistry().histogram("h", boundaries=(10,))
        h.observe(5000)
        assert h.quantile(0.99) == pytest.approx(5000.0)

    def test_empty_histogram_quantile_is_zero(self):
        assert MetricRegistry().histogram("h").quantile(0.5) == 0.0

    def test_snapshot_carries_min_max_and_quantiles(self):
        reg = MetricRegistry()
        h = reg.histogram("h", boundaries=(10, 100))
        reg.histogram("empty", boundaries=(10,))
        for v in (3, 30, 300):
            h.observe(v)
        entries = {e["name"]: e for e in reg.snapshot()}
        filled = entries["h"]
        assert filled["min"] == 3 and filled["max"] == 300
        assert filled["p50"] <= filled["p95"] <= filled["p99"] <= 300
        assert "p50" not in entries["empty"]  # no data, no quantiles

    def test_report_renders_task_duration_quantiles(self):
        from repro.obs.registry import TASK_DURATION_BOUNDARIES

        recorder = FlightRecorder(clock=FakeClock())
        durations = recorder.registry.histogram(
            "task.duration.seconds", TASK_DURATION_BOUNDARIES, kind="map"
        )
        for v in (0.01, 0.02, 0.02, 0.5):
            durations.observe(v)
        report = recorder.report()
        text = report.render()
        assert "Task durations (simulated seconds)" in text
        assert "map: n=4" in text and "p95=" in text
        stats = report.task_duration_stats()["map"]
        assert stats["count"] == 4
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= 0.5

    def test_quantile_from_buckets_works_on_serialized_entries(self):
        from repro.obs.registry import quantile_from_buckets

        reg = MetricRegistry()
        h = reg.histogram("h", boundaries=(10, 100))
        for v in (3, 5, 7, 30, 300):
            h.observe(v)
        (entry,) = reg.snapshot()
        recomputed = quantile_from_buckets(
            entry["boundaries"], entry["counts"], entry["count"], 0.5,
            vmin=entry["min"], vmax=entry["max"],
        )
        assert recomputed == pytest.approx(h.quantile(0.5))


class TestTracer:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("job", kind="job") as outer:
            with tracer.span("phase", kind="phase") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.wall_end > outer.wall_start
        assert [s.name for s in tracer.spans] == ["job", "phase"]

    def test_sim_deltas_from_metrics(self):
        tracer = Tracer(clock=FakeClock())
        metrics = Metrics()
        metrics.charge_cpu(to_ticks(1.0))
        with tracer.span("op", metrics=metrics):
            metrics.charge_cpu(to_ticks(2.0))
            metrics.charge_io(to_ticks(3.0))
        span = tracer.spans[0]
        assert span.sim_cpu == pytest.approx(2.0)
        assert span.sim_io == pytest.approx(3.0)
        assert span.sim_duration == pytest.approx(5.0)

    def test_record_span_has_no_wall_extent(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.record_span(
            "map_task", kind="task", sim_start=1.5, sim_duration=0.25, node=3
        )
        assert span.wall_start == span.wall_end
        assert span.sim_start == 1.5 and span.sim_duration == 0.25
        assert span.attrs["node"] == 3

    def test_to_dict_omits_unset_sim_fields(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("op"):
            pass
        d = tracer.spans[0].to_dict()
        assert "sim_duration" not in d and "attrs" not in d

    def test_set_attaches_attrs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("op") as span:
            span.set("total", 7)
        assert tracer.spans[0].to_dict()["attrs"] == {"total": 7}


class TestNullObjects:
    def test_ambient_default_is_null(self):
        obs = current_obs()
        assert obs is NULL_OBS
        assert not obs.enabled

    def test_null_registry_hands_out_shared_noops(self):
        c = NULL_REGISTRY.counter("anything", x=1)
        c.inc(100)
        assert c.value == 0
        assert c is NULL_REGISTRY.counter("other")
        g = NULL_REGISTRY.gauge("g")
        g.set(5)
        assert g.value == 0.0
        h = NULL_REGISTRY.histogram("h")
        h.observe(1)
        assert h.count == 0
        assert NULL_REGISTRY.snapshot() == []

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("job") as span:
            span.set("k", "v")
        NULL_TRACER.record_span("t", kind="task", sim_start=0, sim_duration=1)
        assert NULL_TRACER.spans == []

    def test_null_obs_stream_probe_is_shared_noop(self):
        probe = NULL_OBS.stream_probe(file="/f", column="c")
        assert probe is NULL_STREAM_PROBE
        probe.on_request(10)
        probe.on_fetch(5, 5, True)  # must not raise


class TestFlightRecorder:
    def test_activate_swaps_ambient_obs(self):
        recorder = FlightRecorder(clock=FakeClock())
        assert current_obs() is NULL_OBS
        with recorder.activate():
            assert current_obs() is recorder
        assert current_obs() is NULL_OBS

    def test_jsonl_round_trip(self):
        recorder = FlightRecorder(clock=FakeClock(), meta={"run": "t1"})
        with recorder.activate():
            with recorder.tracer.span("job", kind="job"):
                recorder.registry.counter("hdfs.bytes.disk", column="a").inc(7)
                recorder.registry.histogram("h", (4, 16)).observe(5)
            m = Metrics()
            m.charge_cpu(to_ticks(0.5))
            recorder.record_metrics("scan:x", m)
            counters = Counters()
            counters.increment("map.tasks", 3)
            recorder.record_counters("job:j", counters)
        report = recorder.report()
        text = report.to_jsonl()
        back = RunReport.from_jsonl(text)
        assert back.meta == {"run": "t1"}
        assert back.spans == report.spans
        assert back.registry.snapshot() == report.registry.snapshot()
        assert back.metrics == report.metrics
        assert back.counters == report.counters
        assert back.to_jsonl() == text

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError):
            RunReport.from_jsonl("not json\n")
        with pytest.raises(ValueError):
            RunReport.from_jsonl('{"no_type": 1}\n')
        with pytest.raises(ValueError):
            RunReport.from_jsonl('{"type": "martian"}\n')

    def test_counters_route_through_active_registry(self):
        recorder = FlightRecorder(clock=FakeClock())
        with recorder.activate():
            counters = Counters()
            counters.increment("map.records", 5)
            counters.increment("map.records", 2)
        assert recorder.registry.value_of(
            "mapreduce.counters", name="map.records"
        ) == 7

    def test_counters_merge_does_not_double_count(self):
        recorder = FlightRecorder(clock=FakeClock())
        with recorder.activate():
            a, b = Counters(), Counters()
            a.increment("x", 2)
            b.increment("x", 3)
            a.merge(b)
        assert a.get("x") == 5
        # merge is pure aggregation: only the raw increments (2 + 3)
        # reach the registry, not the merged total again.
        assert recorder.registry.value_of(
            "mapreduce.counters", name="x"
        ) == 5

    def test_render_smoke(self):
        recorder = FlightRecorder(clock=FakeClock(), meta={"cmd": "test"})
        with recorder.activate():
            with recorder.tracer.span("job", kind="job", metrics=None):
                pass
        text = recorder.report().render()
        assert "flight recorder" in text


def scan_under_recorder(fs, dataset, columns=None, lazy=False):
    """Write a CIF dataset and scan it under a fresh flight recorder."""
    recorder = FlightRecorder(clock=FakeClock())
    fmt = ColumnInputFormat(dataset, columns=columns, lazy=lazy)
    with recorder.activate():
        metrics = harness.scan(fs, fmt)
    return recorder, metrics


class TestAccountingInvariants:
    """The satellite property tests: probe counters vs sim.Metrics."""

    def make_dataset(self, fs, n=200, dataset="/obs/cif", **kw):
        schema = micro_schema()
        write_dataset(fs, dataset, schema, micro_records(schema, n), **kw)
        return schema

    def test_probe_bytes_reconcile_with_metrics(self, fs):
        self.make_dataset(fs)
        recorder, metrics = scan_under_recorder(fs, "/obs/cif")
        report = recorder.report()
        assert report.counter_total("hdfs.bytes.disk") == metrics.disk_bytes
        assert report.counter_total("hdfs.bytes.net") == metrics.net_bytes
        assert (
            report.counter_total("hdfs.bytes.requested")
            == metrics.requested_bytes
        )

    def test_requested_never_exceeds_fetched(self, fs):
        self.make_dataset(fs, split_bytes=16 * 1024)
        recorder, metrics = scan_under_recorder(fs, "/obs/cif")
        report = recorder.report()
        fetched = report.counter_total("hdfs.bytes.disk") + report.counter_total(
            "hdfs.bytes.net"
        )
        assert report.counter_total("hdfs.bytes.requested") <= fetched
        assert metrics.requested_bytes <= metrics.disk_bytes + metrics.net_bytes

    def test_full_projection_column_bytes_sum_to_split_bytes(self, fs):
        """Scanning every column reads each column file exactly once, so
        the per-column probe totals (minus the schema file) must equal
        the summed split lengths (which exclude the schema file too)."""
        self.make_dataset(fs, n=300, split_bytes=16 * 1024)
        recorder, _ = scan_under_recorder(fs, "/obs/cif")
        per_column = recorder.report().per_column_bytes()
        data_bytes = sum(
            v for c, v in per_column.items() if c != ".schema"
        )
        fmt = ColumnInputFormat("/obs/cif")
        split_bytes = sum(
            s.length for s in fmt.get_splits(fs, fs.cluster)
        )
        assert data_bytes == split_bytes

    def test_identical_jsonl_across_runs_under_fake_clock(self, fs):
        self.make_dataset(fs, n=150, split_bytes=16 * 1024)
        texts = []
        for _ in range(2):
            recorder, _ = scan_under_recorder(fs, "/obs/cif")
            texts.append(recorder.report().to_jsonl())
        assert texts[0] == texts[1]

    def test_fig7_trace_reconciles(self):
        """The acceptance criterion: a traced fig7 run's per-column byte
        counters sum to the same totals as the recorded sim.Metrics."""
        recorder = FlightRecorder(clock=FakeClock())
        with recorder.activate():
            fig7_microbenchmark.run(records=300)
        report = recorder.report()
        probed = report.counter_total("hdfs.bytes.disk") + report.counter_total(
            "hdfs.bytes.net"
        )
        recorded = report.metrics_total("disk_bytes") + report.metrics_total(
            "net_bytes"
        )
        assert probed == recorded > 0
        assert report.per_column_bytes()  # CIF columns were attributed

    def test_lazy_cells_materialized_plus_skipped(self, fs):
        schema = self.make_dataset(fs, n=120)
        recorder = FlightRecorder(clock=FakeClock())
        fmt = ColumnInputFormat("/obs/cif", lazy=True)
        with recorder.activate():
            ctx = make_ctx()
            rows = 0
            for split in fmt.get_splits(fs, fs.cluster):
                for _, record in fmt.open_reader(fs, split, ctx):
                    record.get("str0")
                    rows += 1
        reg = recorder.registry
        assert reg.value_of("lazy.records") == rows == 120
        materialized = reg.value_of("lazy.cells.materialized")
        skipped = reg.value_of("lazy.cells.skipped")
        assert materialized == rows  # one column touched per record
        # the final record's untouched cells are settled at iterator
        # exhaustion, so all but one column per row ends up skipped
        assert materialized + skipped <= rows * len(schema.field_names)
        assert skipped >= (rows - 1) * (len(schema.field_names) - 1)

    def test_codec_counters(self, fs):
        schema = micro_schema()
        write_dataset(
            fs, "/obs/cifz", schema, micro_records(schema, 150),
            specs={
                name: ColumnSpec("cblock", codec="zlib", block_bytes=2048)
                for name in schema.field_names
            },
        )
        recorder, _ = scan_under_recorder(fs, "/obs/cifz")
        reg = recorder.registry
        inflated = reg.value_of("codec.blocks", codec="zlib", op="inflate")
        assert inflated > 0
        assert reg.value_of(
            "codec.bytes_out", codec="zlib", op="inflate"
        ) > reg.value_of("codec.bytes_in", codec="zlib", op="inflate")

    def test_scheduler_placement_counters(self):
        recorder = FlightRecorder(clock=FakeClock())
        fs = harness.cluster_fs(num_nodes=4)
        schema = micro_schema()
        write_dataset(
            fs, "/obs/job", schema, micro_records(schema, 200),
            split_bytes=8 * 1024,
        )
        from repro.mapreduce.job import Job
        from repro.mapreduce.runner import run_job

        def mapper(key, record, emit, ctx):
            emit("n", 1)

        def reducer(key, values, emit, ctx):
            emit(key, sum(values))

        job = Job(
            name="count",
            input_format=ColumnInputFormat("/obs/job"),
            mapper=mapper,
            reducer=reducer,
            num_reducers=1,
        )
        with recorder.activate():
            result = run_job(fs, job)
        reg = recorder.registry
        assigned = reg.value_of("scheduler.assignments")
        assert assigned == len(result.tasks)
        assert reg.value_of(
            "scheduler.assignments", placement="local"
        ) == sum(1 for t in result.tasks if t.data_local)
        kinds = [s.kind for s in recorder.tracer.spans]
        assert "job" in kinds and "phase" in kinds and "task" in kinds
        assert reg.value_of("mr.shuffle.bytes") > 0
