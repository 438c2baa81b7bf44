"""Operator-level profiling: EXPLAIN ANALYZE for both engines.

The profiler annotates every scan as an operator chain — scan →
decode → filter → materialize → aggregate — and must satisfy the same
differential contract as the engines' outputs and simulated metrics:
per operator, rows in/out (hence selectivity) and decoded cells agree
*exactly* between the scalar and vectorized engines, across every CIF
layout, eager and lazy, and under a survivable seeded fault plan.

Also covered here: the vecdecode scalar-fallback counters (zero for a
pure-primitive scan whose column files fit one I/O window), profile
publication through the flight recorder (spans, counters, events,
tsdb folding, Chrome lanes), regression attribution via
``diff_operators``, and the sharper ``reconcile_metrics`` messages.
"""

import pytest

from repro.bench import harness
from repro.bench.fig10_selectivity import _dataset, aggregate_metrics
from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.core.vector import reconcile_metrics
from repro.faults import FaultInjector, FaultPlan
from repro.obs import (
    FlightRecorder,
    OperatorProfiler,
    OPS,
    diff_operators,
    fallback_totals,
    kernel_call_totals,
    operator_profiles,
    reconcile_profiles,
    render_operator_diff,
    render_operators,
)
from repro.sim.calibration import to_ticks
from repro.sim.metrics import Metrics
from repro.workloads.micro import micro_records, micro_schema
from tests.test_query_charges_golden import (
    LAYOUTS as GOLDEN_LAYOUTS,
    _filesystem as golden_filesystem,
    _queries as golden_queries,
)


@pytest.fixture(scope="module")
def cif_scan_fs():
    """The four ``cif_scan`` layouts of the golden-charges dataset."""
    return golden_filesystem()


class FakeClock:
    def __init__(self, step: float = 0.001):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


LAYOUTS = [
    ("plain", ColumnSpec("plain")),
    ("skiplist", ColumnSpec("skiplist")),
    ("cblock-lzo", ColumnSpec("cblock", codec="lzo")),
    ("cblock-zlib", ColumnSpec("cblock", codec="zlib")),
]


def _fig10_fs(records=400, selectivity=0.2, spec=None, num_nodes=0):
    fs = (
        harness.cluster_fs(num_nodes=num_nodes)
        if num_nodes
        else harness.single_node_fs()
    )
    write_dataset(
        fs, "/prof", micro_schema(), _dataset(records, selectivity),
        default_spec=spec or ColumnSpec("plain"),
        split_bytes=harness.MICRO_SPLIT_BYTES,
    )
    return fs


def _profile_pair(fs, lazy):
    """Run the Fig-10 query under both engines; return the profilers."""
    scalar = OperatorProfiler("scalar")
    vec = OperatorProfiler("vectorized")
    ms, total_s, matches_s = aggregate_metrics(
        fs, "/prof", lazy, "scalar", profiler=scalar
    )
    mv, total_v, matches_v = aggregate_metrics(
        fs, "/prof", lazy, "vectorized", profiler=vec
    )
    assert (total_s, matches_s) == (total_v, matches_v)
    assert reconcile_metrics(ms, mv) == []
    return scalar, vec


class TestDifferentialProfiles:
    """Satellite: engines' operator profiles reconcile exactly."""

    @pytest.mark.parametrize("layout", [name for name, _ in LAYOUTS])
    @pytest.mark.parametrize("lazy", (False, True))
    def test_profiles_reconcile_across_layouts(self, layout, lazy):
        spec = dict(LAYOUTS)[layout]
        fs = _fig10_fs(spec=spec)
        scalar, vec = _profile_pair(fs, lazy)
        assert reconcile_profiles(scalar, vec) == []
        # The chain actually saw the data: filter processed every row,
        # the aggregate only the survivors.
        n = scalar.stats["filter"].rows_in
        assert n == 400
        survivors = scalar.stats["filter"].rows_out
        assert 0 < survivors < n
        assert scalar.stats["aggregate"].rows_in == survivors
        assert vec.stats["filter"].rows_out == survivors
        # Selectivity is derived, so it reconciles too.
        assert scalar.stats["filter"].selectivity == pytest.approx(
            vec.stats["filter"].selectivity
        )

    def test_lazy_skips_cells_eager_decodes_them(self):
        fs = _fig10_fs(spec=ColumnSpec("skiplist"))
        scalar_lazy, vec_lazy = _profile_pair(fs, True)
        # Lazy: only survivors' map cells settle; the rest are skipped.
        mat = scalar_lazy.stats["materialize"]
        assert mat.cells_decoded == mat.rows_in
        skipped = sum(s.cells_skipped for s in scalar_lazy.stats.values())
        assert skipped > 0
        assert scalar_lazy.stats["decode"].cells_decoded == 0
        # Eager: everything settles up front in the decode stage.
        fs2 = _fig10_fs()
        scalar_eager, _ = _profile_pair(fs2, False)
        assert scalar_eager.stats["decode"].cells_decoded == 800
        assert scalar_eager.stats["materialize"].cells_decoded == 0

    def test_profiles_reconcile_under_seeded_fault_plan(self):
        plan = FaultPlan.random(23, num_nodes=4)
        profilers = {}
        for execution in ("scalar", "vectorized"):
            fs = _fig10_fs(spec=ColumnSpec("skiplist"), num_nodes=4)
            fired = FaultInjector(fs, plan).fire_all()
            assert fired >= 0
            profiler = OperatorProfiler(execution)
            aggregate_metrics(fs, "/prof", True, execution,
                              profiler=profiler)
            profilers[execution] = profiler
        assert reconcile_profiles(
            profilers["scalar"], profilers["vectorized"]
        ) == []

    def test_batch_shape_recorded_for_vectorized_only(self):
        fs = _fig10_fs()
        scalar, vec = _profile_pair(fs, True)
        assert vec.stats["scan"].batches > 0
        assert vec.stats["scan"].mean_batch_rows > 0
        assert scalar.stats["scan"].batches == 0

    def test_reconcile_names_the_field_and_operator(self):
        a = OperatorProfiler("scalar")
        b = OperatorProfiler("vectorized")
        a.add_rows("filter", 10, 3)
        b.add_rows("filter", 10, 4)
        (mismatch,) = reconcile_profiles(a, b)
        assert "filter.rows_out" in mismatch
        assert "3" in mismatch and "4" in mismatch


class TestFallbackCounters:
    """Satellite: vecdecode fallback delegations are counted, labeled,
    and zero for the pure-primitive windowed scan."""

    def test_pure_primitive_scan_has_zero_fallbacks(self):
        # 120 micro records: every int column file fits inside one
        # 12 KB I/O buffer window, so the batch kernels never delegate
        # a value back to the scalar decode path.
        fs = harness.single_node_fs()
        write_dataset(
            fs, "/prim", micro_schema(), list(micro_records(120)),
            split_bytes=harness.MICRO_SPLIT_BYTES,
        )
        ctx = harness.make_context(fs)
        profiler = OperatorProfiler("vectorized", ctx.metrics)
        ctx.profiler = profiler.install()
        fmt = ColumnInputFormat(
            "/prim", columns=["int0", "int1"], lazy=False,
            execution="vectorized",
        )
        try:
            for split in fmt.get_splits(fs, fs.cluster):
                reader = fmt.open_reader(fs, split, ctx)
                while reader.read_batch() is not None:
                    pass
        finally:
            profiler.finish()
        assert sum(
            s.kernel_calls for s in profiler.stats.values()
        ) > 0, "batch kernels must have run"
        assert profiler.fallback_counts == {}
        assert sum(s.fallback_calls for s in profiler.stats.values()) == 0

    def test_fallbacks_are_labeled_by_reader_type(self):
        # A string scan spanning several windows forces the chunked
        # kernel to delegate at window edges.
        fs = harness.single_node_fs()
        write_dataset(
            fs, "/strs", micro_schema(), list(micro_records(900)),
            split_bytes=harness.MICRO_SPLIT_BYTES,
        )
        ctx = harness.make_context(fs)
        profiler = OperatorProfiler("vectorized", ctx.metrics)
        ctx.profiler = profiler.install()
        fmt = ColumnInputFormat(
            "/strs", columns=["str0", "attrs"], lazy=False,
            execution="vectorized",
        )
        try:
            for split in fmt.get_splits(fs, fs.cluster):
                reader = fmt.open_reader(fs, split, ctx)
                while reader.read_batch() is not None:
                    pass
        finally:
            profiler.finish()
        assert profiler.fallback_counts, "window edges must delegate"
        for (kernel, owner), calls in profiler.fallback_counts.items():
            assert calls > 0
            assert kernel in {"read_chunks", "read_maps"}
            assert owner.endswith("ColumnReader")


class TestPublication:
    """Profiles flow through the recorder: spans, counters, events."""

    def _recorded_run(self, lazy=True, execution="vectorized"):
        recorder = FlightRecorder(clock=FakeClock())
        with recorder.activate():
            fs = _fig10_fs()
            ctx = harness.make_context(fs)
            profiler = OperatorProfiler(
                execution, ctx.metrics, meta={"job": "fig10"},
                clock=recorder.tracer._clock,
            )
            aggregate_metrics(fs, "/prof", lazy, execution,
                              profiler=profiler)
        return recorder.report()

    def test_operator_spans_counters_and_event_recorded(self):
        report = self._recorded_run()
        spans = [s for s in report.spans if s.get("kind") == "operator"]
        assert {s["name"] for s in spans} == {f"op:{op}" for op in OPS}
        for span in spans:
            attrs = span["attrs"]
            assert attrs["engine"] == "vectorized"
            assert attrs["job"] == "fig10"
            assert "selectivity" in attrs and "wall_time" in attrs
        assert report.counter_total("op.rows.in", op="filter") == 400
        assert report.counter_total(
            "vecdecode.kernel.calls", engine="vectorized"
        ) > 0
        events = [
            e for e in report.events if e.get("kind") == "operator.profile"
        ]
        assert len(events) == 1
        assert events[0]["attrs"]["ops"]["filter"]["rows_in"] == 400

    def test_operator_profiles_and_render_roundtrip(self):
        report = self._recorded_run()
        profiles = operator_profiles(report)
        assert set(profiles) == {"vectorized"}
        ops = profiles["vectorized"]
        assert ops["filter"]["rows_in"] == 400
        assert ops["filter"]["selectivity"] == (
            ops["filter"]["rows_out"] / 400
        )
        assert kernel_call_totals(report)
        text = render_operators(report)
        assert "engine=vectorized" in text
        for op in OPS:
            assert op in text

    def test_fallback_counter_labeled_by_reader(self):
        report = self._recorded_run(lazy=False)
        totals = fallback_totals(report)
        # The Fig-10 scan decodes strings + maps across window edges.
        assert all("/" in key for key in totals)

    def test_operator_spans_do_not_perturb_timing_model(self):
        from repro.obs.analysis import critical_path

        report = self._recorded_run()
        path = critical_path(report)
        assert not any(
            step.get("kind") == "operator" for step in getattr(
                path, "steps", []
            ) if isinstance(step, dict)
        )

    def test_tsdb_folds_operator_profile_events(self):
        from repro.obs.events import Event
        from repro.obs.tsdb import TimeSeriesStore

        store = TimeSeriesStore(step=0.05)
        event = Event(
            seq=1, kind="operator.profile", wall_time=0.0, sim_time=0.1,
            attrs={
                "engine": "vectorized",
                "ops": {
                    "filter": {
                        "rows_in": 10, "rows_out": 4,
                        "cells_decoded": 10, "cells_skipped": 0,
                        "sim_time": 0.02,
                    },
                },
            },
        )
        store.fold_event(event)
        rows = store.get(
            "cluster.operator.rows", engine="vectorized", op="filter"
        )
        assert rows is not None
        assert sum(rows.fine.values()) == 4.0
        cells = store.get(
            "cluster.operator.cells", engine="vectorized", op="filter"
        )
        assert sum(cells.fine.values()) == 10.0

    def test_chrome_trace_gets_operator_lanes(self):
        from repro.obs.export import chrome_trace

        trace = chrome_trace(self._recorded_run())
        ops = [
            e for e in trace["traceEvents"]
            if e.get("cat") == "operator" and e.get("ph") == "X"
        ]
        assert {e["name"] for e in ops} == {f"op:{op}" for op in OPS}
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert "operators:vectorized" in lanes


class TestRunnerIntegration:
    """The cluster run path profiles map scans automatically."""

    def test_run_job_records_profiles_for_both_engines(self):
        from repro.query import Q, col, sum_

        reports = {}
        for execution in ("scalar", "vectorized"):
            recorder = FlightRecorder(clock=FakeClock())
            with recorder.activate():
                fs = _fig10_fs()
                result = (
                    Q("/prof")
                    .where(col("str0").contains("=HIT="))
                    .aggregate(total=sum_(col("int0")))
                    .run(fs, execution=execution)
                )
                assert result.rows
            reports[execution] = recorder.report()
        profiles = {
            execution: operator_profiles(report)
            for execution, report in reports.items()
        }
        assert set(profiles["scalar"]) == {"scalar"}
        assert set(profiles["vectorized"]) == {"vectorized"}
        scalar_ops = profiles["scalar"]["scalar"]
        vec_ops = profiles["vectorized"]["vectorized"]
        for op in ("filter", "materialize"):
            for field in ("rows_in", "rows_out", "cells_decoded"):
                assert scalar_ops[op][field] == vec_ops[op][field], (
                    f"{op}.{field}"
                )

    @pytest.mark.parametrize("kind", ["filter_aggregate", "wide"])
    @pytest.mark.parametrize("execution", ["scalar", "vectorized"])
    @pytest.mark.parametrize("layout", sorted(GOLDEN_LAYOUTS))
    def test_operator_ticks_partition_the_task_exactly(
        self, cif_scan_fs, layout, execution, kind, monkeypatch
    ):
        """Per-operator simulated time is a partition of the task's, in
        ticks: the operators' sum is the task's to the tick."""
        from repro.mapreduce import runner

        profiled = []

        class Recording(OperatorProfiler):
            def __init__(self, engine, metrics=None, **kwargs):
                super().__init__(engine, metrics, **kwargs)
                profiled.append((self, metrics))

        monkeypatch.setattr(runner, "OperatorProfiler", Recording)
        query = golden_queries(f"/golden/{layout}")[kind]
        with FlightRecorder(clock=FakeClock()).activate():
            result = query.run(cif_scan_fs, execution=execution)
        assert {p.engine for p, _ in profiled} == {execution}
        for profiler, metrics in profiled:
            ticks = [s.sim_ticks for s in profiler.stats.values()]
            assert sum(ticks) == metrics.task_ticks > 0
        assert sum(m.task_ticks for _, m in profiled) == (
            result.job.map_metrics.task_ticks
        )

    def test_faulted_run_restores_vecdecode_sink(self):
        from repro.serde import vecdecode

        plan = FaultPlan.random(7, num_nodes=4)
        recorder = FlightRecorder(clock=FakeClock())
        with recorder.activate():
            from repro.query import Q, col, sum_

            fs = _fig10_fs(num_nodes=4)
            (
                Q("/prof")
                .where(col("str0").contains("=HIT="))
                .aggregate(total=sum_(col("int0")))
                .run(fs, execution="vectorized")
            )
        assert vecdecode.profile_sink() is None


class TestDiffAttribution:
    """``repro perf diff --operators`` blames the right operator."""

    def _report_with(self, aggregate_cpu, kernel_calls=3, **more_kernels):
        recorder = FlightRecorder(clock=FakeClock())
        with recorder.activate():
            from repro.obs import current_obs

            metrics = Metrics()
            profiler = OperatorProfiler(
                "vectorized", metrics, clock=recorder.tracer._clock
            )
            profiler.switch("filter")
            metrics.charge_cpu(to_ticks(0.010))
            profiler.switch("aggregate")
            for _ in range(kernel_calls):
                profiler.kernel("read_zigzags")
            for name, calls in more_kernels.items():
                for _ in range(calls):
                    profiler.kernel(name)
            metrics.charge_cpu(to_ticks(aggregate_cpu))
            profiler.switch("scan")
            profiler.finish(current_obs())
        return recorder.report()

    def test_injected_slowdown_attributed_to_operator_and_kernel(self):
        base = self._report_with(0.002, kernel_calls=3)
        slow = self._report_with(0.050, kernel_calls=9)
        diff, attribution = diff_operators(base, slow)
        blame = attribution["vectorized"]
        assert blame["op"] == "aggregate"
        assert blame["sim_delta"] == pytest.approx(0.048)
        assert blame["kernel"] == "read_zigzags"
        assert blame["kernel_delta"] == 6
        text = render_operator_diff(diff, attribution)
        assert "aggregate" in text and "read_zigzags" in text

    def test_blame_goes_to_the_kernel_that_grew(self):
        # read_zigzags has the largest change, but it shrank
        base = self._report_with(0.002, kernel_calls=20, read_strings=3)
        slow = self._report_with(0.050, kernel_calls=2, read_strings=6)
        diff, attribution = diff_operators(base, slow)
        blame = attribution["vectorized"]
        assert blame["op"] == "aggregate"
        assert (blame["kernel"], blame["kernel_delta"]) == ("read_strings", 3)
        text = render_operator_diff(diff, attribution)
        assert "kernel read_strings calls +3" in text

    def test_no_kernel_is_blamed_when_none_grew(self):
        base = self._report_with(0.002, kernel_calls=20)
        slow = self._report_with(0.050, kernel_calls=2)
        diff, attribution = diff_operators(base, slow)
        blame = attribution["vectorized"]
        assert blame["op"] == "aggregate" and blame["kernel"] is None
        blamed = render_operator_diff(diff, attribution).splitlines()[-1]
        assert "read_zigzags" not in blamed

    def test_time_growth_is_measured_against_the_baseline(self):
        # +1.005 % of the baseline's aggregate time is beyond the 1 %
        # band, though it is within 1 % of the fresh time
        base = self._report_with(0.100)
        slow = self._report_with(0.101005)
        diff, attribution = diff_operators(base, slow)
        assert [e.key for e in diff.entries] == [
            "vectorized/aggregate.sim_time"
        ]
        assert attribution["vectorized"]["op"] == "aggregate"
        assert attribution["vectorized"]["sim_delta"] == pytest.approx(
            0.001005
        )

    def test_identical_runs_produce_no_attribution(self):
        base = self._report_with(0.002)
        again = self._report_with(0.002)
        diff, attribution = diff_operators(base, again)
        assert attribution == {}
        text = render_operator_diff(diff, attribution)
        assert "no per-operator deltas" in text


class TestReconcileMessages:
    """reconcile_metrics names the field and both values."""

    def test_int_mismatch_names_field_and_tolerance(self):
        a, b = Metrics(), Metrics()
        a.cells = 10
        b.cells = 12
        (message,) = reconcile_metrics(a, b)
        assert message.startswith("cells:")
        assert "scalar=10" in message and "vectorized=12" in message
        assert "exact match required" in message

    def test_one_tick_apart_is_a_mismatch(self):
        # simulated time is whole ticks: no tolerance to hide a bug in
        a, b = Metrics(), Metrics()
        a.io_ticks = 10**12
        b.io_ticks = 10**12 + 1
        b.extra["spill"] = 3
        assert reconcile_metrics(a, b) == [
            "io_ticks: scalar=1000000000000 vectorized=1000000000001 "
            "(exact match required)",
            "extra[spill]: scalar=0 vectorized=3 (exact match required)",
        ]
