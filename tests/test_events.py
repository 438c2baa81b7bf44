"""Event bus, trace-correlated emission, and the live monitor.

The bus carries structured lifecycle events (job/task/phase/fault) that
the flight recorder persists and ``repro top`` folds into progress
frames; these tests pin the ordering contract and the monitor's frame
discipline (wall-clock gated live, ``frame_every`` gated in replay,
``quiet`` = final frame only).
"""

import json

import pytest

from repro.core import ColumnInputFormat, write_dataset
from repro.faults import FaultEvent, FaultPlan
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.obs import (
    NULL_OBS,
    Event,
    EventBus,
    FlightRecorder,
    JsonlEventSink,
    NullEventBus,
)
from repro.obs.live import LiveMonitor
from tests.conftest import micro_records, micro_schema


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestEventBus:
    def test_emit_orders_and_numbers_events(self):
        clock = FakeClock()
        bus = EventBus(clock=clock)
        seen = []
        bus.subscribe(seen.append)
        bus.emit("a.start", one=1)
        clock.advance(1.0)
        bus.emit("a.finish", sim_time=2.5, two="x")
        assert [e.kind for e in seen] == ["a.start", "a.finish"]
        assert [e.seq for e in seen] == [1, 2]
        assert seen[0].wall_time == 0.0 and seen[1].wall_time == 1.0
        assert seen[1].sim_time == 2.5
        assert seen[0].attrs == {"one": 1}

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus(clock=FakeClock())
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.emit("x")
        unsubscribe()
        bus.emit("y")
        assert [e.kind for e in seen] == ["x"]
        unsubscribe()  # idempotent

    def test_kind_is_positional_only_so_attrs_may_shadow_it(self):
        bus = EventBus(clock=FakeClock())
        seen = []
        bus.subscribe(seen.append)
        bus.emit("task.finish", kind="reduce", outcome="ok")
        assert seen[0].kind == "task.finish"
        assert seen[0].attrs == {"kind": "reduce", "outcome": "ok"}

    def test_replay_preserves_recorded_seq_and_times(self):
        bus = EventBus(clock=FakeClock())
        records = [
            {"seq": 7, "kind": "job.start", "wall": 1.5,
             "attrs": {"job": "j"}},
            {"seq": 9, "kind": "job.finish", "wall": 2.5, "sim": 0.25},
        ]
        seen = []
        bus.subscribe(seen.append)
        assert bus.replay(records) == 2
        assert [e.seq for e in seen] == [7, 9]
        assert seen[1].sim_time == 0.25

    def test_null_bus_is_inert(self):
        bus = NullEventBus()
        seen = []
        bus.subscribe(seen.append)
        assert bus.emit("anything") is None
        assert bus.replay([{"kind": "x"}]) == 0
        assert seen == []

    def test_event_dict_round_trip(self):
        event = Event(3, "fault.injected", 1.25, sim_time=0.5,
                      span_id=11, attrs={"fault": "kill_node"})
        assert Event.from_dict(event.to_dict()).to_dict() == event.to_dict()

    def test_jsonl_sink_streams_flushed_lines(self, tmp_path):
        bus = EventBus(clock=FakeClock())
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(str(path)).attach(bus):
            bus.emit("a", n=1)
            # flushed per event: visible before close
            lines = path.read_text().splitlines()
            assert json.loads(lines[0])["type"] == "event"
            bus.emit("b")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["a", "b"]


class TestObservabilityEmit:
    def test_null_obs_emit_is_noop(self):
        assert NULL_OBS.emit("job.start", job="x") is None

    def test_emit_attaches_current_span_id(self):
        recorder = FlightRecorder(clock=FakeClock())
        with recorder.tracer.span("outer", kind="op") as span:
            event = recorder.emit("thing.happened", which=1)
            assert event.span_id == span.span_id
        event = recorder.emit("after.close")
        assert event.span_id is None

    def test_recorder_persists_events_into_report(self):
        recorder = FlightRecorder(clock=FakeClock())
        recorder.emit("a.start")
        recorder.emit("a.finish", sim_time=1.0)
        report = recorder.report()
        assert [e["kind"] for e in report.events] == ["a.start", "a.finish"]
        summary = report.summary()
        assert summary["events"]["count"] == 2
        assert summary["events"]["by_kind"] == {"a.start": 1, "a.finish": 1}


def run_traced_job(num_nodes=5, records=100, plan=None):
    fs = FileSystem(ClusterConfig(
        num_nodes=num_nodes, replication=3, block_size=16 * 1024,
        io_buffer_size=2048,
    ))
    fs.use_column_placement()
    schema = micro_schema()
    write_dataset(
        fs, "/ev/cif", schema, micro_records(schema, records),
        split_bytes=12 * 1024,
    )

    def mapper(key, value, emit, ctx):
        emit(value.get("int0") % 5, 1)

    def reducer(key, values, emit, ctx):
        emit(key, sum(values))

    job = Job(
        "events", mapper,
        ColumnInputFormat("/ev/cif", columns=["int0"], lazy=False),
        reducer=reducer, num_reducers=2,
    )
    recorder = FlightRecorder()
    with recorder.activate():
        result = run_job(fs, job, faults=plan)
    return recorder, result


class TestJobLifecycleEvents:
    def test_event_stream_brackets_the_run(self):
        recorder, result = run_traced_job()
        kinds = [e.kind for e in recorder.events_log]
        assert kinds[0] == "job.start"
        assert kinds[-1] == "job.finish"
        assert kinds.index("phase.start") < kinds.index("task.start")
        seqs = [e.seq for e in recorder.events_log]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_task_events_carry_placement(self):
        recorder, result = run_traced_job()
        starts = [
            e for e in recorder.events_log
            if e.kind == "task.start" and e.attrs["kind"] == "map"
        ]
        assert starts, "no map task.start events"
        for event in starts:
            assert isinstance(event.attrs["node"], int)
            assert isinstance(event.attrs["slot"], int)
            assert event.attrs["split"]
        finishes = [
            e for e in recorder.events_log
            if e.kind == "task.finish" and e.attrs.get("kind") == "map"
        ]
        ok = [e for e in finishes if e.attrs["outcome"] == "ok"]
        assert len(ok) == len(starts)  # fault-free: every attempt lands

    def test_reduce_tasks_start_and_finish_symmetrically(self):
        recorder, result = run_traced_job()
        by_kind = {}
        for event in recorder.events_log:
            if event.kind in ("task.start", "task.finish"):
                key = (event.kind, event.attrs.get("kind"))
                by_kind[key] = by_kind.get(key, 0) + 1
        assert by_kind[("task.start", "reduce")] == 2
        assert by_kind[("task.start", "reduce")] == by_kind[
            ("task.finish", "reduce")
        ]

    def test_job_finish_reports_total_time(self):
        recorder, result = run_traced_job()
        finish = recorder.events_log[-1]
        assert finish.attrs["job"] == "events"
        assert finish.sim_time == pytest.approx(result.total_time)

    def test_fault_and_node_events_under_chaos(self):
        plan = FaultPlan(
            [FaultEvent("kill_node", node=2, at_task=1)], seed=1
        )
        recorder, result = run_traced_job(plan=plan)
        kinds = [e.kind for e in recorder.events_log]
        assert "fault.injected" in kinds
        assert "node.lost" in kinds
        injected = next(
            e for e in recorder.events_log if e.kind == "fault.injected"
        )
        assert injected.attrs["fault"] == "kill_node"


def feed(monitor, events):
    for event in events:
        monitor(event)


def lifecycle_events():
    return [
        Event(1, "job.start", 0.0, attrs={"job": "demo"}),
        Event(2, "phase.start", 0.0, sim_time=0.0,
              attrs={"phase": "map", "splits": 2}),
        Event(3, "task.start", 0.0,
              attrs={"kind": "map", "node": 0, "slot": 1, "split": "s0"}),
        Event(4, "task.finish", 0.1,
              attrs={"kind": "map", "node": 0, "slot": 1, "outcome": "ok"}),
        Event(5, "task.start", 0.1,
              attrs={"kind": "map", "node": 1, "slot": 0, "split": "s1"}),
        Event(6, "task.finish", 0.2,
              attrs={"kind": "map", "node": 1, "slot": 0, "outcome": "ok"}),
        Event(7, "phase.finish", 0.2, sim_time=0.5, attrs={"phase": "map"}),
        Event(8, "job.finish", 0.3, sim_time=0.5,
              attrs={"job": "demo", "total_time": 0.5}),
    ]


class TestLiveMonitor:
    def test_folds_progress_counts(self):
        monitor = LiveMonitor(lambda s: None, quiet=True)
        feed(monitor, lifecycle_events())
        assert monitor.job == "demo"
        assert monitor.map_done == 2 and monitor.map_total == 2
        assert monitor.finished and monitor.total_time == 0.5
        assert not monitor.running

    def test_refresh_gates_frames_by_wall_clock(self):
        clock = FakeClock()
        frames = []
        monitor = LiveMonitor(frames.append, refresh=1.0, clock=clock)
        events = lifecycle_events()
        monitor(events[0])           # first event always frames
        monitor(events[1])           # same instant: suppressed
        clock.advance(1.5)
        monitor(events[2])           # past refresh: frames again
        assert monitor.frames == 2
        monitor.final()
        assert monitor.frames == 3

    def test_quiet_emits_only_final_frame(self):
        out = []
        monitor = LiveMonitor(out.append, quiet=True)
        feed(monitor, lifecycle_events())
        assert out == []
        monitor.final()
        assert len(out) == 2  # frame + event totals line
        assert "FINISHED" in out[0]
        assert "event totals:" in out[1]

    def test_replay_frames_every_n_events(self):
        frames = []
        monitor = LiveMonitor(frames.append, frame_every=4)
        bus = EventBus(clock=FakeClock())
        monitor.attach(bus)
        bus.replay([e.to_dict() for e in lifecycle_events()])
        assert monitor.frames == 2  # 8 events / 4
        assert monitor.events_seen == 8

    def test_frame_shows_busy_slots_faults_and_dead_nodes(self):
        monitor = LiveMonitor(lambda s: None)
        feed(monitor, [
            Event(1, "job.start", 0.0, attrs={"job": "j"}),
            Event(2, "task.start", 0.0,
                  attrs={"kind": "map", "node": 3, "slot": 0,
                         "split": "s7"}),
            Event(3, "fault.injected", 0.0,
                  attrs={"fault": "slow_node", "node": 4, "factor": 3.0}),
            Event(4, "node.lost", 0.0, attrs={"node": 5}),
            Event(5, "replica.failover", 0.0, attrs={"block": 1}),
            Event(6, "task.speculative", 0.0, attrs={"split": "s7"}),
        ])
        frame = monitor.render_frame()
        assert "node   3" in frame and "s7" in frame
        assert "slow_node" in frame
        assert "dead: 5" in frame
        assert "replica failovers=1" in frame
        assert "speculative launches=1" in frame

    def test_tty_frames_repaint_in_place(self):
        out = []
        monitor = LiveMonitor(out.append, tty=True, frame_every=1)
        monitor(lifecycle_events()[0])
        monitor(lifecycle_events()[0])
        assert all(chunk.startswith("\x1b[H\x1b[2J") for chunk in out)
        assert "-" * 64 not in "".join(out)

    def test_live_end_to_end_with_recorder_bus(self):
        frames = []
        monitor = LiveMonitor(frames.append, frame_every=1)
        fs = FileSystem(ClusterConfig(
            num_nodes=4, replication=2, block_size=16 * 1024,
            io_buffer_size=2048,
        ))
        schema = micro_schema()
        write_dataset(fs, "/lm/cif", schema, micro_records(schema, 60),
                      split_bytes=12 * 1024)

        def mapper(key, value, emit, ctx):
            emit(0, value.get("int0"))

        recorder = FlightRecorder()
        monitor.attach(recorder.bus)
        with recorder.activate():
            run_job(fs, Job(
                "live", mapper,
                ColumnInputFormat("/lm/cif", columns=["int0"], lazy=False),
            ))
        assert monitor.frames == len(recorder.events_log)
        assert monitor.finished
        assert any("FINISHED" in frame for frame in frames)


class TestClusterMonitor:
    """The multi-job frame: tenant table, preemptions, utilization."""

    def fold(self, *events):
        bus = EventBus(clock=FakeClock())
        monitor = LiveMonitor(lambda s: None, quiet=True).attach(bus)
        for kind, attrs in events:
            bus.emit(kind, **attrs)
        return monitor

    def test_cluster_frame_shows_policy_tenants_and_preemptions(self):
        monitor = self.fold(
            ("cluster.start", dict(sim_time=0.0, policy="fair", jobs=2)),
            ("job.submitted", dict(
                sim_time=0.0, job="a", tenant="etl", queue="batch",
            )),
            ("admission.accept", dict(
                sim_time=0.0, job="a", tenant="etl", queue="batch",
                splits=3,
            )),
            ("job.submitted", dict(
                sim_time=0.01, job="b", tenant="etl", queue="batch",
            )),
            ("admission.reject", dict(
                sim_time=0.01, job="b", tenant="etl", queue="batch",
            )),
            ("task.preempted", dict(
                sim_time=0.1, tenant="etl", queue="batch",
            )),
            ("job.finish", dict(
                sim_time=0.2, job="a", tenant="etl", queue="batch",
                outcome="completed",
            )),
            ("cluster.finish", dict(
                sim_time=0.3, makespan=0.3, utilization=0.5,
            )),
        )
        frame = monitor.render_frame()
        assert "cluster policy=fair" in frame
        assert "jobs 1/2" in frame
        assert "rejected=1" in frame
        assert "preempted=1" in frame
        assert "utilization=50.0%" in frame
        assert "etl" in frame and "batch" in frame
        assert monitor.map_total == 3

    def test_single_job_frames_are_unchanged_by_cluster_support(self):
        monitor = self.fold(
            ("job.start", dict(sim_time=0.0, job="solo")),
            ("phase.start", dict(sim_time=0.0, phase="map", splits=4)),
            ("job.finish", dict(sim_time=1.0, total_time=1.0)),
        )
        frame = monitor.render_frame()
        assert "job: solo" in frame
        assert "cluster" not in frame
        assert monitor.finished and monitor.total_time == 1.0

    def test_preempted_task_finish_is_not_a_map_failure(self):
        monitor = self.fold(
            ("cluster.start", dict(sim_time=0.0, policy="fair", jobs=1)),
            ("task.finish", dict(
                sim_time=0.1, kind="map", outcome="preempted",
                node=0, slot=0, tenant="etl",
            )),
        )
        assert monitor.map_failed == 0
        assert monitor.map_done == 0

    def test_a_speculative_loser_is_not_a_map_failure(self):
        monitor = self.fold(*(
            ("task.finish", dict(
                sim_time=0.1, kind="map", outcome=outcome,
                node=0, slot=0, tenant="etl",
            ))
            for outcome in ("killed", "lost", "failed")
        ))
        # the race's loser was killed, not failed; a node death is
        # still a failed attempt
        assert monitor.map_failed == 2


@pytest.fixture(
    scope="module",
    params=[("fair", False), ("fair", True), ("fifo", False), ("fifo", True)],
    ids=["fair", "fair-speculate", "fifo", "fifo-speculate"],
)
def monitored_load(request):
    """The sample load with a ``LiveMonitor`` on the recorder's bus:
    ``(policy, speculate, monitor, report, recorded events)``."""
    from dataclasses import replace

    from repro.cluster import run_traffic, sample_profile

    policy, speculate = request.param
    profile = sample_profile()
    profile.speculation = replace(profile.speculation, enabled=speculate)
    recorder = FlightRecorder(clock=FakeClock())
    monitor = LiveMonitor(lambda s: None, quiet=True).attach(recorder.bus)
    report = run_traffic(profile, policy=policy, obs=recorder)
    events = [event.to_dict() for event in recorder.events_log]
    return policy, speculate, monitor, report, events


class TestMonitorReconcilesWithTheReport:
    """The monitor's tenant table is the tsdb fold, so it shows exactly
    the tallies ``reconcile_tsdb`` proves equal to the report."""

    def test_tenant_rows_equal_the_report_summaries(self, monitored_load):
        from repro.obs.tsdb import TENANT_TALLIES, reconcile_tsdb

        _, _, monitor, report, _ = monitored_load
        rows = monitor.tenant_rows()
        summaries = report.tenant_summaries()
        assert sorted(rows) == sorted(summaries)
        for tenant, summary in summaries.items():
            for field, series in TENANT_TALLIES:
                assert rows[tenant][series] == getattr(summary, field)
        assert reconcile_tsdb(monitor.store, report) == []

    def test_replay_shows_no_failure_on_a_fault_free_load(
        self, monitored_load
    ):
        _, speculate, monitor, report, events = monitored_load
        killed = sum(
            1 for event in events
            if event["kind"] == "task.finish"
            and event["attrs"].get("outcome") == "killed"
        )
        assert (killed > 0) == speculate
        replayed = LiveMonitor(lambda s: None, quiet=True)
        bus = EventBus()
        replayed.attach(bus)
        bus.replay(events)
        assert not report.failed
        assert replayed.map_failed == 0
        assert "failed=" not in replayed.render_frame()
        assert replayed.render_frame() == monitor.render_frame()


class TestBufferedSink:
    """``flush_every`` trades durability for fewer flush syscalls."""

    def test_buffered_sink_defers_flush_until_threshold(self, tmp_path):
        bus = EventBus(clock=FakeClock())
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(str(path), flush_every=3).attach(bus):
            bus.emit("a")
            bus.emit("b")
            # two events buffered: nothing durable yet
            assert path.read_text() == ""
            bus.emit("c")
            # third event crosses the threshold: all three flush
            assert len(path.read_text().splitlines()) == 3
            bus.emit("d")
            assert len(path.read_text().splitlines()) == 3

    def test_close_flushes_the_tail(self, tmp_path):
        bus = EventBus(clock=FakeClock())
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(str(path), flush_every=100).attach(bus):
            bus.emit("a")
            bus.emit("b")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["a", "b"]

    def test_flush_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlEventSink(str(tmp_path / "x.jsonl"), flush_every=0)


class TestClusterMonitorSloPanel:
    """Shed/deadline columns and the SLO/alert panel in ``repro top``."""

    def fold(self, *events):
        bus = EventBus(clock=FakeClock())
        monitor = LiveMonitor(lambda s: None, quiet=True).attach(bus)
        for kind, attrs in events:
            bus.emit(kind, **attrs)
        return monitor

    def _base_events(self):
        return [
            ("cluster.start", dict(sim_time=0.0, policy="fair", jobs=3)),
            ("job.submitted", dict(
                sim_time=0.0, job="a", tenant="etl", queue="batch",
            )),
            ("admission.accept", dict(
                sim_time=0.0, job="a", tenant="etl", queue="batch",
                splits=1,
            )),
            ("job.submitted", dict(
                sim_time=0.01, job="b", tenant="etl", queue="batch",
            )),
            ("admission.shed", dict(
                sim_time=0.01, job="b", tenant="etl", queue="batch",
            )),
            ("job.finish", dict(
                sim_time=0.5, job="a", tenant="etl", queue="batch",
                outcome="completed", latency=0.5, deadline=0.2,
                deadline_miss=True,
            )),
        ]

    def test_frame_shows_shed_and_deadline_misses(self):
        monitor = self.fold(*self._base_events())
        frame = monitor.render_frame()
        assert "shed=1" in frame
        assert "misses=1" in frame
        # tenant table carries per-tenant columns
        assert "shed" in frame and "miss" in frame

    def test_frame_shows_slo_and_alert_state(self):
        events = self._base_events() + [
            ("slo.status", dict(
                sim_time=0.5, slo="etl-latency", tenant="etl",
                healthy=False, compliance=0.0, burn_rate=20.0,
                budget_remaining=0.0,
            )),
            ("alert.firing", dict(
                sim_time=0.5, alert="etl-latency-fast-burn",
                kind="burn_rate", value=20.0, threshold=8.0,
            )),
            ("alert.pending", dict(
                sim_time=0.5, alert="etl-latency-slow-burn",
                kind="burn_rate", value=5.0, threshold=2.0,
            )),
        ]
        monitor = self.fold(*events)
        frame = monitor.render_frame()
        assert "etl-latency" in frame
        assert "BREACH" in frame
        assert "etl-latency-fast-burn" in frame
        assert "etl-latency-slow-burn" in frame

    def test_resolved_alert_leaves_the_panel(self):
        events = self._base_events() + [
            ("alert.firing", dict(
                sim_time=0.4, alert="rejects", kind="static",
                value=3.0, threshold=1.0,
            )),
            ("alert.resolved", dict(
                sim_time=0.6, alert="rejects", kind="static",
                value=0.0, threshold=1.0,
            )),
        ]
        monitor = self.fold(*events)
        assert "rejects" not in monitor.render_frame()
