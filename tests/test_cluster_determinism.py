"""Cluster runs are byte-reproducible: same seed, same everything.

The promise that makes committed baselines and CI gating sound: a
seeded traffic profile run twice produces the *identical* event stream
and latency report — including under a seeded fault plan that kills a
node mid-load.  Wall-clock nondeterminism is excluded the same way the
event tests do it: recorders get a fake monotonic clock.
"""

import json

import pytest

from repro.cluster import (
    ClusterWAL, TrafficProfile, run_traffic, sample_profile,
)
from repro.cluster.wal import record_for
from repro.faults import FaultEvent, FaultPlan
from repro.obs import (
    EventBus, FlightRecorder, MetricRegistry, NULL_TRACER, Observability,
)


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def profile() -> TrafficProfile:
    prof = sample_profile()
    prof.duration = 0.4
    return prof


def capture(policy: str, faults=None):
    """One recorded run: (events-as-json, report-as-json)."""
    recorder = FlightRecorder(clock=FakeClock())
    with recorder.activate():
        report = run_traffic(profile(), policy=policy, faults=faults)
    events = [
        {k: v for k, v in record.items() if k != "wall"}
        for record in recorder.report().events
    ]
    return (
        json.dumps(events, sort_keys=True),
        json.dumps(report.to_dict(), sort_keys=True),
    )


def kill_plan() -> FaultPlan:
    return FaultPlan(
        [FaultEvent(kind="kill_node", node=1, at_time=0.1)], seed=11,
    )


class TestDeterminism:
    def test_fair_run_is_byte_identical(self):
        first_events, first_report = capture("fair")
        second_events, second_report = capture("fair")
        assert first_events == second_events
        assert first_report == second_report

    def test_fifo_run_is_byte_identical(self):
        first_events, first_report = capture("fifo")
        second_events, second_report = capture("fifo")
        assert first_events == second_events
        assert first_report == second_report

    def test_fault_injected_run_is_byte_identical(self):
        first_events, first_report = capture("fair", faults=kill_plan())
        second_events, second_report = capture("fair", faults=kill_plan())
        assert first_events == second_events
        assert first_report == second_report

    def test_fault_run_actually_loses_the_node(self):
        events, report_json = capture("fair", faults=kill_plan())
        kinds = [event["kind"] for event in json.loads(events)]
        assert "node.lost" in kinds
        report = json.loads(report_json)
        # The load still completes: dead-node work re-queues through
        # the retry machinery instead of failing jobs.
        assert all(
            job["status"] in ("completed", "rejected")
            for job in report["jobs"]
        )

    def test_policies_share_the_same_arrival_trace(self):
        # The traffic generator is independent of scheduling policy:
        # both runs submit the identical job sequence.
        fair_events, _ = capture("fair")
        fifo_events, _ = capture("fifo")

        def submissions(payload):
            return [
                (e["attrs"]["job"], e["sim"], e["attrs"]["tenant"])
                for e in json.loads(payload)
                if e["kind"] == "job.submitted"
            ]

        assert submissions(fair_events) == submissions(fifo_events)


class TestJournalIsAProjectionOfTheEvents:
    """``cluster/wal.py`` owns the record shapes: what the journal holds
    is its table applied to the facts the scheduler put on the bus."""

    @pytest.mark.parametrize("policy,faults", [
        ("fair", None),
        ("fifo", None),
        ("fair", FaultPlan.random(11, sample_profile().nodes)),
    ], ids=["fair", "fifo", "chaos-11"])
    def test_every_record_is_the_tables_view_of_an_event(
        self, policy, faults
    ):
        bus, events = EventBus(), []
        bus.subscribe(events.append)
        obs = Observability(
            NULL_TRACER, MetricRegistry(), enabled=True, bus=bus
        )
        wal = ClusterWAL()
        run_traffic(profile(), policy=policy, obs=obs, faults=faults, wal=wal)

        def fields(record):
            return record["type"], {
                k: v for k, v in record.items() if k not in ("seq", "type")
            }

        assert wal.records[0]["type"] == "meta"
        journal = [fields(r) for r in wal.records[1:]]
        # reduce tasks are the runner's, not scheduling decisions: the
        # scheduler never states them, so the journal never sees them
        projected = [
            record_for(e.kind, e.sim_time, e.attrs) for e in events
            if e.attrs.get("kind") != "reduce"
        ]
        assert [r for r in journal if r[0] != "requeue"] == [
            r for r in projected if r is not None
        ]
        assert {r[0] for r in journal} >= {
            "admit", "launch", "complete", "job_complete", "cluster_finish",
        }
        # a re-queue is journaled every time, announced only when it
        # backs off: each announcement has its record
        requeues = [r[1] for r in journal if r[0] == "requeue"]
        backoffs = [e for e in events if e.kind == "retry.backoff"]
        for event in backoffs:
            assert {
                "t": event.sim_time, "job": event.attrs["job"],
                "split": event.attrs["split"],
                "ready": event.attrs["ready"],
                "attempt": event.attrs["attempt"],
            } in requeues
        if faults is not None:
            assert backoffs and len(requeues) >= len(backoffs)
