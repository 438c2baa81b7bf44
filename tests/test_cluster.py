"""The multi-tenant cluster manager: policy, admission, preemption.

Unit tests drive :class:`~repro.cluster.ClusterManager` with tiny
hand-built jobs whose task durations are charged directly against the
cost model, so every scheduling decision is inspectable.  The final
class re-runs the paper-shaped acceptance experiment at reduced scale:
fair share + preemption must cut interactive p95 latency to at most
half of the FIFO baseline on the *same* seeded traffic trace.
"""

from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterManager,
    ClusterPolicy,
    JobRequest,
    QueueConfig,
    TenantConfig,
    percentile,
)
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.mapreduce.output import CollectOutputFormat
from repro.mapreduce.types import InputFormat, InputSplit, ListRecordReader
from repro.sim.calibration import to_ticks


def small_fs(nodes: int = 2, slots: int = 2) -> FileSystem:
    return FileSystem(ClusterConfig(
        num_nodes=nodes, map_slots_per_node=slots,
        block_size=64 * 1024, io_buffer_size=4096,
    ))


class _ListInput(InputFormat):
    """``n_splits`` single-record splits, placed round-robin."""

    def __init__(self, name: str, n_splits: int):
        self._name = name
        self._n = n_splits

    def get_splits(self, fs, cluster):
        return [
            InputSplit(
                1024, [i % cluster.num_nodes],
                label=f"{self._name}-{i}",
            )
            for i in range(self._n)
        ]

    def open_reader(self, fs, split, ctx):
        return ListRecordReader(ctx, [(split.label, split.label)])


def make_job(
    name: str,
    n_splits: int,
    task_seconds: float,
    max_attempts: int = 4,
) -> Job:
    """A job of ``n_splits`` map tasks, each exactly ``task_seconds``."""

    def mapper(key, value, emit, ctx):
        ctx.metrics.charge_cpu(to_ticks(task_seconds))
        emit(key, value)

    return Job(
        name, mapper, _ListInput(name, n_splits),
        max_attempts=max_attempts,
    )


def one_queue_policy(**tenant_kwargs) -> ClusterPolicy:
    return ClusterPolicy(
        queues=[QueueConfig("default", capacity=1.0)],
        tenants=[TenantConfig(name="t", queue="default", **tenant_kwargs)],
    )


class TestPolicyConfig:
    def test_capacities_normalize_to_one(self):
        policy = ClusterPolicy(
            queues=[QueueConfig("a", 3.0), QueueConfig("b", 1.0)],
            tenants=[TenantConfig("t", "a")],
        )
        assert policy.queue("a").capacity == pytest.approx(0.75)
        assert policy.queue("b").capacity == pytest.approx(0.25)

    def test_tenant_must_name_a_known_queue(self):
        with pytest.raises(ValueError, match="unknown queue"):
            ClusterPolicy(
                queues=[QueueConfig("a", 1.0)],
                tenants=[TenantConfig("t", "nope")],
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ClusterPolicy(queues=[], tenants=[], policy="lottery")


class TestSingleJobEquivalence:
    def test_manager_output_matches_run_job(self):
        def run_one(fs):
            job = make_job("only", 4, 0.01)
            job.output_format = CollectOutputFormat()
            report = ClusterManager(fs, one_queue_policy()).run([
                JobRequest(job=job, tenant="t", arrival=0.0, request_id=0),
            ])
            return job.output_format.collected, report

        collected, report = run_one(small_fs())
        standalone = run_job(small_fs(), make_job("only", 4, 0.01))
        assert sorted(collected) == sorted(standalone.output)
        assert len(report.completed) == 1
        assert report.completed[0].status == "completed"

    def test_run_job_equals_the_only_request(self):
        # One scheduler: run_job is the manager's event loop with one
        # tenant, so a job alone on the cluster gets the same attempts,
        # timeline and answer through either entry point.
        def reducer(key, values, emit, ctx):
            emit(key, sorted(values))

        def job():
            j = make_job("only", 11, 0.01)
            j.reducer, j.num_reducers = reducer, 2
            return j

        def attempts(tasks):
            return [
                (t.split.label, t.node, t.slot, t.start, t.duration,
                 t.data_local, t.attempt)
                for t in tasks
            ]

        manager = ClusterManager(small_fs(nodes=3), one_queue_policy())
        report = manager.run([JobRequest(job(), "t", 0.0)])
        (outcome,) = report.completed
        result = run_job(small_fs(nodes=3), job())
        assert attempts(result.tasks) == attempts(manager.executions[0].tasks)
        assert result.map_makespan == outcome.map_makespan
        assert result.reduce_time == outcome.reduce_time
        assert result.total_time == outcome.finish == report.makespan
        # One commit builds both results: counters included, unpatched.
        committed = manager.job_results[0]
        assert result.output == committed.output
        assert result.counters.as_dict() == committed.counters.as_dict()
        assert result.map_makespan == committed.map_makespan
        assert result.reduce_time == committed.reduce_time

    def test_makespan_covers_serialized_work(self):
        # 4 equal tasks on 4 slots: one wave, makespan ≈ task time
        # plus the per-job overhead.
        fs = small_fs(nodes=2, slots=2)
        report = ClusterManager(fs, one_queue_policy()).run([
            JobRequest(
                job=make_job("j", 4, 0.05), tenant="t", arrival=0.0,
            ),
        ])
        outcome = report.completed[0]
        assert outcome.map_makespan == pytest.approx(0.05, rel=0.2)


class TestAdmissionControl:
    def test_queue_overflow_rejects(self):
        fs = small_fs(nodes=1, slots=1)
        policy = one_queue_policy(max_queued=1)
        requests = [
            JobRequest(
                job=make_job(f"j{i}", 1, 0.05), tenant="t",
                arrival=0.0, request_id=i,
            )
            for i in range(3)
        ]
        report = ClusterManager(fs, policy).run(requests)
        assert len(report.rejected) == 2
        assert len(report.completed) == 1
        assert all(
            "queue full" in o.error for o in report.rejected
        )

    def test_spaced_arrivals_all_admitted(self):
        fs = small_fs(nodes=1, slots=1)
        policy = one_queue_policy(max_queued=1)
        requests = [
            JobRequest(
                job=make_job(f"j{i}", 1, 0.01), tenant="t",
                arrival=i * 1.0, request_id=i,
            )
            for i in range(3)
        ]
        report = ClusterManager(fs, policy).run(requests)
        assert len(report.completed) == 3
        assert not report.rejected


class TestFairShare:
    def two_tenant_policy(self, **kwargs) -> ClusterPolicy:
        return ClusterPolicy(
            queues=[QueueConfig("default", 1.0)],
            tenants=[
                TenantConfig("a", "default", **kwargs),
                TenantConfig("b", "default", **kwargs),
            ],
        )

    def requests(self):
        return [
            JobRequest(
                job=make_job("a-job", 8, 0.05), tenant="a",
                arrival=0.0, request_id=0,
            ),
            JobRequest(
                job=make_job("b-job", 8, 0.05), tenant="b",
                arrival=0.0, request_id=1,
            ),
        ]

    def test_fair_runs_both_tenants_concurrently(self):
        fs = small_fs(nodes=2, slots=2)  # 4 slots, 16 tasks of work
        report = ClusterManager(
            fs, self.two_tenant_policy()
        ).run(self.requests())
        starts = {o.job_name: o.start for o in report.completed}
        assert starts["a-job"] == 0.0
        assert starts["b-job"] == 0.0

    def test_fifo_serializes_the_second_arrival(self):
        fs = small_fs(nodes=2, slots=2)
        policy = replace(self.two_tenant_policy(), policy="fifo")
        report = ClusterManager(fs, policy).run(self.requests())
        starts = {o.job_name: o.start for o in report.completed}
        assert starts["a-job"] == 0.0
        # Under FIFO the first job takes every slot; the second only
        # dispatches once a slot frees.
        assert starts["b-job"] > 0.0

    def test_slot_quota_caps_a_tenant(self):
        # One 4-task job on 4 slots: unlimited runs one wave, a quota
        # of 1 slot serializes all four tasks.
        unlimited = ClusterManager(
            small_fs(nodes=2, slots=2), one_queue_policy()
        ).run([JobRequest(make_job("j", 4, 0.05), "t", 0.0)])
        capped = ClusterManager(
            small_fs(nodes=2, slots=2),
            one_queue_policy(max_running_slots=1),
        ).run([JobRequest(make_job("j", 4, 0.05), "t", 0.0)])
        ratio = (
            capped.completed[0].map_makespan
            / unlimited.completed[0].map_makespan
        )
        assert ratio == pytest.approx(4.0, rel=0.05)


def preemption_policy() -> ClusterPolicy:
    return ClusterPolicy(
        queues=[
            QueueConfig("batch", 0.5, preemptible=True),
            QueueConfig("interactive", 0.5, preempts=True),
        ],
        tenants=[
            TenantConfig("etl", "batch"),
            TenantConfig("dash", "interactive"),
        ],
    )


class TestPreemption:
    def run_mixed(self, policy=None):
        fs = small_fs(nodes=2, slots=2)  # 4 slots
        requests = [
            # Four long scans grab every slot at t=0...
            JobRequest(
                job=make_job("scan", 4, 1.0, max_attempts=1),
                tenant="etl", arrival=0.0, request_id=0,
            ),
            # ...then a point query arrives with nowhere to run.
            JobRequest(
                job=make_job("point", 1, 0.001), tenant="dash",
                arrival=0.01, request_id=1,
            ),
        ]
        manager = ClusterManager(fs, policy or preemption_policy())
        return manager.run(requests)

    def test_interactive_preempts_a_long_scan(self):
        report = self.run_mixed()
        assert report.preemptions > 0
        by_name = {o.job_name: o for o in report.completed}
        # The point query ran almost immediately instead of waiting
        # ~1s for a scan task to finish.
        assert by_name["point"].latency < 0.1
        assert by_name["scan"].preemptions > 0

    def test_preemption_does_not_consume_attempts(self):
        # max_attempts=1: if eviction burned the attempt the scan job
        # would fail; it must complete instead.
        report = self.run_mixed()
        assert not report.failed
        assert {o.status for o in report.outcomes} == {"completed"}

    def test_fifo_never_preempts(self):
        report = self.run_mixed(replace(preemption_policy(), policy="fifo"))
        assert report.preemptions == 0
        by_name = {o.job_name: o for o in report.completed}
        # Without preemption the point query waits for a scan slot.
        assert by_name["point"].latency > 0.9

    def test_wasted_work_counts_against_utilization(self):
        fair = self.run_mixed()
        # Preempted partial work is real slot time: busy seconds must
        # exceed the sum of committed task durations alone.
        committed = sum(
            o.map_makespan for o in fair.completed
        )
        assert fair.busy_slot_seconds > committed


class TestReporting:
    def test_percentile_is_nearest_rank(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        assert percentile(sample, 50) == 2.0
        assert percentile(sample, 95) == 4.0
        assert percentile([], 95) == 0.0

    def test_report_round_trips_to_dict(self):
        fs = small_fs()
        report = ClusterManager(fs, one_queue_policy()).run([
            JobRequest(make_job("j", 2, 0.01), "t", 0.0),
        ])
        payload = report.to_dict()
        assert payload["policy"] == "fair"
        assert payload["jobs"][0]["status"] == "completed"
        assert "t" in payload["tenants"]
        assert 0.0 < payload["utilization"] <= 1.0

    def test_render_lists_every_tenant(self):
        fs = small_fs()
        report = ClusterManager(fs, one_queue_policy()).run([
            JobRequest(make_job("j", 2, 0.01), "t", 0.0),
        ])
        text = report.render()
        assert "policy=fair" in text
        assert "\nt " in text or " t " in "\n".join(
            line for line in text.splitlines()
        )


class TestAcceptance:
    """The paper-shaped claim, at test scale: fair share + preemption
    at least halves interactive p95 vs FIFO on the same trace."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.bench import cluster_load

        return cluster_load.run(duration=0.5, seed=20110401)

    def test_interactive_p95_at_most_half_of_fifo(self, result):
        assert result.interactive_p95_ratio >= 2.0

    def test_trace_is_contended_enough_to_mean_something(self, result):
        assert result.reports["fair"].utilization > 0.5
        assert result.reports["fair"].preemptions > 0

    def test_both_policies_finish_the_load(self, result):
        for policy in ("fair", "fifo"):
            assert not result.reports[policy].failed
