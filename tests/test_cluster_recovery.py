"""End-to-end fault tolerance for the multi-tenant cluster.

Four layers under test:

- **map-output loss** — killing a node after its maps committed but
  before the job's shuffle window closes must invalidate exactly that
  node's spilled outputs, re-run exactly those splits, and still
  produce output and counters byte-identical to the fault-free run,
- **cluster-level speculation** — progress-based straggler cloning:
  first finisher wins, losers are killed not failed, duplicates never
  touch the original's retry budget and are the preferred preemption
  victims,
- **WAL crash resume** — a run journaled to a write-ahead log can be
  recovered from a crash at *every* record boundary by verified
  deterministic replay, byte-identical to the uninterrupted report,
- **graceful degradation** — deadline-aware admission shedding and
  seeded exponential retry backoff.
"""

import json

import pytest

from repro.cluster import (
    ClusterManager,
    ClusterPolicy,
    ClusterWAL,
    JobRequest,
    QueueConfig,
    SimulatedCrash,
    SpeculationConfig,
    TenantConfig,
    TrafficTenant,
    WalDivergence,
    resume_from_wal,
    run_traffic,
    sample_profile,
)
from repro.faults import FaultEvent, FaultPlan
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job
from repro.mapreduce.types import InputFormat, InputSplit, ListRecordReader
from repro.obs import FlightRecorder
from repro.sim.calibration import to_ticks


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def small_fs(nodes: int = 3, slots: int = 2, seed: int = 20110401):
    return FileSystem(ClusterConfig(
        num_nodes=nodes, map_slots_per_node=slots,
        block_size=64 * 1024, io_buffer_size=4096, seed=seed,
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


def one_queue_policy(**kwargs) -> ClusterPolicy:
    return ClusterPolicy(
        queues=[QueueConfig("default", capacity=1.0)],
        tenants=[TenantConfig(name="t", queue="default")],
        **kwargs,
    )


def run_one(job: Job, fs, policy=None, faults=None, deadline=None):
    """One single-job cluster run under a recorder.

    Returns ``(manager, report, events)`` with wall-clock scrubbed from
    the events so runs compare byte-for-byte.
    """
    recorder = FlightRecorder(clock=FakeClock())
    with recorder.activate():
        manager = ClusterManager(fs, policy or one_queue_policy(),
                                 faults=faults)
        report = manager.run([JobRequest(
            job=job, tenant="t", arrival=0.0, request_id=0,
            deadline=deadline,
        )])
    events = [
        {k: v for k, v in record.items() if k != "wall"}
        for record in recorder.report().events
    ]
    return manager, report, events


def events_of(events, kind):
    return [e for e in events if e["kind"] == kind]


# -- map-output loss & re-execution -----------------------------------------


def shuffle_job(name: str, n_splits: int = 6) -> Job:
    """A reduce job whose map outputs are big enough to give the
    shuffle a real window on the simulated network."""

    def mapper(key, value, emit, ctx):
        ctx.metrics.charge_cpu(to_ticks(0.004))
        for i in range(24):
            emit(f"{key}:{i % 4}", value * 3 + str(i))

    def reducer(key, values, emit, ctx):
        emit(key, sum(len(v) for v in values))

    return Job(
        name, mapper, _ListInput(name, n_splits),
        reducer=reducer, num_reducers=2,
    )


class TestMapOutputLoss:
    """Kill a node inside the shuffle window: exactly its splits re-run
    and the job's result is byte-identical to the fault-free run."""

    @pytest.mark.parametrize("seed", [20110401 + i for i in range(5)])
    def test_node_death_during_shuffle_reexecutes_exactly_its_splits(
        self, seed
    ):
        name = f"chaos-{seed}"
        baseline, base_report, base_events = run_one(
            shuffle_job(name), small_fs(seed=seed)
        )
        assert base_report.completed and not base_report.failed
        shuffle_start = events_of(base_events, "shuffle.start")[0]
        map_end = shuffle_start["sim"]
        shuffle_end = shuffle_start["attrs"]["end"]
        assert shuffle_end > map_end
        holders = baseline.executions[0].payload_nodes
        victim = max(
            set(holders.values()),
            key=lambda n: (sum(1 for h in holders.values() if h == n), n),
        )
        expected_lost = {
            f"{name}-{i}" for i, h in holders.items() if h == victim
        }
        assert expected_lost
        kill_at = (map_end + shuffle_end) / 2

        plan = FaultPlan(
            [FaultEvent(kind="kill_node", node=victim, at_time=kill_at)],
            seed=7,
        )
        manager, report, events = run_one(
            shuffle_job(name), small_fs(seed=seed), faults=plan
        )

        lost = {
            e["attrs"]["split"] for e in events_of(events, "mapoutput.lost")
        }
        assert lost == expected_lost
        # The in-flight shuffle aborted and only those splits re-ran.
        assert events_of(events, "shuffle.abort")
        reruns = [
            e["attrs"]["split"]
            for e in events_of(events, "task.start")
            if e["attrs"].get("kind") == "map" and e["sim"] > map_end
        ]
        assert sorted(reruns) == sorted(expected_lost)
        assert report.map_output_losses == len(expected_lost)

        # Recovery is exact: same output, same counters, job completed.
        assert report.completed and not report.failed
        assert (
            sorted(manager.job_results[0].output)
            == sorted(baseline.job_results[0].output)
        )
        assert (
            manager.job_results[0].counters.as_dict()
            == baseline.job_results[0].counters.as_dict()
        )
        # ...but it really took longer: the re-runs happened.
        assert report.completed[0].finish > base_report.completed[0].finish

    def test_output_loss_does_not_consume_retry_budget(self):
        # max_attempts=1: if re-running a lost output burned an attempt
        # the job would fail; Hadoop semantics say output loss is the
        # scheduler's problem, not the task's.
        seed = 20110401
        name = "budget"
        baseline, _, base_events = run_one(
            shuffle_job(name), small_fs(seed=seed)
        )
        shuffle_start = events_of(base_events, "shuffle.start")[0]
        holders = baseline.executions[0].payload_nodes
        victim = sorted(holders.values())[0]
        kill_at = (
            shuffle_start["sim"] + shuffle_start["attrs"]["end"]
        ) / 2
        job = shuffle_job(name)
        job.max_attempts = 1
        plan = FaultPlan(
            [FaultEvent(kind="kill_node", node=victim, at_time=kill_at)],
            seed=7,
        )
        _, report, _ = run_one(job, small_fs(seed=seed), faults=plan)
        assert report.completed and not report.failed

    def test_fault_free_timeline_unchanged_by_shuffle_window(self):
        # The vulnerability window is accounting, not new simulated
        # work: a job's finish time must equal map_end + reduce +
        # overhead exactly as before the window existed.
        _, report, events = run_one(shuffle_job("clean"), small_fs())
        outcome = report.completed[0]
        start = events_of(events, "shuffle.start")[0]
        finish_events = events_of(events, "shuffle.finish")
        assert finish_events, "shuffle must complete"
        assert outcome.finish == pytest.approx(
            start["sim"] + outcome.reduce_time
        )
        # The window is a lower bound on the reduce makespan.
        assert (
            start["attrs"]["window"] <= outcome.reduce_time + 1e-12
        )


# -- cluster-level speculation ----------------------------------------------


def straggler_job(name: str, slow_node: int = 0,
                  n_splits: int = 6) -> Job:
    """Maps are fast everywhere except on ``slow_node`` — the shape
    speculation exists for.  Output is node-independent."""

    def mapper(key, value, emit, ctx):
        seconds = 0.5 if ctx.node == slow_node else 0.005
        ctx.metrics.charge_cpu(to_ticks(seconds))
        emit(key, value)

    return Job(name, mapper, _ListInput(name, n_splits))


def speculation_policy(**kwargs) -> ClusterPolicy:
    return one_queue_policy(
        speculation=SpeculationConfig(
            enabled=True, slowdown=1.5, quantile=0.5, min_samples=3,
            **kwargs,
        ),
    )


class TestSpeculation:
    def test_straggler_cloned_first_finisher_wins(self):
        manager, report, events = run_one(
            straggler_job("spec"), small_fs(), policy=speculation_policy()
        )
        assert report.speculative_attempts >= 1
        assert events_of(events, "task.speculative")
        wins = [
            e for e in events_of(events, "scheduler.speculation")
            if e["attrs"]["outcome"] == "won"
        ]
        assert wins
        killed = [
            e for e in events_of(events, "task.finish")
            if e["attrs"]["outcome"] == "killed"
        ]
        assert killed  # the slow originals lost the race
        # The clone rescued the job from the 0.5s straggler tasks.
        assert report.completed[0].map_makespan < 0.1

    def test_speculation_output_identical_to_disabled(self):
        spec_manager, _, _ = run_one(
            straggler_job("same"), small_fs(), policy=speculation_policy()
        )
        plain_manager, plain_report, _ = run_one(
            straggler_job("same"), small_fs()
        )
        assert plain_report.completed[0].map_makespan >= 0.5
        assert (
            sorted(spec_manager.job_results[0].output)
            == sorted(plain_manager.job_results[0].output)
        )
        assert (
            spec_manager.job_results[0].counters.as_dict()
            == plain_manager.job_results[0].counters.as_dict()
        )

    def test_speculative_runs_are_deterministic(self):
        def capture():
            _, report, events = run_one(
                straggler_job("det"), small_fs(),
                policy=speculation_policy(),
            )
            return (
                json.dumps(events, sort_keys=True),
                json.dumps(report.to_dict(), sort_keys=True),
            )

        assert capture() == capture()


class TestPreemptionOfSpeculativeDuplicates:
    """Satellite: a speculative duplicate is the preferred preemption
    victim, and evicting it never consumes the original's budget."""

    def run_scenario(self):
        fs = small_fs(nodes=2, slots=2)  # 4 slots
        policy = ClusterPolicy(
            queues=[
                QueueConfig("batch", 0.5, preemptible=True),
                QueueConfig("interactive", 0.5, preempts=True),
            ],
            tenants=[
                TenantConfig("etl", "batch"),
                TenantConfig("dash", "interactive"),
            ],
            speculation=SpeculationConfig(
                enabled=True, slowdown=1.5, quantile=0.5, min_samples=3,
            ),
        )

        # Job A: three fast splits plus one genuinely long one whose
        # clone will be mid-flight when the interactive job arrives.
        def mapper_a(key, value, emit, ctx):
            ctx.metrics.charge_cpu(
                to_ticks(0.3 if key.endswith("-0") else 0.005)
            )
            emit(key, value)

        job_a = Job(
            "scan", mapper_a, _ListInput("scan", 4), max_attempts=1,
        )

        # Job B soaks the remaining slots so the interactive arrival
        # has to preempt rather than use a free slot.
        def mapper_b(key, value, emit, ctx):
            ctx.metrics.charge_cpu(to_ticks(0.08))
            emit(key, value)

        job_b = Job("soak", mapper_b, _ListInput("soak", 8))

        def mapper_c(key, value, emit, ctx):
            ctx.metrics.charge_cpu(to_ticks(0.001))
            emit(key, value)

        job_c = Job("point", mapper_c, _ListInput("point", 1))

        recorder = FlightRecorder(clock=FakeClock())
        with recorder.activate():
            manager = ClusterManager(fs, policy)
            report = manager.run([
                JobRequest(job=job_a, tenant="etl", arrival=0.0,
                           request_id=0),
                JobRequest(job=job_b, tenant="etl", arrival=0.01,
                           request_id=1),
                JobRequest(job=job_c, tenant="dash", arrival=0.05,
                           request_id=2),
            ])
        events = [
            {k: v for k, v in record.items() if k != "wall"}
            for record in recorder.report().events
        ]
        return manager, report, events

    def test_duplicate_is_the_preferred_victim(self):
        _, report, events = self.run_scenario()
        preempted = events_of(events, "task.preempted")
        assert preempted, "the interactive arrival must preempt"
        assert all(e["attrs"]["speculative"] for e in preempted)
        # The clone belonged to the straggling split.
        assert preempted[0]["attrs"]["split"] == "scan-0"

    def test_eviction_spares_the_original_and_its_budget(self):
        _, report, events = self.run_scenario()
        # max_attempts=1 on the scan job: if evicting the clone consumed
        # an attempt (or killed the original) the job would fail.
        by_name = {o.job_name: o for o in report.outcomes}
        assert by_name["scan"].status == "completed"
        assert by_name["point"].status == "completed"
        assert by_name["point"].latency < 0.05
        # The original straggler attempt survived the eviction: its
        # split never re-queued through the retry machinery.
        requeues = [
            e for e in events_of(events, "retry.backoff")
            if e["attrs"]["split"] == "scan-0"
        ]
        assert not requeues


# -- retry backoff ----------------------------------------------------------


class TestRetryBackoff:
    def faulted_run(self, seed: int = 20110401):
        plan = FaultPlan(
            [FaultEvent(
                kind="transient_read_error", node=0, at_task=0, count=3,
            )],
            seed=5,
        )
        from repro.core import ColumnInputFormat, write_dataset
        from repro.workloads.micro import micro_records, micro_schema

        fs = small_fs(seed=seed)
        write_dataset(
            fs, "/rb/data", micro_schema(),
            micro_records(60, seed=1), split_bytes=8 * 1024,
        )

        def mapper(key, value, emit, ctx):
            emit(0, value.get("int0"))

        job = Job(
            "retry", mapper,
            ColumnInputFormat("/rb/data", columns=["int0"], lazy=False),
        )
        return run_one(job, fs, faults=plan)

    def test_failed_attempt_backs_off_before_relaunch(self):
        _, report, events = self.faulted_run()
        assert report.completed and not report.failed
        backoffs = events_of(events, "retry.backoff")
        assert backoffs
        for event in backoffs:
            assert event["attrs"]["delay"] > 0
            assert event["attrs"]["ready"] == pytest.approx(
                event["sim"] + event["attrs"]["delay"]
            )

    def test_backoff_delays_are_deterministic(self):
        def delays(seed):
            _, _, events = self.faulted_run(seed)
            return [
                e["attrs"]["delay"]
                for e in events_of(events, "retry.backoff")
            ]

        assert delays(20110401) == delays(20110401)
        # The policy seed defaults to the cluster seed, so a different
        # cluster jitters differently.
        assert delays(20110401) != delays(999)


# -- fault windows past map end ---------------------------------------------


class TestFaultTimeline:
    def test_out_of_range_faults_are_reported_not_dropped(self):
        plan = FaultPlan(
            [
                FaultEvent(kind="kill_node", node=1, at_time=99.0),
                FaultEvent(kind="kill_node", node=2, at_task=500),
            ],
            seed=3,
        )
        _, report, events = run_one(
            shuffle_job("late"), small_fs(), faults=plan
        )
        assert report.completed
        ignored = events_of(events, "fault.ignored")
        assert len(ignored) == 2
        by_trigger = {
            e["attrs"].get("at_time", e["attrs"].get("at_task")): e
            for e in ignored
        }
        assert 99.0 in by_trigger and 500 in by_trigger
        assert all(e["attrs"]["reason"] for e in ignored)

    def test_fault_during_shuffle_window_fires(self):
        # A kill scheduled after every map finished still fires — the
        # shuffle keeps the job's timeline alive.
        _, _, base_events = run_one(shuffle_job("window"), small_fs())
        start = events_of(base_events, "shuffle.start")[0]
        kill_at = (start["sim"] + start["attrs"]["end"]) / 2
        plan = FaultPlan(
            [FaultEvent(kind="kill_node", node=0, at_time=kill_at)],
            seed=3,
        )
        _, report, events = run_one(
            shuffle_job("window"), small_fs(), faults=plan
        )
        lost = events_of(events, "node.lost")
        assert lost and lost[0]["sim"] == pytest.approx(kill_at)
        assert not events_of(events, "fault.ignored")
        assert report.completed


# -- deadline shedding ------------------------------------------------------


class TestDeadlineShedding:
    def test_hopeless_deadline_is_shed_at_admission(self):
        job = shuffle_job("doomed")
        _, report, events = run_one(
            job, small_fs(), deadline=1e-6,
        )
        assert len(report.shed) == 1
        assert not report.completed
        shed = events_of(events, "admission.shed")
        assert shed
        assert shed[0]["attrs"]["predicted"] > shed[0]["attrs"]["deadline"]
        summary = report.summary("t")
        assert summary.shed == 1 and summary.failed == 0

    def test_generous_deadline_admits_and_completes(self):
        _, report, events = run_one(
            shuffle_job("fine"), small_fs(), deadline=1000.0,
        )
        assert report.completed and not report.shed
        assert not events_of(events, "admission.shed")

    def test_traffic_tenant_deadline_flows_through(self):
        profile = sample_profile()
        profile.duration = 0.05
        profile.tenants = [
            TrafficTenant(
                name="impatient", queue="interactive", rate=120.0,
                jobs={"point_query": 1.0}, deadline=1e-6,
            ),
        ]
        report = run_traffic(profile)
        assert report.outcomes
        assert all(o.status == "shed" for o in report.outcomes)


# -- WAL crash resume -------------------------------------------------------


def tiny_profile():
    prof = sample_profile()
    prof.duration = 0.02
    prof.nodes = 3
    prof.datasets = {
        "crawl_records": 24,
        "content_bytes": 2048,
        "micro_records": 120,
        "point_records": 16,
    }
    return prof


class TestWalCrashResume:
    @pytest.fixture(scope="class")
    def full_run(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("wal") / "full.wal")
        wal = ClusterWAL(path=path)
        report = run_traffic(tiny_profile(), wal=wal)
        return path, wal.records, json.dumps(
            report.to_dict(), sort_keys=True
        )

    def truncated(self, tmp_path, records, n):
        path = str(tmp_path / f"crash-{n}.wal")
        with open(path, "w", encoding="utf-8") as handle:
            for record in records[:n]:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path

    def test_resume_at_every_record_boundary(self, full_run, tmp_path):
        _, records, full_json = full_run
        assert len(records) >= 10  # the sweep must mean something
        for n in range(1, len(records) + 1):
            path = self.truncated(tmp_path, records, n)
            report, wal = resume_from_wal(path)
            assert wal.verified == n, f"boundary {n}"
            assert (
                json.dumps(report.to_dict(), sort_keys=True) == full_json
            ), f"boundary {n}"

    def test_simulated_crash_leaves_exactly_n_records(self, tmp_path):
        path = str(tmp_path / "crash.wal")
        with pytest.raises(SimulatedCrash):
            run_traffic(
                tiny_profile(),
                wal=ClusterWAL(path=path, crash_after=10),
            )
        records, warnings = ClusterWAL.load(path)
        assert len(records) == 10 and not warnings
        report, _ = resume_from_wal(path)
        assert json.dumps(report.to_dict(), sort_keys=True) == (
            self._full_json_cache
        )

    @pytest.fixture(autouse=True)
    def _cache_full(self, full_run):
        self._full_json_cache = full_run[2]

    def test_torn_final_line_is_tolerated(self, full_run, tmp_path):
        _, records, full_json = full_run
        path = self.truncated(tmp_path, records, 12)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 12, "type": "laun')  # torn mid-write
        report, wal = resume_from_wal(path)
        assert wal.warnings
        assert json.dumps(report.to_dict(), sort_keys=True) == full_json

    def test_tampered_record_raises_divergence(self, full_run, tmp_path):
        _, records, _ = full_run
        doctored = [dict(r) for r in records[:15]]
        doctored[8]["t"] = doctored[8].get("t", 0.0) + 1.0
        path = str(tmp_path / "tampered.wal")
        with open(path, "w", encoding="utf-8") as handle:
            for record in doctored:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        with pytest.raises(WalDivergence):
            resume_from_wal(path)

    def test_gzip_wal_round_trips(self, full_run, tmp_path):
        _, _, full_json = full_run
        path = str(tmp_path / "run.wal.gz")
        wal = ClusterWAL(path=path, crash_after=8)
        with pytest.raises(SimulatedCrash):
            run_traffic(tiny_profile(), wal=wal)
        report, _ = resume_from_wal(path)
        assert json.dumps(report.to_dict(), sort_keys=True) == full_json

    def test_wal_journals_faulted_runs_too(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(kind="kill_node", node=1, at_time=0.005)],
            seed=11,
        )
        path = str(tmp_path / "faulted.wal")
        report = run_traffic(
            tiny_profile(), faults=plan, wal=ClusterWAL(path=path),
        )
        resumed, _ = resume_from_wal(path)
        assert (
            json.dumps(resumed.to_dict(), sort_keys=True)
            == json.dumps(report.to_dict(), sort_keys=True)
        )

    def test_wal_refuses_a_live_injector(self):
        from repro.faults import FaultInjector

        profile = tiny_profile()
        fs_plan = FaultPlan([], seed=1)
        injector = FaultInjector.__new__(FaultInjector)
        with pytest.raises(ValueError, match="FaultPlan"):
            run_traffic(profile, faults=injector, wal=ClusterWAL())
