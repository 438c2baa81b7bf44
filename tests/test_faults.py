"""Fault injection and fault tolerance: plans, injector, failover, retry."""

import pytest

from repro.faults import RANDOM, FaultEvent, FaultInjector, FaultPlan, current_fault_plan
from repro.hdfs import (
    ClusterConfig,
    CorruptBlockError,
    FileSystem,
    TransientReadError,
)
from repro.mapreduce import Job, JobFailedError, run_job
from repro.cluster import (
    ClusterManager,
    ClusterPolicy,
    JobRequest,
    TenantConfig,
)
from repro.cluster.manager import BLACKLIST_AFTER
from repro.mapreduce.types import InputSplit
from repro.obs import FlightRecorder
from repro.sim.calibration import to_ticks
from repro.sim.metrics import Metrics
from tests.conftest import micro_records, micro_schema, schedule


def cpp_fs(num_nodes=6, block_size=16 * 1024):
    fs = FileSystem(
        ClusterConfig(
            num_nodes=num_nodes, replication=3, block_size=block_size,
            io_buffer_size=4096,
        )
    )
    fs.use_column_placement()
    return fs


class TestFaultPlan:
    def test_event_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            FaultEvent("kill_node", node=0)
        with pytest.raises(ValueError):
            FaultEvent("kill_node", node=0, at_time=1.0, at_task=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("set_on_fire", node=0, at_time=1.0)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            [
                FaultEvent("kill_node", node=2, at_time=0.5),
                FaultEvent("transient_read_error", node=RANDOM,
                           count=3, at_task=1),
                FaultEvent("corrupt_replica", path="/d/f", block_index=1,
                           at_task=0),
            ],
            seed=42,
        )
        loaded = FaultPlan.from_json(plan.to_json())
        assert loaded.to_dict() == plan.to_dict()
        target = tmp_path / "plan.json"
        plan.save(str(target))
        assert FaultPlan.load(str(target)).to_dict() == plan.to_dict()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json("not json")
        with pytest.raises(ValueError):
            FaultPlan.from_json("[1, 2]")

    def test_random_plans_are_survivable(self):
        for seed in range(25):
            plan = FaultPlan.random(seed, num_nodes=6)
            assert 1 <= len(plan) <= 3
            kills = [e for e in plan if e.kind == "kill_node"]
            assert len(kills) <= 1  # 3-way replication survives one
            assert all(e.at_task is not None for e in plan)

    def test_activate_installs_ambient_plan(self):
        plan = FaultPlan(seed=9)
        assert current_fault_plan() is None
        with plan.activate():
            assert current_fault_plan() is plan
        assert current_fault_plan() is None


class TestInjector:
    def test_kill_at_time_fires_when_due(self, fs):
        fs.write_file("/f", b"z" * 100_000)
        plan = FaultPlan([FaultEvent("kill_node", node=1, at_time=5.0)])
        injector = FaultInjector(fs, plan)
        injector.advance_time(4.9)
        assert 1 not in fs.failed_nodes
        injector.advance_time(5.1)
        assert 1 in fs.failed_nodes
        assert injector.drain_dead() == [(1, 5.0)]  # dies at its own time
        assert injector.drain_dead() == []

    def test_task_boundary_trigger(self, fs):
        fs.write_file("/f", b"z" * 10_000)
        plan = FaultPlan([FaultEvent("slow_node", node=3, at_task=2)])
        injector = FaultInjector(fs, plan)
        injector.on_task_start()  # boundary 0
        injector.on_task_start()  # boundary 1
        assert fs.slowdown_of(3) == 1.0
        injector.on_task_start()  # boundary 2 -> fires
        assert fs.slowdown_of(3) == 2.0

    def test_fired_events_emit_obs(self, fs):
        fs.write_file("/f", b"z" * 10_000)
        recorder = FlightRecorder()
        plan = FaultPlan([
            FaultEvent("kill_node", node=0, at_time=0.0),
            FaultEvent("transient_read_error", node=2, count=2, at_time=0.0),
        ])
        with recorder.activate():
            FaultInjector(fs, plan).fire_all()
        assert recorder.registry.value_of(
            "faults.injected", kind="kill_node"
        ) == 1
        assert recorder.registry.value_of(
            "faults.injected", kind="transient_read_error"
        ) == 1
        fault_spans = [
            s for s in recorder.tracer.spans if s.name == "fault"
        ]
        assert len(fault_spans) == 2

    def test_random_node_resolution_is_seeded(self, fs):
        fs.write_file("/f", b"z" * 10_000)
        plan = FaultPlan(
            [FaultEvent("kill_node", node=RANDOM, at_time=0.0)], seed=5
        )
        victims = set()
        for _ in range(3):
            fresh = FileSystem(fs.cluster)
            fresh.write_file("/f", b"z" * 10_000)
            injector = FaultInjector(fresh, plan)
            injector.fire_all()
            victims.add(next(iter(fresh.failed_nodes)))
        assert len(victims) == 1  # same seed, same victim


class TestReplicaFailover:
    def test_corrupt_replica_read_fails_over_and_repairs(self):
        fs = cpp_fs()
        fs.write_file("/plain", b"q" * 50_000)
        block = fs.namenode.blocks_of("/plain")[0]
        reader_node = block.locations[0]
        fs.blockstore.mark_replica_corrupt(block.block_id, reader_node)

        recorder = FlightRecorder()
        with recorder.activate():
            data = fs.open("/plain", node=reader_node).read_fully()
        assert data == b"q" * 50_000  # served from a clean replica
        assert recorder.registry.value_of(
            "replica.corrupt_detected", node=reader_node
        ) >= 1
        # auto-repair replaced the evicted copy: replication is back to 3
        # and no replica is still marked corrupt, the evicted one included
        assert len(fs.namenode.blocks_of("/plain")[0].locations) == 3
        assert fs.blockstore.corrupt_replicas() == []
        assert fs.fsck_report().healthy

    def test_payload_corruption_is_unrecoverable(self, fs):
        fs.write_file("/f", b"p" * 10_000)
        block = fs.namenode.blocks_of("/f")[0]
        fs.blockstore.corrupt(block.block_id)
        with pytest.raises(CorruptBlockError):
            fs.open("/f", node=block.locations[0]).read_fully()

    def test_transient_error_fires_once_then_clears(self, fs):
        fs.write_file("/f", b"t" * 10_000)
        node = fs.namenode.blocks_of("/f")[0].locations[0]
        fs.arm_transient_errors(node, 1)
        with pytest.raises(TransientReadError):
            fs.open("/f", node=node).read_fully()
        assert fs.open("/f", node=node).read_fully() == b"t" * 10_000

    def test_scrub_evicts_marked_replicas(self):
        fs = cpp_fs()
        fs.write_file("/s", b"s" * 40_000)
        block = fs.namenode.blocks_of("/s")[0]
        victim = block.locations[1]
        fs.blockstore.mark_replica_corrupt(block.block_id, victim)
        assert fs.scrub() == 1
        report = fs.fsck_report()
        assert report.healthy
        assert report.corrupt_replicas == []
        # the evicted replica's mark went with it: nothing to re-walk
        assert fs.blockstore.corrupt_replicas() == []
        assert fs.scrub() == 0

    def test_decommission_has_no_underreplication_window(self):
        fs = cpp_fs()
        schema = micro_schema()
        from repro.core import write_dataset

        write_dataset(
            fs, "/d/cif", schema, micro_records(schema, 60),
            split_bytes=8 * 1024,
        )
        node = fs.namenode.blocks_of(
            list(fs.namenode.files_with_blocks())[0]
        )[0].locations[0]
        fs.decommission_node(node)
        report = fs.fsck_report()
        assert report.healthy  # copies moved off before invalidation
        assert node in report.decommissioned_nodes
        assert report.non_colocated_split_dirs == []


class TestSchedulerRetry:
    def _splits(self, n, nodes=4):
        return [InputSplit(10, [i % nodes], f"s{i}") for i in range(n)]

    def _metrics(self, seconds=1.0):
        m = Metrics()
        m.charge_io(to_ticks(seconds))
        return m

    def test_transient_failure_is_retried_elsewhere(self):
        failed_once = []

        def execute(split, node):
            if split.label == "s1" and not failed_once:
                failed_once.append(node)
                raise TransientReadError("flaky read")
            return self._metrics()

        recorder = FlightRecorder()
        with recorder.activate():
            tasks = schedule(
                self._splits(4), 4, 1, execute, max_attempts=4,
                obs=recorder,
            )
        survivors = [t for t in tasks if t.produced_output]
        assert sorted(t.split.label for t in survivors) == [
            "s0", "s1", "s2", "s3"
        ]
        retried = [t for t in tasks if t.split.label == "s1"]
        assert len(retried) == 2
        assert retried[0].failed and retried[0].error == "flaky read"
        assert retried[1].attempt == 1
        # the retry was re-placed away from the node that failed it
        assert retried[1].node != failed_once[0]
        assert recorder.registry.value_of(
            "task.attempts", outcome="failed"
        ) == 1
        assert recorder.registry.value_of("task.attempts", outcome="ok") == 4

    def test_exhausted_attempts_raise_job_failed(self):
        def execute(split, node):
            if split.label == "s0":
                raise TransientReadError("always broken")
            return self._metrics()

        with pytest.raises(JobFailedError) as info:
            schedule(self._splits(3), 4, 1, execute, max_attempts=2)
        assert len(info.value.attempts) == 2
        assert all(a["split"] == "s0" for a in info.value.attempts)
        assert info.value.attempts[0]["attempt"] == 0
        assert info.value.attempts[1]["attempt"] == 1

    def test_repeatedly_failing_node_is_blacklisted(self):
        def execute(split, node):
            if node == 0:
                raise TransientReadError("bad disk")
            return self._metrics()

        recorder = FlightRecorder()
        tasks = schedule(
            self._splits(8), 4, 1, execute, max_attempts=8, obs=recorder,
        )
        survivors = [t for t in tasks if t.produced_output]
        assert len(survivors) == 8
        assert all(t.node != 0 for t in survivors)
        failures_on_0 = [t for t in tasks if t.node == 0 and t.failed]
        # then the node was benched
        assert len(failures_on_0) == BLACKLIST_AFTER == 3
        assert recorder.registry.value_of(
            "scheduler.blacklisted", node=0
        ) == 1
        blacklisted = [
            e for e in recorder.events_log
            if e.kind == "node.blacklisted"
        ]
        assert [e.attrs["node"] for e in blacklisted] == [0]

    def test_fault_metrics_occupy_the_slot(self):
        # A failed attempt's partial work still burned slot time.
        def execute(split, node):
            if split.label == "s0" and node == 0:
                error = TransientReadError("mid-read")
                error.metrics = self._metrics(7.0)
                raise error
            return self._metrics(1.0)

        tasks = schedule(
            [InputSplit(10, [0], "s0")], 2, 1, execute, max_attempts=2
        )
        failed = [t for t in tasks if t.failed]
        assert failed and failed[0].duration == pytest.approx(7.0)
        retry = [t for t in tasks if t.produced_output][0]
        assert retry.node == 1
        assert retry.start >= 7.0  # backed off from the failure's end

    def test_last_resort_placement_on_a_banned_node(self):
        # A ban steers the retry to another node; on a one-node cluster
        # there is none, and the idle slot must not strand the job.
        failed_once = []

        def execute(split, node):
            if not failed_once:
                failed_once.append(node)
                raise TransientReadError("flaky read")
            return self._metrics()

        tasks = schedule(
            [InputSplit(10, [0], "s0")], 1, 1, execute, max_attempts=4
        )
        assert [(t.node, t.failed) for t in tasks] == [
            (0, True), (0, False)
        ]

    def test_ban_is_honoured_while_another_node_can_free_up(self):
        # Node 1 is busy, not gone: the retry waits for it rather than
        # going back to the node that just failed it.
        def execute(split, node):
            if split.label == "s0" and node == 0:
                raise TransientReadError("bad replica")
            return self._metrics(5.0)

        splits = [InputSplit(10, [0], "s0"), InputSplit(10, [1], "s1")]
        tasks = schedule(splits, 2, 1, execute, max_attempts=4)
        retry = [t for t in tasks if t.split.label == "s0"][-1]
        assert retry.node == 1 and retry.start == pytest.approx(5.0)


class TestManagerFaultPaths:
    """Behaviours the single-job scheduler had and the manager lacked
    until the two became one."""

    @staticmethod
    def _policy():
        return ClusterPolicy(tenants=[TenantConfig("t", "default")])

    @staticmethod
    def _seq_job(fs, records=60):
        from repro.formats.sequence_file import (
            SequenceFileInputFormat,
            write_sequence_file,
        )

        schema = micro_schema()
        write_sequence_file(
            fs, "/m/seq", schema, micro_records(schema, records)
        )

        def mapper(key, value, emit, ctx):
            emit(value.get("int0") % 5, 1)

        def reducer(key, values, emit, ctx):
            emit(key, sum(values))

        return Job(
            "agg", mapper, SequenceFileInputFormat("/m/seq"),
            reducer=reducer,
        )

    def test_one_node_cluster_survives_one_transient_error(self):
        # Regression: the manager failed this job with "no live map
        # slots remain" although its only slot was idle.
        fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
        job = self._seq_job(fs)
        fs.arm_transient_errors(0, 1)
        report = ClusterManager(fs, self._policy()).run(
            [JobRequest(job, "t", 0.0)]
        )
        assert [o.status for o in report.outcomes] == ["completed"]
        assert report.outcomes[0].attempts == 2

        fs2 = FileSystem(ClusterConfig(num_nodes=1, replication=1))
        job2 = self._seq_job(fs2)
        fs2.arm_transient_errors(0, 1)
        result = run_job(fs2, job2)
        assert (result.attempts, result.failed_tasks) == (2, 1)

    def test_decommissioned_node_gets_no_work(self):
        # Every split lives on node 1, so seven of the eight run
        # remote: the lowest free node used to be the decommissioned 0.
        from repro.mapreduce.types import InputFormat, ListRecordReader

        class OneHost(InputFormat):
            def get_splits(self, fs, cluster):
                return [InputSplit(10, [1], f"s{i}") for i in range(8)]

            def open_reader(self, fs, split, ctx):
                return ListRecordReader(ctx, [(split.label, 1)])

        def mapper(key, value, emit, ctx):
            ctx.metrics.charge_cpu(to_ticks(1.0))
            emit(key, value)

        fs = FileSystem(ClusterConfig(num_nodes=4, map_slots_per_node=1))
        fs.decommission_node(0)
        manager = ClusterManager(fs, self._policy())
        assert manager.total_slots == 3
        report = manager.run(
            [JobRequest(Job("j", mapper, OneHost()), "t", 0.0)]
        )
        assert report.completed
        (execution,) = manager.executions
        assert {t.node for t in execution.tasks} == {1, 2, 3}


class TestReduceInputOrder:
    """A reducer sees the map outputs in split order, whatever order the
    attempts that produced them ran in."""

    @staticmethod
    def _crawl(speculative=False):
        from repro.formats.sequence_file import (
            SequenceFileInputFormat,
            write_sequence_file,
        )
        from repro.workloads.crawl import crawl_records, crawl_schema

        fs = FileSystem(ClusterConfig(
            num_nodes=4, replication=3, block_size=16 * 1024,
            io_buffer_size=1024,
        ))
        write_sequence_file(
            fs, "/crawl/seq", crawl_schema(), crawl_records(60, seed=5),
            sync_interval=20,
        )

        def mapper(key, record, emit, ctx):
            content_type = record.get("metadata").get("content-type")
            emit(content_type, record.get("url"))

        def reducer(key, values, emit, ctx):
            emit(key, list(values))  # order-sensitive on purpose

        return fs, Job(
            "crawl", mapper, SequenceFileInputFormat("/crawl/seq"),
            reducer=reducer, num_reducers=2, speculative=speculative,
        )

    def test_retried_splits_keep_their_place(self):
        baseline = run_job(*self._crawl())
        plan = FaultPlan([
            FaultEvent("transient_read_error", node=node, count=1, at_task=0)
            for node in range(4)
        ])
        result = run_job(*self._crawl(), faults=plan)
        assert result.failed_tasks == 4
        assert result.output == baseline.output
        assert result.counters.as_dict() == baseline.counters.as_dict()

    def test_a_winning_clone_keeps_its_split_in_place(self):
        baseline = run_job(*self._crawl())
        plan = FaultPlan([
            FaultEvent("slow_node", node=0, factor=5.0, at_time=0.0)
        ])
        result = run_job(*self._crawl(speculative=True), faults=plan)
        assert any(t.speculative and t.produced_output for t in result.tasks)
        assert result.output == baseline.output
        assert result.counters.as_dict() == baseline.counters.as_dict()


class TestSpeculationTermination:
    def test_speculate_stops_once_nothing_is_eligible(self):
        # One straggler, 39 idle nodes: exactly one clone launches, and
        # the loop ends when the race does instead of scanning idle
        # slots for candidates that cannot exist.
        splits = [InputSplit(10, [0], f"s{i}") for i in range(4)]

        def execute(split, node):
            m = Metrics()
            slow = split.label == "s3" and node == 3
            m.charge_io(to_ticks(100.0 if slow else 1.0))
            return m

        tasks = schedule(splits, 40, 1, execute, speculative=True)
        duplicates = [t for t in tasks if t.speculative]
        assert len(duplicates) == 1  # one duplicate, data-local, wins
        assert duplicates[0].node == 0 and not duplicates[0].killed
        assert len(tasks) == 5

    def test_speculative_run_duplicates_each_split_at_most_once(self):
        splits = [InputSplit(10, [0], f"s{i}") for i in range(6)]

        def execute(split, node):
            m = Metrics()
            m.charge_io(to_ticks(5.0 if node != 0 else 1.0))
            return m

        tasks = schedule(splits, 3, 2, execute, speculative=True)
        from collections import Counter

        per_split = Counter(t.split.label for t in tasks)
        assert all(count <= 2 for count in per_split.values())
        winners = [t for t in tasks if t.produced_output and not t.killed]
        assert sorted(t.split.label for t in winners) == sorted(
            s.label for s in splits
        )


class TestJobLevelFaults:
    def _dataset(self, fs):
        from repro.formats.sequence_file import (
            SequenceFileInputFormat,
            write_sequence_file,
        )

        schema = micro_schema()
        write_sequence_file(
            fs, "/jobs/seq", schema, micro_records(schema, 150),
            sync_interval=50,
        )
        return SequenceFileInputFormat("/jobs/seq")

    @staticmethod
    def _job(fmt):
        def mapper(key, value, emit, ctx):
            emit(value.get("int0") % 5, 1)

        def reducer(key, values, emit, ctx):
            emit(key, sum(values))

        return Job("agg", mapper, fmt, reducer=reducer, num_reducers=2)

    def test_node_death_mid_job_preserves_output(self):
        def build():
            fs = FileSystem(ClusterConfig(
                num_nodes=6, replication=3, block_size=16 * 1024,
                io_buffer_size=4096,
            ))
            return fs, self._dataset(fs)

        fs, fmt = build()
        baseline = run_job(fs, self._job(fmt))
        victim = baseline.tasks[0].node
        plan = FaultPlan(
            [FaultEvent("kill_node", node=victim, at_time=1e-9)]
        )
        recorder = FlightRecorder()
        fs2, fmt2 = build()
        with recorder.activate():
            result = run_job(fs2, self._job(fmt2), faults=plan)
        assert sorted(result.output) == sorted(baseline.output)
        assert result.counters.as_dict() == baseline.counters.as_dict()
        assert result.failed_tasks >= 1
        assert result.attempts > len(baseline.tasks) - 1
        assert recorder.registry.value_of(
            "task.attempts", outcome="node_lost"
        ) >= 1
        assert fs2.fsck_report().healthy

    def test_node_death_in_the_shuffle_window_reruns_its_maps(self):
        # run_job inherits durable map outputs: a node dying after the
        # last map but before the shuffle has crossed the network takes
        # its spilled outputs with it, and exactly those splits re-run.
        def build():
            fs = FileSystem(ClusterConfig(
                num_nodes=6, replication=3, block_size=16 * 1024,
                io_buffer_size=4096,
            ))
            return fs, self._dataset(fs)

        def events(recorder, kind):
            return [e for e in recorder.events_log if e.kind == kind]

        fs, fmt = build()
        recorder = FlightRecorder()
        with recorder.activate():
            baseline = run_job(fs, self._job(fmt))
        (window,) = events(recorder, "shuffle.start")
        assert window.sim_time == baseline.map_makespan
        assert window.attrs["end"] > window.sim_time
        victim = baseline.tasks[0].node
        held = {
            t.split.label for t in baseline.tasks if t.node == victim
        }
        plan = FaultPlan([FaultEvent(
            "kill_node", node=victim,
            at_time=(window.sim_time + window.attrs["end"]) / 2,
        )])
        recorder = FlightRecorder()
        fs2, fmt2 = build()
        with recorder.activate():
            result = run_job(fs2, self._job(fmt2), faults=plan)
        lost = {e.attrs["split"] for e in events(recorder, "mapoutput.lost")}
        assert lost == held
        assert events(recorder, "shuffle.abort")
        assert result.attempts == len(baseline.tasks) + len(held)
        assert result.failed_tasks == len(held)
        assert sorted(result.output) == sorted(baseline.output)
        assert result.counters.as_dict() == baseline.counters.as_dict()
        assert result.total_time > baseline.total_time

    def test_replica_corrupted_mid_job_after_its_block_was_read(self):
        # The block is verified by the first run and by task 0; the
        # mark that lands at task 1 must still be seen.
        fs = cpp_fs()
        fmt = self._dataset(fs)
        baseline = run_job(fs, self._job(fmt))
        reader = next(
            t.node for t in baseline.tasks if t.split.label == "seq[1]"
        )
        plan = FaultPlan([FaultEvent(
            "corrupt_replica", path="/jobs/seq", block_index=1,
            node=reader, at_task=1,
        )])
        recorder = FlightRecorder()
        with recorder.activate():
            result = run_job(fs, self._job(fmt), faults=plan)
        assert sorted(result.output) == sorted(baseline.output)
        assert result.counters.as_dict() == baseline.counters.as_dict()
        registry = recorder.registry
        assert registry.value_of("replica.corrupt_detected", node=reader) == 1
        assert registry.value_of("replica.failover") >= 1
        assert fs.fsck_report().healthy

    def test_block_corrupted_mid_job_after_it_was_read_fails_the_job(self):
        fs = cpp_fs()
        fmt = self._dataset(fs)
        run_job(fs, self._job(fmt))  # every block read and verified
        plan = FaultPlan([FaultEvent(
            "corrupt_block", path="/jobs/seq", block_index=1, at_task=1,
        )])
        with pytest.raises(JobFailedError) as info:
            run_job(fs, self._job(fmt), faults=plan)
        assert info.value.attempts
        assert all(
            "every replica fails its checksum" in a["error"]
            for a in info.value.attempts
        )
        assert fs.fsck() == ["/jobs/seq"]

    def test_fault_during_the_reduce_phase_still_fires(self):
        # Faults fire through job completion, not just the map phase.
        fs = FileSystem(ClusterConfig(
            num_nodes=6, replication=3, block_size=16 * 1024,
            io_buffer_size=4096,
        ))
        fmt = self._dataset(fs)
        baseline = run_job(fs, self._job(fmt))
        assert baseline.reduce_time > 0
        late = baseline.map_makespan + baseline.reduce_time
        plan = FaultPlan([FaultEvent("kill_node", node=0, at_time=late)])
        result = run_job(fs, self._job(fmt), faults=plan)
        assert 0 in fs.failed_nodes
        assert result.failed_tasks == 0
        assert sorted(result.output) == sorted(baseline.output)

    def test_ambient_plan_reaches_run_job(self):
        fs = FileSystem(ClusterConfig(
            num_nodes=6, replication=3, block_size=16 * 1024,
            io_buffer_size=4096,
        ))
        fmt = self._dataset(fs)
        plan = FaultPlan([FaultEvent("kill_node", node=0, at_task=0)])
        with plan.activate():
            run_job(fs, self._job(fmt))
        assert 0 in fs.failed_nodes

    def test_unsurvivable_job_fails_cleanly(self):
        fs = FileSystem(ClusterConfig(
            num_nodes=4, replication=3, block_size=16 * 1024,
            io_buffer_size=4096,
        ))
        fmt = self._dataset(fs)
        # Arm an endless stream of read errors on every node: retries
        # exhaust max_attempts and the job must fail with history.
        for node in range(4):
            fs.arm_transient_errors(node, 10_000)
        job = self._job(fmt)
        job.max_attempts = 2
        with pytest.raises(JobFailedError) as info:
            run_job(fs, job)
        assert info.value.attempts  # carries the attempt history


class TestFsckCli:
    def test_fsck_healthy_exit_zero(self):
        from repro.cli import main

        lines = []
        code = main(
            ["fsck", "--records", "40", "--nodes", "6"], out=lines.append
        )
        assert code == 0
        assert any("HEALTHY" in line for line in lines)

    def test_fsck_reports_faults_and_repairs(self, tmp_path):
        from repro.cli import main

        plan = FaultPlan([
            FaultEvent("kill_node", node=1, at_time=0.0, repair=False),
            FaultEvent("corrupt_replica", node=RANDOM, at_task=0),
        ], seed=3)
        plan_path = tmp_path / "plan.json"
        plan.save(str(plan_path))

        degraded = []
        code = main(
            ["fsck", "--records", "40", "--nodes", "6",
             "--faults", str(plan_path)],
            out=degraded.append,
        )
        assert code == 1
        assert any("DEGRADED" in line for line in degraded)

        repaired = []
        code = main(
            ["fsck", "--records", "40", "--nodes", "6",
             "--faults", str(plan_path), "--repair"],
            out=repaired.append,
        )
        assert code == 0
        assert any("HEALTHY" in line for line in repaired)

    def test_fsck_bad_plan_path(self):
        from repro.cli import main

        lines = []
        code = main(
            ["fsck", "--faults", "/nonexistent/plan.json"],
            out=lines.append,
        )
        assert code == 1
        assert any("cannot load fault plan" in line for line in lines)
