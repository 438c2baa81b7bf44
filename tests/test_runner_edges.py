"""Edge-case tests for the MapReduce runner and the scheduler it runs on."""

from collections import Counter

import pytest

from repro.cluster import (
    ClusterManager,
    ClusterPolicy,
    TenantConfig,
    build_filesystem,
    generate_requests,
    sample_profile,
)

from repro.core import ColumnInputFormat, write_dataset
from repro.faults import FaultPlan
from repro.formats.sequence_file import SequenceFileInputFormat, write_sequence_file
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.mapreduce.output import TextOutputFormat, render
from repro.mapreduce.runner import estimate_pair_size
from repro.mapreduce.scheduler import MapWork
from repro.mapreduce.types import InputSplit
from repro.obs import NULL_TRACER, EventBus, MetricRegistry, Observability
from repro.serde.schema import Schema
from repro.sim.calibration import to_ticks
from repro.sim.metrics import Metrics
from tests.conftest import micro_records, micro_schema, schedule


def passthrough(key, value, emit, ctx):
    emit(value.get("int0") % 7, value.get("int0"))


def sum_reducer(key, values, emit, ctx):
    emit(key, sum(values))


class TestEmptyInputs:
    def test_empty_dataset_job(self, fs):
        schema = micro_schema()
        write_dataset(fs, "/e/d", schema, [])
        result = run_job(
            fs, Job("empty", passthrough, ColumnInputFormat("/e/d"))
        )
        assert result.output == []
        assert result.map_time == 0 or result.map_time >= 0
        assert result.counters.get("map.records") == 0

    def test_reducer_with_no_map_output(self, fs):
        schema = micro_schema()
        write_sequence_file(fs, "/e/s", schema, micro_records(schema, 10))

        def drop_all(key, value, emit, ctx):
            pass

        result = run_job(
            fs,
            Job("drop", drop_all, SequenceFileInputFormat("/e/s"),
                reducer=sum_reducer, num_reducers=3),
        )
        assert result.output == []
        assert result.counters.get("reduce.tasks") == 3


class TestErrors:
    def test_mapper_exception_propagates(self, fs):
        schema = micro_schema()
        write_sequence_file(fs, "/e/s", schema, micro_records(schema, 5))

        def broken(key, value, emit, ctx):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_job(fs, Job("broken", broken, SequenceFileInputFormat("/e/s")))

    def test_reducer_exception_propagates(self, fs):
        schema = micro_schema()
        write_sequence_file(fs, "/e/s", schema, micro_records(schema, 5))

        def broken_reduce(key, values, emit, ctx):
            raise ValueError("reduce boom")

        with pytest.raises(ValueError, match="reduce boom"):
            run_job(
                fs,
                Job("broken-r", passthrough, SequenceFileInputFormat("/e/s"),
                    reducer=broken_reduce),
            )


class TestPartitioning:
    def test_each_key_to_exactly_one_reducer(self, fs):
        schema = micro_schema()
        write_sequence_file(fs, "/e/s", schema, micro_records(schema, 200))
        result = run_job(
            fs,
            Job("part", passthrough, SequenceFileInputFormat("/e/s"),
                reducer=sum_reducer, num_reducers=5),
        )
        keys = [k for k, _ in result.output]
        assert sorted(keys) == sorted(set(keys))  # no key split/duplicated
        assert set(keys) == set(range(7))

    def test_heterogeneous_keys_sort(self, fs):
        schema = micro_schema()
        write_sequence_file(fs, "/e/s", schema, micro_records(schema, 20))

        def mixed_keys(key, value, emit, ctx):
            emit(value.get("int0"), 1)
            emit(value.get("str0"), 1)
            emit(None, 1)

        result = run_job(
            fs,
            Job("mixed", mixed_keys, SequenceFileInputFormat("/e/s"),
                reducer=sum_reducer, num_reducers=2),
        )
        assert dict(result.output)[None] == 20


class TestSchedulerWaves:
    def test_more_splits_than_slots(self):
        splits = [InputSplit(1, [0], f"s{i}") for i in range(25)]

        def execute(split, node):
            m = Metrics()
            m.charge_io(to_ticks(1.0))
            return m

        tasks = schedule(splits, 2, 2, execute)
        assert len(tasks) == 25
        # 25 unit tasks on 4 slots: ~7 waves.
        assert max(t.end for t in tasks) == pytest.approx(7.0)

    def test_straggler_extends_makespan(self):
        durations = {"slow": 10.0, **{f"s{i}": 1.0 for i in range(7)}}
        splits = [InputSplit(1, [0], name) for name in durations]

        def execute(split, node):
            m = Metrics()
            m.charge_io(to_ticks(durations[split.label]))
            return m

        tasks = schedule(splits, 4, 1, execute)
        assert max(t.end for t in tasks) >= 10.0

    def test_zero_duration_tasks_terminate(self):
        splits = [InputSplit(0, [0], f"z{i}") for i in range(10)]
        tasks = schedule(splits, 1, 1, lambda s, n: Metrics())
        assert len(tasks) == 10


class TestOutputRendering:
    def test_render_types(self):
        assert render(None) == ""
        assert render(b"bytes") == "bytes"
        assert render(12) == "12"
        assert render("s") == "s"

    def test_text_output_none_key(self, fs):
        schema = micro_schema()
        write_sequence_file(fs, "/e/s", schema, micro_records(schema, 3))

        def emit_value_only(key, value, emit, ctx):
            emit(None, value.get("int0"))

        def identity_reduce(key, values, emit, ctx):
            for v in values:
                emit(key, v)

        run_job(
            fs,
            Job("none-key", emit_value_only, SequenceFileInputFormat("/e/s"),
                reducer=identity_reduce,
                output_format=TextOutputFormat("/out")),
        )
        content = fs.read_file("/out/part-r-00000").decode()
        assert len(content.splitlines()) == 3
        assert "\t" not in content  # empty keys render value-only lines


class TestShuffleSizing:
    @pytest.mark.parametrize(
        "pair",
        [
            ("key", 1),
            (None, None),
            ((1, "a"), [1, 2, 3]),
            ({"k": "v"}, {1, 2}),
            (b"bytes", 1.5),
        ],
    )
    def test_estimator_positive(self, pair):
        assert estimate_pair_size(*pair) > 0

    def test_bigger_values_cost_more(self):
        small = estimate_pair_size("k", "v")
        big = estimate_pair_size("k", "v" * 1000)
        assert big > small + 900


def recording_obs():
    """An Observability whose bus keeps every event, for replay."""
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    obs = Observability(NULL_TRACER, MetricRegistry(), enabled=True, bus=bus)
    return obs, events


def assert_schedule_invariants(manager, events):
    """What any run of the one event loop must satisfy; ``events`` is
    the run's bus stream (:func:`recording_obs`)."""
    executions = manager.executions
    by_slot = {}
    for execution in executions:
        for task in execution.tasks:
            by_slot.setdefault((task.node, task.slot), []).append(task)
            # data_local flag is truthful
            assert task.data_local == (task.node in task.split.locations)
    # no (node, slot) is ever double-booked
    for tasks in by_slot.values():
        tasks.sort(key=lambda t: (t.start, t.end))
        for earlier, later in zip(tasks, tasks[1:]):
            assert later.start >= earlier.end - 1e-12
    # every split has exactly one surviving attempt
    for execution in executions:
        if execution.failed is not None:
            continue
        survivors = sorted(
            t.split_index for t in execution.tasks if t.produced_output
        )
        assert survivors == list(range(len(execution.splits)))
    # busy slot time is the attempts' time, no more and no less
    assert manager.busy_slot_seconds == pytest.approx(sum(
        t.duration for e in executions for t in e.tasks
    ))
    # A finished run holds no slot: ``running`` is only attempts on
    # slots, and every slot of a node still taking work is free, once.
    assert not manager.running
    cluster = manager.fs.cluster
    assert sorted(manager.free) == [
        (node, slot)
        for node in range(cluster.num_nodes)
        if node not in manager.dead_nodes and manager.fs.is_node_live(node)
        for slot in range(cluster.map_slots_per_node)
    ]
    # Replayed from the event stream.  Every request ends exactly once,
    # as completed / failed / shed / rejected, and the report agrees.
    submitted = [
        e.attrs["job"] for e in events if e.kind == "job.submitted"
    ]
    ends = [
        (e.attrs["job"], e.attrs.get("outcome") or {
            "admission.reject": "rejected", "admission.shed": "shed",
        }[e.kind])
        for e in events
        if e.kind in ("admission.reject", "admission.shed", "job.finish")
    ]
    assert len(set(submitted)) == len(submitted)
    assert sorted(job for job, _ in ends) == sorted(submitted)
    assert {status for _, status in ends} <= {
        "completed", "failed", "shed", "rejected"
    }
    assert sorted(ends) == sorted(
        (o.job_name, o.status) for o in manager.outcomes
    )
    # No tenant ever holds more live map attempts than its slot quota
    # (which only the fair policy promises), and every attempt that
    # took a slot gave it back.
    quota = {
        t.name: t.max_running_slots for t in manager.policy.tenants
        if t.max_running_slots > 0 and manager.policy.policy == "fair"
    }
    live = Counter()
    for e in events:
        if e.attrs.get("kind") != "map":
            continue
        tenant = e.attrs["tenant"]
        if e.kind == "task.start":
            live[tenant] += 1
            assert live[tenant] <= quota.get(tenant, manager.total_slots)
        elif e.kind == "task.finish":
            live[tenant] -= 1
    assert not +live


def run_sample_profile(policy, faults=None, install=None):
    """Half a second of the three-tenant sample, analytics capped at two
    slots so the quota invariant has something to bite on; ``install``
    may swap the manager's scheduling hooks before the run."""
    profile = sample_profile()
    profile.duration = 0.5
    profile.tenants[1].max_running_slots = 2
    obs, events = recording_obs()
    manager = ClusterManager(
        build_filesystem(profile), profile.cluster_policy(policy), obs,
        faults=faults, max_attempts=4,
    )
    if install is not None:
        install(manager)
    report = manager.run(generate_requests(profile))
    return manager, events, report


class TestSchedulerProperties:
    """Invariants of the one scheduler, for one job and for many."""

    def test_random_configurations(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            num_nodes=st.integers(min_value=1, max_value=10),
            slots=st.integers(min_value=1, max_value=4),
            data=st.data(),
        )
        def check(num_nodes, slots, data):
            n_splits = data.draw(st.integers(min_value=0, max_value=30))
            splits = []
            for i in range(n_splits):
                locations = data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=num_nodes - 1),
                        max_size=3, unique=True,
                    )
                )
                splits.append(InputSplit(1, locations, f"s{i}"))

            def attempt(split, node):
                m = Metrics()
                m.charge_io(to_ticks(1.0 if node in split.locations else 3.0))
                return m, None

            fs = FileSystem(ClusterConfig(
                num_nodes=num_nodes, map_slots_per_node=slots
            ))
            obs, events = recording_obs()
            manager = ClusterManager(fs, ClusterPolicy(
                tenants=[TenantConfig("t", "default")], policy="fifo"
            ), obs)
            manager.submit(MapWork("one", splits, attempt), "t")
            manager.drive()
            assert_schedule_invariants(manager, events)
            (execution,) = manager.executions
            # fault-free: every split runs exactly once
            assert sorted(t.split.label for t in execution.tasks) == sorted(
                s.label for s in splits
            )

        check()

    @pytest.mark.parametrize("policy", ["fair", "fifo"])
    def test_sample_profile(self, policy):
        manager, events, report = run_sample_profile(policy)
        assert report.completed
        assert_schedule_invariants(manager, events)

    def test_sample_profile_on_a_chaos_seed(self):
        manager, events, report = run_sample_profile(
            "fair", faults=FaultPlan.random(11, sample_profile().nodes),
        )
        assert any(e.kind == "fault.injected" for e in events)
        assert report.completed
        assert_schedule_invariants(manager, events)
