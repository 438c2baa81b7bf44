"""Tests for speculative execution of map stragglers.

``Job.speculative`` turns on the scheduler's progress-based cloning: a
running attempt that has taken ``slowdown`` (1.5) times the median of
the completed attempts (at least ``min_samples`` = 3 of them) is cloned
onto an idle slot; the first finisher wins and the loser is killed.
"""

from collections import Counter

import pytest

from repro.core import ColumnInputFormat, write_dataset
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.mapreduce.scheduler import makespan
from repro.mapreduce.types import InputSplit
from repro.sim.calibration import to_ticks
from repro.sim.metrics import Metrics
from tests.conftest import micro_records, micro_schema, schedule


def _straggler_execute(slow_seconds):
    """s3 crawls on its home node 3; everything else takes 1s."""

    def execute(split, node):
        m = Metrics()
        slow = split.label == "s3" and node == 3
        m.charge_io(to_ticks(slow_seconds if slow else 1.0))
        return m

    return execute


def _attempts(tasks):
    return [
        (t.split.label, t.node, t.slot, t.start, t.duration, t.speculative)
        for t in tasks
    ]


class TestSchedulerSpeculation:
    def _splits(self, n=4):
        # 4 nodes x 1 slot, one split per node: one wave.
        return [InputSplit(10, [i], f"s{i}") for i in range(n)]

    def test_duplicate_wins_and_original_killed(self):
        # s0..s2 finish at t=1 (three samples, median 1s); s3 crosses
        # the 1.5s threshold, is cloned onto an idle node, and the
        # clone commits at t=2.5 - long before the original would.
        tasks = schedule(
            self._splits(), 4, 1, _straggler_execute(100.0),
            speculative=True,
        )
        assert len(tasks) == 5  # 4 originals + 1 duplicate
        duplicate = next(t for t in tasks if t.speculative)
        original = next(
            t for t in tasks if t.split.label == "s3" and not t.speculative
        )
        assert duplicate.start == pytest.approx(1.5)
        assert duplicate.node != original.node
        assert not duplicate.killed
        assert original.killed and not original.failed
        assert original.end == duplicate.end  # killed at commit time

    def test_speculation_improves_makespan(self):
        baseline = schedule(
            self._splits(), 4, 1, _straggler_execute(100.0),
            speculative=False,
        )
        speculated = schedule(
            self._splits(), 4, 1, _straggler_execute(100.0),
            speculative=True,
        )
        assert makespan(baseline) == pytest.approx(100.0)
        assert makespan(speculated) == pytest.approx(2.5)

    def test_no_speculation_when_everything_local(self):
        # Uniform local tasks in two waves: nobody ever runs 1.5x the
        # median, so nothing is cloned.
        splits = [InputSplit(10, [0, 1], f"s{i}") for i in range(8)]
        tasks = schedule(
            splits, 2, 2, _straggler_execute(1.0), speculative=True
        )
        assert len(tasks) == 8
        assert not any(t.speculative for t in tasks)

    def test_losing_duplicate_marked_killed(self):
        # The straggler needs 2s: it is cloned at 1.5s, but a rerun
        # from scratch takes 1s and cannot beat the 0.5s it has left.
        tasks = schedule(
            self._splits(), 4, 1, _straggler_execute(2.0),
            speculative=True,
        )
        (duplicate,) = [t for t in tasks if t.speculative]
        assert duplicate.killed
        assert duplicate.end == pytest.approx(2.0)  # dies with the race
        original = next(
            t for t in tasks if t.split.label == "s3" and not t.speculative
        )
        assert original.produced_output

    def test_each_split_speculated_at_most_once(self):
        # Every node but 0 is slow for every split: many stragglers,
        # many idle slots, still one clone per split at most.
        def execute(split, node):
            m = Metrics()
            m.charge_io(to_ticks(1.0 if node == 0 else 20.0))
            return m

        splits = [InputSplit(10, [0], f"s{i}") for i in range(9)]
        tasks = schedule(splits, 4, 2, execute, speculative=True)
        assert sum(t.speculative for t in tasks) == 6
        clones = Counter(t.split.label for t in tasks if t.speculative)
        assert all(count == 1 for count in clones.values())
        survivors = Counter(
            t.split.label for t in tasks if t.produced_output
        )
        assert survivors == Counter(s.label for s in splits)

    def test_off_by_default_matches_plain(self):
        default = schedule(self._splits(), 4, 1, _straggler_execute(100.0))
        plain = schedule(
            self._splits(), 4, 1, _straggler_execute(100.0),
            speculative=False,
        )
        assert not any(t.speculative for t in default)
        assert _attempts(default) == _attempts(plain)


class TestJobSpeculation:
    def test_output_unchanged_by_speculation(self):
        # A CIF dataset on a tiny cluster without CPP: some tasks run
        # remotely, speculation re-runs them — the job's answer must be
        # byte-identical to the non-speculative run.
        fs = FileSystem(
            ClusterConfig(num_nodes=4, map_slots_per_node=1,
                          block_size=32 * 1024)
        )
        schema = micro_schema()
        records = micro_records(schema, 300)
        write_dataset(fs, "/sp/d", schema, records, split_bytes=8 * 1024)

        def mapper(key, record, emit, ctx):
            emit(record.get("int0") % 10, 1)

        def reducer(key, values, emit, ctx):
            emit(key, sum(values))

        fmt = ColumnInputFormat("/sp/d", columns=["int0"], lazy=False)
        plain = run_job(fs, Job("p", mapper, fmt, reducer=reducer))
        spec = run_job(
            fs, Job("s", mapper, fmt, reducer=reducer, speculative=True)
        )
        assert sorted(plain.output) == sorted(spec.output)
        # Speculative duplicates never *increase* wall clock.
        assert spec.map_makespan <= plain.map_makespan + 1e-9
