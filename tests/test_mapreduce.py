"""Tests for the MapReduce engine: jobs, scheduling, shuffle, counters."""

import pytest

from repro.core import ColumnInputFormat, write_dataset
from repro.formats.sequence_file import SequenceFileInputFormat, write_sequence_file
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.mapreduce.output import TextOutputFormat
from repro.mapreduce.scheduler import simulate_wave_makespan
from repro.serde.schema import Schema
from repro.sim.calibration import to_ticks
from tests.conftest import make_ctx, micro_records, micro_schema, schedule


def word_schema():
    return Schema.record("doc", [("text", Schema.string())])


def load_docs(fs, texts, path="/in/docs"):
    schema = word_schema()
    write_sequence_file(
        fs, path, schema, [{"text": t} for t in texts], sync_interval=200
    )
    return SequenceFileInputFormat(path)


def tokenize_mapper(key, value, emit, ctx):
    for word in value.get("text").split():
        emit(word, 1)


def count_reducer(key, values, emit, ctx):
    emit(key, sum(values))


class TestWordCount:
    def test_wordcount_end_to_end(self, fs):
        fmt = load_docs(fs, ["a b a", "b c", "a"])
        job = Job(
            "wc", tokenize_mapper, fmt, reducer=count_reducer, num_reducers=3
        )
        result = run_job(fs, job)
        assert dict(result.output) == {"a": 3, "b": 2, "c": 1}

    def test_combiner_preserves_result(self, fs):
        fmt = load_docs(fs, ["x y x"] * 50)
        plain = run_job(
            fs, Job("wc", tokenize_mapper, fmt, reducer=count_reducer)
        )
        combined = run_job(
            fs,
            Job(
                "wc-c",
                tokenize_mapper,
                fmt,
                reducer=count_reducer,
                combiner=count_reducer,
            ),
        )
        assert dict(plain.output) == dict(combined.output) == {"x": 100, "y": 50}

    def test_combiner_shrinks_shuffle(self, fs):
        fmt = load_docs(fs, ["x y x"] * 200)
        plain = run_job(
            fs, Job("wc", tokenize_mapper, fmt, reducer=count_reducer)
        )
        combined = run_job(
            fs,
            Job(
                "wc-c",
                tokenize_mapper,
                fmt,
                reducer=count_reducer,
                combiner=count_reducer,
            ),
        )
        assert combined.reduce_metrics.net_bytes < plain.reduce_metrics.net_bytes

    def test_map_only_job(self, fs):
        fmt = load_docs(fs, ["keep me", "drop", "keep too"])

        def filter_mapper(key, value, emit, ctx):
            if "keep" in value.get("text"):
                emit(None, value.get("text"))

        result = run_job(fs, Job("filter", filter_mapper, fmt))
        assert sorted(v for _, v in result.output) == ["keep me", "keep too"]
        assert result.reduce_time == 0.0

    def test_text_output_format(self, fs):
        fmt = load_docs(fs, ["a b"])
        job = Job(
            "wc",
            tokenize_mapper,
            fmt,
            reducer=count_reducer,
            output_format=TextOutputFormat("/out/wc"),
            num_reducers=2,
        )
        run_job(fs, job)
        parts = fs.listdir("/out/wc")
        assert parts == ["part-r-00000", "part-r-00001"]
        content = b"".join(fs.read_file(f"/out/wc/{p}") for p in parts)
        assert sorted(content.decode().splitlines()) == ["a\t1", "b\t1"]


class TestLazyRows:
    def test_a_lazy_row_emitted_into_the_shuffle_keeps_its_values(self, fs):
        # The reader reuses one lazy row; what the mapper emits is kept
        # until the job ends.
        schema = Schema.record(
            "r", [("a", Schema.int_()), ("b", Schema.string())]
        )
        rows = [{"a": i, "b": f"s{i}"} for i in range(5)]
        write_dataset(fs, "/in/rows", schema, rows)

        def identity(key, value, emit, ctx):
            emit(value.get("a"), value)

        for reducer in (None, lambda k, vs, emit, ctx: emit(k, *vs)):
            result = run_job(fs, Job(
                "id", identity, ColumnInputFormat("/in/rows", lazy=True),
                reducer=reducer,
            ))
            assert sorted(
                (k, v.to_dict()) for k, v in result.output
            ) == [(row["a"], row) for row in rows]


class TestJobMetrics:
    def test_result_reports_bytes_and_times(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 400)
        write_dataset(fs, "/in/cif", schema, records, split_bytes=16 * 1024)
        fmt = ColumnInputFormat("/in/cif", columns=["int0"], lazy=False)

        def m(key, value, emit, ctx):
            emit(None, value.get("int0"))

        result = run_job(fs, Job("scan", m, fmt))
        assert result.bytes_read > 0
        assert result.map_time > 0
        assert result.total_time >= result.map_makespan
        assert result.counters.get("map.records") == 400
        assert len(result.output) == 400

    def test_map_time_is_slot_normalized(self, fs):
        # map_time = sum(task durations) / total slots, the Table 1 metric.
        fmt = load_docs(fs, ["w"] * 500)
        result = run_job(fs, Job("t", tokenize_mapper, fmt))
        total = sum(t.duration for t in result.tasks)
        assert result.map_time == pytest.approx(
            total / fs.cluster.total_map_slots
        )

    def test_counters_track_locality(self, fs):
        fmt = load_docs(fs, ["w x y"] * 300)
        result = run_job(fs, Job("t", tokenize_mapper, fmt))
        assert result.counters.get("map.tasks") == len(result.tasks)
        assert 0 <= result.data_local_fraction <= 1


class TestScheduling:
    def test_locality_preferred_when_available(self):
        # Single-slot cluster; every split hosted everywhere => all local.
        fs = FileSystem(
            ClusterConfig(num_nodes=3, replication=3, block_size=2048)
        )
        fs.write_file("/f", b"x" * 6000)
        from repro.formats.common import block_splits
        from repro.sim.metrics import Metrics

        splits = block_splits(fs, "/f", "b")

        def execute(split, node):
            m = Metrics()
            m.charge_io(to_ticks(1.0))
            return m

        tasks = schedule(splits, 3, 1, execute)
        assert all(t.data_local for t in tasks)

    def test_all_splits_executed_once(self):
        from repro.mapreduce.types import InputSplit
        from repro.sim.metrics import Metrics

        splits = [InputSplit(10, [i % 4], f"s{i}") for i in range(37)]

        def execute(split, node):
            m = Metrics()
            m.charge_io(to_ticks(0.5))
            return m

        tasks = schedule(splits, 4, 2, execute)
        assert sorted(t.split.label for t in tasks) == sorted(
            s.label for s in splits
        )

    def test_makespan_respects_slot_parallelism(self):
        # 8 unit tasks on 4 slots => two waves.
        assert simulate_wave_makespan([1.0] * 8, 4) == pytest.approx(2.0)
        assert simulate_wave_makespan([1.0] * 8, 8) == pytest.approx(1.0)
        assert simulate_wave_makespan([], 8) == 0.0

    def test_remote_task_pays_more(self):
        # One node holds all data; with slots only elsewhere the job pays
        # remote reads.
        cluster_local = ClusterConfig(
            num_nodes=2, replication=2, block_size=1 << 20
        )
        fs = FileSystem(cluster_local)
        fs.write_file("/in/f", b"q" * 500_000)

        from repro.formats.common import block_splits
        from repro.sim.metrics import Metrics

        splits = block_splits(fs, "/in/f", "b")

        def execute_on(node):
            m = Metrics()
            stream = fs.open("/in/f", node=node, metrics=m)
            stream.read_fully()
            return m

        local_node = splits[0].locations[0]
        m_local = execute_on(local_node)
        # Simulate a 3rd, data-free node.
        fs2 = FileSystem(ClusterConfig(num_nodes=8, replication=2))
        fs2.write_file("/in/f", b"q" * 500_000)
        locs = set(fs2.block_locations("/in/f")[0])
        outsider = next(n for n in range(8) if n not in locs)
        m_remote = Metrics()
        fs2.open("/in/f", node=outsider, metrics=m_remote).read_fully()
        assert m_remote.io_time > m_local.io_time


class TestValidation:
    def test_negative_reducers_rejected(self, fs):
        with pytest.raises(ValueError):
            Job("bad", tokenize_mapper, load_docs(fs, ["x"]), num_reducers=-1)

    def test_reducer_implies_one_reducer(self, fs):
        job = Job("j", tokenize_mapper, load_docs(fs, ["x"]), reducer=count_reducer)
        assert job.num_reducers == 1
