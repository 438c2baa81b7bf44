"""Trace exporters, gzip framing, torn-tail tolerance, and color.

Chrome trace-event exports must load in Perfetto/chrome://tracing:
every "B" needs a matching "E" in the same lane, file order must be
timestamp-monotonic.  Prometheus exports must re-parse under the strict
validating parser with the exact counter values.  Recordings written by
a crashed run (torn final line) must load with a warning, not an error.
"""

import json

import pytest

from repro.cli import main
from repro.core import ColumnInputFormat, write_dataset
from repro.faults import FaultEvent, FaultPlan
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.obs import FlightRecorder, RunReport
from repro.obs.export import (
    chrome_trace,
    parse_prometheus_text,
    prometheus_text,
    validate_chrome_trace,
)
from repro.util.term import PLAIN, Palette, color_enabled, palette
from tests.conftest import micro_records, micro_schema


@pytest.fixture(scope="module")
def recorded():
    """One chaos-seeded job recording shared by the export tests."""
    fs = FileSystem(ClusterConfig(
        num_nodes=5, replication=3, block_size=16 * 1024,
        io_buffer_size=2048,
    ))
    fs.use_column_placement()
    schema = micro_schema()
    write_dataset(fs, "/exp/cif", schema, micro_records(schema, 100),
                  split_bytes=12 * 1024)

    def mapper(key, value, emit, ctx):
        emit(value.get("int0") % 3, 1)

    def reducer(key, values, emit, ctx):
        emit(key, sum(values))

    job = Job(
        "export-demo", mapper,
        ColumnInputFormat("/exp/cif", columns=["int0"], lazy=False),
        reducer=reducer, num_reducers=2,
    )
    plan = FaultPlan(
        [FaultEvent("kill_node", node=1, at_task=1)], seed=3
    )
    recorder = FlightRecorder(meta={"test": "export"})
    with recorder.activate():
        run_job(fs, job, faults=plan)
    return recorder.report()


class TestChromeTrace:
    def test_validates_balanced_and_monotonic(self, recorded):
        trace = chrome_trace(recorded)
        assert validate_chrome_trace(trace) == []

    def test_has_spans_events_and_metadata(self, recorded):
        events = chrome_trace(recorded)["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"B", "E", "M", "i"} <= phases
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) > 0
        # the fault injection rides along as an instant event
        assert any(
            e["ph"] == "i" and "fault.injected" in e["name"]
            for e in events
        )

    def test_timestamps_monotonic_in_file_order(self, recorded):
        events = chrome_trace(recorded)["traceEvents"]
        stamped = [e["ts"] for e in events if e["ph"] != "M"]
        assert stamped == sorted(stamped)

    def test_sim_lanes_are_per_slot(self, recorded):
        events = chrome_trace(recorded)["traceEvents"]
        lanes = {
            e["tid"] for e in events
            if e["ph"] == "M" and e.get("pid") == 2
        }
        assert lanes  # at least one (node, slot) lane was materialized

    def test_validator_flags_unbalanced_input(self):
        bad = {"traceEvents": [
            {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "E", "name": "MISMATCH", "pid": 1, "tid": 1, "ts": 1},
            {"ph": "B", "name": "open", "pid": 1, "tid": 1, "ts": 2},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("MISMATCH" in p or "mismatch" in p for p in problems)
        assert any("unclosed" in p for p in problems)

    def test_validator_flags_backwards_time(self):
        bad = {"traceEvents": [
            {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 5},
            {"ph": "i", "name": "b", "pid": 1, "tid": 1, "ts": 4},
        ]}
        assert any("monotonic" in p for p in validate_chrome_trace(bad))


class TestPrometheusText:
    def test_round_trips_through_strict_parser(self, recorded):
        text = prometheus_text(recorded)
        types, samples = parse_prometheus_text(text)
        assert types["repro_hdfs_bytes_disk_total"] == "counter"
        total = sum(
            s.value for s in samples
            if s.name == "repro_hdfs_bytes_disk_total"
        )
        assert total == recorded.counter_total("hdfs.bytes.disk")

    def test_histogram_buckets_are_cumulative(self, recorded):
        text = prometheus_text(recorded)
        _, samples = parse_prometheus_text(text)
        buckets = [
            s for s in samples
            if s.name == "repro_hdfs_fetch_bytes_bucket"
            and s.labels.get("file", "").endswith("/s0/int0")
        ]
        assert buckets
        counts = [s.value for s in buckets]
        assert counts == sorted(counts)
        assert buckets[-1].labels["le"] == "+Inf"

    def test_rejects_malformed_exposition(self):
        with pytest.raises(ValueError):
            parse_prometheus_text('metric{unterminated 1\n')

    def test_accepts_live_registry(self, recorded):
        recorder = FlightRecorder()
        recorder.registry.counter("demo.count", kind="x").inc(3)
        text = prometheus_text(recorder.registry)
        _, samples = parse_prometheus_text(text)
        assert [s for s in samples if s.name == "repro_demo_count_total"]


class TestGzipFraming:
    def test_gz_suffix_writes_gzip_and_loads_back(self, recorded, tmp_path):
        target = tmp_path / "run.jsonl.gz"
        recorded.write_jsonl(str(target))
        assert target.read_bytes()[:2] == b"\x1f\x8b"
        assert RunReport.load(str(target)).summary() == recorded.summary()

    def test_cli_gz_suffix_on_fsck_trace_out(self, tmp_path):
        target = tmp_path / "fsck.jsonl.gz"
        code = main(
            ["fsck", "/data/g", "--records", "60", "--trace-out",
             str(target)],
            out=lambda s: None,
        )
        assert code == 0
        assert target.read_bytes()[:2] == b"\x1f\x8b"
        assert RunReport.load(str(target)).spans

    def test_cli_report_reads_gzipped_trace(self, recorded, tmp_path):
        target = tmp_path / "run.jsonl.gz"
        recorded.write_jsonl(str(target))
        lines = []
        assert main(["report", str(target)], out=lines.append) == 0
        assert any("Per-column bytes" in line for line in lines)


class TestTornTailTolerance:
    def test_truncated_final_line_loads_with_warning(self, recorded):
        text = recorded.to_jsonl()
        torn = text[: len(text) - len(text.splitlines()[-1]) // 2 - 1]
        report = RunReport.from_jsonl(torn)
        assert report.warnings and "truncated final line" in report.warnings[0]
        assert len(report.spans) == len(recorded.spans)

    def test_mid_file_garbage_still_raises(self, recorded):
        lines = recorded.to_jsonl().splitlines()
        lines[1] = '{"broken'
        with pytest.raises(ValueError):
            RunReport.from_jsonl("\n".join(lines) + "\n")

    def test_torn_tail_survives_the_cli(self, recorded, tmp_path):
        target = tmp_path / "crashed.jsonl"
        text = recorded.to_jsonl()
        target.write_text(text[:-15])
        lines = []
        assert main(["report", str(target), "--quiet"],
                    out=lines.append) == 0
        assert any("WARNING: truncated final line" in l for l in lines)

    def test_render_surfaces_warnings(self, recorded):
        text = recorded.to_jsonl()
        report = RunReport.from_jsonl(text[:-10])
        assert "WARNING" in report.render(quiet=True)


class TestCliExport:
    def test_chrome_export_checks_clean(self, recorded, tmp_path):
        trace = tmp_path / "run.jsonl"
        recorded.write_jsonl(str(trace))
        target = tmp_path / "chrome.json"
        lines = []
        code = main(
            ["export", "chrome", str(trace), "--out", str(target),
             "--check"],
            out=lines.append,
        )
        assert code == 0
        assert validate_chrome_trace(json.loads(target.read_text())) == []

    def test_prom_export_checks_clean(self, recorded, tmp_path):
        trace = tmp_path / "run.jsonl.gz"
        recorded.write_jsonl(str(trace))
        lines = []
        assert main(["export", "prom", str(trace), "--check"],
                    out=lines.append) == 0
        parse_prometheus_text("\n".join(lines))

    def test_export_missing_trace_fails(self, tmp_path):
        assert main(
            ["export", "chrome", str(tmp_path / "absent.jsonl")],
            out=lambda s: None,
        ) == 1


class TestColorHandling:
    def test_no_color_env_vetoes(self):
        assert not color_enabled(env={"NO_COLOR": "1"})
        assert not color_enabled(no_color_flag=True, env={})
        assert not color_enabled(env={"TERM": "dumb"})

    def test_non_tty_stream_vetoes(self):
        class Pipe:
            def isatty(self):
                return False

        assert not color_enabled(stream=Pipe(), env={})
        assert palette(stream=Pipe(), env={}) is PLAIN

    def test_tty_enables(self):
        class Tty:
            def isatty(self):
                return True

        assert color_enabled(stream=Tty(), env={})

    def test_plain_palette_is_identity(self):
        assert PLAIN.red("x") == "x" and PLAIN.bold("y") == "y"
        assert Palette(True).red("x") == "\x1b[31mx\x1b[0m"

    def test_report_render_quiet_drops_span_chart(self, recorded):
        full = recorded.render()
        quiet = recorded.render(quiet=True)
        assert "Top spans" in full
        assert "Top spans" not in quiet
        assert "Job counters" in quiet

    def test_cli_quiet_and_no_color(self, recorded, tmp_path):
        trace = tmp_path / "run.jsonl"
        recorded.write_jsonl(str(trace))
        lines = []
        code = main(
            ["report", str(trace), "--quiet", "--no-color"],
            out=lines.append,
        )
        assert code == 0
        text = "\n".join(lines)
        assert "\x1b[" not in text
        assert "Top spans" not in text
