"""Tests for the CLI's experiment and report verbs."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestCli:
    def collect(self, argv):
        lines = []
        code = main(argv, out=lines.append)
        return code, "\n".join(lines)

    def test_list_names_every_experiment(self):
        code, text = self.collect(["list"])
        assert code == 0
        for name in EXPERIMENTS:
            assert name in text

    def test_run_small_experiment(self):
        code, text = self.collect(["experiment", "fig8", "--records", "10"])
        assert code == 0
        assert "Figure 8" in text
        assert "managed" in text and "native" in text

    def test_run_addcolumn_with_size(self):
        code, text = self.collect(["experiment", "addcolumn", "--records", "500"])
        assert code == 0
        assert "RCFile rewrite" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure-nope"], out=lambda s: None)

    def test_no_command_prints_help(self, capsys):
        assert main([], out=lambda s: None) == 2

    def test_every_experiment_registered_has_run_and_format(self):
        for name, experiment in EXPERIMENTS.items():
            assert hasattr(experiment.module, "run"), name
            assert hasattr(experiment.module, "format_table"), name


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"], out=lambda s: None)
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("repro ")
        assert text.split()[1][0].isdigit()


@pytest.fixture(scope="class")
def fig7_trace(tmp_path_factory):
    """One small traced fig7 run shared by the trace-CLI tests."""
    target = tmp_path_factory.mktemp("trace") / "run.jsonl"
    code = main(
        ["experiment", "fig7", "--records", "150",
         "--trace-out", str(target)],
        out=lambda s: None,
    )
    assert code == 0
    return target


class TestTraceCli:
    def collect(self, argv):
        lines = []
        code = main(argv, out=lines.append)
        return code, "\n".join(lines)

    def test_experiment_trace_out_writes_jsonl(self, fig7_trace):
        import json

        lines = fig7_trace.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        types = {r["type"] for r in records}
        assert "span" in types and "metrics" in types and "counter" in types

    def test_report_renders_trace(self, fig7_trace):
        code, text = self.collect(["report", str(fig7_trace)])
        assert code == 0
        assert "flight recorder" in text
        assert "Top spans by time" in text
        assert "Per-column bytes read" in text

    def test_report_trace_to_file(self, fig7_trace, tmp_path):
        rendered = tmp_path / "report.txt"
        code, _ = self.collect(
            ["report", str(fig7_trace), "--out", str(rendered)]
        )
        assert code == 0
        assert "flight recorder" in rendered.read_text()

    def test_report_rejects_non_trace_file(self, tmp_path):
        bogus = tmp_path / "not-a-trace.jsonl"
        bogus.write_text("this is not json\n")
        code, text = self.collect(["report", str(bogus)])
        assert code == 1
        assert "error" in text

    def test_report_missing_file(self, tmp_path):
        code, text = self.collect(["report", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error" in text


class TestReportCommand:
    def test_report_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["report", "--out", "/tmp/r.md"])
        assert args.command == "report"
        assert args.out == "/tmp/r.md"

    def test_report_writes_file(self, tmp_path, monkeypatch):
        # Patch the registry down to one fast experiment so the test
        # exercises the report plumbing, not every experiment's runtime.
        from repro.bench import regress

        target = tmp_path / "results.md"
        small = {"fig8": regress.SCENARIOS["fig8"]}
        monkeypatch.setattr(regress, "SCENARIOS", small)
        code = main(["report", "--out", str(target)], out=lambda s: None)
        assert code == 0
        text = target.read_text()
        assert "# Reproduction results" in text
        assert "Figure 8" in text


@pytest.fixture(scope="class")
def job_trace(tmp_path_factory):
    """A traced run containing scheduled (map/reduce) task spans."""
    target = tmp_path_factory.mktemp("trace") / "job.jsonl"
    code = main(
        ["experiment", "table1", "--records", "120",
         "--trace-out", str(target)],
        out=lambda s: None,
    )
    assert code == 0
    return target


class TestPerfCli:
    def collect(self, argv):
        lines = []
        code = main(argv, out=lines.append)
        return code, "\n".join(lines)

    def test_critical_path_fully_attributes_a_fig7_run(self, fig7_trace):
        code, text = self.collect(["perf", "critical-path", str(fig7_trace)])
        assert code == 0
        # acceptance criterion: summed path time within 1% of the run's
        # simulated wall time (here it is exact by construction)
        assert "(100.00%)" in text
        assert "split_scan" in text

    def test_critical_path_on_a_job_run(self, job_trace):
        code, text = self.collect(["perf", "critical-path", str(job_trace)])
        assert code == 0
        assert "(100.00%)" in text and "map_task" in text

    def test_timeline_draws_slot_lanes(self, job_trace):
        code, text = self.collect(["perf", "timeline", str(job_trace)])
        assert code == 0
        assert "node " in text and "|" in text and "legend" in text

    def test_timeline_without_tasks_explains_itself(self, fig7_trace):
        code, text = self.collect(["perf", "timeline", str(fig7_trace)])
        assert code == 0
        assert "no scheduled task spans" in text

    def test_breakdown_reports_per_format_waste(self, job_trace):
        code, text = self.collect(["perf", "breakdown", str(job_trace)])
        assert code == 0
        assert "waste" in text and "rcfile/-" in text and "cif/" in text

    def test_stragglers_verb(self, job_trace):
        code, text = self.collect(
            ["perf", "stragglers", str(job_trace), "--threshold", "1.5"]
        )
        assert code == 0
        assert "Task balance" in text

    def test_diff_of_identical_traces_is_clean(self, job_trace):
        code, text = self.collect(
            ["perf", "diff", str(job_trace), str(job_trace)]
        )
        assert code == 0
        assert "0 regression(s)" in text

    def test_diff_detects_a_cost_regression(self, job_trace, tmp_path):
        import json

        worse = tmp_path / "worse.jsonl"
        lines = []
        for line in job_trace.read_text().splitlines():
            record = json.loads(line)
            if record["type"] == "metrics":
                record["seeks"] = record.get("seeks", 0) * 3 + 10
            lines.append(json.dumps(record, sort_keys=True))
        worse.write_text("\n".join(lines) + "\n")
        code, text = self.collect(
            ["perf", "diff", str(job_trace), str(worse)]
        )
        assert code == 1
        assert "[regression] metrics seeks" in text

    def test_missing_trace_fails_cleanly(self, tmp_path):
        code, text = self.collect(
            ["perf", "critical-path", str(tmp_path / "nope.jsonl")]
        )
        assert code == 1 and "error:" in text

    @pytest.mark.parametrize("verb", [
        "critical-path", "timeline", "breakdown", "stragglers",
        "operators", "diff",
    ])
    def test_torn_tail_trace_is_analysed_with_a_warning(
        self, job_trace, tmp_path, verb
    ):
        torn = tmp_path / "crashed.jsonl"
        torn.write_bytes(job_trace.read_bytes()[:-15])
        traces = [str(torn)] * (2 if verb == "diff" else 1)
        code, text = self.collect(["perf", verb, *traces])
        assert code == 0
        assert text.startswith("WARNING: truncated final line")


class TestBenchCli:
    def collect(self, argv):
        lines = []
        code = main(argv, out=lines.append)
        return code, "\n".join(lines)

    def test_bench_list_names_every_scenario(self):
        from repro.bench import regress

        code, text = self.collect(["bench", "list"])
        assert code == 0
        for name in regress.SCENARIOS:
            assert name in text

    def test_run_then_check_roundtrip(self, tmp_path):
        out_dir = str(tmp_path / "out")
        code, text = self.collect(
            ["bench", "run", "--scenario", "pruning", "--out-dir", out_dir]
        )
        assert code == 0
        assert (tmp_path / "out" / "BENCH_pruning.json").exists()
        code, text = self.collect(
            ["bench", "check", "--baseline-dir", out_dir]
        )
        assert code == 0
        assert "RESULT: PASS" in text

    def test_check_fails_on_tampered_baseline(self, tmp_path):
        import json

        out_dir = tmp_path / "out"
        self.collect(
            ["bench", "run", "--scenario", "pruning",
             "--out-dir", str(out_dir)]
        )
        path = out_dir / "BENCH_pruning.json"
        payload = json.loads(path.read_text())
        key = next(k for k in payload["metrics"] if k.startswith("bytes."))
        payload["metrics"][key] /= 2
        path.write_text(json.dumps(payload))
        code, text = self.collect(
            ["bench", "check", "--baseline-dir", str(out_dir)]
        )
        assert code == 1
        assert "RESULT: FAIL" in text and "[regression]" in text

    def test_check_with_fresh_dir(self, tmp_path):
        base, fresh = str(tmp_path / "a"), str(tmp_path / "b")
        self.collect(["bench", "run", "--scenario", "pruning",
                      "--out-dir", base])
        self.collect(["bench", "run", "--scenario", "pruning",
                      "--out-dir", fresh])
        code, text = self.collect(
            ["bench", "check", "--baseline-dir", base, "--fresh-dir", fresh]
        )
        assert code == 0 and "RESULT: PASS" in text

    def test_unknown_scenario_fails_cleanly(self, tmp_path):
        code, text = self.collect(
            ["bench", "run", "--scenario", "nope",
             "--out-dir", str(tmp_path)]
        )
        assert code == 1 and "unknown scenario" in text


class TestReportJson:
    def collect(self, argv):
        lines = []
        code = main(argv, out=lines.append)
        return code, "\n".join(lines)

    def test_json_summary_parses_and_reconciles(self, fig7_trace):
        import json

        code, text = self.collect(["report", str(fig7_trace), "--json"])
        assert code == 0
        summary = json.loads(text)
        assert summary["spans"]["count"] > 0
        readahead = summary["readahead"]
        assert readahead["fetched_bytes"] == (
            readahead["requested_bytes"] + readahead["waste_bytes"]
        )
        assert summary["metrics"]["disk_bytes"] > 0

    def test_json_without_trace_is_a_usage_error(self):
        code, text = self.collect(["report", "--json"])
        assert code == 2

    def test_json_missing_trace_exits_nonzero(self, tmp_path):
        code, text = self.collect(
            ["report", str(tmp_path / "nope.jsonl"), "--json"]
        )
        assert code == 1 and "error:" in text


class TestFsckTrace:
    def collect(self, argv):
        lines = []
        code = main(argv, out=lines.append)
        return code, "\n".join(lines)

    def test_fsck_trace_out_records_load_and_repair(self, tmp_path):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"events": [
            {"kind": "kill_node", "node": 2, "at_time": 0.0},
            {"kind": "corrupt_block", "path": None, "at_time": 0.0},
        ]}))
        trace = tmp_path / "fsck.jsonl"
        code, text = self.collect(
            ["fsck", "--records", "80", "--faults", str(plan),
             "--repair", "--trace-out", str(trace)]
        )
        assert trace.exists()
        assert f"wrote flight recording to {trace}" in text

        from repro.obs import RunReport

        report = RunReport.load(str(trace))
        assert report.meta["command"] == "fsck"
        assert report.meta["healthy"] == (code == 0)
        names = {s["name"] for s in report.spans}
        assert {"fsck", "load", "repair"} <= names
        faults = [s for s in report.spans if s["kind"] == "fault"]
        assert {f["attrs"]["fault"] for f in faults} == {
            "kill_node", "corrupt_block"
        }
        assert report.counter_total("faults.injected") == 2

    def test_fsck_healthy_run_traces_cleanly(self, tmp_path):
        trace = tmp_path / "fsck.jsonl"
        code, text = self.collect(
            ["fsck", "--records", "60", "--trace-out", str(trace)]
        )
        assert code == 0
        from repro.obs import RunReport

        report = RunReport.load(str(trace))
        assert report.meta["healthy"] is True
        assert "load" in {s["name"] for s in report.spans}


class TestClusterCli:
    def collect(self, argv):
        lines = []
        code = main(argv, out=lines.append)
        return code, "\n".join(lines)

    @pytest.fixture()
    def tiny_profile(self, tmp_path):
        """The sample profile shrunk to a fraction of a second of load."""
        import json

        from repro.cluster import sample_profile

        payload = sample_profile().to_dict()
        payload["duration"] = 0.1
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_sample_profile_prints_json(self):
        import json

        code, text = self.collect(["cluster", "sample-profile"])
        assert code == 0
        payload = json.loads(text)
        assert {t["name"] for t in payload["tenants"]} == {
            "etl", "analytics", "dashboard"
        }

    def test_sample_profile_out_writes_file(self, tmp_path):
        import json

        target = tmp_path / "profile.json"
        code, _ = self.collect(
            ["cluster", "sample-profile", "--out", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text())["policy"] == "fair"

    def test_run_renders_tenant_table(self, tiny_profile):
        code, text = self.collect(["cluster", "run", tiny_profile])
        assert code == 0
        assert "policy=fair" in text
        for tenant in ("etl", "analytics", "dashboard"):
            assert tenant in text

    def test_run_json_is_a_report_payload(self, tiny_profile):
        import json

        code, text = self.collect(
            ["cluster", "run", tiny_profile, "--json"]
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["policy"] == "fair"
        assert payload["jobs"]

    def test_policy_flag_switches_to_fifo(self, tiny_profile):
        code, text = self.collect(
            ["cluster", "run", tiny_profile, "--policy", "fifo"]
        )
        assert code == 0
        assert "policy=fifo" in text

    def test_trace_out_records_the_run(self, tiny_profile, tmp_path):
        import json

        trace = tmp_path / "cluster.jsonl"
        code, _ = self.collect(
            ["cluster", "run", tiny_profile, "--trace-out", str(trace)]
        )
        assert code == 0
        kinds = set()
        with open(trace) as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") == "event":
                    kinds.add(record.get("kind"))
        assert {"cluster.start", "job.submitted", "cluster.finish"} <= kinds

    def test_unreadable_profile_fails_cleanly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, text = self.collect(["cluster", "run", str(bad)])
        assert code == 1
        assert "cannot load" in text
