"""The BENCH_*.json regression pipeline (`repro.bench.regress`)."""

import json
import os

import pytest

from repro.bench import regress


class TestDirections:
    def test_prefixes(self):
        assert regress.direction_of("time.cif.all_columns") == "lower"
        assert regress.direction_of("bytes.rcfile") == "lower"
        assert regress.direction_of("seeks.total") == "lower"
        assert regress.direction_of("ratio.seq_over_cif_1int") == "higher"
        assert regress.direction_of("bandwidth.seq.w20") == "higher"
        assert regress.direction_of("fraction.local.cpp") == "higher"
        assert regress.direction_of("count.answer.5pct") == "exact"
        assert regress.direction_of("unknown.metric") == "exact"

    def test_slugs(self):
        assert regress.slug("1 String+1 Map") == "1_string_1_map"
        assert regress.slug("CIF_10%") == "cif_10pct"
        assert regress.slug("4M RCFile") == "4m_rcfile"
        assert regress.fraction_slug(0.05) == "5pct"

    def test_flatten_takes_the_key_template(self):
        grid = {"4M RCFile": {0.05: 1.5, 1.0: 2.5}}
        assert regress.flatten(
            grid, "time.{}.{}", regress.fraction_slug
        ) == {"time.4m_rcfile.5pct": 1.5, "time.4m_rcfile.100pct": 2.5}


def payload(metrics, name="demo", params=None):
    return {
        "benchmark": name,
        "schema_version": regress.SCHEMA_VERSION,
        "params": params or {"records": 10},
        "metrics": metrics,
    }


class TestCompare:
    def test_identical_payloads_pass(self):
        base = payload({"time.scan": 1.0, "count.rows": 42})
        diff = regress.compare(base, payload(dict(base["metrics"])))
        assert diff.ok and not diff.regressions

    def test_time_growth_beyond_tolerance_fails(self):
        base = payload({"time.scan": 1.0})
        fresh = payload({"time.scan": 1.05})
        diff = regress.compare(base, fresh, rel_tol=0.02)
        assert not diff.ok
        assert diff.regressions[0].key == "time.scan"
        assert regress.compare(base, fresh, rel_tol=0.10).ok

    def test_default_gate_is_exact(self):
        base = payload({"time.scan": 1.0})
        fresh = payload({"time.scan": 1.0 + 1e-6})
        diff = regress.compare(base, fresh)
        assert not diff.ok
        assert diff.regressions[0].key == "time.scan"
        assert regress.compare(base, fresh, rel_tol=0.02).ok

    def test_time_shrink_is_an_improvement_not_a_failure(self):
        base = payload({"time.scan": 1.0})
        diff = regress.compare(base, payload({"time.scan": 0.5}))
        assert diff.ok
        assert [e.severity for e in diff.entries] == ["improvement"]

    def test_ratio_decline_fails(self):
        base = payload({"ratio.speedup": 30.0})
        diff = regress.compare(base, payload({"ratio.speedup": 20.0}))
        assert not diff.ok

    def test_exact_count_change_always_fails(self):
        base = payload({"count.answer": 42})
        diff = regress.compare(base, payload({"count.answer": 43}))
        assert not diff.ok  # answers changed: correctness, not noise

    def test_missing_metric_fails_new_metric_does_not(self):
        base = payload({"time.scan": 1.0, "time.gone": 2.0})
        fresh = payload({"time.scan": 1.0, "time.added": 3.0})
        diff = regress.compare(base, fresh)
        assert not diff.ok
        severities = {e.key: e.severity for e in diff.entries}
        assert severities["time.gone"] == "regression"
        assert severities["time.added"] == "new"

    def test_param_drift_is_an_error(self):
        base = payload({"time.scan": 1.0}, params={"records": 10})
        fresh = payload({"time.scan": 1.0}, params={"records": 20})
        diff = regress.compare(base, fresh)
        assert not diff.ok and "params changed" in diff.error

    def test_scenario_mismatch_is_an_error(self):
        diff = regress.compare(
            payload({}, name="a"), payload({}, name="b")
        )
        assert not diff.ok and diff.error


class TestPipeline:
    def test_every_wrapper_scenario_is_registered(self):
        # scenario <-> committed baseline <-> shape-check module, 1:1,
        # read off the directories
        scenarios = regress.SCENARIOS.values()
        assert len(scenarios) == 17
        assert sorted(os.listdir("benchmarks/baselines")) == sorted(
            regress.result_filename(s.name) for s in scenarios
        )
        assert sorted(
            name for name in os.listdir("benchmarks")
            if name.startswith("bench_")
        ) == sorted(f"bench_{s.source}.py" for s in scenarios)
        for scenario in scenarios:
            assert callable(scenario.module.run), scenario.name
            assert callable(scenario.module.metrics), scenario.name

    def test_every_committed_baseline_key_is_gated(self):
        # No informational class of metric: a key either carries one of
        # the direction prefixes or is compared exactly as a count.
        gated = regress._LOWER_BETTER + regress._HIGHER_BETTER + ("count.",)
        for filename in sorted(os.listdir("benchmarks/baselines")):
            payload = regress.load_result(
                os.path.join("benchmarks/baselines", filename)
            )
            for key in payload["metrics"]:
                assert key.startswith(gated), (filename, key)
                assert regress.direction_of(key) in (
                    "lower", "higher", "exact"
                )

    def test_run_write_check_roundtrip(self, tmp_path):
        # The cheapest scenario end-to-end: run -> BENCH_*.json ->
        # self-check passes; a perturbed baseline fails.
        out_dir = str(tmp_path / "baselines")
        (path,) = regress.run_all(out_dir, names=["pruning"])
        saved = regress.load_result(path)
        assert saved["benchmark"] == "pruning"
        assert saved["schema_version"] == regress.SCHEMA_VERSION
        assert any(k.startswith("bytes.") for k in saved["metrics"])
        assert any(k.startswith("count.") for k in saved["metrics"])

        report = regress.check(out_dir, names=["pruning"])
        assert report.ok, report.render()

        # shrink a lower-is-better baseline: the fresh value now reads
        # as a beyond-tolerance growth, i.e. a regression
        key = next(k for k in saved["metrics"] if k.startswith("bytes."))
        saved["metrics"][key] = saved["metrics"][key] / 2
        with open(path, "w") as handle:
            json.dump(saved, handle)
        report = regress.check(out_dir, names=["pruning"])
        assert not report.ok
        assert "FAIL" in report.render()

    def test_check_with_fresh_dir_does_not_rerun(self, tmp_path):
        base_dir, fresh_dir = str(tmp_path / "a"), str(tmp_path / "b")
        regress.run_all(base_dir, names=["pruning"])
        regress.run_all(fresh_dir, names=["pruning"])
        report = regress.check(
            base_dir, names=["pruning"], fresh_dir=fresh_dir
        )
        assert report.ok

    def test_determinism_same_params_same_payload(self):
        a = regress.run_scenario("pruning")
        b = regress.run_scenario("pruning")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_vector_scan_is_deterministic_too(self):
        # the one scenario that used to carry wall-clock keys
        a = regress.run_scenario("vector_scan")
        assert a == regress.run_scenario("vector_scan")
        assert a == regress.load_result(
            "benchmarks/baselines/BENCH_vector_scan.json"
        )

    def test_missing_baseline_is_an_error_not_a_crash(self, tmp_path):
        report = regress.check(str(tmp_path), names=["pruning"])
        assert not report.ok
        assert report.diffs[0].error

    @pytest.mark.parametrize("document", [
        '["benchmark", "metrics"]',
        '"benchmark metrics"',
        '{"benchmark": "pruning", "metrics": [1]}',
        '{"benchmark": "pruning", "params": {"records": 500},'
        ' "metrics": {"bytes.sorted": "many"}}',
        '{"benchmark": "pruning", "params": {"records": 500},'
        ' "metrics": {"bytes.sorted": NaN}}',
        '{"benchmark": "pruning", "params": {"records": 500},'
        ' "metrics": {"count.rows": true}}',
    ])
    def test_malformed_fresh_file_is_a_typed_error(self, tmp_path, document):
        # parses as JSON, is not a BENCH result: the scenario's ERROR
        # line, not a traceback
        (tmp_path / "BENCH_pruning.json").write_text(document)
        with pytest.raises(ValueError):
            regress.load_result(str(tmp_path / "BENCH_pruning.json"))
        report = regress.check(
            "benchmarks/baselines", names=["pruning"],
            fresh_dir=str(tmp_path),
        )
        assert not report.ok
        assert "pruning: ERROR" in report.render()

    def test_empty_baseline_dir(self, tmp_path):
        report = regress.check(str(tmp_path))
        assert not report.ok

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            regress.run_all(str(tmp_path), names=["nope"])

    def test_trace_dir_writes_flight_recordings(self, tmp_path):
        from repro.obs import RunReport, critical_path

        trace_dir = str(tmp_path / "traces")
        regress.run_all(
            str(tmp_path / "out"), names=["pruning"], trace_dir=trace_dir
        )
        trace = tmp_path / "traces" / "BENCH_pruning.trace.jsonl"
        assert trace.exists()
        loaded = RunReport.load(str(trace))
        assert loaded.meta["benchmark"] == "pruning"
        assert critical_path(loaded).coverage == pytest.approx(1.0, abs=0.01)

    def test_committed_baselines_match_fresh_runs(self):
        # The acceptance criterion, as a standing test: the baselines
        # in benchmarks/baselines/ agree with a fresh smoke-size run of
        # the two cheapest scenarios (CI's bench-regress job covers all
        # scenarios).
        report = regress.check(
            "benchmarks/baselines", names=["pruning", "colocation"]
        )
        assert report.ok, report.render()
