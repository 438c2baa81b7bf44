"""Operator CLI for the continuous-monitoring layer.

Drives the real argparse surface end to end: ``cluster run --tsdb
--events-out`` producing the monitoring sidecar and buffered event
stream, then ``repro slo`` / ``repro alerts`` reading it back, plus
time-range Prometheus export and the guard rails around incompatible
flag combinations.
"""

import gzip
import json
import shutil

import pytest

from repro.cli import main


def collect(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory):
    """Sample profile at full duration so the etl SLO breaches."""
    from repro.cluster import sample_profile

    path = tmp_path_factory.mktemp("profile") / "profile.json"
    path.write_text(json.dumps(sample_profile().to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def sidecar(profile_path, tmp_path_factory):
    """One monitored run for the whole module: identical runs write
    byte-identical sidecars (tests/test_tsdb.py), so its readers can
    share it.  Read-only; a test that writes takes a copy."""
    path = tmp_path_factory.mktemp("sidecar") / "run.tsdb"
    code, text = collect(
        ["cluster", "run", profile_path, "--tsdb", str(path)]
    )
    assert code == 0
    return str(path)


class TestClusterRunMonitoring:
    def test_tsdb_run_reports_slo_and_alerts(self, profile_path, tmp_path):
        path = tmp_path / "run.tsdb"
        code, text = collect(
            ["cluster", "run", profile_path, "--tsdb", str(path),
             "--no-color"]
        )
        assert code == 0
        assert "etl-latency" in text
        assert "BREACH" in text
        assert "folded" in text and "1 run(s) accumulated" in text
        assert path.exists()

    def test_json_payload_carries_slo_block(self, profile_path, tmp_path):
        path = tmp_path / "run.tsdb"
        code, text = collect(
            ["cluster", "run", profile_path, "--tsdb", str(path), "--json"]
        )
        assert code == 0
        payload = json.loads(text)
        slo = payload["slo"]
        assert {s["slo"] for s in slo["statuses"]} == {
            "etl-latency", "analytics-latency", "dashboard-latency"
        }
        assert any(
            a["transition"] == "firing" for a in slo["alerts"]
        )

    def test_rerun_accumulates_into_the_sidecar(
        self, profile_path, sidecar, tmp_path
    ):
        own = shutil.copy(sidecar, tmp_path / "run.tsdb")
        code, text = collect(
            ["cluster", "run", profile_path, "--tsdb", str(own),
             "--no-color"]
        )
        assert code == 0
        assert "2 run(s) accumulated" in text

    def test_sidecar_that_does_not_load_is_an_error_not_a_fresh_start(
        self, profile_path, tmp_path
    ):
        path = tmp_path / "run.tsdb"
        path.write_bytes(gzip.compress(
            b'{"format": "tsdb", "type": "meta", "v": 99}\n', mtime=0
        ))
        before = path.read_bytes()
        code, text = collect(
            ["cluster", "run", profile_path, "--tsdb", str(path)]
        )
        assert code == 1
        last = text.splitlines()[-1]
        assert last.startswith(f"error: cannot update tsdb sidecar {path}: ")
        assert "version 99" in last
        assert path.read_bytes() == before

    def test_events_out_writes_replayable_stream(
        self, profile_path, tmp_path
    ):
        stream = tmp_path / "events.jsonl"
        code, text = collect(
            ["cluster", "run", profile_path,
             "--events-out", str(stream)]
        )
        assert code == 0
        assert "wrote event stream" in text
        kinds = set()
        with open(stream) as handle:
            for line in handle:
                kinds.add(json.loads(line)["kind"])
        assert {"cluster.start", "job.finish", "cluster.finish"} <= kinds
        # the monitor ran (profile declares SLOs), so its lifecycle
        # events are on the stream too
        assert any(k.startswith("alert.") for k in kinds)
        assert "slo.status" in kinds

    def test_compare_agrees_with_two_separate_runs(self, profile_path):
        """``--compare``: both policies on the same trace, then one
        fair/fifo p95 row per tenant, each what two ``--policy`` runs
        of their own report."""
        code, text = collect(["cluster", "run", profile_path, "--compare"])
        assert code == 0
        separate = {}
        for policy in ("fifo", "fair"):
            run_code, run_text = collect(
                ["cluster", "run", profile_path, "--policy", policy,
                 "--json"]
            )
            assert run_code == 0
            separate[policy] = json.loads(run_text)
            # a single run of a profile with SLOs is monitored too
            del separate[policy]["slo"]
        assert json.loads(collect(
            ["cluster", "run", profile_path, "--compare", "--json"]
        )[1]) == separate
        head, table = text.split("fair p95 / fifo p95 (same trace):\n")
        assert "policy=fifo" in head and "policy=fair" in head
        rows = dict(line.split() for line in table.splitlines())
        tenants = separate["fair"]["tenants"]
        assert sorted(rows) == sorted(tenants)
        for tenant, ratio in rows.items():
            fair_p95 = tenants[tenant]["p95"]
            fifo_p95 = separate["fifo"]["tenants"][tenant]["p95"]
            assert ratio == f"{fair_p95 / fifo_p95:.3f}"

    def test_compare_is_incompatible_with_recording(
        self, profile_path, tmp_path
    ):
        code, text = collect(
            ["cluster", "run", profile_path, "--compare",
             "--tsdb", str(tmp_path / "x.tsdb")]
        )
        assert code == 1
        assert "drop --compare" in text


class TestSloVerb:
    def test_table_renders_statuses(self, sidecar):
        code, text = collect(["slo", sidecar, "--no-color"])
        assert code == 0
        assert "slo status at" in text
        assert "etl-latency" in text
        assert "BREACH" in text
        assert "dashboard-latency" in text

    def test_json_statuses_nonempty(self, sidecar):
        code, text = collect(["slo", sidecar, "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["runs"] == 1
        assert len(payload["statuses"]) == 3
        etl = next(
            s for s in payload["statuses"] if s["slo"] == "etl-latency"
        )
        assert etl["healthy"] is False

    def test_strict_exits_nonzero_on_breach(self, sidecar):
        code, _ = collect(["slo", sidecar, "--strict", "--no-color"])
        assert code == 1

    def test_at_evaluates_mid_run(self, sidecar):
        code, text = collect(
            ["slo", sidecar, "--at", "0.2", "--json"]
        )
        assert code == 0
        assert json.loads(text)["at"] == 0.2

    def test_missing_sidecar_fails_cleanly(self, tmp_path):
        code, text = collect(["slo", str(tmp_path / "ghost.tsdb")])
        assert code == 1
        assert "cannot read tsdb sidecar" in text

    def test_non_tsdb_file_rejected(self, tmp_path):
        bogus = tmp_path / "trace.tsdb"
        bogus.write_bytes(gzip.compress(b'{"kind": "event"}\n'))
        code, text = collect(["slo", str(bogus)])
        assert code == 1
        assert "cannot read tsdb sidecar" in text


class TestAlertsVerb:
    def test_timeline_renders(self, sidecar):
        code, text = collect(["alerts", sidecar, "--no-color"])
        assert code == 0
        assert "firing" in text
        assert "resolved" in text
        assert "etl-latency-fast-burn" in text

    def test_json_alerts_nonempty(self, sidecar):
        code, text = collect(["alerts", sidecar, "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["alerts"]
        transitions = {a["transition"] for a in payload["alerts"]}
        assert "firing" in transitions

    def test_firing_filter(self, sidecar):
        code, text = collect(
            ["alerts", sidecar, "--firing", "--json"]
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["alerts"]
        assert all(
            a["transition"] == "firing" for a in payload["alerts"]
        )


class TestTsdbExport:
    def test_prom_export_of_sidecar(self, sidecar):
        code, text = collect(["export", "prom", sidecar])
        assert code == 0
        assert "repro_cluster_jobs_completed_total" in text
        assert 'tenant="etl"' in text

    def test_time_range_narrows_totals(self, sidecar):
        full_code, full = collect(
            ["export", "prom", sidecar]
        )
        half_code, half = collect(
            ["export", "prom", sidecar, "--until", "0.5"]
        )
        assert full_code == half_code == 0

        def completed(text):
            total = 0.0
            for line in text.splitlines():
                if line.startswith("repro_cluster_jobs_completed_total"):
                    total += float(line.rsplit(" ", 1)[1])
            return total

        assert 0 < completed(half) < completed(full)

    def test_sidecar_rejects_other_formats(self, sidecar):
        code, text = collect(["export", "chrome", sidecar])
        assert code == 1
        assert "prom" in text

    def test_since_rejected_for_plain_traces(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"type": "meta", "name": "x"}\n'
        )
        code, text = collect(
            ["export", "prom", str(trace), "--since", "0.1"]
        )
        assert code == 1
        assert ".tsdb sidecars only" in text
