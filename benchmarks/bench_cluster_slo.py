"""Continuous monitoring: the observer must not perturb the schedule."""

import pytest

from repro.bench import cluster_slo

PARAMS = {"duration": 1.0, "seed": 20110401}


@pytest.fixture(scope="module")
def result():
    res = cluster_slo.run(**PARAMS)
    print("\n" + cluster_slo.format_table(res))
    return res


class TestPaperShape:
    def test_monitor_is_a_pure_observer(self, result):
        # Attaching the full tsdb + SLO/alerting stack must not move
        # the simulated timeline by a single tick.
        assert result.monitoring_efficiency == 1.0

    def test_store_reconciles_exactly_with_the_report(self, result):
        # Folded per-tenant counts and latency quantiles match the
        # report's own aggregation with zero tolerance.
        assert result.mismatches == []

    def test_the_declared_breach_is_detected(self, result):
        # The sample profile deliberately over-promises on etl latency;
        # the burn-rate rules must page about it.
        etl = next(s for s in result.statuses if s.slo.name == "etl-latency")
        assert not etl.healthy
        assert result.firing_transitions > 0

    def test_healthy_tenants_stay_quiet(self, result):
        quiet = [
            s for s in result.statuses
            if s.slo.name in ("analytics-latency", "dashboard-latency")
        ]
        assert quiet and all(s.healthy for s in quiet)

    def test_every_alert_eventually_resolves(self, result):
        open_alerts = {}
        for entry in result.store.alerts:
            if entry["transition"] in ("pending", "firing"):
                open_alerts[entry["alert"]] = entry["transition"]
            else:
                open_alerts.pop(entry["alert"], None)
        assert open_alerts == {}
