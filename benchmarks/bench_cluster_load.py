"""Multi-tenant scheduling: fair-share + preemption vs FIFO latency."""

import pytest

from repro.bench import cluster_load


@pytest.fixture(scope="module")
def result():
    res = cluster_load.run(duration=1.0, seed=20110401)
    print("\n" + cluster_load.format_table(res))
    return res


class TestPaperShape:
    def test_preemption_halves_interactive_p95(self, result):
        # The acceptance bar: fair share + preemption cuts interactive
        # p95 to at most half of the FIFO baseline on the same trace.
        assert result.interactive_p95_ratio >= 2.0

    def test_fair_actually_preempts(self, result):
        assert result.reports["fair"].preemptions > 0
        assert result.reports["fifo"].preemptions == 0

    def test_same_trace_same_completed_work(self, result):
        # Policy changes who waits, not what runs: both policies admit
        # and finish the same jobs when no tenant queue overflows
        # differently — completed+rejected must cover every submission.
        for policy in ("fair", "fifo"):
            report = result.reports[policy]
            assert (
                len(report.completed)
                + len(report.rejected)
                + len(report.failed)
                == len(report.outcomes)
            )
            assert not report.failed

    def test_cluster_is_actually_contended(self, result):
        # The experiment is meaningless on an idle cluster.
        assert result.reports["fair"].utilization > 0.5
