"""Fault recovery: mid-run node kill vs the fault-free baseline."""

import pytest

from repro.bench import cluster_recovery

PARAMS = {
    "duration": 1.0, "seed": 20110401, "kill_time": 0.35, "kill_node": 1,
}


@pytest.fixture(scope="module")
def result():
    res = cluster_recovery.run(**PARAMS)
    print("\n" + cluster_recovery.format_table(res))
    return res


class TestPaperShape:
    def test_kill_lands_inside_a_shuffle_window(self, result):
        # The scenario only exercises re-execution if the dead node held
        # committed map outputs some unfinished job still needed.
        assert result.reports["faulted"].map_output_losses > 0
        assert result.reports["faultfree"].map_output_losses == 0

    def test_no_job_is_lost_to_the_fault(self, result):
        # Recovery means re-running work, never failing jobs: every
        # admitted job still completes after the kill.
        assert not result.reports["faulted"].failed

    def test_recovery_tax_is_bounded(self, result):
        # Losing 1 of 4 nodes costs time, but re-execution + speculation
        # keep the makespan within 50% of the fault-free run.
        assert 1.0 <= result.makespan_overhead <= 1.5

    def test_speculation_runs_on_survivors(self, result):
        assert result.reports["faulted"].speculative_attempts > 0
