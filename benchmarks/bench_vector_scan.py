"""Vectorized scan engine: charge identity on the Fig-10 query.

The vectorized batch layer exists to make the reproduction itself
faster while charging bit-identical simulated cost.  The speed is
``wallbench``'s to measure (its layer suite times these four legs); the
shape checks below, and the differential suite, assert the identity.
"""

import pytest

from repro.bench import vector_scan


@pytest.fixture(scope="module")
def result():
    res = vector_scan.run(records=4000)
    print("\n" + vector_scan.format_table(res))
    return res


class TestPaperShape:
    def test_engines_charge_identical_simulated_cost(self, result):
        assert result.mismatches == []
        assert result.simulated["scalar_eager"] == pytest.approx(
            result.simulated["vectorized_eager"], rel=1e-9
        )
        assert result.simulated["scalar_lazy"] == pytest.approx(
            result.simulated["vectorized_lazy"], rel=1e-9
        )

    def test_lazy_simulated_cost_below_eager(self, result):
        # Late materialization still shows the paper's simulated win.
        assert (
            result.simulated["vectorized_lazy"]
            < result.simulated["vectorized_eager"]
        )
