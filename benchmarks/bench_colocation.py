"""Section 6.4: impact of the ColumnPlacementPolicy."""

import pytest

from repro.bench import colocation


@pytest.fixture(scope="module")
def result():
    res = colocation.run(records=400, content_bytes=16384)
    print("\n" + colocation.format_table(res))
    return res


class TestPaperShape:
    def test_cpp_speedup_near_paper(self, result):
        # Paper: 5.1x better map time with co-location.
        assert 2.5 < result.speedup < 8.0

    def test_cpp_makes_every_task_data_local(self, result):
        assert result.local_fraction_cpp == 1.0

    def test_default_placement_breaks_locality(self, result):
        assert result.local_fraction_default < 0.5
