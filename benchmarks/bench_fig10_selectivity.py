"""Figure 10: lazy materialization + skip lists vs predicate selectivity."""

import pytest

from repro.bench import fig10_selectivity as fig10


@pytest.fixture(scope="module")
def result():
    res = fig10.run(records=6000)
    print("\n" + fig10.format_table(res))
    return res


class TestPaperShape:
    def test_sl_wins_clearly_at_low_selectivity(self, result):
        cif = result.times["CIF"]
        sl = result.times["CIF-SL"]
        assert sl[0.0] * 1.5 < cif[0.0]

    def test_sl_advantage_shrinks_with_selectivity(self, result):
        cif = result.times["CIF"]
        sl = result.times["CIF-SL"]
        gaps = [cif[s] - sl[s] for s in fig10.SELECTIVITIES]
        assert gaps[0] == max(gaps)
        assert gaps[0] > gaps[-1]

    def test_sl_converges_to_cif_at_full_selectivity(self, result):
        # "The overhead for CIF-SL with respect to CIF at 100%
        # selectivity is minor."
        cif = result.times["CIF"][1.0]
        sl = result.times["CIF-SL"][1.0]
        assert abs(sl - cif) / cif < 0.15

    def test_cif_roughly_flat_across_selectivities(self, result):
        times = [result.times["CIF"][s] for s in fig10.SELECTIVITIES]
        assert max(times) / min(times) < 1.4
