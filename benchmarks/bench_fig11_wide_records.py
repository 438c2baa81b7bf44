"""Figure 11: CIF vs RCFile as the number of columns grows."""

import pytest

from repro.bench import fig11_wide_records as fig11


@pytest.fixture(scope="module")
def result():
    res = fig11.run(total_bytes=3 * 1024 * 1024)
    print("\n" + fig11.format_table(res))
    return res


class TestPaperShape:
    def test_cif_beats_rcfile_on_narrow_projections(self, result):
        for width in fig11.WIDTHS:
            assert (
                result.bandwidth["CIF_1"][width]
                > result.bandwidth["RCFile_1"][width]
            )
            assert (
                result.bandwidth["CIF_10%"][width]
                > result.bandwidth["RCFile_10%"][width]
            )

    def test_rcfile_single_column_bandwidth_degrades_with_width(self, result):
        series = result.bandwidth["RCFile_1"]
        assert series[20] > series[40] > series[80]

    def test_cif_single_column_bandwidth_stays_stable(self, result):
        # "it remains relatively stable for CIF" — within ~25% across a
        # 4x width change, vs RCFile's much steeper drop.
        series = result.bandwidth["CIF_1"]
        assert series[80] > series[20] * 0.75
        rcfile = result.bandwidth["RCFile_1"]
        assert (series[20] - series[80]) / series[20] < (
            (rcfile[20] - rcfile[80]) / rcfile[20]
        )

    def test_cif_all_columns_overhead_grows_with_width(self, result):
        # Appendix B.5: CIF's overhead over SEQ grows as records widen.
        seq = result.bandwidth["SEQ"]
        cif = result.bandwidth["CIF_all"]
        overhead = {w: seq[w] / cif[w] for w in fig11.WIDTHS}
        assert overhead[80] > overhead[40] > overhead[20]

    def test_seq_bandwidth_roughly_constant(self, result):
        series = result.bandwidth["SEQ"]
        assert max(series.values()) / min(series.values()) < 1.2
