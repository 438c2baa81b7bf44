"""Figure 9: tuning the RCFile row-group size vs CIF."""

import pytest

from repro.bench import fig9_rowgroups as fig9


@pytest.fixture(scope="module")
def result():
    res = fig9.run(records=8000)
    print("\n" + fig9.format_table(res))
    return res


class TestPaperShape:
    def test_larger_row_groups_eliminate_more_io(self, result):
        # Paper: 16.5 GB / 8.5 GB / 4.5 GB for the single-integer scan
        # at 1 / 4 / 16 MB row groups.
        reads = result.bytes_read
        assert (
            reads["1M RCFile"]["1 Integer"]
            > reads["4M RCFile"]["1 Integer"]
            > reads["16M RCFile"]["1 Integer"]
        )

    def test_cif_reads_least_at_every_setting(self, result):
        for label in fig9.ROW_GROUPS:
            for projection in ("1 Integer", "1 String", "1 Map"):
                assert (
                    result.bytes_read["CIF"][projection]
                    < result.bytes_read[label][projection]
                )

    def test_cif_fastest_on_narrow_projections(self, result):
        for label in fig9.ROW_GROUPS:
            for projection in ("1 Integer", "1 String", "1 Map",
                               "1 String+1 Map"):
                assert (
                    result.times["CIF"][projection]
                    < result.times[label][projection]
                )

    def test_single_integer_is_rcfile_worst_case(self, result):
        # The relative gap to CIF is largest for the integer column.
        def gap(projection):
            return (
                result.times["4M RCFile"][projection]
                / result.times["CIF"][projection]
            )

        assert gap("1 Integer") > gap("1 Map")
