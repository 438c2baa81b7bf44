"""Table 2: load times (SEQ -> CIF / CIF-SL / RCFile)."""

import pytest

from repro.bench import table2_load_times as table2


@pytest.fixture(scope="module")
def result():
    res = table2.run(records=8000)
    print("\n" + table2.format_table(res))
    return res


class TestPaperShape:
    def test_skip_list_overhead_is_minor(self, result):
        # Paper: 89 vs 93 minutes (~4.5% overhead).
        cif = result.load_times["CIF"]
        sl = result.load_times["CIF-SL"]
        assert cif <= sl < cif * 1.10

    def test_rcfile_load_comparable_to_cif(self, result):
        # Paper: 89 vs 89 minutes.
        cif = result.load_times["CIF"]
        rcfile = result.load_times["RCFile"]
        assert abs(rcfile - cif) / cif < 0.10

    def test_skip_lists_add_bytes(self, result):
        assert (
            result.bytes_written["CIF-SL"] > result.bytes_written["CIF"]
        )
