"""Figure 7: scan-time microbenchmark (TXT / SEQ / CIF / RCFile)."""

import pytest

from repro.bench import fig7_microbenchmark as fig7

RECORDS = 8000


@pytest.fixture(scope="module")
def result():
    res = fig7.run(records=RECORDS)
    print("\n" + fig7.format_table(res))
    return res


class TestPaperShape:
    def test_seq_beats_txt_about_3x(self, result):
        ratio = result.time("TXT") / result.time("SEQ")
        assert 2.0 < ratio < 6.0

    def test_cif_single_column_speedups(self, result):
        seq = result.time("SEQ")
        # "2.5x to 95x faster than SEQ"; the integer scan is the extreme.
        assert result.time("CIF", "1 Integer") * 20 < seq
        assert result.time("CIF", "1 String") * 2.5 < seq
        assert result.time("CIF", "1 Map") * 1.8 < seq

    def test_cif_all_columns_slower_than_seq(self, result):
        # "CIF took about 25% longer than SEQ" scanning everything.
        ratio = result.time("CIF", "AllColumns") / result.time("SEQ")
        assert 1.05 < ratio < 1.8

    def test_cif_far_faster_than_rcfile_single_integer(self, result):
        ratio = (
            result.time("RCFile", "1 Integer")
            / result.time("CIF", "1 Integer")
        )
        assert ratio > 5.0

    def test_rcfile_reads_many_more_bytes_for_one_column(self, result):
        # Paper: "RCFile read 20x more bytes than CIF even when
        # instructed to scan exactly one column."
        ratio = (
            result.bytes_read["RCFile"]["1 Integer"]
            / result.bytes_read["CIF"]["1 Integer"]
        )
        assert ratio > 5.0

    def test_compressed_rcfile_between(self, result):
        # RCFile-comp roughly matches or improves on RCFile (within a
        # 10% tie band at small scale) but CIF stays fastest.
        assert (
            result.time("RCFile-comp", "1 Integer")
            <= result.time("RCFile", "1 Integer") * 1.10
        )
        assert (
            result.time("CIF", "1 Integer")
            < result.time("RCFile-comp", "1 Integer")
        )

    def test_seq_fastest_on_full_scan(self, result):
        others = [
            result.time("CIF", "AllColumns"),
            result.time("RCFile", "AllColumns"),
            result.time("RCFile-comp", "AllColumns"),
        ]
        assert all(result.time("SEQ") < t for t in others)
