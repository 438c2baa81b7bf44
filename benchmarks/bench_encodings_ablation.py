"""Ablation: per-column lightweight encodings (rle / delta / dcsl)."""

import pytest

from repro.bench import encodings_ablation


@pytest.fixture(scope="module")
def result():
    res = encodings_ablation.run(records=5000)
    print("\n" + encodings_ablation.format_table(res))
    return res


class TestPaperShape:
    def test_delta_shrinks_timestamps(self, result):
        plain = result.row("ts", "plain").file_bytes
        delta = result.row("ts", "delta").file_bytes
        assert delta < plain / 2

    def test_rle_shrinks_low_cardinality(self, result):
        plain = result.row("level", "plain").file_bytes
        rle = result.row("level", "rle").file_bytes
        assert rle < plain / 3

    def test_dcsl_shrinks_map_column(self, result):
        plain = result.row("headers", "plain").file_bytes
        dcsl = result.row("headers", "dcsl").file_bytes
        assert dcsl < plain

    def test_dcsl_selective_scan_beats_lzo_blocks(self, result):
        # The Section 5.3 trade-off: blocks compress better but a
        # selective reader must inflate whole blocks; DCSL keeps values
        # individually addressable.
        dcsl = result.row("headers", "dcsl").selective_scan
        lzo = result.row("headers", "cblock-lzo").selective_scan
        assert dcsl < lzo

    def test_encoded_full_scans_not_slower_than_plain(self, result):
        for column, layout in (("ts", "delta"), ("level", "rle"),
                               ("headers", "dcsl")):
            plain = result.row(column, "plain").full_scan
            encoded = result.row(column, layout).full_scan
            assert encoded <= plain * 1.10, (column, layout)
