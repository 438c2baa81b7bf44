"""Table 1: the full-cluster crawl comparison across eleven layouts."""

import pytest

from repro.bench import table1_crawl as table1


@pytest.fixture(scope="module")
def result():
    res = table1.run(records=500, content_bytes=24576)
    print("\n" + table1.format_table(res))
    return res


class TestPaperShape:
    def test_seq_variants_ordering(self, result):
        # Uncompressed SEQ is the slowest SEQ; the custom variant wins.
        assert result.row("SEQ-uncomp").map_time == max(
            result.row(n).map_time
            for n in ("SEQ-uncomp", "SEQ-record", "SEQ-block", "SEQ-custom")
        )
        assert result.row("SEQ-custom").map_time == min(
            result.row(n).map_time
            for n in ("SEQ-uncomp", "SEQ-record", "SEQ-block", "SEQ-custom")
        )

    def test_compression_helps_seq(self, result):
        assert result.row("SEQ-record").map_time < result.row("SEQ-uncomp").map_time
        assert result.row("SEQ-block").map_time < result.row("SEQ-uncomp").map_time

    def test_rcfile_between_seq_and_cif(self, result):
        assert result.row("RCFile").map_time < result.row("SEQ-custom").map_time
        assert result.row("RCFile-comp").map_time < result.row("RCFile").map_time
        assert result.row("CIF").map_time < result.row("RCFile-comp").map_time

    def test_cif_an_order_of_magnitude_over_seq_custom(self, result):
        assert result.row("CIF").map_ratio > 10.0

    def test_cif_reads_far_less_data(self, result):
        # Paper: 31.7x less data than SEQ-custom.
        assert (
            result.row("SEQ-custom").data_read_mb
            > 10 * result.row("CIF").data_read_mb
        )

    def test_block_compression_buys_cif_nothing(self, result):
        # CIF-ZLIB reads less but runs no faster than CIF; CIF-LZO about
        # the same (within 20%).
        cif = result.row("CIF").map_time
        assert result.row("CIF-ZLIB").data_read_mb < result.row("CIF").data_read_mb
        assert abs(result.row("CIF-ZLIB").map_time - cif) / cif < 0.2
        assert abs(result.row("CIF-LZO").map_time - cif) / cif < 0.2

    def test_lazy_skip_lists_beat_eager_cif(self, result):
        assert result.row("CIF-SL").map_time < result.row("CIF").map_time
        # ... despite reading more data than CIF-LZO (paper: 75 vs 54 GB)
        assert (
            result.row("CIF-SL").data_read_mb
            > result.row("CIF-LZO").data_read_mb
        )

    def test_dcsl_is_best_overall(self, result):
        best = min(r.map_time for r in result.rows)
        assert result.row("CIF-DCSL").map_time == best
        assert result.row("CIF-DCSL").total_ratio == max(
            r.total_ratio for r in result.rows
        )

    def test_total_time_speedups_compress(self, result):
        # Shuffle/sort/reduce are format-independent, so total-time
        # ratios are much smaller than map-time ratios (12.8x vs 107.8x
        # in the paper).
        dcsl = result.row("CIF-DCSL")
        assert dcsl.total_ratio < dcsl.map_ratio / 2

    def test_correctness_all_layouts_agree(self, result):
        outputs = {
            layout: sorted(k for k, _ in job.output)
            for layout, job in result.results.items()
        }
        reference = outputs["SEQ-uncomp"]
        assert reference  # the job found some content types
        for layout, output in outputs.items():
            assert output == reference, layout
