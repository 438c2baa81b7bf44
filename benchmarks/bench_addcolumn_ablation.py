"""Section 4.3 ablation: adding a derived column, CIF vs RCFile."""

import pytest

from repro.bench import addcolumn_ablation as ablation


@pytest.fixture(scope="module")
def result():
    res = ablation.run(records=6000)
    print("\n" + ablation.format_table(res))
    return res


class TestPaperShape:
    def test_rcfile_does_orders_of_magnitude_more_io(self, result):
        assert result.io_ratio > 20.0

    def test_cif_cost_tracks_new_column_size(self, result):
        # The new column is 6000 doubles (+ skip metadata + schema
        # rewrites): CIF's I/O should be within a small multiple of it.
        new_column_bytes = result.records * 9
        assert result.cif_bytes < 5 * new_column_bytes

    def test_rcfile_slower_in_time_too(self, result):
        assert result.rcfile_time > 10 * result.cif_time
