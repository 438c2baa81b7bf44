"""Ablation: zone-map split pruning on clustered vs shuffled data."""

import pytest

from repro.bench import pruning_ablation


@pytest.fixture(scope="module")
def result():
    res = pruning_ablation.run(records=6000)
    print("\n" + pruning_ablation.format_table(res))
    return res


class TestPaperShape:
    def test_shuffled_data_barely_prunes(self, result):
        scanned = result.records_scanned["shuffled"]
        # Every directory covers nearly the whole day range, so even the
        # 5% query scans ~everything.
        assert scanned[0.05] > scanned[1.0] * 0.8

    def test_sorted_data_scans_shrink_with_selectivity(self, result):
        scanned = result.records_scanned["sorted"]
        assert scanned[1.0] > scanned[0.5] > scanned[0.2] > scanned[0.05]

    def test_sorted_selective_query_order_of_magnitude(self, result):
        sorted_scan = result.records_scanned["sorted"][0.05]
        shuffled_scan = result.records_scanned["shuffled"][0.05]
        assert sorted_scan * 5 < shuffled_scan

    def test_full_scans_equal_either_way(self, result):
        assert (
            result.records_scanned["sorted"][1.0]
            == result.records_scanned["shuffled"][1.0]
            == result.records
        )
