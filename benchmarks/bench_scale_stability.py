"""Meta-benchmark: the reproduction's ratios are scale-stable.

The experiments run at MB scale while the paper ran at TB scale; the
harness's claim (DESIGN.md §6, docs/cost-model.md) is that because the
storage granularities and fixed latencies shrink together, *ratios* are
stable in dataset size.  This bench checks that claim directly: the
Figure 7 headline ratios measured at two dataset sizes 4x apart must
agree within tight bands.
"""

import pytest

from repro.bench import scale_stability

SMALL, LARGE = "small", "large"


@pytest.fixture(scope="module")
def result():
    return scale_stability.run(small=4000, large=16000)


def _ratio(res, a, b, proj_a="AllColumns", proj_b="AllColumns"):
    return res.time(a, proj_a) / res.time(b, proj_b)


class TestPaperShape:
    def test_txt_seq_ratio_stable(self, result):
        small = _ratio(result[SMALL], "TXT", "SEQ")
        large = _ratio(result[LARGE], "TXT", "SEQ")
        assert abs(small - large) / large < 0.10

    def test_cif_all_columns_overhead_stable(self, result):
        small = _ratio(result[SMALL], "CIF", "SEQ")
        large = _ratio(result[LARGE], "CIF", "SEQ")
        assert abs(small - large) / large < 0.15

    def test_cif_single_int_speedup_grows_mildly_then_stabilizes(self, result):
        # The one ratio with a residual size dependence: per-split-dir
        # fixed costs amortize as files grow.  It must stay the same
        # order of magnitude across a 4x size change.
        small = _ratio(result[SMALL], "SEQ", "CIF", "AllColumns", "1 Integer")
        large = _ratio(result[LARGE], "SEQ", "CIF", "AllColumns", "1 Integer")
        assert 0.4 < small / large < 2.5
        assert small > 20 and large > 20

    def test_rcfile_byte_overhead_ratio_stable(self, result):
        def byte_ratio(res):
            return (
                res.bytes_read["RCFile"]["1 Integer"]
                / res.bytes_read["CIF"]["1 Integer"]
            )

        small, large = byte_ratio(result[SMALL]), byte_ratio(result[LARGE])
        assert 0.5 < small / large < 2.0
