"""Ablation: io.file.buffer.size sensitivity (Section 6.2 remark)."""

import pytest

from repro.bench import buffer_ablation


@pytest.fixture(scope="module")
def result():
    res = buffer_ablation.run(records=4000)
    print("\n" + buffer_ablation.format_table(res))
    return res


class TestPaperShape:
    def test_cif_advantage_robust_across_buffers(self, result):
        # "Repeating the experiment with 4KB and 1MB produced similar
        # results": CIF's single-integer win over SEQ holds everywhere.
        for label, times in result.single_int.items():
            assert times["CIF"] * 10 < times["SEQ"], label

    def test_seq_insensitive_to_buffer(self, result):
        times = [t["SEQ"] for t in result.single_int.values()]
        assert max(times) / min(times) < 1.3

    def test_rcfile_elimination_is_buffer_sensitive(self, result):
        # The coupling CIF avoids: bigger readahead drags in more of
        # each row group when projecting one small column.
        reads = result.rcfile_bytes_single_int
        assert (
            reads["4K-equivalent"]
            < reads["128K-equivalent"]
            < reads["1M-equivalent"]
        )
