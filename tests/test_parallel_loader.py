"""Tests for a COF dataset loaded in parts: several writes, each filling
its own split-directory number range (as one write per load task or per
partition does), make one dataset."""

from repro.core import ColumnInputFormat, ColumnOutputFormat
from repro.core.cof import split_dirs_of
from repro.hdfs import ClusterConfig, FileSystem
from tests.conftest import make_ctx, micro_records, micro_schema

PARTS = 3
INDEX_STRIDE = 1000


def cluster_fs(**kw):
    defaults = dict(num_nodes=8, block_size=32 * 1024, io_buffer_size=4096)
    defaults.update(kw)
    return FileSystem(ClusterConfig(**defaults))


def ranged_load(fs, dataset, n=600, split_bytes=8 * 1024):
    """Write ``n`` records as ``PARTS`` writes at disjoint
    ``first_split_index`` ranges, in range order."""
    schema = micro_schema()
    records = micro_records(schema, n)
    cof = ColumnOutputFormat(schema, split_bytes=split_bytes)
    per_part = n // PARTS
    for part in range(PARTS):
        written = cof.write(
            fs, dataset, records[part * per_part:(part + 1) * per_part],
            first_split_index=part * INDEX_STRIDE,
        )
        assert written > 1
    return schema, records


def read_cif(fs, dataset):
    fmt = ColumnInputFormat(dataset, lazy=False)
    out = []
    for split in fmt.get_splits(fs, fs.cluster):
        out.extend(
            r.to_dict() for _, r in fmt.open_reader(fs, split, make_ctx())
        )
    return out


class TestParallelLoad:
    def test_record_order_preserved_across_tasks(self):
        fs = cluster_fs()
        _, records = ranged_load(fs, "/out/par", n=900)
        dirs = split_dirs_of(fs, "/out/par")
        assert {int(d.rsplit("/s", 1)[1]) // INDEX_STRIDE for d in dirs} == set(
            range(PARTS)
        )
        assert read_cif(fs, "/out/par") == [r.to_dict() for r in records]

    def test_cpp_colocates_parallel_output(self):
        fs = cluster_fs()
        fs.use_column_placement()
        ranged_load(fs, "/out/par")
        for split_dir in split_dirs_of(fs, "/out/par"):
            placements = {
                tuple(sorted(locs))
                for child in fs.listdir(split_dir)
                for locs in fs.block_locations(f"{split_dir}/{child}")
            }
            assert len(placements) == 1, split_dir

    def test_queryable_after_parallel_load(self):
        fs = cluster_fs()
        _, records = ranged_load(fs, "/out/par")
        from repro.query import Q, col, sum_

        result = Q("/out/par").aggregate(total=sum_(col("int0"))).run(fs)
        assert result.rows[0]["total"] == sum(r.get("int0") for r in records)
