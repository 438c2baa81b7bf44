"""Tests for RCFile: row groups, projection, compression, split semantics."""

import pytest

from repro.formats.rcfile import (
    RCFileInputFormat,
    add_column_rewrite,
    write_rcfile,
)
from repro.serde.schema import Schema, SchemaError
from tests.conftest import make_ctx, micro_records, micro_schema


def read_all(fs, path, columns=None):
    fmt = RCFileInputFormat(path, columns=columns)
    out = []
    for split in fmt.get_splits(fs, fs.cluster):
        reader = fmt.open_reader(fs, split, make_ctx())
        out.extend(record for _, record in reader)
    return out


class TestRCFile:
    def test_roundtrip_one_group(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 25)
        write_rcfile(fs, "/d/rc", schema, records)
        assert [r.to_dict() for r in read_all(fs, "/d/rc")] == [
            r.to_dict() for r in records
        ]

    def test_missing_field_is_a_schema_error(self, fs):
        with pytest.raises(SchemaError, match="missing field 'str1'"):
            write_rcfile(fs, "/d/rc", micro_schema(), [{"str0": "x"}])

    def test_roundtrip_many_groups(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 600)
        write_rcfile(fs, "/d/rc", schema, records, row_group_bytes=8 * 1024)
        out = read_all(fs, "/d/rc")
        assert [r.to_dict() for r in out] == [r.to_dict() for r in records]

    def test_roundtrip_across_hdfs_blocks(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 900)
        write_rcfile(fs, "/d/rc", schema, records, row_group_bytes=8 * 1024)
        fmt = RCFileInputFormat("/d/rc")
        splits = fmt.get_splits(fs, fs.cluster)
        assert len(splits) > 1
        out = read_all(fs, "/d/rc")
        assert len(out) == len(records)
        assert [r.to_dict() for r in out] == [r.to_dict() for r in records]

    def test_compressed_roundtrip(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 300)
        write_rcfile(
            fs, "/d/rc", schema, records, row_group_bytes=8 * 1024, codec="zlib"
        )
        out = read_all(fs, "/d/rc")
        assert [r.to_dict() for r in out] == [r.to_dict() for r in records]

    def test_compression_shrinks_file(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 300)
        write_rcfile(fs, "/d/u", schema, records, row_group_bytes=8 * 1024)
        write_rcfile(
            fs, "/d/c", schema, records, row_group_bytes=8 * 1024, codec="zlib"
        )
        assert fs.file_length("/d/c") < fs.file_length("/d/u")

    def test_projection_values(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 120)
        write_rcfile(fs, "/d/rc", schema, records, row_group_bytes=8 * 1024)
        out = read_all(fs, "/d/rc", columns=["int3", "attrs"])
        assert [r.get("int3") for r in out] == [r.get("int3") for r in records]
        assert [r.get("attrs") for r in out] == [r.get("attrs") for r in records]

    def test_projection_reads_fewer_bytes(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 2000)
        write_rcfile(fs, "/d/rc", schema, records, row_group_bytes=64 * 1024)

        def bytes_read(columns):
            fmt = RCFileInputFormat("/d/rc", columns=columns)
            ctx = make_ctx()
            for split in fmt.get_splits(fs, fs.cluster):
                for _ in fmt.open_reader(fs, split, ctx):
                    pass
            return ctx.metrics.disk_bytes

        assert bytes_read(["int0"]) < bytes_read(None)

    def test_projection_io_elimination_is_imperfect(self, fs):
        # A single-integer chunk is far smaller than the readahead
        # window, so RCFile still fetches most of the row group — the
        # paper's 20x observation (Section 6.2).
        schema = micro_schema()
        records = micro_records(schema, 2000)
        write_rcfile(fs, "/d/rc", schema, records, row_group_bytes=8 * 1024)
        fmt = RCFileInputFormat("/d/rc", columns=["int0"])
        ctx = make_ctx()
        for split in fmt.get_splits(fs, fs.cluster):
            for _ in fmt.open_reader(fs, split, ctx):
                pass
        assert ctx.metrics.disk_bytes > 3 * ctx.metrics.requested_bytes

    def test_row_group_metadata_cpu_charged(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 400)
        write_rcfile(fs, "/d/small", schema, records, row_group_bytes=4 * 1024)
        write_rcfile(fs, "/d/large", schema, records, row_group_bytes=64 * 1024)

        def cpu(path):
            fmt = RCFileInputFormat(path, columns=["int0"])
            ctx = make_ctx()
            for split in fmt.get_splits(fs, fs.cluster):
                for _ in fmt.open_reader(fs, split, ctx):
                    pass
            return ctx.metrics.cpu_time

        assert cpu("/d/small") > cpu("/d/large")  # more groups, more parsing

    def test_add_column_requires_full_rewrite(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 150)
        write_rcfile(fs, "/d/rc", schema, records, row_group_bytes=8 * 1024)
        ranks = [float(i) for i in range(150)]
        add_column_rewrite(
            fs, "/d/rc", "/d/rc2", "rank", Schema.double(), ranks,
            row_group_bytes=8 * 1024,
        )
        out = read_all(fs, "/d/rc2", columns=["rank", "int0"])
        assert [r.get("rank") for r in out] == ranks
        assert [r.get("int0") for r in out] == [r.get("int0") for r in records]
