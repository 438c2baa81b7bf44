"""Robustness tests: corrupt and truncated inputs fail loudly, not wrongly."""

import zlib

import pytest

from repro.core.cif import column_record_count
from repro.formats import rcfile, sequence_file
from repro.formats.common import SYNC_SIZE, make_sync_marker
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, TaskContext, run_job
from repro.serde.binary import encode_datum
from repro.serde.schema import Schema, SchemaError
from repro.sim.cost import CpuCostModel
from repro.util.buffers import ByteReader, ByteWriter
from repro.util.varint import encode_varint
from tests.conftest import make_ctx, micro_records, micro_schema


WIDE_SCHEMA = Schema.record(
    "wide", [(f"column_number_{i:04d}", Schema.int_()) for i in range(200)]
)
WIDE_ROWS = [
    {f.name: row * f.index for f in WIDE_SCHEMA.fields} for row in range(7)
]


class TestHeaderLargerThanAnyProbe:
    """A file header holds the schema JSON, which has no size limit."""

    def scan(self, fs, fmt):
        def mapper(key, record, emit, ctx):
            emit(None, record.to_dict())

        return [row for _, row in run_job(fs, Job("scan", mapper, fmt)).output]

    def test_the_schema_outgrows_4_kib(self):
        assert len(WIDE_SCHEMA.to_json()) > 2 * 4096

    @pytest.mark.parametrize("compression", sequence_file.COMPRESSION_MODES)
    def test_wide_sequence_file_round_trips(self, fs, compression):
        sequence_file.write_sequence_file(
            fs, "/w/seq", WIDE_SCHEMA, WIDE_ROWS, compression=compression
        )
        fmt = sequence_file.SequenceFileInputFormat("/w/seq")
        assert self.scan(fs, fmt) == WIDE_ROWS

    def test_wide_rcfile_round_trips(self, fs):
        rcfile.write_rcfile(fs, "/w/rc", WIDE_SCHEMA, WIDE_ROWS)
        assert self.scan(fs, rcfile.RCFileInputFormat("/w/rc")) == WIDE_ROWS


def replace_file(fs, path, data) -> None:
    fs.delete(path)
    fs.write_file(path, bytes(data))


def read_first_split(fs, fmt):
    split = fmt.get_splits(fs, fs.cluster)[0]
    return [r.to_dict() for _, r in fmt.open_reader(fs, split, make_ctx())]


PAIR = Schema.record("pair", [("a", Schema.int_()), ("tags", Schema.array(
    Schema.string()
))])
PAIR_ROWS = [{"a": 1, "tags": ["x"]}, {"a": 2, "tags": ["y", "z"]}]


def seq_image(path, mode, body) -> bytes:
    """A SequenceFile of ``PAIR`` rows holding the entries in ``body``."""
    out = ByteWriter()
    out.write_bytes(sequence_file.MAGIC)
    out.write_string(PAIR.to_json())
    out.write_string(mode)
    out.write_string("zlib" if mode != "none" else "")
    out.write_bytes(make_sync_marker(path))
    out.write_bytes(body)
    return out.getvalue()


def rcfile_image(path, schema, rows, chunks, claimed=None) -> bytes:
    """An uncompressed RCFile of one row group holding ``chunks``, whose
    metadata claims ``claimed`` columns (default: as many as it holds)."""
    meta = ByteWriter()
    meta.write_varint(rows)
    meta.write_varint(len(chunks) if claimed is None else claimed)
    for chunk in chunks:
        meta.write_varint(len(chunk))
        for _ in range(rows):
            meta.write_varint(0)
    out = ByteWriter()
    out.write_bytes(rcfile.MAGIC)
    out.write_string(schema.to_json())
    out.write_string("")
    out.write_bytes(make_sync_marker(path))
    out.write_len_prefixed(meta.getvalue())
    for chunk in chunks:
        out.write_bytes(chunk)
    return out.getvalue()


SEQ_FRAMING = "corrupt SequenceFile record framing"
RC_FRAMING = "corrupt RCFile column chunk framing"


class TestOneFramingRule:
    """Every row format raises the same typed error when a value does
    not fill its frame exactly."""

    def entry(self, value: bytes, compressed: bool) -> bytes:
        out = ByteWriter()
        out.write_byte(0x01)
        out.write_varint(0)
        out.write_len_prefixed(zlib.compress(value) if compressed else value)
        return out.getvalue()

    def block(self, payload: bytes, count: int) -> bytes:
        out = ByteWriter()
        out.write_bytes(make_sync_marker("/f/seq"))
        out.write_byte(0x02)
        out.write_varint(count)
        out.write_varint(0)
        out.write_len_prefixed(zlib.compress(payload))
        return out.getvalue()

    def read_seq(self, fs, mode, body):
        fs.write_file("/f/seq", seq_image("/f/seq", mode, body))
        return read_first_split(fs, sequence_file.SequenceFileInputFormat(
            "/f/seq"
        ))

    def test_the_images_are_well_formed(self, fs):
        values = [encode_datum(PAIR, row) for row in PAIR_ROWS]
        fs.write_file("/f/rc", rcfile_image("/f/rc", PAIR, 2, [
            encode_datum(Schema.int_(), 1) + encode_datum(Schema.int_(), 2),
            b"".join(encode_datum(PAIR.fields[1].schema, row["tags"])
                     for row in PAIR_ROWS),
        ]))
        rows = read_first_split(fs, rcfile.RCFileInputFormat("/f/rc"))
        assert rows == PAIR_ROWS
        body = b"".join(self.entry(v, True) for v in values)
        assert self.read_seq(fs, "record", body) == PAIR_ROWS
        fs.delete("/f/seq")
        payload = b"".join(bytes([len(v)]) + v for v in values)
        assert self.read_seq(fs, "block", self.block(payload, 2)) == PAIR_ROWS

    def test_seq_record_value_not_consumed_whole(self, fs):
        value = encode_datum(PAIR, PAIR_ROWS[0]) + b"\x00"
        with pytest.raises(ValueError, match=SEQ_FRAMING):
            self.read_seq(fs, "record", self.entry(value, True))

    def test_seq_block_value_length_mismatch(self, fs):
        value = encode_datum(PAIR, PAIR_ROWS[1])
        payload = bytes([len(value) + 1]) + value + b"\x00"
        with pytest.raises(ValueError, match=SEQ_FRAMING):
            self.read_seq(fs, "block", self.block(payload, 2))

    def test_seq_block_bytes_left_after_count_values(self, fs):
        value = encode_datum(PAIR, PAIR_ROWS[1])
        payload = bytes([len(value)]) + value + b"\x00"
        with pytest.raises(ValueError, match=SEQ_FRAMING):
            self.read_seq(fs, "block", self.block(payload, 1))

    @pytest.mark.parametrize("column", [0, 1])
    def test_rcfile_chunk_longer_than_its_rows(self, fs, column):
        chunks = [
            encode_datum(Schema.int_(), 1) + encode_datum(Schema.int_(), 2),
            b"".join(encode_datum(PAIR.fields[1].schema, row["tags"])
                     for row in PAIR_ROWS),
        ]
        chunks[column] += b"\x00"
        fs.write_file("/f/rc", rcfile_image("/f/rc", PAIR, 2, chunks))
        with pytest.raises(ValueError, match=RC_FRAMING):
            read_first_split(fs, rcfile.RCFileInputFormat("/f/rc"))


class TestSequenceFileRobustness:
    def test_bad_magic(self, fs):
        fs.write_file("/r/notseq", b"JUNKJUNKJUNK" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            sequence_file.read_header(fs, "/r/notseq")

    def test_corrupt_entry_tag(self, fs):
        schema = micro_schema()
        sequence_file.write_sequence_file(
            fs, "/r/seq", schema, micro_records(schema, 5)
        )
        data = bytearray(fs.read_file("/r/seq"))
        # Find the first record entry (tag 0x01 after the header) and
        # clobber it with an invalid tag.
        header_end = data.index(0x01, 30)
        data[header_end] = 0x7E
        fs.delete("/r/seq")
        fs.write_file("/r/seq", bytes(data))
        fmt = sequence_file.SequenceFileInputFormat("/r/seq")
        split = fmt.get_splits(fs, fs.cluster)[0]
        with pytest.raises((ValueError, EOFError)):
            list(fmt.open_reader(fs, split, make_ctx()))

    def test_framing_mismatch_detected(self, fs):
        schema = micro_schema()
        sequence_file.write_sequence_file(
            fs, "/r/seq", schema, micro_records(schema, 3)
        )
        data = fs.read_file("/r/seq")
        # the first entry: tag, NullWritable key, then the value's length
        entry = sequence_file.read_header(fs, "/r/seq").header_end
        assert data[entry:entry + 2] == b"\x01\x00"
        frame = ByteReader(data, entry + 2)
        value_len = frame.read_varint()
        shorter = bytearray()
        encode_varint(value_len - 1, shorter)
        data = data[:entry + 2] + shorter + data[frame.pos:]
        replace_file(fs, "/r/seq", data)
        fmt = sequence_file.SequenceFileInputFormat("/r/seq")
        with pytest.raises(ValueError, match=SEQ_FRAMING):
            read_first_split(fs, fmt)


class TestRCFileRobustness:
    def test_bad_magic(self, fs):
        fs.write_file("/r/notrc", b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            rcfile.read_header(fs, "/r/notrc")

    def test_missing_sync_between_groups(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 200)
        rcfile.write_rcfile(fs, "/r/rc", schema, records,
                            row_group_bytes=8 * 1024)
        data = bytearray(fs.read_file("/r/rc"))
        # Corrupt the second sync marker (first byte 0xFF after header).
        first_sync = data.index(b"\xff", 40)
        second_sync = data.index(b"\xff", first_sync + 16)
        data[second_sync] = 0x00
        replace_file(fs, "/r/rc", data)
        fmt = rcfile.RCFileInputFormat("/r/rc")
        with pytest.raises(ValueError, match="missing sync marker"):
            read_first_split(fs, fmt)

    def test_column_count_mismatch(self, fs):
        # A row group claiming a different column count than the schema.
        schema = micro_schema()
        chunks = [
            b"".join(encode_datum(f.schema, row.get(f.name))
                     for row in micro_records(schema, 3))
            for f in schema.fields
        ]
        assert len(chunks) == 13
        fs.write_file("/r/rc", rcfile_image("/r/rc", schema, 3, chunks, 12))
        fmt = rcfile.RCFileInputFormat("/r/rc")
        with pytest.raises(ValueError, match="column count mismatch"):
            read_first_split(fs, fmt)


class TestColumnFileRobustness:
    def test_record_count_check(self, fs):
        from repro.core import write_dataset

        schema = micro_schema()
        write_dataset(fs, "/r/cif", schema, micro_records(schema, 30))
        assert column_record_count(fs, "/r/cif/s0/int0") == 30
        with pytest.raises(ValueError):
            fs.write_file("/r/cif/s0/bogus", b"NOT A COLUMN FILE")
            column_record_count(fs, "/r/cif/s0/bogus")

    def test_count_disagreement_between_columns(self, fs):
        from repro.core import ColumnInputFormat, write_dataset
        from repro.core.columnio import ColumnSpec, encode_column_file

        schema = micro_schema()
        write_dataset(fs, "/r/cif", schema, micro_records(schema, 30))
        # Overwrite one column file with a shorter one.
        payload = encode_column_file(
            Schema.int_(), [1, 2, 3], ColumnSpec("plain")
        )
        with fs.create("/r/cif/s0/int0", overwrite=True) as out:
            out.write(payload)
        fmt = ColumnInputFormat("/r/cif")
        split = fmt.get_splits(fs, fs.cluster)[0]
        with pytest.raises(ValueError, match="disagree"):
            list(fmt.open_reader(fs, split, make_ctx()))

    def test_truncated_column_file(self, fs):
        from repro.core import ColumnInputFormat, write_dataset

        schema = micro_schema()
        write_dataset(fs, "/r/cif", schema, micro_records(schema, 30))
        data = fs.read_file("/r/cif/s0/attrs")
        with fs.create("/r/cif/s0/attrs", overwrite=True) as out:
            out.write(data[: len(data) // 2])
        fmt = ColumnInputFormat("/r/cif", columns=["attrs"], lazy=False)
        split = fmt.get_splits(fs, fs.cluster)[0]
        with pytest.raises(EOFError):
            list(fmt.open_reader(fs, split, make_ctx()))

    def test_corrupt_schema_file(self, fs):
        from repro.core import ColumnInputFormat, write_dataset

        schema = micro_schema()
        write_dataset(fs, "/r/cif", schema, micro_records(schema, 5))
        with fs.create("/r/cif/s0/.schema", overwrite=True) as out:
            out.write(b"{not json")
        fmt = ColumnInputFormat("/r/cif")
        split = fmt.get_splits(fs, fs.cluster)[0]
        with pytest.raises((SchemaError, ValueError)):
            list(fmt.open_reader(fs, split, make_ctx()))


#: row format -> how to write ``records`` to ``path`` (each file holds
#: several records or row groups, the last of them whole)
SWEPT = {
    "seq-none": lambda fs, path, schema, records: (
        sequence_file.write_sequence_file(fs, path, schema, records)
    ),
    "seq-record": lambda fs, path, schema, records: (
        sequence_file.write_sequence_file(
            fs, path, schema, records, compression="record"
        )
    ),
    "seq-block": lambda fs, path, schema, records: (
        sequence_file.write_sequence_file(
            fs, path, schema, records, compression="block", block_records=4
        )
    ),
    "rcfile": lambda fs, path, schema, records: rcfile.write_rcfile(
        fs, path, schema, records, row_group_bytes=512
    ),
    "rcfile-zlib": lambda fs, path, schema, records: rcfile.write_rcfile(
        fs, path, schema, records, row_group_bytes=512, codec="zlib"
    ),
}


def sweep_fs():
    return FileSystem(ClusterConfig(num_nodes=2, block_size=64 * 1024))


def input_format(name, path):
    if name.startswith("seq"):
        return sequence_file.SequenceFileInputFormat(path)
    return rcfile.RCFileInputFormat(path)


def scan_image(name, data, window):
    """Every record of the file ``data``, read at an I/O buffer of
    ``window`` bytes."""
    fs = sweep_fs()
    fs.write_file("/cut", data)
    fmt = input_format(name, "/cut")
    ctx = TaskContext(node=None, cost=CpuCostModel(), io_buffer_size=window)
    return [
        record.to_dict()
        for split in fmt.get_splits(fs, fs.cluster)
        for _, record in fmt.open_reader(fs, split, ctx)
    ]


def last_unit(name, records):
    """``(file, start, end, before)``: the file, the byte range of its
    last record (SEQ none / record) or last block or row group, and the
    records that lie wholly before that range."""
    schema = micro_schema()
    fs = sweep_fs()
    SWEPT[name](fs, "/swept", schema, records)
    data = fs.read_file("/swept")
    sync = make_sync_marker("/swept")
    if name in ("seq-none", "seq-record"):
        fs.delete("/swept")
        SWEPT[name](fs, "/swept", schema, records[:-1])
        start = len(fs.read_file("/swept"))
        end = len(data) - (SYNC_SIZE if data.endswith(sync) else 0)
        return data, start, end, [r.to_dict() for r in records[:-1]]
    start = data.rindex(sync) + SYNC_SIZE
    return data, start, len(data), scan_image(
        name, data[:start - SYNC_SIZE], 4096
    )


class TestTruncationSweep:
    """A row file cut anywhere inside its last record or row group reads
    as the records wholly before the cut, or raises a typed error."""

    @pytest.mark.parametrize("window", [61, 12 * 1024])
    @pytest.mark.parametrize("name", sorted(SWEPT))
    def test_cut_inside_the_last_unit(self, name, window):
        records = micro_records(micro_schema(), 10)
        data, start, end, before = last_unit(name, records)
        assert 0 < len(before) < len(records)
        assert before == [r.to_dict() for r in records[:len(before)]]
        assert scan_image(name, data, window) == [
            r.to_dict() for r in records
        ]
        cuts = sorted({start + 1 + i * (end - start - 2) // 63
                       for i in range(64)})
        assert len(cuts) == 64 and cuts[-1] == end - 1
        for cut in cuts:
            try:
                got = scan_image(name, data[:cut], window)
            except (EOFError, ValueError):
                continue
            assert got == before, cut
