"""Robustness tests: corrupt and truncated inputs fail loudly, not wrongly."""

import pytest

from repro.core.cif import column_record_count
from repro.formats import rcfile, sequence_file
from repro.mapreduce import Job, run_job
from repro.serde.schema import Schema, SchemaError
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
        data = bytearray(fs.read_file("/r/seq"))
        data[-1] ^= 0xFF  # flip a byte in the last record's value
        fs.delete("/r/seq")
        fs.write_file("/r/seq", bytes(data))
        fmt = sequence_file.SequenceFileInputFormat("/r/seq")
        split = fmt.get_splits(fs, fs.cluster)[0]
        with pytest.raises(Exception):
            list(fmt.open_reader(fs, split, make_ctx()))


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
        fs.delete("/r/rc")
        fs.write_file("/r/rc", bytes(data))
        fmt = rcfile.RCFileInputFormat("/r/rc")
        split = fmt.get_splits(fs, fs.cluster)[0]
        with pytest.raises(Exception):
            list(fmt.open_reader(fs, split, make_ctx()))

    def test_column_count_mismatch(self, fs):
        # A row group claiming a different column count than the schema.
        schema = micro_schema()
        rcfile.write_rcfile(fs, "/r/rc", schema, micro_records(schema, 10))
        header = rcfile.read_header(fs, "/r/rc")
        assert len(header.schema.fields) == 13


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
