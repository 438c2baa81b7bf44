"""Where a file is cut into splits must not change what a job reads.

A block-granular split owns the entries from the first sync marker at or
after its start up to the first one at or after its end; a SequenceFile's
first split starts right after the header instead.  Every row format is
cut into two ``FileSplit``s at every 7th byte, and each record must be
read exactly once, in order, whichever split reads it.  SequenceFile
entries whose keys are not NullWritable read the same values and charge
the same decode as their NullWritable twins.
"""

import zlib

import pytest

from repro.formats import rcfile, sequence_file, text
from repro.formats.common import FileSplit, make_sync_marker
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.mapreduce.types import TaskContext
from repro.serde.binary import encode_datum
from repro.sim.cost import CpuCostModel
from repro.util.buffers import ByteWriter
from repro.workloads.micro import micro_records, micro_schema

ROWS = 12

FORMATS = {
    "seq-none": lambda fs, path, schema, records: (
        sequence_file.write_sequence_file(
            fs, path, schema, records, sync_interval=700,
        ),
        sequence_file.SequenceFileInputFormat(path),
    ),
    "seq-record": lambda fs, path, schema, records: (
        sequence_file.write_sequence_file(
            fs, path, schema, records, compression="record",
            sync_interval=700,
        ),
        sequence_file.SequenceFileInputFormat(path),
    ),
    "seq-block": lambda fs, path, schema, records: (
        sequence_file.write_sequence_file(
            fs, path, schema, records, compression="block", block_records=3,
        ),
        sequence_file.SequenceFileInputFormat(path),
    ),
    "rcfile": lambda fs, path, schema, records: (
        rcfile.write_rcfile(fs, path, schema, records, row_group_bytes=600),
        rcfile.RCFileInputFormat(path),
    ),
    "rcfile-zlib": lambda fs, path, schema, records: (
        rcfile.write_rcfile(
            fs, path, schema, records, row_group_bytes=600, codec="zlib",
        ),
        rcfile.RCFileInputFormat(path),
    ),
    "txt": lambda fs, path, schema, records: (
        text.write_text(fs, path, schema, records),
        text.TextInputFormat(path),
    ),
}


def _ctx(window=4096):
    return TaskContext(node=None, cost=CpuCostModel(), io_buffer_size=window)


def _read(fs, fmt, split, window=4096):
    ctx = _ctx(window)
    return [r.to_dict() for _, r in fmt.open_reader(fs, split, ctx)], ctx


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_cut_reads_each_record_once_in_order(name):
    records = list(micro_records(ROWS, seed=3))
    expected = [r.to_dict() for r in records]
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    _, fmt = FORMATS[name](fs, "/cut", micro_schema(), records)
    length = fs.file_length("/cut")
    wrong = []
    for cut in range(7, length, 7):
        halves = [
            FileSplit("/cut", 0, cut, cut, [0]),
            FileSplit("/cut", cut, length, length - cut, [0]),
        ]
        got = [row for split in halves for row in _read(fs, fmt, split)[0]]
        if got != expected:
            wrong.append(cut)
    assert not wrong, f"{len(wrong)} cuts misread, from byte {wrong[0]}"


@pytest.mark.parametrize("mode", sequence_file.COMPRESSION_MODES)
def test_blocks_smaller_than_the_header_count_each_record_once(mode):
    """Splits of 256 bytes: the first ones end inside the header, and
    the split holding the header's sync marker reads from there."""
    fs = FileSystem(ClusterConfig(num_nodes=2, block_size=256))
    sequence_file.write_sequence_file(
        fs, "/small", micro_schema(), micro_records(40), compression=mode
    )
    fmt = sequence_file.SequenceFileInputFormat("/small")
    assert sequence_file.read_header(fs, "/small").header_end > 2 * 256
    job = Job(
        "count", lambda key, value, emit, ctx: emit("n", 1), fmt,
        reducer=lambda key, values, emit, ctx: emit(key, sum(values)),
        num_reducers=1,
    )
    result = run_job(fs, job)
    assert result.output == [("n", 40)]
    assert result.counters["map.records"] == 40


# -- keys that are not NullWritable ------------------------------------

KEYS = [b"", b"k", b"key-" * 40, bytes(range(200)), b"\xff" * 16]


def _image(path, mode, schema, values, keys):
    """A hand-built SequenceFile: one entry per value with the given
    keys, a sync marker after every third entry."""
    sync = make_sync_marker(path)
    out = ByteWriter()
    out.write_bytes(sequence_file.MAGIC)
    out.write_string(schema.to_json())
    out.write_string(mode)
    out.write_string("zlib" if mode != "none" else "")
    out.write_bytes(sync)
    for i, value in enumerate(values):
        out.write_byte(0x01)
        out.write_len_prefixed(keys[i % len(keys)])
        out.write_len_prefixed(
            zlib.compress(value) if mode == "record" else value
        )
        if i % 3 == 2:
            out.write_bytes(sync)
    return out.getvalue()


def _scan(image, window):
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1, block_size=2048))
    fs.write_file("/keys", image)
    fmt = sequence_file.SequenceFileInputFormat("/keys")
    rows, books = [], []
    for split in fmt.get_splits(fs, fs.cluster):
        got, ctx = _read(fs, fmt, split, window)
        rows += got
        m = ctx.metrics
        books.append((m.cpu_ticks, m.cells, m.objects, m.records))
    return rows, [sum(column) for column in zip(*books)]


@pytest.mark.parametrize("window", [61, 509, 4096])
@pytest.mark.parametrize("mode", ["none", "record"])
def test_keyed_entries_read_like_null_keys(mode, window):
    schema = micro_schema()
    records = [r.to_dict() for r in micro_records(20, seed=9)]
    values = [encode_datum(schema, r) for r in records]
    keyed = _scan(_image("/keys", mode, schema, values, KEYS), window)
    null = _scan(_image("/keys", mode, schema, values, [b""]), window)
    assert keyed[0] == records
    # a key is passed, never decoded: the decode books are the same
    assert keyed == null
