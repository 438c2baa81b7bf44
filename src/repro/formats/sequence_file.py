"""SEQ: Hadoop SequenceFiles with the paper's four variants.

A SequenceFile stores key/value pairs in a serialized binary format
(Section 2).  The writer supports the compression variants Table 1
compares:

- ``none``        (SEQ-uncomp)  — raw serialized records,
- ``record``      (SEQ-record)  — each value compressed individually,
- ``block``       (SEQ-block)   — batches of values compressed together,
- SEQ-custom is not a writer mode: it is an uncompressed SequenceFile
  whose ``content`` column was compressed by application code at load
  time (see :func:`repro.workloads.crawl.compress_content_column`).

Layout: a header (magic, schema, compression mode, codec, sync marker),
then framed entries.  A 16-byte sync marker is emitted every
``sync_interval`` bytes so block-granular splits can resynchronize.

Entry framing (all varints):
  ``tag 0x01`` key_len key value_len value          (none / record modes)
  ``tag 0x02`` count keys_len keys block_len block  (block mode)
Records use NullWritable keys (key_len 0) in all the paper's jobs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.compress.codecs import get_codec
from repro.formats.common import (
    SYNC_SIZE,
    BlockInputFormat,
    FileSplit,
    make_sync_marker,
    scan_to_sync,
)
from repro.hdfs.streams import StreamByteReader
from repro.mapreduce.types import RecordReader, TaskContext
from repro.serde.binary import datum_reader, encode_datum
from repro.serde.schema import Schema
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader, ByteWriter

MAGIC = b"SEQ6"
_TAG_RECORD = 0x01
_TAG_BLOCK = 0x02

COMPRESSION_MODES = ("none", "record", "block")
DEFAULT_SYNC_INTERVAL = 2000
DEFAULT_BLOCK_RECORDS = 512
DEFAULT_BLOCK_BYTES = 64 * 1024


def write_sequence_file(
    fs,
    path: str,
    schema: Schema,
    records: Iterable,
    compression: str = "none",
    codec: str = "zlib",
    sync_interval: int = DEFAULT_SYNC_INTERVAL,
    block_records: int = DEFAULT_BLOCK_RECORDS,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    metrics: Optional[Metrics] = None,
) -> None:
    """Serialize ``records`` (NullWritable keys) into a SequenceFile."""
    if compression not in COMPRESSION_MODES:
        raise ValueError(f"unknown compression mode {compression!r}")
    sync = make_sync_marker(path)
    out = ByteWriter()
    out.write_bytes(MAGIC)
    out.write_string(schema.to_json())
    out.write_string(compression)
    out.write_string(codec if compression != "none" else "")
    out.write_bytes(sync)
    codec_impl = get_codec(codec) if compression != "none" else None

    last_sync = out.position

    def maybe_sync() -> None:
        nonlocal last_sync
        if out.position - last_sync >= sync_interval:
            out.write_bytes(sync)
            last_sync = out.position

    if compression == "block":
        # Block mode flushes by accumulated bytes (Hadoop's
        # io.seqfile.compress.blocksize) and emits a sync marker before
        # every compressed block, so any HDFS block boundary can
        # resynchronize at the next compressed block.
        batch: List[bytes] = []
        batch_bytes = 0
        for record in records:
            batch.append(encode_datum(schema, record))
            batch_bytes += len(batch[-1])
            if len(batch) >= block_records or batch_bytes >= block_bytes:
                out.write_bytes(sync)
                _flush_block(out, batch, codec_impl)
                batch = []
                batch_bytes = 0
        if batch:
            out.write_bytes(sync)
            _flush_block(out, batch, codec_impl)
    else:
        for record in records:
            value = encode_datum(schema, record)
            if compression == "record":
                value = codec_impl.compress(value)
            out.write_byte(_TAG_RECORD)
            out.write_varint(0)  # NullWritable key
            out.write_len_prefixed(value)
            maybe_sync()

    with fs.create(path, metrics=metrics) as stream:
        stream.write(out.getvalue())


def _flush_block(out: ByteWriter, batch: List[bytes], codec_impl) -> None:
    payload = ByteWriter()
    for value in batch:
        payload.write_len_prefixed(value)
    compressed = codec_impl.compress(payload.getvalue())
    out.write_byte(_TAG_BLOCK)
    out.write_varint(len(batch))
    out.write_varint(0)  # keys block (empty: NullWritable)
    out.write_len_prefixed(compressed)


class _Header:
    def __init__(self, reader) -> None:
        magic = reader.read_bytes(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a SequenceFile (magic {magic!r})")
        self.schema = Schema.parse(reader.read_string())
        self.compression = reader.read_string()
        self.codec = reader.read_string()
        self.sync = reader.read_bytes(SYNC_SIZE)
        self.header_end = reader.offset


def read_header(fs, path: str) -> _Header:
    # Out of band (no metrics, nothing charged); the reader refills, so
    # a schema of any size parses.
    return _Header(StreamByteReader(fs.open(path)))


class SequenceFileRecordReader(RecordReader):
    """Reads the records of one block-range split, resyncing at entry."""

    def __init__(self, fs, split: FileSplit, header: _Header, ctx: TaskContext):
        super().__init__(ctx)
        self.header = header
        self.split = split
        self._codec = (
            get_codec(header.codec) if header.compression != "none" else None
        )
        self._read = datum_reader(header.schema, ctx.cost, ctx.metrics)
        self._stream = fs.open(
            split.path,
            node=ctx.node,
            metrics=ctx.metrics,
            buffer_size=ctx.io_buffer_size,
            probe=ctx.obs.stream_probe(file=split.path, format="seq"),
        )
        if split.start == 0:
            start = header.header_end
        else:
            start = scan_to_sync(
                self._stream, header.sync, split.start, split.end
            )
        self._done = start is None
        if not self._done:
            self._stream.seek(start)
            self._reader = StreamByteReader(self._stream)
        self._block: List = []
        self._block_index = 0

    def read_next(self):
        if self._block_index < len(self._block):
            record = self._block[self._block_index]
            self._block_index += 1
            return None, record
        if self._done:
            return None
        reader = self._reader
        while True:
            if reader.at_end():
                self._done = True
                return None
            entry_start = reader.offset
            tag = reader.read_byte()
            if tag == 0xFF:
                # Hadoop semantics: a split owns every entry up to the
                # first sync marker at or past its end offset; the next
                # split resynchronizes at exactly that marker.
                if entry_start >= self.split.end:
                    self._done = True
                    return None
                reader.skip(SYNC_SIZE - 1)
                continue
            if tag == _TAG_RECORD:
                return None, self._read_record(reader)
            if tag != _TAG_BLOCK:
                raise ValueError(
                    f"corrupt SequenceFile entry tag {tag:#x} at {entry_start}"
                )
            self._load_block(reader)
            if self._block:
                record = self._block[0]
                self._block_index = 1
                return None, record

    def _read_record(self, reader) -> object:
        reader.skip(reader.read_varint())  # the key (NullWritable: empty)
        if self.header.compression == "record":
            value = self._inflate(reader)
            return self._read_value(value, len(value))
        return self._read_value(reader, reader.read_varint())

    def _read_value(self, reader, value_len: int):
        """One record, which must fill its ``value_len`` framed bytes."""
        record, span = self._read(reader)
        if span != value_len:
            raise ValueError("corrupt SequenceFile record framing")
        return record

    def _inflate(self, reader) -> ByteReader:
        """The compressed region next on ``reader``, charged and inflated."""
        ctx = self.ctx
        compressed = reader.read_len_prefixed()
        ctx.cost.charge_raw_scan(ctx.metrics, len(compressed))
        ctx.cost.charge_block_inflate_setup(ctx.metrics)
        return ByteReader(self._codec.decompress(
            compressed, ctx.cost, ctx.metrics, registry=ctx.obs.registry
        ))

    def _load_block(self, reader) -> None:
        count = reader.read_varint()
        reader.skip(reader.read_varint())  # the keys (NullWritable: empty)
        block = self._inflate(reader)
        self._block = [
            self._read_value(block, block.read_varint()) for _ in range(count)
        ]
        if not block.at_end():
            raise ValueError("corrupt SequenceFile record framing")


class SequenceFileInputFormat(BlockInputFormat):
    """Figure 1's ``SequenceFileInputFormat``: one split per HDFS block."""

    split_label = "seq"
    parse_header = staticmethod(read_header)

    def open_reader(self, fs, split: FileSplit, ctx: TaskContext) -> RecordReader:
        return SequenceFileRecordReader(fs, split, self._read_header(fs), ctx)
