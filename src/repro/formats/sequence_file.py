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
from repro.serde import binary
from repro.serde.binary import encode_datum, record_steps
from repro.serde.record import Record
from repro.serde.schema import Schema
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader, ByteWriter
from repro.util.varint import VarintError, decode_varint

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
                _flush_block(out, sync, batch, codec_impl)
                batch, batch_bytes = [], 0
        if batch:
            _flush_block(out, sync, batch, codec_impl)
    else:
        for record in records:
            value = encode_datum(schema, record)
            if compression == "record":
                value = codec_impl.compress(value)
            out.write_byte(_TAG_RECORD)
            out.write_varint(0)  # NullWritable key
            out.write_len_prefixed(value)
            if out.position - last_sync >= sync_interval:
                out.write_bytes(sync)
                last_sync = out.position

    with fs.create(path, metrics=metrics) as stream:
        stream.write(out.getvalue())


def _flush_block(out: ByteWriter, sync: bytes, batch: List[bytes],
                 codec_impl) -> None:
    out.write_bytes(sync)
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
        self._stream = fs.open(
            split.path,
            node=ctx.node,
            metrics=ctx.metrics,
            buffer_size=ctx.io_buffer_size,
            probe=ctx.obs.stream_probe(file=split.path, format="seq"),
        )
        if split.start == 0:
            # Hadoop's ``more = start < end``: the split after one that
            # ends before the header's sync marker resyncs at that
            # marker, so this one owns no entries.
            start = header.header_end
            if split.end <= start - SYNC_SIZE:
                start = None
        else:
            start = scan_to_sync(
                self._stream, header.sync, split.start, split.end
            )
        self._start = start

    def __iter__(self):
        """The split's records, in one loop.  A record entry's frame (the
        sync check, tag, key length and value length) is read off the
        reader's window in place and its value handed straight to the
        record loop (``binary._walk``); a block, or a frame on the
        window's edge, goes through the reader's own methods, which
        refill, seek and raise.  A split owns every entry up to the
        first sync marker at or past its end (Hadoop's rule)."""
        if self._start is None:
            return
        metrics, profile = self.ctx.metrics, self.ctx.cost.profile
        raw_per_byte = profile.raw_scan_per_byte
        schema, walk = self.header.schema, binary._walk
        steps, record_cpu = record_steps(schema, profile)
        inflated = self.header.compression == "record"
        split_end = self.split.end
        self._stream.seek(self._start)
        r = StreamByteReader(self._stream)
        while True:
            buf, pos = r._buf, r.pos
            tag = at = count = None
            try:
                tag = buf[pos]
                if tag == 0xFF:
                    if r._origin + pos >= split_end:
                        return
                    if pos + SYNC_SIZE <= len(buf):
                        r.pos = pos + SYNC_SIZE
                        continue
                elif tag == _TAG_RECORD:
                    n, at = buf[pos + 1], pos + 2  # the key's length
                    if n >= 0x80:
                        n, at = decode_varint(buf, pos + 1)
                    n, at = buf[at + n], at + n + 1  # the value's
                    if n >= 0x80:
                        n, at = decode_varint(buf, at - 1)
            except (IndexError, VarintError):
                at = None
            if at is None:
                r.pos = pos
                if r.at_end():
                    return
                entry_start = r.offset
                tag = r.read_byte()
                if tag == 0xFF:
                    if entry_start >= split_end:
                        return
                    r.skip(SYNC_SIZE - 1)
                    continue
                if tag != _TAG_RECORD and tag != _TAG_BLOCK:
                    raise ValueError(
                        f"corrupt SequenceFile entry tag {tag:#x} "
                        f"at {entry_start}"
                    )
                if tag == _TAG_BLOCK:
                    count = r.read_varint()
                r.skip(r.read_varint())  # the key, never decoded
                n = r.read_varint()
                at = r.pos

            r.pos = at
            if tag == _TAG_RECORD and not inflated:
                start = r._origin + at
                values = walk(steps, r, profile, metrics, record_cpu, 1)
                span = r._origin + r.pos - start
                metrics.cpu_ticks += span * raw_per_byte
                if span != n:
                    raise ValueError(_FRAMING)
                metrics.records += 1
                yield None, Record.of(schema, values)
                continue
            # a compressed region: one record's value, or a block's
            data = r.read_bytes(n)
            for values in self._inflate(data, count, steps, record_cpu):
                metrics.records += 1
                yield None, Record.of(schema, values)

    def _inflate(self, data, count: Optional[int], steps, cpu) -> list:
        """The values in one compressed region, charged, inflated and
        decoded: a record's value, or the ``count`` length-prefixed
        values of a block, which must fill it exactly."""
        ctx = self.ctx
        cost, metrics, profile = ctx.cost, ctx.metrics, ctx.cost.profile
        raw_per_byte = profile.raw_scan_per_byte
        metrics.cpu_ticks += (
            len(data) * raw_per_byte + profile.block_inflate_setup
        )
        data = self._codec.decompress(
            data, cost, metrics, registry=ctx.obs.registry
        )
        walk = binary._walk
        v = ByteReader(data)
        out = []
        for _ in range(1 if count is None else count):
            n = len(data)
            if count is not None:
                n, v.pos = decode_varint(data, v.pos)
            start = v.pos
            values = walk(steps, v, profile, metrics, cpu, 1)
            span = v.pos - start
            metrics.cpu_ticks += span * raw_per_byte
            if span != n:
                raise ValueError(_FRAMING)
            out.append(values)
        if v.pos != len(data):
            raise ValueError(_FRAMING)
        return out


_FRAMING = "corrupt SequenceFile record framing"


class SequenceFileInputFormat(BlockInputFormat):
    """Figure 1's ``SequenceFileInputFormat``: one split per HDFS block."""

    split_label = "seq"
    parse_header = staticmethod(read_header)

    def open_reader(self, fs, split: FileSplit, ctx: TaskContext) -> RecordReader:
        return SequenceFileRecordReader(fs, split, self._read_header(fs), ctx)
