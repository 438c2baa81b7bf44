"""RCFile: the PAX-style row-group format the paper compares against.

Following He et al. [20] (Section 4.1 of the paper): the file is a
sequence of *row groups*, each packed into HDFS blocks.  A row group is

  ``[sync marker][metadata region][data region]``

where the metadata region records the number of rows and the byte
length of each column chunk, and the data region lays the chunks out
column by column (each chunk optionally compressed — RCFile-comp).

The reader pushes projections down: it parses each row group's
metadata, seeks over unwanted column chunks, and decompresses/decodes
only the projected ones (lazy decompression).  Because all columns
share one file, those seeks are frequently smaller than the HDFS
readahead window, which is exactly why the paper finds RCFile's I/O
elimination poor at small row-group sizes (Figure 9, and the 20x extra
bytes in Section 6.2).

RCFile also pays two CPU overheads the paper calls out: per-row-group
metadata interpretation and an inefficient per-field serialization
(modelled by :meth:`CpuCostModel.charge_rcfile_fields`).

Adding a column to an RCFile dataset requires rewriting every row group
(:func:`add_column_rewrite`) — the flexibility disadvantage against CIF
discussed in Section 4.3.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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
from repro.serde import vecdecode
from repro.serde.binary import BinaryDecoder, column_runs
from repro.serde.record import Record
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader, ByteWriter
from repro.util.varint import decode_varint

MAGIC = b"RCF1"
DEFAULT_ROW_GROUP_BYTES = 4 * 1024 * 1024  # the recommended 4 MB [20]


def write_rcfile(
    fs,
    path: str,
    schema: Schema,
    records: Iterable,
    row_group_bytes: int = DEFAULT_ROW_GROUP_BYTES,
    codec: Optional[str] = None,
    metrics: Optional[Metrics] = None,
) -> None:
    """Write ``records`` as an RCFile (``codec`` enables RCFile-comp)."""
    sync = make_sync_marker(path)
    out = ByteWriter()
    out.write_bytes(MAGIC)
    out.write_string(schema.to_json())
    out.write_string(codec or "")
    out.write_bytes(sync)

    # A row group closes after the row that brings its column chunks to
    # ``row_group_bytes`` or more, the cut COF makes its splits by.
    runs = column_runs(schema, records, row_group_bytes)
    for group, (rows, run) in enumerate(runs):
        payloads = [
            get_codec(codec).compress(data) if codec else data
            for _, data, _ in run
        ]
        # The header's trailing sync doubles as the first group's marker;
        # later groups each write their own.
        if group:
            out.write_bytes(sync)
        # Metadata region: row count, then per column its (compressed)
        # chunk length plus every row's value length — RCFile's key
        # buffer, which readers must fetch in full for every row group.
        meta = ByteWriter()
        meta.write_varint(rows)
        meta.write_varint(len(payloads))
        for payload, (_, _, ends) in zip(payloads, run):
            meta.write_varint(len(payload))
            for start, end in zip(ends, ends[1:]):
                meta.write_varint(end - start)
        out.write_len_prefixed(meta.getvalue())
        for payload in payloads:
            out.write_bytes(payload)

    with fs.create(path, metrics=metrics) as stream:
        stream.write(out.getvalue())


class _Header:
    def __init__(self, reader: ByteReader) -> None:
        magic = reader.read_bytes(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not an RCFile (magic {magic!r})")
        self.schema = Schema.parse(reader.read_string())
        self.codec = reader.read_string() or None
        self.sync = reader.read_bytes(SYNC_SIZE)
        self.header_end = reader.offset


def read_header(fs, path: str) -> _Header:
    # Out of band (no metrics, nothing charged); the reader refills, so
    # a schema of any size parses.
    return _Header(StreamByteReader(fs.open(path)))


class RCFileRecordReader(RecordReader):
    """Row-group reader with projection push-down and lazy decompression."""

    def __init__(
        self,
        fs,
        split: FileSplit,
        header: _Header,
        columns: Optional[Sequence[str]],
        ctx: TaskContext,
    ) -> None:
        super().__init__(ctx)
        self.header = header
        self.split = split
        schema = header.schema
        if columns is None:
            columns = schema.field_names
        self._wanted = [schema.field(name) for name in columns]
        self._projected = schema.project(columns)
        self._stream = fs.open(
            split.path,
            node=ctx.node,
            metrics=ctx.metrics,
            buffer_size=ctx.io_buffer_size,
            probe=ctx.obs.stream_probe(file=split.path, format="rcfile"),
        )
        # Every row group is preceded by a sync marker (including the
        # first), so both the 0-offset and mid-file cases resynchronize
        # the same way.
        self._start = scan_to_sync(
            self._stream, header.sync, split.start, split.end
        )

    def __iter__(self):
        """The split's rows, in one loop: a row group is decoded whole,
        and the sync marker after it checked, before its rows are
        handed out, each counted as it is."""
        metrics, projected = self.ctx.metrics, self._projected
        next_group = self._start  # offset just past a sync marker
        while next_group is not None:
            columns, rows, next_group = self._read_group(next_group)
            for values in zip(*columns) if columns else [()] * rows:
                metrics.records += 1
                yield None, Record.of(projected, list(values))

    def _read_group(self, offset: int):
        """``(columns, rows, next)``: the projected chunks' values of the
        row group at ``offset``, its row count, and the offset of the
        next group of this split (None at its end)."""
        ctx = self.ctx
        cost, metrics = ctx.cost, ctx.metrics
        stream = self._stream
        stream.seek(offset)
        region = _read_len_prefixed(stream)
        meta = ByteReader(region)
        rows = meta.read_varint()
        num_cols = meta.read_varint()
        if num_cols != len(self.header.schema.fields):
            raise ValueError("row group column count mismatch")
        chunk_lens = []
        for _ in range(num_cols):
            chunk_lens.append(meta.read_varint())
            meta.pos, done = vecdecode.hop_prims(region, meta.pos, rows, "int")
            if done < rows:  # the per-row value lengths (key buffer)
                raise EOFError("truncated RCFile key buffer")
        # Interpreting the metadata block costs CPU for every length
        # entry, for all columns, whether projected or not.
        cost.charge_raw_scan(metrics, len(region))
        cost.charge_rcfile_rowgroup(metrics, rows * num_cols)

        wanted_indices = {f.index for f in self._wanted}
        columns = []  # the projected chunks' values, in schema order
        for index, chunk_len in enumerate(chunk_lens):
            if stream.tell() + chunk_len > stream.length:
                raise EOFError("truncated RCFile column chunk")
            if index not in wanted_indices:
                stream.seek(stream.tell() + chunk_len)
                continue
            data = stream.read(chunk_len)
            cost.charge_raw_scan(metrics, len(data))
            if self.header.codec:
                cost.charge_block_inflate_setup(metrics)
                data = get_codec(self.header.codec).decompress(
                    data, cost, metrics, registry=ctx.obs.registry
                )
            reader = ByteReader(data)
            field_schema = self.header.schema.fields[index].schema
            if field_schema.is_primitive:
                tag, values = vecdecode.batch_decode_values(
                    reader, field_schema, rows, ctx
                )
                if tag == "str":
                    values = [str(raw, "utf-8") for raw in values]
            else:
                values = BinaryDecoder(reader, cost, metrics).read_deferred(
                    field_schema, rows
                )
            columns.append(values)
            if not reader.at_end():
                raise ValueError("corrupt RCFile column chunk framing")

        # Materialize one writable per projected field per row — the
        # "inefficient serialization in parts of RCFile" CPU overhead.
        cost.charge_rcfile_fields(metrics, rows * len(self._wanted))

        # The following row group starts with a sync marker right after
        # this one's data; one at or past our range is the next split's.
        group_end = stream.tell()
        if group_end >= min(stream.length, self.split.end):
            return columns, rows, None
        if stream.read(SYNC_SIZE) != self.header.sync:
            raise ValueError(f"missing sync marker at {group_end}")
        return columns, rows, group_end + SYNC_SIZE


def _read_len_prefixed(stream) -> bytes:
    """Read a varint-length-prefixed region directly off a stream."""
    prefix = b""
    while not prefix or prefix[-1] & 0x80:
        byte = stream.read(1)
        if not byte:
            raise EOFError("truncated length prefix")
        prefix += byte
    length, _ = decode_varint(prefix)
    return stream.read(length)


class RCFileInputFormat(BlockInputFormat):
    """Block-granular splits over an RCFile, with column projection."""

    split_label = "rcfile"
    parse_header = staticmethod(read_header)

    def __init__(self, path: str, columns: Optional[Sequence[str]] = None):
        super().__init__(path)
        self.columns = list(columns) if columns is not None else None

    def set_columns(self, columns: Sequence[str]) -> None:
        """Projection push-down (mirrors CIF's ``setColumns``)."""
        self.columns = list(columns)

    def open_reader(self, fs, split: FileSplit, ctx: TaskContext) -> RecordReader:
        return RCFileRecordReader(
            fs, split, self._read_header(fs), self.columns, ctx
        )


def add_column_rewrite(
    fs,
    src_path: str,
    dst_path: str,
    name: str,
    column_schema: Schema,
    values: Sequence,
    row_group_bytes: int = DEFAULT_ROW_GROUP_BYTES,
    metrics: Optional[Metrics] = None,
) -> None:
    """Add a column to an RCFile dataset — by rewriting all of it.

    This is the expensive operation Section 4.3 contrasts with CIF's
    cheap :func:`repro.core.cof.add_column`: every row group must be
    read, widened, and written back.
    """
    header = read_header(fs, src_path)
    ctx_metrics = metrics if metrics is not None else Metrics()
    # Read the whole dataset back (charged as I/O against the metrics).
    stream = fs.open(src_path, metrics=ctx_metrics)
    stream.read_fully()
    ctx = TaskContext(node=None, cost=CpuCostModel(), io_buffer_size=64 * 1024)
    split = FileSplit(
        src_path, 0, fs.file_length(src_path), fs.file_length(src_path), []
    )
    reader = RCFileRecordReader(fs, split, header, None, ctx)
    widened_schema = header.schema.with_field(name, column_schema)
    widened = []
    for i, (_, record) in enumerate(reader):
        row = record.to_dict()
        row[name] = values[i]
        widened.append(row)
    write_rcfile(
        fs,
        dst_path,
        widened_schema,
        widened,
        row_group_bytes=row_group_bytes,
        codec=header.codec,
        metrics=ctx_metrics,
    )
