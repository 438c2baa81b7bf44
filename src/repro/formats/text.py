"""TXT: newline-delimited text files (the paper's slowest baseline).

Records are stored one per line using :mod:`repro.serde.text`.  Reading
is CPU-bound on parsing — the reason Section 6.2 measures SequenceFiles
~3x faster than text and calls naive text usage the flaw in earlier
MapReduce evaluations.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.formats.common import FileSplit, block_splits
from repro.mapreduce.types import InputFormat, RecordReader, TaskContext
from repro.serde import text as text_serde
from repro.serde.schema import Schema
from repro.sim.metrics import Metrics


def write_text(
    fs,
    path: str,
    schema: Schema,
    records: Iterable,
    metrics: Optional[Metrics] = None,
) -> None:
    """Write ``records`` to ``path`` as one text line each."""
    lines = [
        text_serde.encode_record(schema, record) + "\n" for record in records
    ]
    with fs.create(path, metrics=metrics) as out:
        out.write("".join(lines).encode("utf-8"))
    # Persist the schema next to the data so readers can parse lines.
    schema_path = path + ".schema"
    if not fs.exists(schema_path):
        fs.write_file(schema_path, schema.to_json().encode("utf-8"))


class TextRecordReader(RecordReader):
    """Reads the lines of one block-range split, in one loop.

    Follows Hadoop's convention: a split that does not begin at offset 0
    discards the (partial) first line — it belongs to the previous
    split — and the split owning a line is the one containing the byte
    *before* its first character.
    """

    def __init__(self, fs, split: FileSplit, schema: Schema, ctx: TaskContext):
        super().__init__(ctx)
        self.schema = schema
        self.split = split
        self._stream = fs.open(
            split.path,
            node=ctx.node,
            metrics=ctx.metrics,
            buffer_size=ctx.io_buffer_size,
            probe=ctx.obs.stream_probe(file=split.path, format="txt"),
        )

    def __iter__(self):
        ctx, stream, end = self.ctx, self._stream, self.split.end
        buf, offset = b"", self.split.start  # the stream offset of buf[0]
        stream.seek(offset)
        partial = offset > 0
        # A line starting exactly at `end` still belongs to this split
        # (the next split unconditionally discards its first line).
        while partial or offset <= end:
            newline = buf.find(b"\n")
            if newline == -1:
                chunk = stream.read(64 * 1024)
                if chunk:
                    buf += chunk
                    continue
                if not buf:
                    return
                newline = len(buf)  # the last line, unterminated
            line, buf = buf[:newline], buf[newline + 1:]
            offset += newline + 1
            if partial:
                partial = False
                continue
            record = text_serde.decode_record(
                self.schema, line.decode("utf-8"),
                cost=ctx.cost, metrics=ctx.metrics,
            )
            ctx.metrics.records += 1
            yield None, record


class TextInputFormat(InputFormat):
    """Record-typed text input (Figure 1's jobs work unchanged on it)."""

    def __init__(self, path: str, schema: Optional[Schema] = None) -> None:
        self.path = path
        self.schema = schema

    def _schema(self, fs) -> Schema:
        if self.schema is None:
            raw = fs.read_file(self.path + ".schema").decode("utf-8")
            self.schema = Schema.parse(raw)
        return self.schema

    def get_splits(self, fs, cluster) -> List[FileSplit]:
        return block_splits(fs, self.path, "txt")

    def open_reader(self, fs, split: FileSplit, ctx: TaskContext) -> RecordReader:
        return TextRecordReader(fs, split, self._schema(fs), ctx)
