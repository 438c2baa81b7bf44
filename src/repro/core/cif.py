"""ColumnInputFormat (CIF): reading split-directories with projection.

The paper's reading path (Section 4.2): a split is one or more
split-directories; the record reader scans the column files of the
projected columns in parallel positions and reassembles records.
Projections are pushed down with :meth:`ColumnInputFormat.set_columns`
— files of unprojected columns are never opened, let alone read.

Two materialization strategies (Section 5.1): ``lazy=False`` decodes
every projected column of every record; ``lazy=True`` hands map
functions one reused :class:`~repro.serde.record.Record` per
split-directory, whose slots each defer to a column reader, so a
column value is deserialized only when ``get()`` is called.

:class:`VectorizedCIFRecordReader` is the reader every scan opens: it
decodes eager rows and :meth:`~VectorizedCIFRecordReader.read_batch`
frames column-wise, and its column readers' gathers (every column
read, skips included) take window steps through the batched kernels.
:class:`CIFRecordReader` is the per-datum reference that
``repro.check`` and the differential tests open with
``execution="scalar"`` to prove the batch reader record- and
charge-identical.  Both hand lazy rows out through the same code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.cof import SCHEMA_FILE, split_dirs_of
from repro.core.columnio import DefaultColumnReader, open_column_reader
from repro.core.stats import (
    RangePredicate,
    read_split_stats,
    split_satisfiable,
)
from repro.core.vector import (
    DEFAULT_BATCH_ROWS,
    CellLedger,
    VectorFrame,
    full_selection,
    resolve_execution,
)
from repro.mapreduce.types import InputFormat, InputSplit, RecordReader, TaskContext
from repro.serde.record import Record, _Deferred
from repro.serde.schema import Schema
from repro.sim.calibration import interleave_bandwidth_scale


def column_record_count(fs, column_path: str) -> int:
    """Record count stored in a column file's header."""
    from repro.util.buffers import ByteReader
    from repro.core import columnio

    head = fs.open(column_path).read(32)
    reader = ByteReader(head)
    magic = reader.read_bytes(len(columnio.MAGIC))
    if magic != columnio.MAGIC:
        raise ValueError(f"{column_path} is not a column file")
    reader.read_byte()
    return reader.read_varint()


class CIFSplit(InputSplit):
    """One or more whole split-directories assigned to a map task."""

    def __init__(self, split_dirs: List[str], length: int, locations: List[int]):
        super().__init__(length, locations, label="+".join(split_dirs))
        self.split_dirs = list(split_dirs)


class CIFRecordReader(RecordReader):
    """Reassembles records from the column files of split-directories,
    one datum at a time: the reference the batch reader is checked
    against (``execution="scalar"``).

    A lazy reader hands out one reused Record per split-directory and
    advances a split-level ``curPos``; each column reader keeps its own
    ``lastPos`` (``next_index``).  A slot's deferral skips its column up
    to ``curPos`` and deserializes one value.  Values read for one row
    are invalid once the reader advances: ``materialize()`` copies them.
    """

    #: what each opened column reader's ``batch_kernels`` is set to
    batch_kernels = False

    def __init__(
        self,
        fs,
        split: CIFSplit,
        columns: Optional[Sequence[str]],
        lazy: bool,
        ctx: TaskContext,
    ) -> None:
        super().__init__(ctx)
        self._fs = fs
        self._dirs = list(split.split_dirs)
        self._columns = list(columns) if columns is not None else None
        self._lazy = lazy
        self._dir_index = 0
        self._readers: dict = {}
        self._schema: Optional[Schema] = None
        self._count = 0
        self._cursor = 0
        # The lazy row, its place in its directory (curPos), its slots
        # and their deferrals: see _arm_lazy_row.
        self._record: Optional[Record] = None
        self._row = 0
        self._values = self._armed = self._skipped = []
        self._ledger: Optional[CellLedger] = None

    def _open_next_dir(self) -> bool:
        if self._dir_index >= len(self._dirs):
            return False
        split_dir = self._dirs[self._dir_index]
        self._dir_index += 1
        fs, ctx = self._fs, self.ctx
        obs = ctx.obs
        raw_schema = fs.open(
            f"{split_dir}/{SCHEMA_FILE}", node=ctx.node, metrics=ctx.metrics,
            probe=obs.stream_probe(
                file=f"{split_dir}/{SCHEMA_FILE}", column=SCHEMA_FILE,
                format="cif",
            ),
        ).read_fully()
        full_schema = Schema.parse(raw_schema.decode("utf-8"))
        names = (
            self._columns if self._columns is not None else full_schema.field_names
        )
        self._schema = full_schema.project(names)
        self._readers = {}
        counts = set()
        # Scanning k column files concurrently interleaves disk access
        # across files — the "additional seeks" behind CIF's ~25%
        # all-columns overhead in Section 6.2 (see calibration).
        scale = interleave_bandwidth_scale(len(names))
        defaulted = []  # columns declared with a default but unwritten
        for name in names:
            path = f"{split_dir}/{name}"
            field = full_schema.field(name)
            if not fs.exists(path):
                if not field.has_default:
                    raise ValueError(
                        f"{split_dir} has no file for column {name!r} "
                        "and the field declares no default"
                    )
                defaulted.append(field)
                continue
            stream = fs.open(
                path,
                node=ctx.node,
                metrics=ctx.metrics,
                buffer_size=ctx.io_buffer_size,
                bandwidth_scale=scale,
                probe=obs.stream_probe(file=path, column=name, format="cif"),
            )
            reader = open_column_reader(
                stream, field.schema, ctx,
                labels={"file": path, "column": name},
            )
            self._readers[name] = reader
            counts.add(reader.count)
        if len(counts) > 1:
            raise ValueError(
                f"column files of {split_dir} disagree on record count: {counts}"
            )
        if counts:
            self._count = counts.pop()
        elif defaulted:
            # Every projected column is defaulted: take the record count
            # from any materialized column file of the directory.
            self._count = self._any_column_count(split_dir, full_schema)
        else:
            self._count = 0
        for field in defaulted:
            self._readers[field.name] = DefaultColumnReader(
                field.schema, self._count, ctx, field.default,
                labels={
                    "file": f"{split_dir}/{field.name}",
                    "column": field.name,
                },
            )
        for reader in self._readers.values():
            reader.batch_kernels = self.batch_kernels
        self._cursor = 0
        return True

    def _any_column_count(self, split_dir: str, schema: Schema) -> int:
        for field in schema.fields:
            path = f"{split_dir}/{field.name}"
            if self._fs.exists(path):
                return column_record_count(self._fs, path)
        return 0

    def _arm_lazy_row(self) -> None:
        """A new lazy row for the directory just opened: one deferral
        per projected slot, each reading through its column's reader."""
        ledger = self._ledger = CellLedger(self._readers, self.ctx.obs)
        n = len(self._schema.fields)
        self._armed, self._skipped = [None] * n, [None] * n
        for name, reader in self._readers.items():
            index = self._schema.field(name).index
            self._armed[index] = _Deferred(
                self._read_cell, (reader, ledger.materialized[name])
            )
            self._skipped[index] = ledger.skipped[name]
        self._values = list(self._armed)
        self._record = Record.of(self._schema, self._values)

    def _read_cell(self, cursor):
        reader, materialized = cursor
        # lastPos (reader.next_index) catches up to curPos (self._row):
        # the records in between are skipped, not deserialized.
        reader.sync_to(self._row)
        value = reader.read_value()
        # Counted only after the read succeeds, so a fault mid-read
        # cannot desynchronize this from column.rows.read — the exact
        # reconciliation `repro explain` performs depends on it.
        materialized.inc()
        return value

    def read_next(self):
        while self._cursor >= self._count:
            if not self._open_next_dir():
                return None
            if self._lazy:
                self._arm_lazy_row()
        row = self._cursor
        self._cursor += 1
        if self._lazy:
            values, armed = self._values, self._armed
            if row:
                # Settle the previous row's books: projected columns the
                # map function never read were skipped, not deserialized.
                # A directory's last row is never settled.
                for i, skipped in enumerate(self._skipped):
                    if values[i] is armed[i]:
                        skipped.inc()
            self._ledger.records.inc()
            self._row = row
            values[:] = armed
            return None, self._record
        record = Record(self._schema)
        # Eager materialization is the scalar engine's decode stage;
        # lazy cells are instead charged to whichever operator calls
        # ``get()`` (filter/materialize), mirroring the vectorized path.
        profiler = self.ctx.profiler
        prev = profiler.switch("decode")
        profiler.add_rows("decode", 1, 1)
        for name, reader in self._readers.items():
            reader.sync_to(row)
            record.put(name, reader.read_value())
        profiler.switch(prev)
        return None, record


class VectorizedCIFRecordReader(CIFRecordReader):
    """Batch-decoding CIF reader: what ``open_reader`` returns.

    Its column readers' gathers take window steps, and it decodes
    column frames of up to ``batch_rows`` records with the whole-vector
    ``read_vector`` fast paths.  It supports two mutually exclusive
    drain styles:

    - **row iteration** (:meth:`read_next`): eager rows are copied out
      of fully decoded frames as Records; lazy rows are the
      reference's reused Record, valid until the next row.  Record
      counts are left to ``RecordReader.__iter__``.
    - **batch iteration** (:meth:`read_batch`): returns whole
      :class:`~repro.core.vector.VectorFrame` objects, every row
      selected; record counts are charged per frame here.

    Frames never span split-directories, so every frame reads one
    contiguous row range of one directory's column files.
    """

    batch_kernels = True

    def __init__(
        self,
        fs,
        split: CIFSplit,
        columns: Optional[Sequence[str]],
        lazy: bool,
        ctx: TaskContext,
        batch_rows: int = DEFAULT_BATCH_ROWS,
    ) -> None:
        super().__init__(fs, split, columns, lazy, ctx)
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        self._batch_rows = batch_rows
        self._mode: Optional[str] = None
        self._frame: Optional[VectorFrame] = None
        self._frame_last = False  # frame ends its directory
        self._frame_row = 0  # next eager row to yield (row iteration)

    def _next_frame(self) -> Optional[VectorFrame]:
        while self._cursor >= self._count:
            if not self._open_next_dir():
                self._frame = None
                return None
            self._ledger = (
                CellLedger(self._readers, self.ctx.obs) if self._lazy else None
            )
        start = self._cursor
        length = min(self._batch_rows, self._count - start)
        self._cursor += length
        frame = VectorFrame(
            self._readers, self._schema, start, length, self.ctx,
            ledger=self._ledger,
        )
        self._frame = frame
        self._frame_last = self._cursor >= self._count
        self._frame_row = 0
        profiler = self.ctx.profiler
        profiler.on_batch(length)
        if not self._lazy:
            # Eager materialization decodes every projected column —
            # same cells as the scalar eager path, charged frame-wise.
            sel = full_selection(length)
            prev = profiler.switch("decode")
            profiler.add_rows("decode", length, length)
            for name in self._readers:
                frame.column(name, sel)
            profiler.switch(prev)
        return frame

    def read_next(self):
        if self._mode == "batches":
            raise RuntimeError(
                "reader is being drained with read_batch(); "
                "row iteration cannot be mixed in"
            )
        self._mode = "rows"
        if self._lazy:
            return super().read_next()
        frame = self._frame
        if frame is None or self._frame_row >= frame.length:
            frame = self._next_frame()
            if frame is None:
                return None
        row = self._frame_row
        self._frame_row = row + 1
        # The frame is fully decoded, so copying a row out charges
        # nothing.
        get = frame.get_value
        return None, Record.of(
            self._schema, [get(f.name, row) for f in self._schema.fields]
        )

    def read_batch(self) -> Optional[VectorFrame]:
        """Next frame, or ``None`` at end of split."""
        if self._mode == "rows":
            raise RuntimeError(
                "reader is being drained with read_next(); "
                "batch iteration cannot be mixed in"
            )
        self._mode = "batches"
        prev, prev_last = self._frame, self._frame_last
        if prev is not None and prev.ledger is not None:
            prev.ledger.settle_frame(prev, exclude_last=prev_last)
        frame = self._next_frame()
        if frame is None:
            return None
        self.ctx.metrics.records += frame.length
        if frame.ledger is not None:
            frame.ledger.on_rows(frame.length)
        return frame


class ColumnInputFormat(InputFormat):
    """CIF: projection push-down plus split-directory-granular splits.

    ``dirs_per_split`` assigns several split-directories to one map task
    ("CIF can actually assign one or more split-directories to a single
    split", Section 4.2).  ``predicates`` are conjunctive range
    predicates pushed down for split pruning: a split-directory whose
    ``.stats`` zone map proves one unsatisfiable is never scheduled, its
    files never opened.  They do NOT filter surviving records.
    """

    def __init__(
        self,
        dataset: str,
        columns: Optional[Union[str, Sequence[str]]] = None,
        lazy: bool = True,
        dirs_per_split: int = 1,
        predicates: Optional[Sequence[RangePredicate]] = None,
        execution: str = "vectorized",
        batch_rows: int = DEFAULT_BATCH_ROWS,
    ) -> None:
        if dirs_per_split < 1:
            raise ValueError("dirs_per_split must be >= 1")
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        self.dataset = dataset
        self.columns: Optional[List[str]] = None
        if columns is not None:
            self.set_columns(columns)
        self.lazy = lazy
        self.dirs_per_split = dirs_per_split
        self.predicates: List[RangePredicate] = list(predicates or [])
        #: "vectorized" is the engine; "scalar" opens the per-datum
        #: reference reader the differential oracle compares it against
        self.execution = resolve_execution(execution)
        self.batch_rows = batch_rows
        #: split-directories pruned by zone maps on the last get_splits
        self.pruned_dirs = 0

    def set_columns(self, columns: Union[str, Sequence[str]]) -> None:
        """Push a projection down, as in
        ``ColumnInputFormat.setColumns(job, "url, metadata")``."""
        if isinstance(columns, str):
            columns = [c.strip() for c in columns.split(",") if c.strip()]
        self.columns = list(columns)

    def get_splits(self, fs, cluster) -> List[CIFSplit]:
        dirs = split_dirs_of(fs, self.dataset)
        if self.predicates:
            kept = []
            for split_dir in dirs:
                stats = read_split_stats(fs, split_dir)
                if split_satisfiable(stats, self.predicates):
                    kept.append(split_dir)
            self.pruned_dirs = len(dirs) - len(kept)
            dirs = kept
        else:
            self.pruned_dirs = 0
        splits: List[CIFSplit] = []
        for start in range(0, len(dirs), self.dirs_per_split):
            group = dirs[start:start + self.dirs_per_split]
            length = 0
            hosts: Optional[set] = None
            for split_dir in group:
                # A task also reads the split's schema file, so full
                # locality requires it on the same node as the columns
                # (with CPP it always is; without, rarely).
                needed = [f"{split_dir}/{SCHEMA_FILE}"] + [
                    f"{split_dir}/{name}"
                    for name in self._projected_files(fs, split_dir)
                ]
                for i, path in enumerate(needed):
                    if not fs.exists(path):
                        continue  # declared-with-default, not yet written
                    if i > 0:
                        length += fs.file_length(path)
                    file_hosts = set(fs.hosts_for(path))
                    hosts = file_hosts if hosts is None else hosts & file_hosts
            splits.append(CIFSplit(group, length, sorted(hosts or ())))
        return splits

    def _projected_files(self, fs, split_dir: str) -> List[str]:
        if self.columns is not None:
            return self.columns
        # Dot-files (.schema, .stats) are metadata, not columns.
        return [c for c in fs.listdir(split_dir) if not c.startswith(".")]

    def open_reader(self, fs, split: CIFSplit, ctx: TaskContext) -> RecordReader:
        if self.execution == "scalar":
            return CIFRecordReader(fs, split, self.columns, self.lazy, ctx)
        return VectorizedCIFRecordReader(
            fs, split, self.columns, self.lazy, ctx,
            batch_rows=self.batch_rows,
        )
