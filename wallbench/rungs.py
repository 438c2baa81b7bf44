"""The calls the ladder's lower rungs are made of.

Each function is one public call into a layer of the program with the
column accesses of an op and nothing above it.
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, List, Optional, Sequence

from repro.core.cof import SCHEMA_FILE, read_dataset_schema, split_dirs_of
from repro.core.columnio import open_column_reader
from repro.core.stats import STATS_FILE
from repro.hdfs import FileSystem
from repro.mapreduce.types import TaskContext
from repro.sim.cost import CpuCostModel


def task_context(fs: FileSystem, node) -> TaskContext:
    return TaskContext(
        node=node, cost=CpuCostModel(),
        io_buffer_size=fs.cluster.io_buffer_size,
    )


def stream_to_eof(fs, path: str, node) -> int:
    """The buffered stream alone, refill by refill."""
    ctx = task_context(fs, node)
    stream = fs.open(path, node, ctx.metrics)
    size = fs.cluster.io_buffer_size
    total = 0
    while True:
        chunk = stream.read(size)
        if not chunk:
            return total
        total += len(chunk)


class _TimedStream:
    """An input stream whose ``read`` calls add to a ``StreamTimer``."""

    def __init__(self, inner, timer: "StreamTimer") -> None:
        self._inner = inner
        self._timer = timer

    def read(self, n: int = -1) -> bytes:
        start = time.perf_counter()
        try:
            return self._inner.read(n)
        finally:
            self._timer.seconds += time.perf_counter() - start
            self._timer.reads += 1

    def read_fully(self) -> bytes:
        self._inner.seek(0)
        return self.read(self._inner.length)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class StreamTimer:
    """A view of a ``FileSystem`` that times every stream read made
    through it: ladder rung 1, taken inside the rung above.

    Readers are handed this in place of the filesystem.  A replay of
    the streams from outside cannot stand in for it: block-compressed
    and PAX readers ask for far more than one io buffer at a time and
    so trigger far fewer refills than a refill-by-refill read of the
    same file.
    """

    def __init__(self, fs: FileSystem) -> None:
        self._fs = fs
        self.seconds = 0.0
        self.reads = 0

    def open(self, *args, **kwargs):
        return _TimedStream(self._fs.open(*args, **kwargs), self)

    def __getattr__(self, name):
        return getattr(self._fs, name)


def first_host(fs: FileSystem, path: str):
    locations = fs.block_locations(path)
    return locations[0][0] if locations and locations[0] else None


def read_records(fs, fmt, touch: Callable) -> float:
    """Splits and record readers with the op's accesses, no job around
    them; returns the seconds spent inside stream reads."""
    fs = StreamTimer(fs)
    for split in fmt.get_splits(fs, fs.cluster):
        ctx = task_context(fs, split.locations[0] if split.locations else None)
        reader = fmt.open_reader(fs, split, ctx)
        try:
            for _, record in reader:
                touch(record)
        finally:
            reader.close()
    return fs.seconds


def read_columns(
    fs,
    dataset: str,
    columns: Sequence[str],
    filter_column: Optional[str],
    rows: List[int],
    with_stats: bool,
) -> float:
    """Column readers alone, with the op's accesses: every value of the
    filter column (of every column when there is none), the other
    columns at the surviving ``rows``.  Returns the seconds spent
    inside stream reads."""
    fs = StreamTimer(fs)
    schema = read_dataset_schema(fs, dataset)
    offset = 0
    for split_dir in split_dirs_of(fs, dataset):
        node = first_host(fs, f"{split_dir}/{SCHEMA_FILE}")
        fs.open(f"{split_dir}/{SCHEMA_FILE}", node).read_fully()
        if with_stats:
            fs.open(f"{split_dir}/{STATS_FILE}", node).read_fully()
        ctx = task_context(fs, node)
        count = 0
        for name in columns:
            stream = fs.open(
                f"{split_dir}/{name}", node, ctx.metrics,
                buffer_size=ctx.io_buffer_size,
            )
            reader = open_column_reader(stream, schema.field(name).schema, ctx)
            count = reader.count
            if filter_column is None or name == filter_column:
                for _ in range(count):
                    reader.read_value()
            else:
                lo = bisect.bisect_left(rows, offset)
                hi = bisect.bisect_left(rows, offset + count)
                for row in rows[lo:hi]:
                    reader.value_at(row - offset)
        offset += count
    return fs.seconds
