"""Core MapReduce abstractions: splits, readers, formats, task context.

These mirror Hadoop's extensibility points (Section 2 of the paper):
an ``InputFormat`` generates splits for the scheduler and record readers
for map tasks; an ``OutputFormat`` turns reduce output into files.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.mapreduce.counters import Counters
from repro.obs import NULL_PROFILER, Observability, current_obs
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics


class InputSplit:
    """A unit of map-task scheduling (footnote 1 of the paper).

    ``locations`` lists the datanodes on which the *entire* split is
    local; the scheduler prefers them, and a task placed elsewhere pays
    remote-read costs through the stream layer.
    """

    def __init__(self, length: int, locations: List[int], label: str = "") -> None:
        self.length = length
        self.locations = list(locations)
        self.label = label

    def __repr__(self) -> str:
        return (
            f"InputSplit({self.label or '?'}, {self.length}B, "
            f"nodes={self.locations})"
        )


class TaskContext:
    """Everything a running task charges against and reads config from."""

    def __init__(
        self,
        node: Optional[int],
        cost: CpuCostModel,
        io_buffer_size: int,
        counters: Optional[Counters] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.node = node
        self.cost = cost
        self.metrics = Metrics()
        self.io_buffer_size = io_buffer_size
        # Resolved once per task: the no-op NULL_OBS unless a flight
        # recorder is active, so instrumented readers stay zero-cost.
        self.obs = obs if obs is not None else current_obs()
        self.counters = counters if counters is not None else Counters()
        # Swapped for an OperatorProfiler while a scan is being
        # profiled; readers attribute decoded/skipped cells through it.
        self.profiler = NULL_PROFILER

    def charge_predicate(self, text) -> None:
        """Charge a string/bytes predicate evaluated in user map code."""
        self.metrics.cpu_ticks += len(text) * self.cost.profile.predicate_per_byte


class RecordReader:
    """Iterates the (key, value) pairs of one split.

    Subclasses implement :meth:`read_next`, returning ``None`` at end of
    split, or override ``__iter__`` with a loop of their own.  Either
    way iteration counts each record into the task metrics as it is
    handed out.
    """

    def __init__(self, ctx: TaskContext) -> None:
        self.ctx = ctx

    def read_next(self) -> Optional[Tuple[object, object]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (optional)."""

    def __iter__(self) -> Iterator[Tuple[object, object]]:
        while True:
            pair = self.read_next()
            if pair is None:
                return
            self.ctx.metrics.records += 1
            yield pair


class InputFormat:
    """Split generation + record reading for one on-disk format."""

    def get_splits(self, fs, cluster) -> List[InputSplit]:
        raise NotImplementedError

    def open_reader(self, fs, split: InputSplit, ctx: TaskContext) -> RecordReader:
        raise NotImplementedError


class RecordWriter:
    """Writes a reduce task's (key, value) output."""

    def write(self, key, value) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and finalize (optional)."""


class OutputFormat:
    """Turns reducer output into files (or an in-memory sink for tests)."""

    def open_writer(self, fs, task_index: int, ctx: TaskContext) -> RecordWriter:
        raise NotImplementedError


class ListRecordReader(RecordReader):
    """A reader over pre-materialized pairs (testing and tiny inputs)."""

    def __init__(self, ctx: TaskContext, pairs: Iterable[Tuple[object, object]]):
        super().__init__(ctx)
        self._iter = iter(pairs)

    def read_next(self):
        return next(self._iter, None)
