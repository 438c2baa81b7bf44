"""Per-task and per-job metric accumulation.

A single :class:`Metrics` instance rides along with each map/reduce task
(inside the task context).  Streams charge I/O into it, decoders charge
CPU into it, and the job runner aggregates task metrics into the numbers
the paper's tables report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.sim.calibration import TICKS_PER_SECOND


@dataclass
class Metrics:
    """Accumulated simulated costs and byte counters for one task or job.

    Attributes
    ----------
    disk_bytes:
        Bytes actually fetched from local disk, at readahead granularity.
        This is what Table 1's "Data Read" column counts.
    net_bytes:
        Bytes fetched over the network (remote block reads + shuffle).
    requested_bytes:
        Bytes the reader *asked* for; ``disk_bytes - requested_bytes`` is
        readahead waste (the mechanism that hurts RCFile's column
        skipping).
    seeks:
        Disk seeks issued (file opens, skips beyond the readahead buffer).
    io_ticks / cpu_ticks:
        Simulated time in ticks (``TICKS_PER_SECOND`` to the second),
        summed as ints, so any order of the same charges gives the same
        total.  Hadoop 0.21 map tasks read and deserialize
        synchronously in the mapper thread, so a task's runtime is
        modelled as ``io_ticks + cpu_ticks``; ``io_time`` / ``cpu_time``
        / ``task_time`` read them as seconds.
    records / cells / objects:
        Records materialized, datums decoded, objects created — used by
        the deserialization experiments (Figure 8, Figure 10).
    """

    disk_bytes: int = 0
    net_bytes: int = 0
    requested_bytes: int = 0
    seeks: int = 0
    io_ticks: int = 0
    cpu_ticks: int = 0
    records: int = 0
    cells: int = 0
    objects: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total_bytes_read(self) -> int:
        """All bytes that crossed a disk or the network."""
        return self.disk_bytes + self.net_bytes

    @property
    def io_time(self) -> float:
        return self.io_ticks / TICKS_PER_SECOND

    @property
    def cpu_time(self) -> float:
        return self.cpu_ticks / TICKS_PER_SECOND

    @property
    def task_ticks(self) -> int:
        return self.io_ticks + self.cpu_ticks

    @property
    def task_time(self) -> float:
        """Simulated task runtime (serial read/deserialize/map loop)."""
        return (self.io_ticks + self.cpu_ticks) / TICKS_PER_SECOND

    def charge_cpu(self, ticks: int) -> None:
        self.cpu_ticks += ticks

    def charge_io(self, ticks: int) -> None:
        self.io_ticks += ticks

    def add(self, other: "Metrics") -> None:
        """Fold another task's metrics into this aggregate."""
        for f in fields(self):
            if f.name == "extra":
                for key, value in other.extra.items():
                    self.extra[key] = self.extra.get(key, 0) + value
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

