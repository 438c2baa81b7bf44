"""Disk and network timing models.

These convert *accounted* bytes and seeks into simulated ticks.  The
byte accounting itself (readahead granularity, local vs remote) is done
by the HDFS stream layer in :mod:`repro.hdfs.streams`; the models here
are pure arithmetic so they are trivial to test and swap.

Each charge is rounded to the tick once, where it is made
(:func:`~repro.sim.calibration.to_ticks`).  At the calibrated rates a
charge is a whole number of ticks already and the rounding only drops
float noise; a shuffle, or a slowed node, is where it really rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import calibration
from repro.sim.calibration import to_ticks
from repro.sim.metrics import Metrics


@dataclass(frozen=True)
class DiskModel:
    """Local-disk timing: per-task effective bandwidth plus seek costs.

    ``bytes_per_sec`` is the *effective per-mapper* scan bandwidth (disk
    sharing among map slots, HDFS checksumming and copy overhead are
    folded in — see :mod:`repro.sim.calibration`).
    """

    bytes_per_sec: float = calibration.DISK_BYTES_PER_SEC
    seek_seconds: float = calibration.SEEK_SECONDS

    def charge_read(
        self,
        metrics: Metrics,
        nbytes: int,
        seeks: int = 0,
        bandwidth_scale: float = 1.0,
    ) -> None:
        """Charge a local disk fetch of ``nbytes`` with ``seeks`` seeks.

        ``bandwidth_scale`` < 1 models reduced effective bandwidth when
        the task interleaves reads across several files (CIF scanning
        many columns at once — see calibration.INTERLEAVE_ALPHA).
        """
        metrics.disk_bytes += nbytes
        metrics.seeks += seeks
        metrics.charge_io(to_ticks(
            nbytes / (self.bytes_per_sec * bandwidth_scale)
            + seeks * self.seek_seconds
        ))

    def charge_write(self, metrics: Metrics, nbytes: int) -> None:
        """Charge a local disk write (loads, map output spills)."""
        metrics.disk_bytes += nbytes
        metrics.charge_io(to_ticks(nbytes / self.bytes_per_sec))


@dataclass(frozen=True)
class NetworkModel:
    """Remote-read and shuffle timing over the shared 1 GbE fabric."""

    bytes_per_sec: float = calibration.REMOTE_BYTES_PER_SEC
    latency_seconds: float = calibration.REMOTE_LATENCY_SECONDS
    shuffle_bytes_per_sec: float = calibration.SHUFFLE_BYTES_PER_SEC

    def charge_remote_read(
        self, metrics: Metrics, nbytes: int, transfers: int = 0
    ) -> None:
        """Charge a block read served by a non-local datanode."""
        metrics.net_bytes += nbytes
        metrics.charge_io(to_ticks(
            nbytes / self.bytes_per_sec + transfers * self.latency_seconds
        ))

    def charge_shuffle(self, metrics: Metrics, nbytes: int) -> None:
        """Charge moving map output to a reducer."""
        metrics.net_bytes += nbytes
        metrics.charge_io(to_ticks(nbytes / self.shuffle_bytes_per_sec))
