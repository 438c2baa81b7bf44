"""Shared experiment plumbing: scaled clusters, micro datasets, scans,
result grids and table rendering.

The paper's experiments ran at terabyte scale; ours run megabytes.  To
keep the *shape* of the results scale-invariant, experiments shrink the
three storage granularities (HDFS block, readahead buffer, RCFile row
group) by the same factor as the dataset, so every "X is smaller/larger
than the readahead window" relationship in the paper still holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce.types import InputFormat, TaskContext
from repro.obs import current_obs
from repro.sim import calibration
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.sim.models import DiskModel, NetworkModel
from repro.util.stats import percentile

if TYPE_CHECKING:  # repro.cluster builds on this module
    from repro.cluster.report import ClusterReport
    from repro.cluster.traffic import TrafficProfile

#: The experiments shrink the paper's datasets ~100x-1000x; the storage
#: granularities shrink by GRANULARITY_SCALE so every "smaller/larger
#: than the readahead window / row group / block" relationship in the
#: paper is preserved.  Per-seek and per-transfer *latencies* shrink by
#: the same factor: a scaled-down dataset crosses file/block boundaries
#: proportionally more often per byte, and leaving latencies full-size
#: would make fixed costs dominate in a way they do not at paper scale.
GRANULARITY_SCALE = 0.01
MICRO_IO_BUFFER = 12 * 1024         # paper: 128 KB readahead
MICRO_BLOCK = 4 * 1024 * 1024       # scaled block; >> row group, as in paper
MICRO_ROW_GROUP = 384 * 1024        # paper: 4 MB = 31 readahead windows
MICRO_SPLIT_BYTES = 512 * 1024      # CIF split-directories ("~one block")


def scaled_disk() -> DiskModel:
    return DiskModel(seek_seconds=calibration.SEEK_SECONDS * GRANULARITY_SCALE)


def scaled_network() -> NetworkModel:
    return NetworkModel(
        latency_seconds=calibration.REMOTE_LATENCY_SECONDS * GRANULARITY_SCALE
    )


def single_node_fs(
    block_size: int = 64 * 1024 * 1024, io_buffer: int = MICRO_IO_BUFFER
) -> FileSystem:
    """The single-node setup of Section 6.2's microbenchmark.

    The default block size exceeds the microbenchmark datasets so each
    file scans as a single split, as in the paper's single-node test
    (no mid-file sync resynchronization).
    """
    return FileSystem(
        ClusterConfig(
            num_nodes=1,
            replication=1,
            map_slots_per_node=1,
            block_size=block_size,
            io_buffer_size=io_buffer,
            disk=scaled_disk(),
            network=scaled_network(),
        )
    )


def cluster_fs(
    num_nodes: int = 40,
    block_size: int = MICRO_BLOCK,
    io_buffer: int = MICRO_IO_BUFFER,
    seed: int = 20110401,
) -> FileSystem:
    """The full-cluster setup of Section 6.1 (40 nodes, 6 map slots)."""
    return FileSystem(
        ClusterConfig(
            num_nodes=num_nodes,
            map_slots_per_node=6,
            reduce_slots_per_node=1,
            block_size=block_size,
            io_buffer_size=io_buffer,
            disk=scaled_disk(),
            network=scaled_network(),
            seed=seed,
        )
    )


def write_micro(
    fs: FileSystem, path: str, schema, records, layout: str = "cif", **options
):
    """Write ``records`` at ``path`` in one storage layout at the scaled
    ``MICRO_*`` granularity.

    ``layout`` is ``cif`` (split-directories of ``MICRO_SPLIT_BYTES``),
    ``cif-sl`` (the same with skip-list column files), ``rcfile`` (row
    groups of ``MICRO_ROW_GROUP``), ``seq`` or ``txt``.  ``options`` go
    to the layout's writer and override the scaled defaults.  Writers
    are imported on use, so a scenario loads only the formats it reads.
    """
    if layout in ("cif", "cif-sl"):
        from repro.core import ColumnSpec, write_dataset as write

        options.setdefault("split_bytes", MICRO_SPLIT_BYTES)
        if layout == "cif-sl":
            options.setdefault("default_spec", ColumnSpec("skiplist"))
    elif layout == "rcfile":
        from repro.formats.rcfile import write_rcfile as write

        options.setdefault("row_group_bytes", MICRO_ROW_GROUP)
    elif layout == "seq":
        from repro.formats.sequence_file import write_sequence_file as write
    elif layout == "txt":
        from repro.formats.text import write_text as write
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return write(fs, path, schema, records, **options)


def make_context(
    fs: FileSystem, node: Optional[int] = 0, cost: Optional[CpuCostModel] = None
) -> TaskContext:
    return TaskContext(
        node=node,
        cost=cost if cost is not None else CpuCostModel(),
        io_buffer_size=fs.cluster.io_buffer_size,
    )


def scan(
    fs: FileSystem,
    input_format: InputFormat,
    visit: Optional[Callable[[int, object], None]] = None,
    node: Optional[int] = 0,
) -> Metrics:
    """Scan every split of ``input_format`` on one node; return metrics.

    ``visit(i, record)`` is what a map function would do with the
    ``i``-th record of its split (touch columns, count, collect); None
    touches nothing beyond materialization.

    Under an active flight recorder the scan is traced (one span per
    scan, one per split) and its metrics snapshot is recorded, so every
    benchmark emits a flight-recorder artifact with no extra plumbing.
    """
    obs = current_obs()
    ctx = make_context(fs, node=node)
    fmt = type(input_format).__name__
    dataset = getattr(
        input_format, "dataset", getattr(input_format, "path", "")
    )
    with obs.tracer.span(
        "scan", kind="scan", format=fmt, dataset=dataset,
        metrics=ctx.metrics,
    ):
        for split in input_format.get_splits(fs, fs.cluster):
            reader = input_format.open_reader(fs, split, ctx)
            try:
                with obs.tracer.span(
                    "split_scan", kind="split", split=split.label,
                    metrics=ctx.metrics,
                ):
                    for i, (_, record) in enumerate(reader):
                        if visit is not None:
                            visit(i, record)
            finally:
                reader.close()
    obs.record_metrics(f"scan:{fmt}:{dataset}", ctx.metrics)
    return ctx.metrics


def format_table(title: str, headers: List[str], rows) -> str:
    """Render ``(label, cells)`` rows, each row's cells in header order,
    as a fixed-width table like the paper's."""
    widths = [max(len(h), 14) for h in headers]
    label_width = max([len(label) for label, _ in rows] + [12])
    lines = [title, "=" * len(title)]
    lines.append(
        " ".join(["Layout".ljust(label_width)] + [
            h.rjust(w) for h, w in zip(headers, widths)
        ])
    )
    for label, cells in rows:
        cells = [
            (f"{v:,.2f}" if isinstance(v, float) else str(v)).rjust(width)
            for v, width in zip(cells, widths)
        ]
        lines.append(" ".join([label.ljust(label_width)] + cells))
    return "\n".join(lines)


class Grid(Dict[object, Dict[object, float]]):
    """``grid[series][x] -> value``: one quantity measured over a scan
    grid (format x projection, layout x selectivity, ...).

    Scenarios fill it with :meth:`note`, render it with :meth:`rows`
    and flatten it into canonical metric keys with
    :func:`repro.bench.regress.flatten`.
    """

    def note(self, series, x, value) -> None:
        self.setdefault(series, {})[x] = value

    def transposed(self) -> Grid:
        """``grid[x][series]``: the same cells with the axes swapped."""
        out = Grid()
        for series, by_x in self.items():
            for x, value in by_x.items():
                out.note(x, series, value)
        return out

    def rows(
        self, xs: Sequence, digits: Optional[int] = None, label: str = "{}"
    ) -> List[Tuple[str, list]]:
        """One :func:`format_table` row per series, labelled
        ``label.format(series)``: its values at ``xs``, rounded to
        ``digits`` when given."""
        return [
            (label.format(series), [
                by_x[x] if digits is None else round(by_x[x], digits)
                for x in xs
            ])
            for series, by_x in self.items()
        ]


@dataclass
class TrafficResult:
    """One seeded traffic trace run under several variants (policies,
    fault plans, observers): ``reports[variant]``."""

    profile: TrafficProfile
    reports: Dict[str, ClusterReport] = field(default_factory=dict)

    @property
    def interactive_tenants(self) -> List[str]:
        preempting = {
            q.name for q in self.profile.queues if q.preempts
        }
        return sorted(
            t.name for t in self.profile.tenants if t.queue in preempting
        )

    def interactive_p95(self, variant: str) -> float:
        """Pooled p95 latency of every interactive tenant's jobs."""
        tenants = self.interactive_tenants
        pooled = [
            o.latency for o in self.reports[variant].completed
            if o.tenant in tenants
        ]
        return percentile(pooled, 95)


def sample_traffic(duration: float, seed: int, profile=None):
    """The shipped 3-tenant traffic profile at ``duration`` and ``seed``
    (or the caller's own ``profile``, untouched)."""
    if profile is None:
        from repro.cluster.traffic import sample_profile

        profile = sample_profile()
        profile.duration = duration
        profile.seed = seed
    return profile
