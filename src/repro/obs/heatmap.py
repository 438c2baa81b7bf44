"""Per-split/per-column storage access heatmaps (``repro explain``).

The instrumented readers attribute every byte, seek, row touch,
skip-list jump and compressed-block event to labeled counters carrying
``file=<dataset>/s<N>/<column>``.  A :class:`DatasetHeatmap` folds one
run's registry snapshot into a grid of :class:`CellStats` keyed by
``(split_dir, column)`` — the storage-introspection view behind
``repro explain``: which columns were touched where, what skipping
actually saved, and how much decompression amplification CBLOCK paid.

Heatmaps accumulate across runs in a sidecar JSON file stored *inside
the dataset directory* of the simulated filesystem (``.heatmap`` — the
leading dot keeps it out of ``split_dirs_of``).  :func:`reconcile`
cross-checks the heatmap's totals EXACTLY (zero tolerance) against the
independent byte/seek probes and the run's ``sim.Metrics`` snapshots;
any drift means an attribution bug, and ``repro explain`` fails loudly.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.util.compare import exact_mismatches

#: registry counter name -> CellStats field
_COUNTER_FIELDS = {
    "column.rows.read": "rows_read",
    "column.rows.skipped": "rows_skipped",
    "hdfs.bytes.disk": "bytes_disk",
    "hdfs.bytes.net": "bytes_net",
    "hdfs.bytes.requested": "bytes_requested",
    "hdfs.seeks": "seeks",
    "hdfs.fetches": "fetches",
    "column.skiplist.jumps": "skiplist_jumps",
    "column.skiplist.jumped_records": "skiplist_jumped_records",
    "column.skiplist.jumped_bytes": "skiplist_jumped_bytes",
    "column.cblock.blocks_skipped_compressed": "cblock_blocks_skipped",
    "column.cblock.bytes.compressed": "cblock_bytes_compressed",
    "column.cblock.bytes.inflated": "cblock_bytes_inflated",
    "column.cblock.bytes.skipped_compressed": "cblock_bytes_skipped",
}

_FIELDS = tuple(_COUNTER_FIELDS.values())

#: sidecar file name inside the dataset directory (dot-prefixed so
#: ``split_dirs_of`` and column listings never mistake it for data)
SIDECAR_FILE = ".heatmap"

#: density ramp for the ASCII grid, blank = untouched
_RAMP = " .:-=+*#@"


class CellStats:
    """Accumulated access statistics for one (split_dir, column) cell."""

    __slots__ = _FIELDS

    def __init__(self, **values) -> None:
        for name in _FIELDS:
            setattr(self, name, values.get(name, 0))

    def add(self, other: "CellStats") -> None:
        for name in _FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def bytes_total(self) -> int:
        return self.bytes_disk + self.bytes_net

    @property
    def rows_touched(self) -> int:
        return self.rows_read + self.rows_skipped

    def to_dict(self) -> dict:
        return {
            name: getattr(self, name)
            for name in _FIELDS
            if getattr(self, name)
        }

    @classmethod
    def from_dict(cls, record: dict) -> "CellStats":
        return cls(**{k: v for k, v in record.items() if k in _FIELDS})

    def __repr__(self) -> str:
        return f"CellStats({self.to_dict()})"


class DatasetHeatmap:
    """Grid of :class:`CellStats` for one dataset's split directories."""

    def __init__(self, dataset: str) -> None:
        self.dataset = dataset.rstrip("/")
        self.cells: Dict[Tuple[str, str], CellStats] = {}
        #: number of runs folded in (sidecar merges accumulate this)
        self.runs = 0

    # -- construction --------------------------------------------------

    @classmethod
    def from_registry(cls, dataset: str, entries: List[dict]) -> "DatasetHeatmap":
        """Fold one registry snapshot (live or from a ``RunReport``).

        Only counters whose ``file`` label lies under ``dataset`` are
        attributed; everything else (other datasets, row-format files)
        is ignored.
        """
        heatmap = cls(dataset)
        prefix = heatmap.dataset + "/"
        for entry in entries:
            if entry.get("kind") != "counter":
                continue
            field = _COUNTER_FIELDS.get(entry.get("name", ""))
            if field is None:
                continue
            labels = entry.get("labels", {})
            path = labels.get("file")
            if not path or not path.startswith(prefix):
                continue
            column = labels.get("column")
            if column is None:
                continue
            rel = path[len(prefix):]
            split_dir = rel.rsplit("/", 1)[0] if "/" in rel else ""
            cell = heatmap.cell(split_dir, column)
            setattr(cell, field, getattr(cell, field) + entry["value"])
        heatmap.runs = 1
        return heatmap

    def cell(self, split_dir: str, column: str) -> CellStats:
        key = (split_dir, column)
        if key not in self.cells:
            self.cells[key] = CellStats()
        return self.cells[key]

    def merge(self, other: "DatasetHeatmap") -> None:
        for key, stats in other.cells.items():
            self.cell(*key).add(stats)
        self.runs += other.runs

    # -- aggregate views -----------------------------------------------

    @property
    def split_dirs(self) -> List[str]:
        return sorted({key[0] for key in self.cells})

    @property
    def columns(self) -> List[str]:
        """Data columns, in deterministic order (dot-files excluded)."""
        return sorted(
            {key[1] for key in self.cells if not key[1].startswith(".")}
        )

    def column_total(self, column: str) -> CellStats:
        total = CellStats()
        for (_, col), stats in self.cells.items():
            if col == column:
                total.add(stats)
        return total

    def total(self, field: str, data_only: bool = False) -> int:
        return sum(
            getattr(stats, field)
            for (_, col), stats in self.cells.items()
            if not (data_only and col.startswith("."))
        )

    # -- sidecar persistence -------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "dataset": self.dataset,
            "runs": self.runs,
            "cells": [
                {"split": split, "column": column, **stats.to_dict()}
                for (split, column), stats in sorted(self.cells.items())
            ],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "DatasetHeatmap":
        heatmap = cls(record.get("dataset", ""))
        heatmap.runs = record.get("runs", 0)
        for cell in record.get("cells", []):
            heatmap.cell(cell["split"], cell["column"]).add(
                CellStats.from_dict(cell)
            )
        return heatmap

    def sidecar_path(self) -> str:
        return f"{self.dataset}/{SIDECAR_FILE}"

    def save(self, fs) -> "DatasetHeatmap":
        """Write the merge-accumulating sidecar stats file.

        The existing sidecar's cells are folded in first, so repeated
        jobs against a dataset build up a long-run picture of its
        access pattern.  Returns the heatmap actually written.
        """
        out = self
        previous = load_sidecar(fs, self.dataset)
        if previous is not None:
            previous.merge(self)
            out = previous
        payload = json.dumps(out.to_dict(), sort_keys=True).encode("utf-8")
        path = out.sidecar_path()
        if fs.exists(path):
            # HDFS files are immutable: replace, don't append.
            fs.delete(path)
        fs.write_file(path, payload)
        return out

    # -- rendering ------------------------------------------------------

    def render(self, width: int = 10) -> str:
        """ASCII heat grid: one row per column, one cell per split dir.

        Glyph density encodes the fraction of the column's rows the
        reader *deserialized* in that split (reads, not skips); ``␣``
        means the file was never touched.
        """
        splits = self.split_dirs
        columns = self.columns
        if not splits or not columns:
            return "(no storage accesses recorded for this dataset)"
        name_w = max(len(c) for c in columns)
        cell_w = max(3, min(width, max(len(s) for s in splits)))
        header = " " * (name_w + 2) + " ".join(
            s[:cell_w].rjust(cell_w) for s in splits
        )
        lines = [header]
        for column in columns:
            glyphs = []
            for split in splits:
                stats = self.cells.get((split, column))
                if stats is None or not stats.rows_touched:
                    glyphs.append("·".rjust(cell_w))
                    continue
                frac = stats.rows_read / stats.rows_touched
                glyph = _RAMP[min(len(_RAMP) - 1,
                                  int(frac * (len(_RAMP) - 1) + 0.5))]
                if glyph == " ":
                    glyph = "."
                glyphs.append((glyph * 3).rjust(cell_w))
            total = self.column_total(column)
            lines.append(
                f"{column.ljust(name_w)}  " + " ".join(glyphs)
                + f"  read={total.rows_read:,} skip={total.rows_skipped:,}"
                + f" bytes={total.bytes_total:,}"
            )
        lines.append(
            "legend: glyph density = fraction of touched rows deserialized"
            " (· = file untouched)"
        )
        return "\n".join(lines)


def load_sidecar(fs, dataset: str) -> Optional[DatasetHeatmap]:
    """Load a dataset's accumulated ``.heatmap`` sidecar, if present."""
    path = f"{dataset.rstrip('/')}/{SIDECAR_FILE}"
    if not fs.exists(path):
        return None
    raw = fs.read_file(path)
    return DatasetHeatmap.from_dict(json.loads(raw.decode("utf-8")))


def reconcile(
    heatmap: DatasetHeatmap,
    report,
    scan_only: bool = False,
    check_lazy: bool = True,
) -> List[str]:
    """Cross-check the heatmap against the run's independent probes.

    Every comparison is EXACT, through
    :func:`~repro.util.compare.exact_mismatches` — both sides count
    the same physical events through different code paths (stream
    probes vs ``Metrics`` charging vs heatmap attribution), so any
    nonzero difference is an accounting bug, not noise.  Returns
    mismatch descriptions (empty when everything reconciles).

    With ``scan_only`` the run is known to have read nothing but this
    dataset, so heatmap byte/seek totals must also equal the aggregate
    ``sim.Metrics`` snapshots.
    """
    # Per-column disk+net bytes vs the stream-probe aggregation the
    # report computes independently of the heatmap's grid logic.
    per_column = report.per_column_bytes()
    triples = [
        (
            f"column {column!r} bytes",
            heatmap.column_total(column).bytes_total,
            per_column.get(column, 0),
        )
        for column in sorted(
            {key[1] for key in heatmap.cells} | set(per_column)
        )
    ]

    # Totals vs raw probe counters (filtered to this dataset's files).
    prefix = heatmap.dataset + "/"
    for name, field in (
        ("hdfs.bytes.disk", "bytes_disk"),
        ("hdfs.bytes.net", "bytes_net"),
        ("hdfs.bytes.requested", "bytes_requested"),
        ("hdfs.seeks", "seeks"),
        ("hdfs.fetches", "fetches"),
    ):
        want = sum(
            value for path, value in report.counter_sums("file", name).items()
            if path.startswith(prefix)
        )
        triples.append((f"total {name}", heatmap.total(field), want))

    # Row accounting vs the lazy-materialization counters: a lazy CIF
    # scan deserializes exactly one value per materialized cell.  Only
    # meaningful when the whole run was lazy reads of this dataset
    # (``check_lazy=False`` for arbitrary job traces, where eager scans
    # may coexist).
    materialized = report.counter_total("lazy.cells.materialized")
    if check_lazy and materialized:
        triples.append((
            "rows read vs lazy cells materialized",
            heatmap.total("rows_read", data_only=True),
            materialized,
        ))

    if scan_only:
        checks = [
            ("disk_bytes", "bytes_disk"),
            ("net_bytes", "bytes_net"),
            ("requested_bytes", "bytes_requested"),
        ]
        # ``Metrics.seeks`` models disk-arm movement and is charged only
        # when a fetch is served by a local replica; a seeking fetch
        # served remotely pays network latency instead of a disk seek.
        # The probe-side ``hdfs.seeks`` counts the logical stream seek
        # either way, so the two agree exactly only for all-local runs.
        if heatmap.total("bytes_net") == 0:
            checks.append(("seeks", "seeks"))
        triples += [
            (
                f"total sim.Metrics {metrics_field}",
                heatmap.total(field),
                report.metrics_total(metrics_field),
            )
            for metrics_field, field in checks
        ]
    return exact_mismatches("heatmap", "probes", triples)
