"""The storage-introspection advisor behind ``repro explain``.

Rules over a :class:`~repro.obs.heatmap.DatasetHeatmap` produce
concrete, counter-backed :class:`Recommendation`\\ s — each one cites
the registry counters (by name and value) that justify it, so a
recommendation can always be traced back to measured behaviour:

- **project-fewer-columns** — a column's files were opened and paid
  I/O, but the map function never deserialized a single value from it.
- **enable-skip-lists** — a ``plain``-layout column skipped more rows
  than it read; plain skips walk every value's bytes (Section 5.2),
  so a skip-list layout would turn them into block jumps.
- **switch-codec** — a ``cblock`` column whose skips never managed to
  hop a whole compressed block (decompression amplification), or a
  zlib column paying heavy inflation on mostly-skipped data.
- **re-run-balancer** — split directories are no longer co-located
  (CPP health), or reads crossed the network for a CPP dataset; the
  placement repair it asks for is ``repro fsck --repair``
  (``FileSystem.scrub`` + ``repair``).

Layout detection prefers ground truth — the format byte in each column
file's header via :func:`column_layouts` — and falls back to inferring
from counters when only a recorded trace is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.heatmap import DatasetHeatmap


@dataclass
class Recommendation:
    """One actionable finding, with the counters that prove it."""

    action: str        # stable machine-readable slug
    column: Optional[str]
    title: str
    rationale: str
    evidence: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        where = f" [{self.column}]" if self.column else ""
        cited = ", ".join(
            f"{name}={value:,}" for name, value in sorted(self.evidence.items())
        )
        return f"{self.action}{where}: {self.title}\n    {self.rationale}\n    evidence: {cited}"


def column_layouts(fs, dataset: str) -> Dict[str, str]:
    """``column -> layout`` read from column-file headers (ground truth).

    Looks at the first split directory that has each column; absent
    columns (declared-with-default) are omitted.
    """
    from repro.core import columnio
    from repro.core.cof import split_dirs_of
    from repro.util.buffers import ByteReader

    by_format = {v: k for k, v in columnio._FORMAT_NAMES.items()}
    layouts: Dict[str, str] = {}
    for split_dir in split_dirs_of(fs, dataset):
        for name in fs.listdir(split_dir):
            if name.startswith(".") or name in layouts:
                continue
            head = fs.open(f"{split_dir}/{name}").read(16)
            reader = ByteReader(head)
            if reader.read_bytes(len(columnio.MAGIC)) != columnio.MAGIC:
                continue
            layouts[name] = by_format.get(reader.read_byte(), "?")
    return layouts


def infer_layouts(heatmap: DatasetHeatmap) -> Dict[str, str]:
    """Best-effort ``column -> layout`` from counters alone (used for

    ``repro explain --job TRACE``, where the filesystem is gone).
    Columns that only ever read or skipped rows are indistinguishable
    between plain and skip-list until a jump or a cblock byte shows up;
    those default to ``plain`` — the conservative assumption for the
    enable-skip-lists rule.
    """
    layouts: Dict[str, str] = {}
    for column in heatmap.columns:
        total = heatmap.column_total(column)
        if total.cblock_bytes_compressed or total.cblock_bytes_skipped:
            layouts[column] = "cblock"
        elif total.skiplist_jumps or total.skiplist_jumped_records:
            layouts[column] = "skiplist"
        else:
            layouts[column] = "plain"
    return layouts


def advise(
    heatmap: DatasetHeatmap,
    layouts: Optional[Dict[str, str]] = None,
    codecs: Optional[Dict[str, str]] = None,
    colocated_fraction: Optional[float] = None,
) -> List[Recommendation]:
    """Run every rule; returns recommendations in a deterministic order."""
    if layouts is None:
        layouts = infer_layouts(heatmap)
    codecs = codecs or {}
    out: List[Recommendation] = []

    for column in heatmap.columns:
        total = heatmap.column_total(column)
        layout = layouts.get(column, "plain")

        if total.bytes_total > 0 and total.rows_read == 0:
            out.append(Recommendation(
                action="project-fewer-columns",
                column=column,
                title="drop this column from the projection",
                rationale=(
                    f"its files cost {total.bytes_total:,} bytes of I/O but"
                    " the map function never deserialized a value from it"
                ),
                evidence={
                    "hdfs.bytes.disk": total.bytes_disk,
                    "hdfs.bytes.net": total.bytes_net,
                    "column.rows.read": total.rows_read,
                    "column.rows.skipped": total.rows_skipped,
                },
            ))

        if (
            layout == "plain"
            and total.rows_skipped > total.rows_read
            and total.rows_skipped > 0
        ):
            out.append(Recommendation(
                action="enable-skip-lists",
                column=column,
                title="re-load this column with the skip-list layout",
                rationale=(
                    f"{total.rows_skipped:,} rows were skipped vs"
                    f" {total.rows_read:,} read, and plain-layout skips"
                    " byte-walk every value (no I/O savings); skip lists"
                    " would jump whole blocks"
                ),
                evidence={
                    "column.rows.read": total.rows_read,
                    "column.rows.skipped": total.rows_skipped,
                    "column.skiplist.jumps": total.skiplist_jumps,
                },
            ))

        if layout == "cblock" and total.rows_skipped > total.rows_read:
            if total.cblock_blocks_skipped == 0 and total.cblock_bytes_inflated:
                out.append(Recommendation(
                    action="switch-codec",
                    column=column,
                    title=(
                        "shrink this column's compression blocks (or use"
                        " skip lists)"
                    ),
                    rationale=(
                        "mostly-skipped rows, yet not one compressed block"
                        " was hopped whole — every block held at least one"
                        f" wanted value, inflating"
                        f" {total.cblock_bytes_inflated:,} raw bytes from"
                        f" {total.cblock_bytes_compressed:,} compressed"
                        " (decompression amplification)"
                    ),
                    evidence={
                        "column.cblock.blocks_skipped_compressed":
                            total.cblock_blocks_skipped,
                        "column.cblock.bytes.compressed":
                            total.cblock_bytes_compressed,
                        "column.cblock.bytes.inflated":
                            total.cblock_bytes_inflated,
                        "column.rows.skipped": total.rows_skipped,
                    },
                ))
            elif (
                codecs.get(column) == "zlib"
                and total.cblock_bytes_inflated
                > 2 * total.cblock_bytes_compressed
            ):
                out.append(Recommendation(
                    action="switch-codec",
                    column=column,
                    title="switch this column from zlib to lzo",
                    rationale=(
                        "zlib's decompression CPU is charged on every"
                        " touched block"
                        f" ({total.cblock_bytes_inflated:,} bytes inflated);"
                        " lzo trades a little compression ratio for much"
                        " cheaper inflation (Section 5.3)"
                    ),
                    evidence={
                        "column.cblock.bytes.compressed":
                            total.cblock_bytes_compressed,
                        "column.cblock.bytes.inflated":
                            total.cblock_bytes_inflated,
                    },
                ))

    net = heatmap.total("bytes_net")
    broken_colocation = (
        colocated_fraction is not None and colocated_fraction < 1.0
    )
    if broken_colocation or net > 0:
        evidence: Dict[str, float] = {"hdfs.bytes.net": net}
        if colocated_fraction is not None:
            evidence["colocation.split_dir_fraction"] = colocated_fraction
        rationale = []
        if broken_colocation:
            rationale.append(
                f"only {colocated_fraction:.0%} of split directories still"
                " have all their column files co-located"
            )
        if net > 0:
            rationale.append(
                f"{net:,} bytes were read over the network instead of"
                " from local disk"
            )
        out.append(Recommendation(
            action="re-run-balancer",
            column=None,
            title="restore column co-location (CPP) for this dataset",
            rationale="; ".join(rationale)
            + " — re-run the placement repair so every split directory's"
            " files share a node set",
            evidence=evidence,
        ))

    return out


#: Which operator's measured cost backs each rule's advice: projection
#: waste is paid by the raw scan, skip/codec waste by the cells the
#: settle stage actually decoded or hopped, locality by scan I/O.
_ACTION_OPERATOR = {
    "project-fewer-columns": "scan",
    "enable-skip-lists": "materialize",
    "switch-codec": "materialize",
    "re-run-balancer": "scan",
}


def annotate_with_profiles(
    recommendations: List[Recommendation], profiles: Dict[str, Dict[str, dict]]
) -> List[Recommendation]:
    """Cite measured per-operator cost on each recommendation.

    ``profiles`` is the ``{engine: {op: totals}}`` mapping from
    :func:`repro.obs.opprofile.operator_profiles`.  Each rule's
    evidence gains the measured simulated time and cell counts of the
    operator its advice targets (summed across engines), so ``repro
    explain --analyze`` recommendations are backed by the profiled
    scan, not only by heatmap counters.
    """
    merged: Dict[str, Dict[str, float]] = {}
    for engine in sorted(profiles):
        for op, totals in profiles[engine].items():
            agg = merged.setdefault(
                op, {"sim_time": 0.0, "cells_decoded": 0, "cells_skipped": 0}
            )
            agg["sim_time"] += totals.get("sim_time", 0.0)
            agg["cells_decoded"] += totals.get("cells_decoded", 0)
            agg["cells_skipped"] += totals.get("cells_skipped", 0)
    for recommendation in recommendations:
        op = _ACTION_OPERATOR.get(recommendation.action)
        totals = merged.get(op)
        if totals is None:
            continue
        recommendation.evidence[f"op.{op}.sim_time"] = round(
            totals["sim_time"], 9
        )
        recommendation.evidence[f"op.{op}.cells_decoded"] = int(
            totals["cells_decoded"]
        )
        recommendation.evidence[f"op.{op}.cells_skipped"] = int(
            totals["cells_skipped"]
        )
    return recommendations
