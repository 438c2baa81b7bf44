"""Figure 11 / Appendix B.5: CIF and RCFile as record width grows.

Datasets of 20, 40 and 80 string columns (30 chars each), roughly equal
total size, scanned with SEQ, and with CIF/RCFile projecting 1 column,
10% of the columns, or all columns.  RCFile uses the 16 MB (scaled)
row-group setting, as in the paper.

Reported metric: effective read bandwidth — bytes fetched from disk per
second of task time.

Paper shape targets:
- CIF beats RCFile whenever a small number of columns is projected,
- single-column bandwidth stays stable for CIF as width grows but
  degrades for RCFile (per-column chunks shrink, so row-group overheads
  amortize over fewer records),
- CIF's all-columns overhead relative to SEQ grows with width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench import harness
from repro.core import ColumnInputFormat, write_dataset
from repro.formats.rcfile import RCFileInputFormat, write_rcfile
from repro.formats.sequence_file import SequenceFileInputFormat, write_sequence_file
from repro.sim.metrics import Metrics
from repro.workloads.wide import column_names, wide_records, wide_schema

WIDTHS = (20, 40, 80)
SERIES = ("SEQ", "CIF_1", "CIF_10%", "CIF_all", "RCFile_1", "RCFile_10%", "RCFile_all")


def _bandwidth(metrics: Metrics) -> float:
    return metrics.total_bytes_read / metrics.task_time / 1e6


@dataclass
class Fig11Result:
    total_bytes: int
    #: bandwidth[series][width] -> MB/s
    bandwidth: Dict[str, Dict[int, float]] = field(default_factory=dict)


def run(total_bytes: int = 6 * 1024 * 1024) -> Fig11Result:
    result = Fig11Result(total_bytes=total_bytes)
    for width in WIDTHS:
        record_bytes = width * 31
        n = max(200, total_bytes // record_bytes)
        fs = harness.single_node_fs()
        schema = wide_schema(width)
        data = list(wide_records(width, n))
        write_sequence_file(fs, "/f11/seq", schema, data)
        write_dataset(
            fs, "/f11/cif", schema, data,
            split_bytes=harness.MICRO_SPLIT_BYTES,
        )
        write_rcfile(
            fs, "/f11/rc", schema, data,
            row_group_bytes=harness.MICRO_ROW_GROUP * 4,  # the 16 MB setting
        )
        names = column_names(width)
        projections = {
            "_1": [names[0]],
            "_10%": names[: max(1, width // 10)],
            "_all": None,
        }
        seq_metrics = harness.scan(fs, SequenceFileInputFormat("/f11/seq"))
        result.bandwidth.setdefault("SEQ", {})[width] = _bandwidth(seq_metrics)
        for suffix, columns in projections.items():
            cif = harness.scan(
                fs, ColumnInputFormat("/f11/cif", columns=columns, lazy=False)
            )
            rc = harness.scan(
                fs, RCFileInputFormat("/f11/rc", columns=columns)
            )
            result.bandwidth.setdefault(f"CIF{suffix}", {})[width] = (
                _bandwidth(cif)
            )
            result.bandwidth.setdefault(f"RCFile{suffix}", {})[width] = (
                _bandwidth(rc)
            )
    return result


def format_table(result: Fig11Result) -> str:
    headers = [f"{w} cols" for w in WIDTHS]
    rows: List[harness.Row] = []
    for series, by_width in result.bandwidth.items():
        rows.append(
            harness.Row(
                series,
                {h: round(by_width[w], 2) for h, w in zip(headers, WIDTHS)},
            )
        )
    return harness.format_table(
        "Figure 11 - read bandwidth (MB/s) vs number of columns",
        headers,
        rows,
    )


def format_chart(result: Fig11Result) -> str:
    from repro.bench.ascii_plot import line_chart

    series = {
        name: {float(w): bw for w, bw in by_width.items()}
        for name, by_width in result.bandwidth.items()
    }
    return line_chart(
        series,
        title="Figure 11 - read bandwidth vs record width",
        x_label="columns",
        y_label="MB/s",
        height=14,
    )
