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
from typing import Dict

from repro.bench import harness
from repro.bench.regress import flatten
from repro.core import ColumnInputFormat
from repro.formats.rcfile import RCFileInputFormat
from repro.formats.sequence_file import SequenceFileInputFormat
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
    bandwidth: harness.Grid = field(default_factory=harness.Grid)


def run(total_bytes: int = 6 * 1024 * 1024) -> Fig11Result:
    result = Fig11Result(total_bytes=total_bytes)
    for width in WIDTHS:
        record_bytes = width * 31
        n = max(200, total_bytes // record_bytes)
        fs = harness.single_node_fs()
        schema = wide_schema(width)
        data = list(wide_records(width, n))
        harness.write_micro(fs, "/f11/seq", schema, data, "seq")
        harness.write_micro(fs, "/f11/cif", schema, data)
        harness.write_micro(
            fs, "/f11/rc", schema, data, "rcfile",
            row_group_bytes=harness.MICRO_ROW_GROUP * 4,  # the 16 MB setting
        )
        names = column_names(width)
        projections = {
            "_1": [names[0]],
            "_10%": names[: max(1, width // 10)],
            "_all": None,
        }
        scans = {"SEQ": SequenceFileInputFormat("/f11/seq")}
        for suffix, columns in projections.items():
            scans[f"CIF{suffix}"] = ColumnInputFormat(
                "/f11/cif", columns=columns, lazy=False
            )
            scans[f"RCFile{suffix}"] = RCFileInputFormat(
                "/f11/rc", columns=columns
            )
        for series, input_format in scans.items():
            result.bandwidth.note(
                series, width, _bandwidth(harness.scan(fs, input_format))
            )
    return result


def metrics(result: Fig11Result) -> Dict[str, float]:
    return {
        **flatten(result.bandwidth, "bandwidth.{}.w{}", str),
        "ratio.cif1_over_seq_w80": (
            result.bandwidth["CIF_1"][80] / result.bandwidth["SEQ"][80]
        ),
    }


def format_table(result: Fig11Result) -> str:
    headers = [f"{w} cols" for w in WIDTHS]
    return harness.format_table(
        "Figure 11 - read bandwidth (MB/s) vs number of columns",
        headers,
        result.bandwidth.rows(WIDTHS, digits=2),
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
