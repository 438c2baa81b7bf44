"""Section 4.3 ablation: the cost of adding a column, CIF vs RCFile.

The paper argues this qualitatively: with CIF, adding a derived column
drops one new file into each split-directory; with RCFile, the whole
dataset must be read and every block rewritten.  This ablation measures
both — the I/O each approach performs — on the same dataset.

Shape target: CIF's cost is proportional to the *new column's* size;
RCFile's is proportional to the *whole dataset* (read + rewrite), i.e.
orders of magnitude more for wide records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bench import harness
from repro.core import add_column
from repro.formats.rcfile import add_column_rewrite
from repro.serde.schema import Schema
from repro.sim.metrics import Metrics
from repro.workloads.micro import micro_records, micro_schema


@dataclass
class AddColumnResult:
    records: int
    cif_bytes: int
    cif_time: float
    rcfile_bytes: int
    rcfile_time: float

    @property
    def io_ratio(self) -> float:
        return self.rcfile_bytes / self.cif_bytes


def run(records: int = 10000) -> AddColumnResult:
    schema = micro_schema()
    data = list(micro_records(records))
    ranks = [float(i % 97) for i in range(records)]

    fs = harness.single_node_fs()
    harness.write_micro(fs, "/ac/cif", schema, data)
    cif_metrics = Metrics()
    add_column(
        fs, "/ac/cif", "rank", Schema.double(), ranks, metrics=cif_metrics
    )

    fs2 = harness.single_node_fs()
    harness.write_micro(fs2, "/ac/rc", schema, data, "rcfile")
    rc_metrics = Metrics()
    add_column_rewrite(
        fs2, "/ac/rc", "/ac/rc2", "rank", Schema.double(), ranks,
        row_group_bytes=harness.MICRO_ROW_GROUP, metrics=rc_metrics,
    )

    return AddColumnResult(
        records=records,
        cif_bytes=cif_metrics.total_bytes_read + cif_metrics.disk_bytes,
        cif_time=cif_metrics.task_time,
        rcfile_bytes=rc_metrics.total_bytes_read + rc_metrics.disk_bytes,
        rcfile_time=rc_metrics.task_time,
    )


def metrics(result: AddColumnResult) -> Dict[str, float]:
    return {
        "bytes.cif": result.cif_bytes,
        "bytes.rcfile": result.rcfile_bytes,
        "time.cif": result.cif_time,
        "time.rcfile": result.rcfile_time,
        "ratio.rcfile_over_cif_bytes": result.io_ratio,
    }


def format_table(result: AddColumnResult) -> str:
    table = harness.format_table(
        f"Section 4.3 - adding a derived column ({result.records} records)",
        ["I/O bytes", "Time (s)"],
        [
            ("CIF add_column", [result.cif_bytes, round(result.cif_time, 4)]),
            ("RCFile rewrite", [
                result.rcfile_bytes, round(result.rcfile_time, 4),
            ]),
        ],
    )
    return table + f"\nRCFile does {result.io_ratio:.0f}x the I/O of CIF"
