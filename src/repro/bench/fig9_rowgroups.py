"""Figure 9 / Appendix B.2: tuning the RCFile row-group size.

Scans the Section 6.2 microbenchmark dataset with RCFile at three
row-group sizes (the paper's 1 MB / 4 MB / 16 MB, scaled) against CIF,
for the same projections as Figure 7.

Paper shape targets:
- larger row groups improve RCFile's I/O elimination (fewer bytes read
  for narrow projections) but never reach CIF,
- the single-integer scan is RCFile's worst case at every setting,
- CIF needs no tuning parameter and beats every RCFile configuration
  on narrow projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.bench import harness
from repro.bench.fig7_microbenchmark import PROJECTIONS
from repro.bench.regress import flatten
from repro.core import ColumnInputFormat
from repro.formats.rcfile import RCFileInputFormat
from repro.workloads.micro import micro_records, micro_schema

#: The paper's 1/4/16 MB row groups, scaled with the readahead window.
ROW_GROUPS = {
    "1M RCFile": harness.MICRO_ROW_GROUP // 4,
    "4M RCFile": harness.MICRO_ROW_GROUP,
    "16M RCFile": harness.MICRO_ROW_GROUP * 4,
}


@dataclass
class Fig9Result:
    records: int
    times: harness.Grid = field(default_factory=harness.Grid)
    bytes_read: harness.Grid = field(default_factory=harness.Grid)


def run(records: int = 20000) -> Fig9Result:
    fs = harness.single_node_fs()
    schema = micro_schema()
    data = list(micro_records(records))
    harness.write_micro(fs, "/fig9/cif", schema, data)
    for label, row_group in ROW_GROUPS.items():
        harness.write_micro(
            fs, f"/fig9/{label}", schema, data, "rcfile",
            row_group_bytes=row_group,
        )

    result = Fig9Result(records=records)

    def note(series: str, projection: str, input_format) -> None:
        metrics = harness.scan(fs, input_format)
        result.times.note(series, projection, metrics.task_time)
        result.bytes_read.note(series, projection, metrics.total_bytes_read)

    for proj_name, columns in PROJECTIONS.items():
        note(
            "CIF", proj_name,
            ColumnInputFormat("/fig9/cif", columns=columns, lazy=False),
        )
        for label in ROW_GROUPS:
            note(
                label, proj_name,
                RCFileInputFormat(f"/fig9/{label}", columns=columns),
            )
    return result


def metrics(result: Fig9Result) -> Dict[str, float]:
    return {
        **flatten(result.times, "time.{}.{}"),
        **flatten(result.bytes_read, "bytes.{}.{}"),
        "ratio.rc4m_over_cif_1int": (
            result.times["4M RCFile"]["1 Integer"]
            / result.times["CIF"]["1 Integer"]
        ),
    }


def format_table(result: Fig9Result) -> str:
    headers = list(PROJECTIONS)
    table = harness.format_table(
        f"Figure 9 - RCFile row-group tuning vs CIF "
        f"(simulated seconds, {result.records} records)",
        headers,
        result.times.rows(headers, digits=4),
    )
    return table + "\n\n" + harness.format_table(
        "Bytes read per scan", headers, result.bytes_read.rows(headers)
    )
