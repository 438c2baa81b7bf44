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
from repro.core import ColumnInputFormat, write_dataset
from repro.formats.rcfile import RCFileInputFormat, write_rcfile
from repro.workloads.micro import micro_records, micro_schema

#: The paper's 1/4/16 MB row groups, scaled with the readahead window.
ROW_GROUPS = {
    "1M RCFile": harness.MICRO_ROW_GROUP // 4,
    "4M RCFile": harness.MICRO_ROW_GROUP,
    "16M RCFile": harness.MICRO_ROW_GROUP * 4,
}

PROJECTIONS = {
    "AllColumns": None,
    "1 Integer": ["int0"],
    "1 String": ["str0"],
    "1 Map": ["attrs"],
    "1 String+1 Map": ["str0", "attrs"],
}


@dataclass
class Fig9Result:
    records: int
    times: Dict[str, Dict[str, float]] = field(default_factory=dict)
    bytes_read: Dict[str, Dict[str, int]] = field(default_factory=dict)


def run(records: int = 20000) -> Fig9Result:
    fs = harness.single_node_fs()
    schema = micro_schema()
    data = list(micro_records(records))
    write_dataset(
        fs, "/fig9/cif", schema, data, split_bytes=harness.MICRO_SPLIT_BYTES
    )
    for label, row_group in ROW_GROUPS.items():
        write_rcfile(
            fs, f"/fig9/{label}", schema, data, row_group_bytes=row_group
        )

    result = Fig9Result(records=records)
    for proj_name, columns in PROJECTIONS.items():
        metrics = harness.scan(
            fs, ColumnInputFormat("/fig9/cif", columns=columns, lazy=False)
        )
        result.times.setdefault("CIF", {})[proj_name] = metrics.task_time
        result.bytes_read.setdefault("CIF", {})[proj_name] = (
            metrics.total_bytes_read
        )
        for label in ROW_GROUPS:
            metrics = harness.scan(
                fs, RCFileInputFormat(f"/fig9/{label}", columns=columns)
            )
            result.times.setdefault(label, {})[proj_name] = metrics.task_time
            result.bytes_read.setdefault(label, {})[proj_name] = (
                metrics.total_bytes_read
            )
    return result


def format_table(result: Fig9Result) -> str:
    headers = list(PROJECTIONS)
    rows = [
        harness.Row(fmt, {h: round(times[h], 4) for h in headers})
        for fmt, times in result.times.items()
    ]
    table = harness.format_table(
        f"Figure 9 - RCFile row-group tuning vs CIF "
        f"(simulated seconds, {result.records} records)",
        headers,
        rows,
    )
    byte_rows = [
        harness.Row(fmt, {h: reads[h] for h in headers})
        for fmt, reads in result.bytes_read.items()
    ]
    return table + "\n\n" + harness.format_table(
        "Bytes read per scan", headers, byte_rows
    )
