"""Figure 7: single-node scan microbenchmark.

Compares TXT, SEQ, CIF, and RCFile (compressed and uncompressed) on the
synthetic dataset of Section 6.2 (6 strings, 6 integers, 1 map), for
the projections the paper plots: all columns, 1 integer, 1 string,
1 map, and 1 string + 1 map.

Paper shape targets:
- SEQ ~3x faster than TXT (parsing makes TXT CPU-bound),
- CIF 2.5x-95x faster than SEQ on single-column scans (integer best),
- CIF ~25% slower than SEQ when scanning all columns (extra seeks),
- CIF ~38x faster than uncompressed RCFile on the single-integer scan,
  with RCFile reading ~20x more bytes than CIF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench import harness
from repro.core import ColumnInputFormat, write_dataset
from repro.formats.rcfile import RCFileInputFormat, write_rcfile
from repro.formats.sequence_file import SequenceFileInputFormat, write_sequence_file
from repro.formats.text import TextInputFormat, write_text
from repro.sim.metrics import Metrics
from repro.workloads.micro import micro_records, micro_schema

PROJECTIONS = {
    "AllColumns": None,
    "1 Integer": ["int0"],
    "1 String": ["str0"],
    "1 Map": ["attrs"],
    "1 String+1 Map": ["str0", "attrs"],
}


@dataclass
class Fig7Result:
    records: int
    #: seconds per (format, projection); TXT/SEQ have only "AllColumns"
    times: Dict[str, Dict[str, float]] = field(default_factory=dict)
    bytes_read: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def time(self, fmt: str, projection: str = "AllColumns") -> float:
        return self.times[fmt][projection]


def _prepare(fs, records):
    schema = micro_schema()
    write_text(fs, "/fig7/txt", schema, records)
    write_sequence_file(fs, "/fig7/seq", schema, records)
    write_dataset(
        fs, "/fig7/cif", schema, records, split_bytes=harness.MICRO_SPLIT_BYTES
    )
    write_rcfile(
        fs, "/fig7/rc", schema, records,
        row_group_bytes=harness.MICRO_ROW_GROUP,
    )
    write_rcfile(
        fs, "/fig7/rcz", schema, records,
        row_group_bytes=harness.MICRO_ROW_GROUP, codec="zlib",
    )


def run(records: int = 20000) -> Fig7Result:
    fs = harness.single_node_fs()
    data = list(micro_records(records))
    _prepare(fs, data)
    result = Fig7Result(records=records)

    def note(fmt: str, projection: str, metrics: Metrics) -> None:
        result.times.setdefault(fmt, {})[projection] = metrics.task_time
        result.bytes_read.setdefault(fmt, {})[projection] = (
            metrics.total_bytes_read
        )

    # TXT and SEQ scan everything regardless of the projection.
    note("TXT", "AllColumns", harness.scan(fs, TextInputFormat("/fig7/txt")))
    note(
        "SEQ",
        "AllColumns",
        harness.scan(fs, SequenceFileInputFormat("/fig7/seq")),
    )
    for name, columns in PROJECTIONS.items():
        note(
            "CIF",
            name,
            harness.scan(
                fs, ColumnInputFormat("/fig7/cif", columns=columns, lazy=False)
            ),
        )
        note(
            "RCFile",
            name,
            harness.scan(fs, RCFileInputFormat("/fig7/rc", columns=columns)),
        )
        note(
            "RCFile-comp",
            name,
            harness.scan(fs, RCFileInputFormat("/fig7/rcz", columns=columns)),
        )
    return result


def format_table(result: Fig7Result) -> str:
    headers = list(PROJECTIONS)
    rows: List[harness.Row] = []
    for fmt, times in result.times.items():
        rows.append(
            harness.Row(
                fmt,
                {h: round(times.get(h, times.get("AllColumns")), 4) for h in headers},
            )
        )
    return harness.format_table(
        f"Figure 7 - scan times (simulated seconds, {result.records} records)",
        headers,
        rows,
    )


def format_chart(result: Fig7Result) -> str:
    from repro.bench.ascii_plot import grouped_bar_chart

    groups = {}
    for projection in PROJECTIONS:
        groups[projection] = {
            fmt: times.get(projection, times["AllColumns"])
            for fmt, times in result.times.items()
        }
    return grouped_bar_chart(
        groups,
        title="Figure 7 - scan time by projection (shorter is better)",
        unit=" s",
    )
