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
from typing import Dict

from repro.bench import harness
from repro.bench.regress import flatten
from repro.core import ColumnInputFormat
from repro.formats.rcfile import RCFileInputFormat
from repro.formats.sequence_file import SequenceFileInputFormat
from repro.formats.text import TextInputFormat
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
    times: harness.Grid = field(default_factory=harness.Grid)
    bytes_read: harness.Grid = field(default_factory=harness.Grid)

    def time(self, fmt: str, projection: str = "AllColumns") -> float:
        return self.times[fmt][projection]

    def by_projection(self) -> harness.Grid:
        """``times`` with TXT's and SEQ's one scan (they read everything
        regardless of the projection) standing under every projection."""
        return harness.Grid(
            (fmt, {p: times.get(p, times["AllColumns"]) for p in PROJECTIONS})
            for fmt, times in self.times.items()
        )


def run(records: int = 20000) -> Fig7Result:
    fs = harness.single_node_fs()
    data = list(micro_records(records))
    schema = micro_schema()
    harness.write_micro(fs, "/fig7/txt", schema, data, "txt")
    harness.write_micro(fs, "/fig7/seq", schema, data, "seq")
    harness.write_micro(fs, "/fig7/cif", schema, data)
    harness.write_micro(fs, "/fig7/rc", schema, data, "rcfile")
    harness.write_micro(fs, "/fig7/rcz", schema, data, "rcfile", codec="zlib")
    result = Fig7Result(records=records)

    def note(fmt: str, projection: str, input_format) -> None:
        metrics = harness.scan(fs, input_format)
        result.times.note(fmt, projection, metrics.task_time)
        result.bytes_read.note(fmt, projection, metrics.total_bytes_read)

    note("TXT", "AllColumns", TextInputFormat("/fig7/txt"))
    note("SEQ", "AllColumns", SequenceFileInputFormat("/fig7/seq"))
    for name, columns in PROJECTIONS.items():
        note(
            "CIF", name,
            ColumnInputFormat("/fig7/cif", columns=columns, lazy=False),
        )
        note("RCFile", name, RCFileInputFormat("/fig7/rc", columns=columns))
        note(
            "RCFile-comp", name,
            RCFileInputFormat("/fig7/rcz", columns=columns),
        )
    return result


def headline_ratios(result: Fig7Result) -> Dict[str, float]:
    """The three Figure 7 ratios the paper quotes (higher = its claim)."""
    return {
        "ratio.txt_over_seq": result.time("TXT") / result.time("SEQ"),
        "ratio.seq_over_cif_1int": (
            result.time("SEQ") / result.time("CIF", "1 Integer")
        ),
        "ratio.rcfile_over_cif_1int_bytes": (
            result.bytes_read["RCFile"]["1 Integer"]
            / result.bytes_read["CIF"]["1 Integer"]
        ),
    }


def metrics(result: Fig7Result) -> Dict[str, float]:
    return {
        **flatten(result.times, "time.{}.{}"),
        **flatten(result.bytes_read, "bytes.{}.{}"),
        **headline_ratios(result),
    }


def format_table(result: Fig7Result) -> str:
    headers = list(PROJECTIONS)
    return harness.format_table(
        f"Figure 7 - scan times (simulated seconds, {result.records} records)",
        headers,
        result.by_projection().rows(headers, digits=4),
    )


def format_chart(result: Fig7Result) -> str:
    from repro.bench.ascii_plot import grouped_bar_chart

    filled = result.by_projection()
    return grouped_bar_chart(
        {p: {fmt: filled[fmt][p] for fmt in filled} for p in PROJECTIONS},
        title="Figure 7 - scan time by projection (shorter is better)",
        unit=" s",
    )
