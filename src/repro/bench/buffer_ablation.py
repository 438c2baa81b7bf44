"""Ablation: sensitivity to ``io.file.buffer.size`` (Section 6.2 remark).

The paper sets the I/O transfer size to 128 KB and notes "Repeating the
experiment with 4KB and 1MB produced similar results and are omitted."
This ablation runs the Figure 7 single-integer and all-columns scans at
three readahead sizes (the paper's 4 KB / 128 KB / 1 MB, scaled) and
checks the conclusions are robust:

- CIF's single-column advantage over SEQ holds at every buffer size,
- RCFile's I/O elimination *is* buffer-sensitive (bigger readahead
  drags in more of the row group for narrow projections) — the very
  coupling CIF avoids by storing columns in separate files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.bench import harness
from repro.bench.regress import flatten, slug
from repro.core import ColumnInputFormat
from repro.formats.rcfile import RCFileInputFormat
from repro.formats.sequence_file import SequenceFileInputFormat
from repro.workloads.micro import micro_records, micro_schema

#: The paper's 4 KB / 128 KB / 1 MB sweep, scaled like MICRO_IO_BUFFER.
BUFFER_SIZES = {
    "4K-equivalent": harness.MICRO_IO_BUFFER // 32,
    "128K-equivalent": harness.MICRO_IO_BUFFER,
    "1M-equivalent": harness.MICRO_IO_BUFFER * 8,
}


@dataclass
class BufferAblationResult:
    records: int
    #: times[buffer_label][format] for the single-integer scan
    single_int: harness.Grid = field(default_factory=harness.Grid)
    all_columns: harness.Grid = field(default_factory=harness.Grid)
    rcfile_bytes_single_int: Dict[str, int] = field(default_factory=dict)


def run(records: int = 8000) -> BufferAblationResult:
    result = BufferAblationResult(records=records)
    schema = micro_schema()
    data = list(micro_records(records))
    for label, buffer_size in BUFFER_SIZES.items():
        fs = harness.single_node_fs(io_buffer=buffer_size)
        harness.write_micro(fs, "/ba/seq", schema, data, "seq")
        harness.write_micro(fs, "/ba/cif", schema, data)
        harness.write_micro(fs, "/ba/rc", schema, data, "rcfile")
        seq = harness.scan(fs, SequenceFileInputFormat("/ba/seq"))
        cif_int = harness.scan(
            fs, ColumnInputFormat("/ba/cif", columns=["int0"], lazy=False)
        )
        rc_int = harness.scan(fs, RCFileInputFormat("/ba/rc", columns=["int0"]))
        cif_all = harness.scan(fs, ColumnInputFormat("/ba/cif", lazy=False))
        rc_all = harness.scan(fs, RCFileInputFormat("/ba/rc"))
        result.single_int[label] = {
            "SEQ": seq.task_time,
            "CIF": cif_int.task_time,
            "RCFile": rc_int.task_time,
        }
        result.all_columns[label] = {
            "SEQ": seq.task_time,
            "CIF": cif_all.task_time,
            "RCFile": rc_all.task_time,
        }
        result.rcfile_bytes_single_int[label] = rc_int.total_bytes_read
    return result


def metrics(result: BufferAblationResult) -> Dict[str, float]:
    out = {
        **flatten(result.single_int, "time.1int.{}.{}"),
        **flatten(result.all_columns, "time.all.{}.{}"),
    }
    for label, nbytes in result.rcfile_bytes_single_int.items():
        out[f"bytes.rcfile_1int.{slug(label)}"] = nbytes
    return out


def format_table(result: BufferAblationResult) -> str:
    headers = list(BUFFER_SIZES)
    rows = (
        result.single_int.transposed().rows(
            headers, digits=4, label="{} (1 int)"
        )
        + result.all_columns.transposed().rows(
            headers, digits=4, label="{} (all)"
        )
        + [(
            "RCFile bytes (1 int)",
            [result.rcfile_bytes_single_int[h] for h in headers],
        )]
    )
    return harness.format_table(
        f"Ablation - io.file.buffer.size sweep ({result.records} records, "
        "simulated seconds)",
        headers,
        rows,
    )
