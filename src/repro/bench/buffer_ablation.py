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
from repro.core import ColumnInputFormat, write_dataset
from repro.formats.rcfile import RCFileInputFormat, write_rcfile
from repro.formats.sequence_file import SequenceFileInputFormat, write_sequence_file
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
    single_int: Dict[str, Dict[str, float]] = field(default_factory=dict)
    all_columns: Dict[str, Dict[str, float]] = field(default_factory=dict)
    rcfile_bytes_single_int: Dict[str, int] = field(default_factory=dict)


def run(records: int = 8000) -> BufferAblationResult:
    result = BufferAblationResult(records=records)
    schema = micro_schema()
    data = list(micro_records(records))
    for label, buffer_size in BUFFER_SIZES.items():
        fs = harness.single_node_fs(io_buffer=buffer_size)
        write_sequence_file(fs, "/ba/seq", schema, data)
        write_dataset(
            fs, "/ba/cif", schema, data, split_bytes=harness.MICRO_SPLIT_BYTES
        )
        write_rcfile(
            fs, "/ba/rc", schema, data, row_group_bytes=harness.MICRO_ROW_GROUP
        )
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


def format_table(result: BufferAblationResult) -> str:
    headers = list(BUFFER_SIZES)
    rows = []
    for fmt in ("SEQ", "CIF", "RCFile"):
        rows.append(
            harness.Row(
                f"{fmt} (1 int)",
                {h: round(result.single_int[h][fmt], 4) for h in headers},
            )
        )
    for fmt in ("SEQ", "CIF", "RCFile"):
        rows.append(
            harness.Row(
                f"{fmt} (all)",
                {h: round(result.all_columns[h][fmt], 4) for h in headers},
            )
        )
    rows.append(
        harness.Row(
            "RCFile bytes (1 int)",
            {h: result.rcfile_bytes_single_int[h] for h in headers},
        )
    )
    return harness.format_table(
        f"Ablation - io.file.buffer.size sweep ({result.records} records, "
        "simulated seconds)",
        headers,
        rows,
    )
