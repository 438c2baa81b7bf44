"""Table 2 / Appendix B.3: load times.

Converts the Section 6.2 synthetic dataset from SequenceFile form into
CIF, CIF-SL and RCFile, measuring the simulated cost of each load (read
the source + write the target).  Because HDFS is append-only, building
skip lists double-buffers each column in memory before writing — the
paper measures that overhead as minor (89 vs 93 minutes).

Paper shape targets:
- adding skip lists costs only a few percent extra load time,
- converting to RCFile costs about the same as converting to CIF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.bench import harness
from repro.core import ColumnSpec, write_dataset
from repro.formats.rcfile import write_rcfile
from repro.formats.sequence_file import SequenceFileInputFormat, write_sequence_file
from repro.workloads.micro import micro_records, micro_schema

LAYOUTS = ("CIF", "CIF-SL", "RCFile")


@dataclass
class Table2Result:
    records: int
    #: simulated seconds per target layout
    load_times: Dict[str, float] = field(default_factory=dict)
    bytes_written: Dict[str, int] = field(default_factory=dict)


def _read_source(fs, ctx) -> list:
    fmt = SequenceFileInputFormat("/t2/seq")
    records = []
    for split in fmt.get_splits(fs, fs.cluster):
        records.extend(r for _, r in fmt.open_reader(fs, split, ctx))
    return records


def run(records: int = 20000) -> Table2Result:
    schema = micro_schema()
    result = Table2Result(records=records)
    for layout in LAYOUTS:
        fs = harness.single_node_fs()
        write_sequence_file(fs, "/t2/seq", schema, micro_records(records))
        ctx = harness.make_context(fs)
        data = _read_source(fs, ctx)
        metrics = ctx.metrics  # conversion job: read cost accrues here
        before = metrics.disk_bytes
        if layout == "CIF":
            write_dataset(
                fs, "/t2/out", schema, data,
                split_bytes=harness.MICRO_SPLIT_BYTES, metrics=metrics,
            )
        elif layout == "CIF-SL":
            write_dataset(
                fs, "/t2/out", schema, data,
                default_spec=ColumnSpec("skiplist"),
                split_bytes=harness.MICRO_SPLIT_BYTES, metrics=metrics,
            )
        else:
            write_rcfile(
                fs, "/t2/out", schema, data,
                row_group_bytes=harness.MICRO_ROW_GROUP, metrics=metrics,
            )
        result.load_times[layout] = metrics.task_time
        result.bytes_written[layout] = metrics.disk_bytes - before
    return result


def format_table(result: Table2Result) -> str:
    rows = [
        harness.Row(
            layout,
            {
                "Load time (s)": round(result.load_times[layout], 3),
                "Bytes written": result.bytes_written[layout],
            },
        )
        for layout in LAYOUTS
    ]
    return harness.format_table(
        f"Table 2 - load times ({result.records} records)",
        ["Load time (s)", "Bytes written"],
        rows,
    )
