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
from repro.bench.regress import slug
from repro.formats.sequence_file import SequenceFileInputFormat
from repro.workloads.micro import micro_records, micro_schema

LAYOUTS = ("CIF", "CIF-SL", "RCFile")


@dataclass
class Table2Result:
    records: int
    #: simulated seconds per target layout
    load_times: Dict[str, float] = field(default_factory=dict)
    bytes_written: Dict[str, int] = field(default_factory=dict)


def run(records: int = 20000) -> Table2Result:
    schema = micro_schema()
    result = Table2Result(records=records)
    for layout in LAYOUTS:
        fs = harness.single_node_fs()
        harness.write_micro(fs, "/t2/seq", schema, micro_records(records), "seq")
        data = []
        # conversion job: the source read and the target write accrue
        # to the same Metrics
        metrics = harness.scan(
            fs, SequenceFileInputFormat("/t2/seq"),
            visit=lambda _, record: data.append(record),
        )
        before = metrics.disk_bytes
        harness.write_micro(
            fs, "/t2/out", schema, data, layout.lower(), metrics=metrics
        )
        result.load_times[layout] = metrics.task_time
        result.bytes_written[layout] = metrics.disk_bytes - before
    return result


def metrics(result: Table2Result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for layout, seconds in result.load_times.items():
        out[f"time.load.{slug(layout)}"] = seconds
        out[f"bytes.written.{slug(layout)}"] = result.bytes_written[layout]
    return out


def format_table(result: Table2Result) -> str:
    return harness.format_table(
        f"Table 2 - load times ({result.records} records)",
        ["Load time (s)", "Bytes written"],
        [
            (layout, [
                round(result.load_times[layout], 3),
                result.bytes_written[layout],
            ])
            for layout in LAYOUTS
        ],
    )
