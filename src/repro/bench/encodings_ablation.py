"""Ablation: per-column lightweight encodings (Section 3.3 / 5.3).

The paper's CIF variants in Table 1 all choose a layout for the
*metadata* column; this ablation sweeps the full per-column design
space the library offers on a log-shaped dataset where each encoding
has a natural target:

- ``delta``  on the monotone ``ts`` timestamp column,
- ``rle``    on the low-cardinality ``level`` column,
- ``dcsl``   on the map-typed ``headers`` column,
- plus plain, skip-list and LZO blocks for comparison.

Reported per layout: the column's file size and the simulated time of a
full scan and of a 5%-selectivity lazy scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench import harness
from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.core.cof import split_dirs_of
from repro.serde.record import Record
from repro.serde.schema import Schema

#: column -> candidate layouts swept for it
SWEEPS: Dict[str, List[ColumnSpec]] = {
    "ts": [ColumnSpec("plain"), ColumnSpec("delta"), ColumnSpec("skiplist")],
    "level": [ColumnSpec("plain"), ColumnSpec("rle"),
              ColumnSpec("cblock", codec="lzo", block_bytes=4096)],
    "headers": [ColumnSpec("plain"), ColumnSpec("dcsl"),
                ColumnSpec("cblock", codec="lzo", block_bytes=4096)],
}


def event_schema() -> Schema:
    return Schema.record(
        "Event",
        [
            ("ts", Schema.time()),
            ("level", Schema.string()),
            ("headers", Schema.map(Schema.string())),
            ("message", Schema.string()),
        ],
    )


def event_records(n: int, seed: int = 33) -> List[Record]:
    rng = random.Random(seed)
    schema = event_schema()
    keys = [f"h{k}" for k in range(12)]
    out = []
    ts = 1_600_000_000
    for i in range(n):
        ts += rng.randint(1, 40)
        out.append(Record(schema, {
            "ts": ts,
            "level": rng.choices(
                ["INFO", "WARN", "ERROR"], weights=[90, 8, 2]
            )[0],
            "headers": {
                k: f"v{rng.randint(0, 30)}"
                for k in rng.sample(keys, rng.randint(4, 8))
            },
            "message": f"event {i} " + "x" * rng.randint(10, 60),
        }))
    return out


@dataclass
class EncodingRow:
    column: str
    layout: str
    file_bytes: int
    full_scan: float
    selective_scan: float


@dataclass
class EncodingsResult:
    records: int
    rows: List[EncodingRow] = field(default_factory=list)

    def row(self, column: str, layout: str) -> EncodingRow:
        return next(
            r for r in self.rows if r.column == column and r.layout == layout
        )


def _column_bytes(fs, dataset: str, column: str) -> int:
    return sum(
        fs.file_length(f"{split_dir}/{column}")
        for split_dir in split_dirs_of(fs, dataset)
    )


def run(records: int = 8000) -> EncodingsResult:
    data = event_records(records)
    schema = event_schema()
    result = EncodingsResult(records=records)
    for column, specs in SWEEPS.items():
        for spec in specs:
            fs = harness.single_node_fs()
            write_dataset(
                fs, "/enc", schema, data,
                specs={column: spec},
                split_bytes=harness.MICRO_SPLIT_BYTES,
            )
            full = harness.scan(
                fs, ColumnInputFormat("/enc", columns=[column], lazy=False)
            )
            # Selective lazy scan: touch the column for ~5% of records.
            fmt = ColumnInputFormat("/enc", columns=["ts", column], lazy=True)
            ctx = harness.make_context(fs)
            for split in fmt.get_splits(fs, fs.cluster):
                for i, (_, record) in enumerate(fmt.open_reader(fs, split, ctx)):
                    if i % 20 == 0:
                        record.get(column)
            label = spec.format + (
                f"-{spec.codec}" if spec.format == "cblock" else ""
            )
            result.rows.append(EncodingRow(
                column=column,
                layout=label,
                file_bytes=_column_bytes(fs, "/enc", column),
                full_scan=full.task_time,
                selective_scan=ctx.metrics.task_time,
            ))
    return result


def format_table(result: EncodingsResult) -> str:
    headers = ["File bytes", "Full scan (ms)", "5% lazy scan (ms)"]
    rows = [
        harness.Row(
            f"{r.column} / {r.layout}",
            {
                "File bytes": r.file_bytes,
                "Full scan (ms)": round(r.full_scan * 1e3, 3),
                "5% lazy scan (ms)": round(r.selective_scan * 1e3, 3),
            },
        )
        for r in result.rows
    ]
    return harness.format_table(
        f"Ablation - per-column encodings ({result.records} records)",
        headers,
        rows,
    )
