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
from repro.bench.regress import slug
from repro.core import ColumnInputFormat, ColumnSpec
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


def _touch_every_20th(column: str):
    """The selective lazy scan's map function: read ``column`` for ~5%
    of each split's records."""

    def visit(i: int, record) -> None:
        if i % 20 == 0:
            record.get(column)

    return visit


def run(records: int = 8000) -> EncodingsResult:
    data = event_records(records)
    schema = event_schema()
    result = EncodingsResult(records=records)
    for column, specs in SWEEPS.items():
        for spec in specs:
            fs = harness.single_node_fs()
            harness.write_micro(fs, "/enc", schema, data, specs={column: spec})
            full = harness.scan(
                fs, ColumnInputFormat("/enc", columns=[column], lazy=False)
            )
            selective = harness.scan(
                fs, ColumnInputFormat("/enc", columns=["ts", column], lazy=True),
                visit=_touch_every_20th(column),
            )
            label = spec.format + (
                f"-{spec.codec}" if spec.format == "cblock" else ""
            )
            result.rows.append(EncodingRow(
                column=column,
                layout=label,
                file_bytes=_column_bytes(fs, "/enc", column),
                full_scan=full.task_time,
                selective_scan=selective.task_time,
            ))
    return result


def metrics(result: EncodingsResult) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in result.rows:
        key = f"{slug(row.column)}.{slug(row.layout)}"
        out[f"bytes.{key}"] = row.file_bytes
        out[f"time.full.{key}"] = row.full_scan
        out[f"time.selective.{key}"] = row.selective_scan
    return out


def format_table(result: EncodingsResult) -> str:
    return harness.format_table(
        f"Ablation - per-column encodings ({result.records} records)",
        ["File bytes", "Full scan (ms)", "5% lazy scan (ms)"],
        [
            (f"{r.column} / {r.layout}", [
                r.file_bytes,
                round(r.full_scan * 1e3, 3),
                round(r.selective_scan * 1e3, 3),
            ])
            for r in result.rows
        ],
    )
