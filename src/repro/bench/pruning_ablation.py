"""Ablation: zone-map split pruning vs predicate selectivity.

Extension experiment (the direction CIF's successors took): how much
I/O do per-split-directory min/max statistics eliminate for range
queries, on arrival-ordered (shuffled) vs clustered (sorted) data, as
the queried fraction of the dataset shrinks?

Expected shape:
- on shuffled data every directory's range covers the predicate, so
  pruning eliminates ~nothing at any selectivity;
- on clustered data, bytes scanned fall roughly linearly with the
  selected fraction — the split-level analogue of the paper's
  column-level I/O elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench import harness
from repro.core import ColumnInputFormat, write_dataset
from repro.core.stats import RangePredicate
from repro.serde.record import Record
from repro.serde.schema import Schema
from repro.tools.sort import sort_dataset

DAYS = 100
#: fraction of the day range each query selects
SELECTED_FRACTIONS = (1.0, 0.5, 0.2, 0.05)


def reading_schema() -> Schema:
    return Schema.record(
        "Reading",
        [("day", Schema.int_()), ("sensor", Schema.string()),
         ("value", Schema.double())],
    )


def reading_records(n: int, seed: int = 21) -> List[Record]:
    rng = random.Random(seed)
    schema = reading_schema()
    return [
        Record(schema, {
            "day": rng.randrange(DAYS),
            "sensor": f"s{rng.randrange(50)}",
            "value": rng.gauss(0, 1),
        })
        for _ in range(n)
    ]


@dataclass
class PruningResult:
    records: int
    #: bytes[layout][fraction] and scanned records
    bytes_read: Dict[str, Dict[float, int]] = field(default_factory=dict)
    records_scanned: Dict[str, Dict[float, int]] = field(default_factory=dict)
    answers: Dict[float, int] = field(default_factory=dict)


def _query(fs, dataset: str, min_day: int):
    fmt = ColumnInputFormat(
        dataset, columns=["day"], lazy=False,
        predicates=[RangePredicate("day", ">=", min_day)],
    )
    ctx = harness.make_context(fs)
    matches = 0
    for split in fmt.get_splits(fs, fs.cluster):
        for _, record in fmt.open_reader(fs, split, ctx):
            if record.get("day") >= min_day:
                matches += 1
    return matches, ctx.metrics


def run(records: int = 12000) -> PruningResult:
    fs = harness.single_node_fs()
    schema = reading_schema()
    data = reading_records(records)
    write_dataset(fs, "/pr/shuffled", schema, data, split_bytes=16 * 1024)
    sort_dataset(
        fs, ColumnInputFormat("/pr/shuffled"), schema, "day", "/pr/sorted",
        partitions=4, split_bytes=16 * 1024,
    )
    result = PruningResult(records=records)
    for fraction in SELECTED_FRACTIONS:
        min_day = int(DAYS * (1 - fraction))
        expected = None
        for layout, dataset in (("shuffled", "/pr/shuffled"),
                                ("sorted", "/pr/sorted")):
            matches, metrics = _query(fs, dataset, min_day)
            if expected is None:
                expected = matches
            elif matches != expected:
                raise AssertionError("pruning changed the answer")
            result.bytes_read.setdefault(layout, {})[fraction] = (
                metrics.total_bytes_read
            )
            result.records_scanned.setdefault(layout, {})[fraction] = (
                metrics.records
            )
        result.answers[fraction] = expected
    return result


def format_table(result: PruningResult) -> str:
    headers = [f"top {f:.0%}" for f in SELECTED_FRACTIONS]
    rows = []
    for layout in ("shuffled", "sorted"):
        rows.append(harness.Row(
            f"{layout}: records scanned",
            {h: result.records_scanned[layout][f]
             for h, f in zip(headers, SELECTED_FRACTIONS)},
        ))
        rows.append(harness.Row(
            f"{layout}: bytes read",
            {h: result.bytes_read[layout][f]
             for h, f in zip(headers, SELECTED_FRACTIONS)},
        ))
    return harness.format_table(
        f"Ablation - zone-map pruning vs selected fraction "
        f"({result.records} records, {DAYS} days)",
        headers,
        rows,
    )
