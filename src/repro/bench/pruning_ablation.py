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
from repro.bench.regress import flatten, fraction_slug
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
    bytes_read: harness.Grid = field(default_factory=harness.Grid)
    records_scanned: harness.Grid = field(default_factory=harness.Grid)
    answers: Dict[float, int] = field(default_factory=dict)


def _query(fs, dataset: str, min_day: int):
    fmt = ColumnInputFormat(
        dataset, columns=["day"], lazy=False,
        predicates=[RangePredicate("day", ">=", min_day)],
    )
    days: List[int] = []
    metrics = harness.scan(
        fs, fmt, visit=lambda _, record: days.append(record.get("day"))
    )
    return sum(day >= min_day for day in days), metrics


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
        for layout in ("shuffled", "sorted"):
            matches, metrics = _query(fs, f"/pr/{layout}", min_day)
            if expected is None:
                expected = matches
            elif matches != expected:
                raise AssertionError("pruning changed the answer")
            result.bytes_read.note(layout, fraction, metrics.total_bytes_read)
            result.records_scanned.note(layout, fraction, metrics.records)
        result.answers[fraction] = expected
    return result


def metrics(result: PruningResult) -> Dict[str, float]:
    out = {
        **flatten(result.bytes_read, "bytes.{}.{}", fraction_slug),
        **flatten(result.records_scanned, "count.scanned.{}.{}", fraction_slug),
    }
    for fraction, answer in result.answers.items():
        out[f"count.answer.{fraction_slug(fraction)}"] = answer
    return out


def format_table(result: PruningResult) -> str:
    headers = [f"top {f:.0%}" for f in SELECTED_FRACTIONS]
    scanned = result.records_scanned.rows(
        SELECTED_FRACTIONS, label="{}: records scanned"
    )
    read = result.bytes_read.rows(
        SELECTED_FRACTIONS, label="{}: bytes read"
    )
    return harness.format_table(
        f"Ablation - zone-map pruning vs selected fraction "
        f"({result.records} records, {DAYS} days)",
        headers,
        [row for pair in zip(scanned, read) for row in pair],
    )
