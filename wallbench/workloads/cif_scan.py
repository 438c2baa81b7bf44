"""cif_scan: the column read path users call, through ``Q(...).run``.

Three queries over four CIF layouts of the same micro records.  Column
files are far smaller than a block, so hdfs does almost nothing and
serde, ``core.columnio``/``cif``/``lazy``, ``query`` and the map runner
do the work.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.core.stats import extract_range_predicates
from repro.mapreduce import Job, run_job
from repro.query import Expr, Q, col, count, max_, sum_
from repro.query.aggregates import Aggregate
from repro.workloads.micro import (
    INT_COLUMNS, MAP_COLUMN, STRING_COLUMNS, micro_schema,
)

from wallbench import inputs
from wallbench.rungs import read_columns, read_records
from wallbench.trace import NO_SPANS, Part, Rung, Unit
from wallbench.workloads.base import Workload, job_sim_counts, new_filesystem

INT_CUT = 5000
BUCKETS = 8

LAYOUTS: Dict[str, dict] = {
    "plain": {},
    "skiplist": {"default_spec": ColumnSpec("skiplist")},
    "cblock_zlib": {"default_spec": ColumnSpec("cblock", codec="zlib")},
    "dcsl": {
        "default_spec": ColumnSpec("skiplist"),
        "specs": {MAP_COLUMN: ColumnSpec("dcsl")},
    },
}


def _bucket(value: int) -> int:
    return value % BUCKETS


@dataclass
class Term:
    """One aggregate, twice: for ``Q`` and in plain Python."""

    name: str
    aggregate: Aggregate
    value: Callable
    fold: Callable = operator.add


@dataclass
class Query:
    """One query kind: what ``Q`` is given, and the same filter, group
    key and aggregates as plain functions of a record.  The plain side
    is the checker's reference, the hand-written job of the ladder and
    the column accesses of its lower rungs."""

    kind: str
    terms: List[Term]
    where: Optional[Expr] = None
    filter_column: Optional[str] = None
    passes: Callable = lambda record: True
    group: Optional[Expr] = None
    group_of: Callable = lambda record: None

    def __post_init__(self) -> None:
        #: the projection ``Q`` pushes down
        self.columns: List[str] = self.query("").referenced_columns()

    @property
    def filters(self) -> List[Expr]:
        return [] if self.where is None else [self.where]

    def query(self, dataset: str) -> Q:
        q = Q(dataset)
        if self.where is not None:
            q = q.where(self.where)
        if self.group is not None:
            q = q.group_by(bucket=self.group)
        return q.aggregate(**{t.name: t.aggregate for t in self.terms})

    def input_format(self, dataset: str) -> ColumnInputFormat:
        """The input format ``Q.run`` builds."""
        return ColumnInputFormat(
            dataset, columns=self.columns, lazy=True,
            predicates=extract_range_predicates(self.filters),
        )

    def touch(self, record) -> None:
        """The op's column accesses on one record, and nothing else."""
        if self.passes(record):
            for name in self.columns:
                if name != self.filter_column:
                    record.get(name)

    def values(self, record) -> tuple:
        return tuple(term.value(record) for term in self.terms)

    def merged(self, a: tuple, b: tuple) -> tuple:
        return tuple(t.fold(x, y) for t, x, y in zip(self.terms, a, b))

    def reference_rows(self, records) -> List[dict]:
        """The answer, evaluated over the in-memory records."""
        groups: Dict[object, tuple] = {}
        for record in records:
            if self.passes(record):
                key, values = self.group_of(record), self.values(record)
                groups[key] = (
                    self.merged(groups[key], values) if key in groups else values
                )
        return [
            dict(
                {} if key is None else {"bucket": key},
                **dict(zip((t.name for t in self.terms), groups[key])),
            )
            for key in sorted(groups, key=repr)
        ]

    def job(self, dataset: str) -> Job:
        """What ``Q.run`` compiles to, written by hand."""

        def mapper(key, record, emit, ctx):
            if self.passes(record):
                emit(self.group_of(record), self.values(record))

        def merge(key, values, emit, ctx):
            merged = None
            for partial in values:
                merged = partial if merged is None else self.merged(merged, partial)
            emit(key, merged)

        return Job(
            f"ladder({dataset})", mapper, self.input_format(dataset),
            reducer=merge, combiner=merge, num_reducers=4,
        )


def _map_value(record):
    return record.get(MAP_COLUMN)[inputs.MAP_KEY]


QUERIES = [
    Query(
        "selective",
        [Term("total", sum_(col(MAP_COLUMN)[inputs.MAP_KEY]), _map_value)],
        where=col("str0").contains(inputs.HIT), filter_column="str0",
        passes=lambda record: inputs.HIT in record.get("str0"),
    ),
    Query(
        "narrow",
        [Term("top", max_(col("int1")), lambda record: record.get("int1"), max)],
        where=col("int0") > INT_CUT, filter_column="int0",
        passes=lambda record: record.get("int0") > INT_CUT,
    ),
    Query(
        "wide",
        [
            Term("n", count(), lambda record: 1),
            Term("a", sum_(col(MAP_COLUMN)[inputs.MAP_KEY]), _map_value),
        ] + [
            Term(f"s_{c}", sum_(col(c)), lambda record, c=c: record.get(c))
            for c in INT_COLUMNS[1:]
        ] + [
            Term(f"l_{c}", sum_(col(c).length()), lambda record, c=c: len(record.get(c)))
            for c in STRING_COLUMNS
        ],
        group=col("int0").apply(_bucket),
        group_of=lambda record: _bucket(record.get("int0")),
    ),
]


class CifScan(Workload):
    name = "cif_scan"

    def generate(self) -> None:
        self.records = inputs.micro(self.sizes["micro_records"], self.seed)
        self.inputs_sha256 = inputs.records_sha256(self.records, [])

    def load(self) -> None:
        self.fs = new_filesystem()
        for layout, spec_args in LAYOUTS.items():
            write_dataset(
                self.fs, f"/cif/{layout}", micro_schema(), self.records,
                split_bytes=self.sizes["split_bytes"], **spec_args,
            )
        self.ops = [
            (f"{query.kind}:{layout}", query, f"/cif/{layout}")
            for layout in LAYOUTS for query in QUERIES
        ]
        reference = {q.kind: q.reference_rows(self.records) for q in QUERIES}
        self.expected = {
            name: reference[query.kind] for name, query, _ in self.ops
        }

    @property
    def op_names(self) -> List[str]:
        return [name for name, _, _ in self.ops]

    def run_pass(self, spans=NO_SPANS) -> list:
        fs = self.fs
        return self._run_ops(
            [
                (name, lambda q=query.query(dataset): q.run(fs))
                for name, query, dataset in self.ops
            ],
            spans,
        )

    def check(self, answers: list) -> List[str]:
        return [
            name for name, answer in zip(self.op_names, answers)
            if isinstance(answer, Exception)
            or answer.rows != self.expected[name]
        ]

    def sim_counts(self, answers: list) -> Dict[str, float]:
        return job_sim_counts([a.job for a in answers])

    # -- ladder ------------------------------------------------------------

    def units(self, answers: list) -> List[Unit]:
        hit_rows = {
            q.kind: [i for i, r in enumerate(self.records) if q.passes(r)]
            for q in QUERIES
        }
        units = []
        for name, query, dataset in self.ops:
            rows = hit_rows[query.kind]
            with_stats = bool(extract_range_predicates(query.filters))
            units.append(Unit(name, "query", [
                Rung("core.columnio", [Part(
                    "columns",
                    lambda q=query, d=dataset, r=rows, s=with_stats: read_columns(
                        self.fs, d, q.columns, q.filter_column, r, with_stats=s,
                    ),
                )], inner="hdfs.stream_read"),
                Rung("core.cif", [Part(
                    "records", lambda q=query, d=dataset: read_records(
                        self.fs, q.input_format(d), q.touch,
                    ),
                )]),
                Rung("mapreduce", [Part(
                    "job", lambda q=query, d=dataset: run_job(self.fs, q.job(d)),
                )]),
            ]))
        return units
