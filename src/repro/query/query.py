"""The query builder, planner, and executor.

``Q`` accumulates filters, projections and aggregations, then compiles
to one MapReduce job.  The planning decisions the paper's techniques
enable happen here, automatically:

- **projection push-down**: the union of columns referenced by any
  expression becomes the CIF projection — unreferenced column files are
  never opened;
- **late materialization**: filters are evaluated first against lazy
  records, so non-filter columns are deserialized only for records that
  survive every predicate (Section 5.1's lazy-record benefit, without the
  user writing the two-phase access by hand);
- **combiners** where every aggregate is algebraic.

:func:`join` is the complementary piece the paper sets aside as "beyond
the scope of this paper but ... complementary" (Section 1): the classic
Hadoop reduce-side (repartition) equi-join over two datasets.  Both
inputs are read through their InputFormats (so CIF projection push-down
applies to each side independently), mappers emit ``(join key, (side,
row))``, and each reducer joins one key's rows.  ``inner``, ``left`` and
``right`` outer joins are supported.  Row payloads are the projected
columns of each side, prefixed to avoid collisions (``left.url``,
``right.rank``...).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cif import ColumnInputFormat
from repro.core.stats import extract_range_predicates
from repro.core.vector import BatchOp, FrameProgram, fold_partials
from repro.mapreduce.job import Job
from repro.mapreduce.multi import MultiInputFormat
from repro.mapreduce.runner import JobResult, run_job
from repro.query.aggregates import Aggregate
from repro.query.expr import Expr, col

_UNGROUPED = ("__all__",)
#: reduce tasks of a grouped query
_REDUCERS = 4


class QueryError(ValueError):
    """Malformed query construction or execution."""


class QueryResult:
    """Rows plus the underlying job's execution report."""

    def __init__(self, rows: List[dict], job_result: JobResult) -> None:
        self.rows = rows
        self.job = job_result

    @property
    def bytes_read(self) -> int:
        return self.job.bytes_read

    @property
    def map_time(self) -> float:
        return self.job.map_time

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"QueryResult({len(self.rows)} rows)"


class Q:
    """A query over a CIF dataset (immutable builder)."""

    def __init__(self, dataset: str) -> None:
        self.dataset = dataset
        self._filters: List[Expr] = []
        self._selects: Dict[str, Expr] = {}
        self._group_by: Dict[str, Expr] = {}
        self._aggregates: Dict[str, Aggregate] = {}
        self._having: List = []       # post-aggregation row predicates
        self._order_by: Optional[Tuple[str, bool]] = None
        self._limit: Optional[int] = None

    def _copy(self) -> "Q":
        out = Q(self.dataset)
        out._filters = list(self._filters)
        out._selects = dict(self._selects)
        out._group_by = dict(self._group_by)
        out._aggregates = dict(self._aggregates)
        out._having = list(self._having)
        out._order_by = self._order_by
        out._limit = self._limit
        return out

    # -- builder -----------------------------------------------------------

    def where(self, predicate: Expr) -> "Q":
        """Add a (conjunctive) filter."""
        out = self._copy()
        out._filters.append(predicate)
        return out

    def select(self, *columns: str, **named: Expr) -> "Q":
        """Project columns and/or named expressions (no aggregation)."""
        if self._aggregates or self._group_by:
            raise QueryError("select() cannot follow group_by() or aggregate()")
        out = self._copy()
        for name in columns:
            out._selects[name] = col(name)
        out._selects.update(named)
        return out

    def group_by(self, *columns: str, **named: Expr) -> "Q":
        if self._selects:
            raise QueryError("group_by() cannot follow select()")
        out = self._copy()
        for name in columns:
            out._group_by[name] = col(name)
        out._group_by.update(named)
        return out

    def aggregate(self, **aggregates: Aggregate) -> "Q":
        if not aggregates:
            raise QueryError("aggregate() needs at least one aggregate")
        if self._selects:
            raise QueryError("aggregate() cannot follow select()")
        out = self._copy()
        out._aggregates.update(aggregates)
        return out

    def having(self, predicate) -> "Q":
        """Filter output rows *after* aggregation.

        ``predicate`` is a plain callable over the result-row dict
        (which holds group keys and aggregate values by name)::

            .having(lambda row: row["pages"] > 10)
        """
        if not callable(predicate):
            raise QueryError("having() takes a callable over result rows")
        out = self._copy()
        out._having.append(predicate)
        return out

    def order_by(self, column: str, descending: bool = False) -> "Q":
        """Sort result rows by one output column."""
        out = self._copy()
        out._order_by = (column, descending)
        return out

    def limit(self, n: int) -> "Q":
        """Keep only the first ``n`` result rows (after any ordering)."""
        if n < 0:
            raise QueryError("limit must be >= 0")
        out = self._copy()
        out._limit = n
        return out

    # -- planning -----------------------------------------------------------

    def referenced_columns(self) -> List[str]:
        """Every top-level column any expression touches."""
        referenced = set()
        for expr in self._filters:
            referenced |= expr.columns
        for expr in self._selects.values():
            referenced |= expr.columns
        for expr in self._group_by.values():
            referenced |= expr.columns
        for aggregate in self._aggregates.values():
            referenced |= aggregate.columns
        return sorted(referenced)

    def _combinable(self) -> bool:
        return all(a.combinable for a in self._aggregates.values())

    def explain(self) -> str:
        """A human-readable plan description."""
        lines = [f"scan {self.dataset} (CIF, lazy records)"]
        columns = self.referenced_columns()
        lines.append(f"  projection push-down: {columns or ['<none>']}")
        for predicate in extract_range_predicates(self._filters):
            lines.append(
                "  zone-map pruning: "
                f"{predicate.column} {predicate.op} {predicate.value!r}"
            )
        for expr in self._filters:
            lines.append(f"  filter (evaluated first): {expr.description}")
        if self._aggregates:
            keys = [e.description for e in self._group_by.values()]
            lines.append(f"  group by: {keys or ['<all rows>']}")
            for name, aggregate in self._aggregates.items():
                lines.append(f"  aggregate {name} = {aggregate.description}")
            lines.append(
                "  combiner: "
                + ("yes (all aggregates algebraic)" if self._combinable()
                   else "no (non-combinable aggregate present)")
            )
        elif self._selects:
            names = [
                f"{name}={expr.description}"
                for name, expr in self._selects.items()
            ]
            lines.append(f"  project: {names}")
        return "\n".join(lines)

    # -- execution -----------------------------------------------------------

    def run(self, fs, execution: str = "vectorized") -> QueryResult:
        """Execute: filters run as selection kernels over column
        frames and only survivors are materialized.

        ``execution="scalar"`` is for the differential checks only: it
        opens the per-datum reference reader, which must produce
        identical rows, counters and simulated metrics.
        """
        if self._aggregates:
            return self._run_aggregation(fs, execution)
        if self._group_by:
            raise QueryError("group_by() needs aggregate()")
        return self._run_projection(fs, execution)

    def _job(
        self, exprs: List[Expr], row_fn, frame_fn, execution: str, **job_args
    ) -> Job:
        """The query as a job over the values of ``exprs``: per frame,
        ``frame_fn(values, emit, acc)`` gets one list per expression,
        aligned with the survivors (``row_fn(row, emit, ctx)`` per
        survivor if one does not compile; ``acc`` is ``BatchOp``'s).
        ``mapper`` is what the runner falls back to when the reader has
        no ``read_batch`` (the scalar reference), with operator
        boundaries mirroring ``run_batch_map``'s so both readers
        profile identically."""
        filters = self._filters

        def mapper(key, record, emit, ctx):
            profiler = ctx.profiler
            if filters:
                profiler.switch("filter")
                ok = all(f.evaluate(record, ctx) for f in filters)
                profiler.add_rows("filter", 1, 1 if ok else 0)
                if not ok:
                    return
            profiler.switch("materialize")
            profiler.add_rows("materialize", 1, 1)
            row_fn(record, emit, ctx)

        input_format = ColumnInputFormat(
            self.dataset,
            columns=self.referenced_columns() or None,
            lazy=True,
            predicates=extract_range_predicates(filters),
            execution=execution,
        )
        job = Job(f"query({self.dataset})", mapper, input_format, **job_args)
        job.batch_op = BatchOp(
            filters, row_fn, FrameProgram(exprs, filters), frame_fn
        )
        return job

    def _run_projection(self, fs, execution: str) -> QueryResult:
        selects = dict(self._selects)
        if not selects:
            raise QueryError("nothing to compute: add select() or aggregate()")

        def project_row(row, emit, ctx):
            emit(None, tuple(
                expr.evaluate(row, ctx) for expr in selects.values()
            ))

        def project_frame(values, emit, acc):
            for row in zip(*values):
                emit(None, row)

        job = self._job(
            list(selects.values()), project_row, project_frame, execution
        )
        job_result = run_job(fs, job)
        rows = [
            dict(zip(selects.keys(), values)) for _, values in job_result.output
        ]
        return QueryResult(self._finalize_rows(rows), job_result)

    def _run_aggregation(self, fs, execution: str) -> QueryResult:
        group_exprs = dict(self._group_by)
        aggregates = dict(self._aggregates)
        groups, aggs = len(group_exprs), list(aggregates.values())

        def partial_row(record, emit, ctx):
            # One partial per record: the reference reader's mapper, and
            # the engine's when an expression does not compile.  The
            # combiner merges these into what fold_frame folds in the
            # mapper, so the spill, the shuffle and the output agree.
            group_key: Tuple = (
                tuple(e.evaluate(record, ctx) for e in group_exprs.values())
                if group_exprs
                else _UNGROUPED
            )
            partial = tuple(
                a.step(a.init(), a.expr.evaluate(record, ctx))
                for a in aggs
            )
            emit(group_key, partial)

        def fold_frame(values, emit, acc):
            columns = values[groups:]
            if not groups:
                return fold_partials(acc, _UNGROUPED, aggs, columns)
            rows: Dict[Tuple, list] = {}
            for key, row in zip(zip(*values[:groups]), zip(*columns)):
                rows.setdefault(key, []).append(row)
            for key, group in rows.items():
                fold_partials(acc, key, aggs, list(zip(*group)))

        def partial_frame(values, emit, acc):
            # no combiner (count_distinct): one partial per survivor
            keys = zip(*values[:groups]) if groups else repeat(_UNGROUPED)
            partials = zip(*(
                [a.step(a.init(), v) for v in column]
                for a, column in zip(aggs, values[groups:])
            ))
            for key, partial in zip(keys, partials):
                emit(key, partial)

        def merge(key, values, emit, ctx):
            merged: Optional[tuple] = None
            for partial in values:
                if merged is None:
                    merged = partial
                else:
                    merged = tuple(
                        a.merge(m, p) for a, m, p in zip(aggs, merged, partial)
                    )
            emit(key, merged)

        def reducer(key, values, emit, ctx):
            merge(key, values, lambda k, merged: emit(
                k, tuple(a.finish(m) for a, m in zip(aggs, merged))
            ), ctx)

        combinable = self._combinable()
        job = self._job(
            list(group_exprs.values()) + [a.expr for a in aggs],
            partial_row, fold_frame if combinable else partial_frame,
            execution,
            reducer=reducer,
            combiner=merge if combinable else None,
            num_reducers=_REDUCERS,
        )
        job_result = run_job(fs, job)
        rows = []
        for group_key, finished in job_result.output:
            row = {}
            if group_exprs:
                row.update(zip(group_exprs.keys(), group_key))
            row.update(zip(aggregates.keys(), finished))
            rows.append(row)
        rows.sort(key=lambda r: repr([r.get(k) for k in group_exprs]))
        return QueryResult(self._finalize_rows(rows), job_result)

    def _finalize_rows(self, rows: List[dict]) -> List[dict]:
        """Apply having / order_by / limit to the output rows."""
        for predicate in self._having:
            rows = [row for row in rows if predicate(row)]
        if self._order_by is not None:
            column, descending = self._order_by
            rows = sorted(
                rows, key=lambda r: r.get(column), reverse=descending
            )
        if self._limit is not None:
            rows = rows[: self._limit]
        return rows


JOIN_KINDS = ("inner", "left", "right")


def _row_of(record, columns: Sequence[str]) -> dict:
    return {c: record.get(c) for c in columns}


def join(
    fs,
    left: str,
    right: str,
    on: str,
    right_on: Optional[str] = None,
    left_columns: Optional[Sequence[str]] = None,
    right_columns: Optional[Sequence[str]] = None,
    how: str = "inner",
    num_reducers: int = 4,
) -> QueryResult:
    """Equi-join two CIF datasets on a key column.

    ``on`` names the left key column (and the right one too unless
    ``right_on`` differs).  ``*_columns`` are each side's projections
    (defaulting to all columns); output rows use ``left.<col>`` /
    ``right.<col>`` names plus ``key``.
    """
    if how not in JOIN_KINDS:
        raise ValueError(f"how must be one of {JOIN_KINDS}")
    right_key = right_on if right_on is not None else on

    from repro.core.cof import read_dataset_schema

    left_cols = list(
        left_columns if left_columns is not None
        else read_dataset_schema(fs, left).field_names
    )
    right_cols = list(
        right_columns if right_columns is not None
        else read_dataset_schema(fs, right).field_names
    )
    if on not in left_cols:
        left_cols.append(on)
    if right_key not in right_cols:
        right_cols.append(right_key)

    inputs = MultiInputFormat({
        "L": ColumnInputFormat(left, columns=left_cols, lazy=True),
        "R": ColumnInputFormat(right, columns=right_cols, lazy=True),
    })

    def mapper(key, tagged, emit, ctx):
        side, record = tagged
        if side == "L":
            emit(record.get(on), ("L", _row_of(record, left_cols)))
        else:
            emit(record.get(right_key), ("R", _row_of(record, right_cols)))

    def reducer(key, values, emit, ctx):
        lefts: List[dict] = []
        rights: List[dict] = []
        for side, row in values:
            (lefts if side == "L" else rights).append(row)
        if lefts and rights:
            for lrow in lefts:
                for rrow in rights:
                    emit(key, _merge(key, lrow, rrow))
        elif lefts and how == "left":
            for lrow in lefts:
                emit(key, _merge(key, lrow, None))
        elif rights and how == "right":
            for rrow in rights:
                emit(key, _merge(key, None, rrow))

    job = Job(
        f"join({left},{right})", mapper, inputs,
        reducer=reducer, num_reducers=num_reducers,
    )
    result: JobResult = run_job(fs, job)
    rows = [row for _, row in result.output]
    rows.sort(key=lambda r: repr(r.get("key")))
    return QueryResult(rows, result)


def _merge(key, left_row: Optional[Dict], right_row: Optional[Dict]) -> dict:
    out = {"key": key}
    if left_row:
        out.update({f"left.{name}": value for name, value in left_row.items()})
    if right_row:
        out.update(
            {f"right.{name}": value for name, value in right_row.items()}
        )
    return out
