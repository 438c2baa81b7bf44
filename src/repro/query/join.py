"""Reduce-side (repartition) equi-join over two datasets.

The paper sets join algorithms aside as "beyond the scope of this paper
but ... complementary" (Section 1); this module supplies the standard
complementary piece so the library is usable for multi-dataset
analytics: the classic Hadoop repartition join.  Both inputs are read
through their InputFormats (so CIF projection push-down applies to each
side independently), mappers emit ``(join key, (side, row))``, and each
reducer joins one key's rows.

``inner``, ``left`` and ``right`` outer joins are supported.  Row
payloads are the projected columns of each side, prefixed to avoid
collisions (``left.url``, ``right.rank``...).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.cif import ColumnInputFormat
from repro.mapreduce.job import Job
from repro.mapreduce.multi import MultiInputFormat
from repro.mapreduce.runner import JobResult, run_job
from repro.query.query import QueryResult

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
