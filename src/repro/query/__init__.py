"""A small declarative query layer over the storage formats.

Section 3.4 of the paper distinguishes hand-coded MapReduce jobs from
declarative languages (Pig, Hive, Jaql) and notes the column-oriented
techniques "are also applicable" to the latter — a declarative layer can
apply them *automatically*.  This package demonstrates that: queries are
expression trees, and the planner

- computes the referenced columns and pushes the projection into CIF
  (or RCFile) without the user naming them,
- orders evaluation so filter columns are read first and all other
  columns are only materialized for surviving records (late
  materialization via lazy records),
- compiles to a single MapReduce job with a combiner for the aggregates
  that allow one.

Example::

    from repro.query import Q, col, count, max_

    rows = (
        Q("/data/crawl")
        .where(col("url").contains("ibm.com/jp"))
        .group_by(col("metadata")["content-type"])
        .aggregate(pages=count(), latest=max_(col("fetchTime")))
        .run(fs)
    )
"""

from repro.query.expr import Expr, col, lit
from repro.query.aggregates import avg, count, count_distinct, max_, min_, sum_


def __getattr__(name: str):
    """``Q``, ``QueryResult`` and ``join``, bound on first use (PEP 562):
    the expressions the column readers compile need not load the
    planner and the job runner."""
    if name not in ("Q", "QueryResult", "join"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.query.query import Q, QueryResult, join

    value = globals()[name] = locals()[name]
    return value


__all__ = [
    "Expr",
    "Q",
    "QueryResult",
    "avg",
    "col",
    "count",
    "count_distinct",
    "join",
    "lit",
    "max_",
    "min_",
    "sum_",
]
