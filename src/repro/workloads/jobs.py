"""The paper's MapReduce jobs, written against the generic Record API.

``distinct_content_types_job`` is Figure 1's job: find every distinct
``content-type`` reported by pages whose URL contains a pattern.  The
map function works identically over TXT, SEQ, RCFile and CIF (eager or
lazy) records — the portability the paper's design preserves.

``selectivity_aggregation`` is Appendix B.4's job: aggregate the value
under a given key of the map-typed column for records whose string
column matches a pattern.
"""

from __future__ import annotations

from repro.mapreduce.job import Job
from repro.mapreduce.types import InputFormat
from repro.workloads.crawl import CRAWL_PREDICATE


def make_content_type_mapper(pattern: str = CRAWL_PREDICATE):
    """Figure 1's map function over URLInfo records."""

    def mapper(key, record, emit, ctx):
        url = record.get("url")
        ctx.charge_predicate(url)
        if pattern in url:
            emit(record.get("metadata").get("content-type"), None)

    return mapper


def distinct_reducer(key, values, emit, ctx):
    """Figure 1's reduce: one output row per distinct key."""
    for _ in values:
        pass  # drain
    emit(key, None)


def distinct_content_types_job(
    input_format: InputFormat,
    pattern: str = CRAWL_PREDICATE,
    num_reducers: int = 40,
    name: str = "distinct-content-types",
) -> Job:
    """The Section 6.3 job, ready to run over any input format."""
    return Job(
        name,
        make_content_type_mapper(pattern),
        input_format,
        reducer=distinct_reducer,
        num_reducers=num_reducers,
    )


def make_selectivity_mapper(
    string_column: str,
    map_column: str,
    map_key: str,
    pattern: str,
):
    """Appendix B.4's map: sum ``map_column[map_key]`` where
    ``string_column`` contains ``pattern``."""

    def mapper(key, record, emit, ctx):
        text = record.get(string_column)
        ctx.charge_predicate(text)
        if pattern in text:
            value = record.get(map_column).get(map_key)
            if value is not None:
                emit("sum", value)

    return mapper


def sum_reducer(key, values, emit, ctx):
    emit(key, sum(values))


def selectivity_aggregation_job(
    input_format: InputFormat,
    string_column: str,
    map_column: str,
    map_key: str,
    pattern: str,
    name: str = "selectivity-aggregation",
) -> Job:
    return Job(
        name,
        make_selectivity_mapper(string_column, map_column, map_key, pattern),
        input_format,
        reducer=sum_reducer,
        num_reducers=1,
    )


def make_projection_scan_mapper(columns):
    """A pure scan: touch the given columns of every record (Figure 7)."""

    def mapper(key, record, emit, ctx):
        for column in columns:
            record.get(column)

    return mapper


def projection_scan_job(
    input_format: InputFormat, columns, name: str = "scan"
) -> Job:
    """Map-only scan over a projection; used by the microbenchmarks."""
    return Job(name, make_projection_scan_mapper(columns), input_format)
