"""Golden books: what a map task charges and counts, pinned exactly.

A map task reads its split through a record reader and hands each row
to the map function; the runner charges every map call, the mapper
charges its predicates, and under an active flight recorder an operator
profiler splits the task's simulated time between scan and materialize.
This file pins those books per map task: for Figure 1's job over the
crawl schema and Appendix B.4's ``selectivity_aggregation_job`` over
the micro schema, each on SEQ with none / record / block compression,
RCFile with and without zlib, TXT and lazy CIF rows, it pins every
``Metrics`` field of every map task, the job's counters and output, and
(under a fake-clock ``FlightRecorder``) each operator's rows, cells and
simulated ticks.  One mapper that raises midway through a split pins
the partial books the raise leaves, on every format.

The values in ``map_task_books_golden.json`` were recorded once and are
not re-recorded: a failing case means a change moved a count or a
charge.
"""

import json
import os

import pytest

from repro.core import ColumnInputFormat, write_dataset
from repro.formats import (
    RCFileInputFormat, SequenceFileInputFormat, TextInputFormat,
    write_rcfile, write_sequence_file, write_text,
)
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, JobRunner, run_job
from repro.obs import FlightRecorder
from repro.sim.calibration import TICKS_PER_SECOND
from repro.workloads.crawl import crawl_records, crawl_schema
from repro.workloads.jobs import (
    distinct_content_types_job, selectivity_aggregation_job,
)
from repro.workloads.micro import MAP_COLUMN, micro_records, micro_schema

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "map_task_books_golden.json"
)

BLOCK_SIZE = 8 * 1024  # several splits per file
WINDOW = 1024
#: the raising mapper gives up on this row of the first split
RAISE_AT = 5
#: a key some rows of the micro map column hold and others do not
MAP_KEY = next(iter(next(micro_records(1, seed=8)).get(MAP_COLUMN)))


def _seq(mode):
    def write(fs, path, schema, records):
        write_sequence_file(
            fs, path, schema, records, compression=mode, block_records=6,
            sync_interval=900,
        )
        return lambda: SequenceFileInputFormat(path)
    return write


def _rc(codec):
    def write(fs, path, schema, records):
        write_rcfile(fs, path, schema, records, row_group_bytes=2000,
                     codec=codec)
        return lambda: RCFileInputFormat(path)
    return write


def _txt(fs, path, schema, records):
    write_text(fs, path, schema, records)
    return lambda: TextInputFormat(path)


def _cif(fs, path, schema, records):
    write_dataset(fs, path, schema, records, split_bytes=6 * 1024)
    return lambda: ColumnInputFormat(path, lazy=True)


FORMATS = {
    "seq-none": _seq("none"),
    "seq-record": _seq("record"),
    "seq-block": _seq("block"),
    "rcfile-none": _rc(None),
    "rcfile-zlib": _rc("zlib"),
    "txt": _txt,
    "cif-lazy": _cif,
}

JOBS = {
    "fig1": (
        crawl_schema,
        lambda: crawl_records(60, content_bytes=400, seed=4),
        lambda fmt: distinct_content_types_job(fmt, num_reducers=3),
    ),
    "selectivity": (
        micro_schema,
        lambda: micro_records(150, seed=8),
        lambda fmt: selectivity_aggregation_job(
            fmt, "str0", MAP_COLUMN, MAP_KEY, "a"
        ),
    ),
}


def _filesystem():
    return FileSystem(ClusterConfig(
        num_nodes=3, replication=1, block_size=BLOCK_SIZE,
        io_buffer_size=WINDOW,
    ))


def _fake_clock():
    ticks = iter(range(10 ** 9))
    return lambda: next(ticks) / 1000.0


def _operators(recorder):
    """split -> op -> its rows, cells and simulated ticks."""
    out = {}
    for span in recorder.report().spans:
        if span.get("kind") != "operator":
            continue
        attrs = span["attrs"]
        out.setdefault(attrs["split"], {})[attrs["op"]] = {
            "rows_in": attrs["rows_in"],
            "rows_out": attrs["rows_out"],
            "cells_decoded": attrs["cells_decoded"],
            "cells_skipped": attrs["cells_skipped"],
            "sim_ticks": round(span["sim_duration"] * TICKS_PER_SECOND),
        }
    return out


def _books(metrics):
    return dict(sorted(vars(metrics).items()))


def _setup(job_name, fmt_name):
    make_schema, make_records, _ = JOBS[job_name]
    fs = _filesystem()
    fmt = FORMATS[fmt_name](fs, "/in", make_schema(), list(make_records()))
    return fs, fmt


def observe(job_name, fmt_name):
    """One whole job: every map task's books, the counters, the output
    and the operator profile of every split."""
    fs, fmt = _setup(job_name, fmt_name)
    job = JOBS[job_name][2](fmt())
    recorder = FlightRecorder(clock=_fake_clock())
    with recorder.activate():
        result = run_job(fs, job)
    tasks = sorted(result.tasks, key=lambda t: t.split.label)
    return {
        "tasks": {t.split.label: _books(t.metrics) for t in tasks},
        "counters": dict(sorted(dict(result.counters).items())),
        "output": sorted(repr(pair) for pair in result.output),
        "operators": _operators(recorder),
    }


def observe_raise(job_name, fmt_name):
    """The first split's map attempt with a mapper that raises on row
    ``RAISE_AT``: the partial books and operator profile at the raise."""
    fs, fmt = _setup(job_name, fmt_name)
    job = JOBS[job_name][2](fmt())
    inner = job.mapper
    seen = []

    def mapper(key, record, emit, ctx):
        seen.append(ctx)
        if len(seen) == RAISE_AT:
            ctx.counters.increment("raised")
            raise RuntimeError("mapper gave up")
        inner(key, record, emit, ctx)

    job = Job(job.name, mapper, job.input_format, reducer=job.reducer,
              num_reducers=job.num_reducers)
    recorder = FlightRecorder(clock=_fake_clock())
    with recorder.activate():
        split = job.input_format.get_splits(fs, fs.cluster)[0]
        with pytest.raises(RuntimeError, match="mapper gave up"):
            JobRunner(fs).execute_map_attempt(job, split, 0)
    ctx = seen[0]
    return {
        "rows": len(seen),
        "metrics": _books(ctx.metrics),
        "counters": dict(sorted(dict(ctx.counters).items())),
        "operators": _operators(recorder),
    }


CASES = [(job, fmt) for job in JOBS for fmt in FORMATS]


def _key(job, fmt, raised=False):
    return f"{job}/{fmt}" + ("/raise" if raised else "")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize(
    "job,fmt", CASES, ids=[_key(*case) for case in CASES]
)
def test_map_task_books_match_golden(golden, job, fmt):
    assert observe(job, fmt) == golden[_key(job, fmt)]


@pytest.mark.parametrize(
    "job,fmt", CASES, ids=[_key(*case, True) for case in CASES]
)
def test_raising_mapper_books_match_golden(golden, job, fmt):
    assert observe_raise(job, fmt) == golden[_key(job, fmt, True)]


def test_every_job_spans_splits_and_every_raise_lands_midway(golden):
    for case in CASES:
        books = golden[_key(*case)]
        assert len(books["tasks"]) > 1, case
        assert books["output"], case
        raised = golden[_key(*case, True)]
        assert raised["rows"] == RAISE_AT, case
        assert raised["counters"] == {"raised": 1}, case


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(
        [_key(*case) for case in CASES]
        + [_key(*case, True) for case in CASES]
    )


if __name__ == "__main__":  # records the golden file
    books = {_key(*case): observe(*case) for case in CASES}
    books.update({_key(*case, True): observe_raise(*case) for case in CASES})
    with open(GOLDEN_PATH, "w") as f:
        json.dump(books, f, indent=1, sort_keys=True)
        f.write("\n")
