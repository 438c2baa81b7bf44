"""Clock-free guard on how many calls a row read makes per record.

Figure 1's job over SEQ-uncomp, SEQ-block and RCFile reads each split
in one loop: an entry's frame is taken off the reader's window in place,
a value is decoded by the record loop, and the runner charges its map
calls once per split.  A change that puts a call per frame, per field or
per book back into that loop shows here as calls per record, on any
machine, with no clock read.

The counting rule (reusable for per-layer call counts): a call is a
``"call"`` event of ``sys.setprofile`` -- a Python frame entered or a
generator resumed -- whose code lies in the ``repro`` package.  Frames
of comprehensions and generator expressions (``<listcomp>``,
``<dictcomp>``, ``<setcomp>``, ``<genexpr>``) are not counted: Python
3.12 inlines the first three (PEP 709), so counting them would make
3.11 and 3.12 disagree.  Calls into C are not counted.  The job runs
once before it is counted, so what it counts is a warm job: the fresh
input format still parses its header and compiles its schema's codec.
"""

import os
import sys

import pytest

import repro
from repro.formats import (
    RCFileInputFormat, SequenceFileInputFormat, write_rcfile,
    write_sequence_file,
)
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import run_job
from repro.util.varint import decode_varint
from repro.workloads.crawl import crawl_records, crawl_schema
from repro.workloads.jobs import distinct_content_types_job

PACKAGE = os.path.dirname(repro.__file__) + os.sep
SKIPPED = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"))
RECORDS = 200

#: format -> (path, write, a fresh input format, calls per record at
#: most).  Before the split loop the three read 65, 38 and 33.
FORMATS = {
    "seq": (
        "/calls/seq", lambda fs, path, records: write_sequence_file(
            fs, path, crawl_schema(), records,
        ), SequenceFileInputFormat, 36,
    ),
    "seq_block": (
        "/calls/seq_block", lambda fs, path, records: write_sequence_file(
            fs, path, crawl_schema(), records, compression="block",
        ), SequenceFileInputFormat, 28,
    ),
    "rcfile": (
        "/calls/rcfile", lambda fs, path, records: write_rcfile(
            fs, path, crawl_schema(), records,
        ), RCFileInputFormat, 30,
    ),
}


def count_calls(fn):
    """``(fn(), calls into repro while it ran)`` by the rule above."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(PACKAGE)
                    and code.co_name not in SKIPPED):
                calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.fixture(scope="module")
def per_record():
    """Calls per record of one warm Figure 1 job per format, over files
    of several 64 KiB blocks read through a 12 KiB buffer."""
    fs = FileSystem(ClusterConfig(
        num_nodes=4, block_size=64 * 1024, io_buffer_size=12 * 1024,
    ))
    records = list(crawl_records(RECORDS, content_bytes=3000, seed=2))
    expected = sorted({
        r.get("metadata").get("content-type") for r in records
        if "ibm.com/jp" in r.get("url")
    })
    out = {}
    for name, (path, write, input_format, _) in FORMATS.items():
        write(fs, path, records)
        assert len(fs.namenode.blocks_of(path)) > 2, name

        def job(path=path, input_format=input_format):
            return run_job(fs, distinct_content_types_job(
                input_format(path), num_reducers=4,
            ))

        job()
        result, calls = count_calls(job)
        assert result.map_metrics.records == RECORDS, name
        assert sorted(key for key, _ in result.output) == expected, name
        out[name] = calls / RECORDS
    return out


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_calls_per_record_stay_bounded(per_record, name):
    bound = FORMATS[name][3]
    assert per_record[name] <= bound, per_record


def test_a_call_into_repro_counts_once():
    assert count_calls(lambda: decode_varint(b"\x05")) == ((5, 1), 1)


# -- a lazy CIF job's map cells -----------------------------------------------
#
# Appendix B.4's job as ``cluster_load`` submits it: ``str0`` on every
# row, ``attrs.get("k0")`` on the rows whose ``str0`` holds an "e".  A
# column reader arms one gather per ``wanted`` and restarts it for each
# read, and a map cell is read as one span walked, so neither a cell
# nor a gap builds a gather or its machinery.


@pytest.fixture(scope="module")
def analytics():
    """``(job result, gathers built, column readers opened, calls per
    record)`` of one warm ``analytics`` job over a small traffic
    profile's filesystem."""
    from repro.cluster import TrafficProfile, build_filesystem, make_job
    from repro.core import columnio
    from repro.serde import vecdecode

    profile = TrafficProfile(seed=7)
    profile.datasets = dict(
        profile.datasets, crawl_records=1, micro_records=300
    )
    fs = build_filesystem(profile)
    run_job(fs, make_job("analytics", "calls", 0))
    built = {"gathers": 0, "readers": 0}

    def counting(cls, name):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        return wrapped

    gather_init = vecdecode.Gather.__init__
    reader_init = columnio.ColumnReader.__init__
    vecdecode.Gather.__init__ = counting(vecdecode.Gather, "gathers")
    columnio.ColumnReader.__init__ = counting(columnio.ColumnReader, "readers")
    try:
        result = run_job(fs, make_job("analytics", "calls", 0))
    finally:
        vecdecode.Gather.__init__ = gather_init
        columnio.ColumnReader.__init__ = reader_init
    _, calls = count_calls(
        lambda: run_job(fs, make_job("analytics", "calls", 0))
    )
    records = result.map_metrics.records
    return result, built["gathers"], built["readers"], calls / records


def test_an_analytics_job_builds_one_gather_per_column_reader(analytics):
    """Each of the job's column readers reads with one ``wanted``
    (whole values), so it builds at most one gather: 5 for its 10
    readers here, where building one per map cell and per gap built
    169."""
    result, gathers, readers, _ = analytics
    assert result.map_metrics.records == 300
    assert readers >= 2
    assert gathers <= readers, (gathers, readers)


def test_an_analytics_job_calls_into_repro_a_bounded_number_of_times(
    analytics
):
    """Calls into ``repro`` per record: 36.1 here, 37.6 with a gather
    built per map cell and per gap and each cell decoded whole."""
    assert analytics[3] <= 37, analytics[3]
