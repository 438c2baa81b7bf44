"""Golden charges: what a ``Q`` job costs in simulated time, pinned exactly.

Every simulated charge is a whole number of ticks added into an int
(``cpu_ticks``, ``io_ticks``), so the same charges give the same totals
in any order.  This file holds one fixed dataset written in the four
``cif_scan`` layouts and five fixed queries, and for each (layout,
query) pair every ``Metrics`` field, the job's map and total time, a
digest of ``JobResult.output`` and the ``lazy.*`` / ``column.rows.*``
counters.  The values in ``query_charges_golden.json`` were recorded
once, when simulated time became integer ticks, and are not
re-recorded: a failing row means a change moved a charge.
"""

import hashlib
import json
import os

import pytest

from repro.core import ColumnSpec, write_dataset
from repro.hdfs import ClusterConfig, FileSystem
from repro.obs import FlightRecorder
from repro.query import Q, col, count, max_, sum_
from repro.workloads.micro import (
    INT_COLUMNS, MAP_COLUMN, STRING_COLUMNS, micro_records, micro_schema,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "query_charges_golden.json"
)

HIT = "=HIT="
MAP_KEY = "kk"

LAYOUTS = {
    "plain": {},
    "skiplist": {"default_spec": ColumnSpec("skiplist")},
    "cblock_zlib": {"default_spec": ColumnSpec("cblock", codec="zlib")},
    "dcsl": {
        "default_spec": ColumnSpec("skiplist"),
        "specs": {MAP_COLUMN: ColumnSpec("dcsl")},
    },
}


def _bucket(value):
    return value % 8


def _queries(dataset):
    wide = {"n": count(), "a": sum_(col(MAP_COLUMN)[MAP_KEY])}
    wide.update({f"s_{c}": sum_(col(c)) for c in INT_COLUMNS[1:]})
    wide.update({f"l_{c}": sum_(col(c).length()) for c in STRING_COLUMNS})
    return {
        "projection": Q(dataset).select(
            "int1", "str2", m=col(MAP_COLUMN)[MAP_KEY]
        ),
        "wide": Q(dataset)
        .group_by(bucket=col("int0").apply(_bucket))
        .aggregate(**wide),
        "filter_aggregate": Q(dataset)
        .where(col("str0").contains(HIT))
        .aggregate(total=sum_(col(MAP_COLUMN)[MAP_KEY]), top=max_(col("int1"))),
        "two_filters": Q(dataset)
        .where(col("int0") > 5000)
        .where(col("int3") < 2500)
        .select("str1", "int3", k=col(MAP_COLUMN)[MAP_KEY] + col("int3")),
        "count": Q(dataset).aggregate(n=count()),
    }


def _records(n=1400):
    records = list(micro_records(n, seed=5))
    for i, record in enumerate(records):
        if i % 20 == 3:
            record.put("str0", record.get("str0")[:10] + HIT)
        attrs = dict(record.get(MAP_COLUMN))
        attrs[MAP_KEY] = (i * 37) % 101
        record.put(MAP_COLUMN, attrs)
    return records


def _filesystem():
    # One split-directory holds more than one 1024-row frame, and a
    # 4 KiB I/O buffer makes the column readers refill mid-frame.
    fs = FileSystem(ClusterConfig(
        num_nodes=4, block_size=1 << 20, io_buffer_size=4096,
    ))
    fs.use_column_placement()
    records = _records()
    for layout, spec_args in LAYOUTS.items():
        write_dataset(
            fs, f"/golden/{layout}", micro_schema(), records,
            split_bytes=320 * 1024, **spec_args,
        )
    return fs


def _metrics(metrics):
    return dict(sorted(vars(metrics).items()))


def _counters(registry):
    """``lazy.*`` and ``column.rows.*`` counters, summed per column."""
    out = {}
    for name, labels, metric in registry:
        if not name.startswith(("lazy.", "column.rows.")):
            continue
        column = dict(labels).get("column")
        key = name if column is None else f"{name}{{column={column}}}"
        out[key] = out.get(key, 0) + metric.value
    return out


class _Clock:
    """A fake monotonic clock: recorded runs read no wall time."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


def observe(fs, layout, kind):
    """One (layout, query) pair: a bare run and a recorded run, whose
    simulated numbers must agree with each other and with the golden."""
    query = _queries(f"/golden/{layout}")[kind]
    bare = query.run(fs)
    recorder = FlightRecorder(clock=_Clock())
    with recorder.activate():
        recorded = query.run(fs)
    out = []
    for result in (bare, recorded):
        job = result.job
        output = repr(job.output).encode()
        out.append({
            "map": _metrics(job.map_metrics),
            "reduce": _metrics(job.reduce_metrics),
            "map_time": job.map_time,
            "total_time": job.total_time,
            "output": {
                "pairs": len(job.output),
                "sha256": hashlib.sha256(output).hexdigest(),
            },
        })
    out[1]["counters"] = _counters(recorder.registry)
    return out


CASES = [
    (layout, kind) for layout in LAYOUTS for kind in _queries("/").keys()
]


@pytest.fixture(scope="module")
def golden_fs():
    return _filesystem()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("layout,kind", CASES)
def test_charges_match_golden(golden_fs, golden, layout, kind):
    bare, recorded = observe(golden_fs, layout, kind)
    want = golden[f"{layout}/{kind}"]
    counters = recorded.pop("counters")
    assert bare == recorded, "a flight recorder moved a simulated number"
    assert recorded == {k: v for k, v in want.items() if k != "counters"}
    assert counters == want["counters"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{l}/{k}" for l, k in CASES)
