"""Golden books: what a lazy CIF row scan counts, pinned exactly.

A lazy row decodes a projected cell only when the map function asks for
it, and the reader settles each row's books when the next row of its
split-directory starts: a cell never asked for counts as skipped.  Both
CIF readers hand lazy rows out through the same code, so comparing one
with the other cannot catch a drift they share.  This file pins the
books themselves instead: for a lazy row scan of one fixed dataset in
the four ``cif_scan`` layouts, by both readers, every ``Metrics`` field
of every split, the ``lazy.records``, ``lazy.cells.materialized`` /
``lazy.cells.skipped`` and ``column.rows.*`` counters, and a digest of
every value the mapper read.

The splits span several split-directories, and the mapper reads
different columns on different rows, some of them twice, and none at
all on others.  The values in ``lazy_books_golden.json`` were recorded
once and are not re-recorded: a failing case means a change moved a
count or a charge.
"""

import hashlib
import json
import os

import pytest

from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce.types import TaskContext
from repro.obs import FlightRecorder
from repro.sim.cost import CpuCostModel
from repro.workloads.micro import MAP_COLUMN, micro_records, micro_schema

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "lazy_books_golden.json")

LAYOUTS = {
    "plain": {},
    "skiplist": {"default_spec": ColumnSpec("skiplist")},
    "cblock_zlib": {"default_spec": ColumnSpec("cblock", codec="zlib")},
    "dcsl": {
        "default_spec": ColumnSpec("skiplist"),
        "specs": {MAP_COLUMN: ColumnSpec("dcsl")},
    },
}
EXECUTIONS = ("scalar", "vectorized")
#: out of schema order, so a row's slots are not the projection's order
COLUMNS = ["int1", "str3", MAP_COLUMN, "str0", "int0"]


def _filesystem():
    fs = FileSystem(ClusterConfig(
        num_nodes=4, block_size=1 << 20, io_buffer_size=1024,
    ))
    fs.use_column_placement()
    records = list(micro_records(900, seed=11))
    for layout, spec_args in LAYOUTS.items():
        write_dataset(
            fs, f"/books/{layout}", micro_schema(), records,
            split_bytes=24 * 1024, **spec_args,
        )
    return fs


def _touch(i, record):
    """The mapper: what it reads depends on the row's position and on a
    value it read, and on every fifth row it reads nothing."""
    kind = i % 5
    if kind == 0:
        return []
    if kind == 1:
        return [record.get("int0")]
    if kind == 2:
        return [record.get("str3"), record.get("int1"), record.get("str3")]
    if kind == 3:
        n = record.get("int1")
        if n % 2:
            return [n, sorted(record.get(MAP_COLUMN).items())]
        return [n, record.get("str0")]
    return [record.get(MAP_COLUMN).get("zzzz"), record.get("int0")]


def _counters(registry):
    """``lazy.*`` and ``column.rows.*`` counters, summed per column."""
    out = {}
    for name, labels, metric in registry:
        if not name.startswith(("lazy.", "column.rows.")):
            continue
        column = dict(labels).get("column")
        key = name if column is None else f"{name}{{column={column}}}"
        out[key] = out.get(key, 0) + metric.value
    return dict(sorted(out.items()))


def observe(fs, layout, execution):
    fmt = ColumnInputFormat(
        f"/books/{layout}", columns=COLUMNS, lazy=True, dirs_per_split=3,
        execution=execution,
    )
    splits = fmt.get_splits(fs, fs.cluster)
    recorder = FlightRecorder()
    seen = []
    metrics = []
    with recorder.activate():
        for split in splits:
            ctx = TaskContext(
                node=split.locations[0] if split.locations else 0,
                cost=CpuCostModel(), io_buffer_size=fs.cluster.io_buffer_size,
            )
            reader = fmt.open_reader(fs, split, ctx)
            try:
                for i, (_, record) in enumerate(reader):
                    seen.append(_touch(i, record))
            finally:
                reader.close()
            metrics.append(dict(sorted(vars(ctx.metrics).items())))
    return {
        "dirs": [len(split.split_dirs) for split in splits],
        "metrics": metrics,
        "counters": _counters(recorder.registry),
        "values": {
            "rows": len(seen),
            "sha256": hashlib.sha256(repr(seen).encode()).hexdigest(),
        },
    }


CASES = [(layout, ex) for layout in LAYOUTS for ex in EXECUTIONS]


@pytest.fixture(scope="module")
def books_fs():
    return _filesystem()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("layout,execution", CASES)
def test_lazy_books_match_golden(books_fs, golden, layout, execution):
    got = observe(books_fs, layout, execution)
    assert any(n > 1 for n in got["dirs"]), "no split spans directories"
    assert got == golden[f"{layout}/{execution}"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{l}/{e}" for l, e in CASES)
