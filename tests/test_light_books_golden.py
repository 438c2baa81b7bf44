"""Golden books: what the run-length, delta and declared-default column
readers charge, pinned exactly.

The lightweight encodings (``rle``, ``delta``) and a column declared
after its split-directory was written (a ``DefaultColumnReader``, no
file behind it) are read through the same four entry points as every
other layout: ``read_value`` (a lazy row's cell), ``read_vector`` (a
whole frame), ``read_selected`` (a frame's survivors) and ``skip``.
Comparing one entry point with another cannot catch a drift they
share, so this file pins the books themselves: for rle (int, string
and map) and delta (int and time) columns and a declared-default map
column, with ``batch_kernels`` off and on, a script per entry point,
the values read, every ``Metrics`` field and the ``column.rows.*``
counters.

The columns are read at a 61-byte I/O buffer, so runs, deltas and gaps
cross the reader's window edge; the rle columns hold runs of one to a
dozen rows, so reads start and end inside runs and on their edges.
The values in ``light_books_golden.json`` were recorded once and are
not re-recorded: a failing case means a change moved a count or a
charge.
"""

import hashlib
import json
import os
import random

import pytest

from repro.core.columnio import (
    ColumnSpec,
    DefaultColumnReader,
    encode_column_file,
    open_column_reader,
)
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce.types import TaskContext
from repro.obs import FlightRecorder
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "light_books_golden.json")

ROWS = 131
WINDOW = 61  # bytes per stream read, so reads cross window edges

COLUMNS = {
    "rle/int": (Schema.int_(), "rle"),
    "rle/string": (Schema.string(), "rle"),
    "rle/map": (Schema.map(Schema.long_()), "rle"),
    "delta/int": (Schema.int_(), "delta"),
    "delta/time": (Schema.time(), "delta"),
    "default/map": (Schema.map(Schema.long_()), None),
}
DEFAULT = {"k": 7, "é": -1}


def _values(name, rng):
    schema, layout = COLUMNS[name]
    if layout == "delta":
        out, value = [], rng.randrange(-50, 50)
        for _ in range(ROWS):
            value += rng.choice([1, 1, 2, 0, -3, 70, 9000, -(2**20)])
            if schema.kind == "time":
                value = abs(value) + 1_600_000_000_000
            out.append(value)
        return out
    kind = schema.kind

    def one():
        if kind == "int":
            return rng.choice([0, -1, 63, 64, 300, 2**30])
        if kind == "string":
            return "".join(rng.choice("abé✓") for _ in range(rng.randrange(9)))
        keys = ["k", "k2", "", "é"]
        return {key: rng.randrange(-9, 10**6)
                for key in rng.sample(keys, rng.randrange(4))}

    out = []
    while len(out) < ROWS:
        out += [one()] * rng.randrange(1, 13)
    return out[:ROWS]


#: Each entry point's script: ``read_value`` rows (each reached by
#: ``sync_to``), ``read_vector`` ``(start, n)`` frames, ``read_selected``
#: calls of ascending rows, and ``skip`` targets (each then read).
SCRIPTS = {
    "read_value": [0, 1, 2, 5, 6, 7, 30, 31, 64, 100, 101, ROWS - 1],
    "read_vector": [(0, 1), (1, 12), (20, 37), (57, 0), (60, 64),
                    (ROWS - 7, 7)],
    "read_selected": [[0, 1, 2, 9, 10, 11, 12, 40], [41],
                      [43, 44, 60, 61, 62, 63, 64, 99, 115, 116, ROWS - 1]],
    "skip": [3, 4, 16, 57, 58, 111, ROWS - 1],
}


def _counters(registry):
    out = {}
    for name, labels, metric in registry:
        if name.startswith("column.rows."):
            out[name] = out.get(name, 0) + metric.value
    return dict(sorted(out.items()))


def _files():
    rng = random.Random(11)
    files = {}
    for name, (schema, layout) in COLUMNS.items():
        values = _values(name, random.Random(rng.random()))
        files[name] = None if layout is None else encode_column_file(
            schema, values, ColumnSpec(layout)
        )
    return files


def _drive(reader, script):
    got = []
    if script == "read_value":
        for row in SCRIPTS[script]:
            reader.sync_to(row)
            got.append(reader.read_value())
    elif script == "read_vector":
        for start, n in SCRIPTS[script]:
            reader.sync_to(start)
            got.append(reader.read_vector(n).to_list())
    elif script == "read_selected":
        for rows in SCRIPTS[script]:
            got.append(reader.read_selected(rows))
    else:
        for row in SCRIPTS[script]:
            reader.skip(row - reader.next_index)
            got.append(reader.read_value())
    return got


def _open(payload, name, ctx):
    """The column's reader: over its file, read at a ``WINDOW``-byte
    buffer, or (no file) the declared default's."""
    schema, _ = COLUMNS[name]
    labels = {"column": "c"}
    if payload is None:
        return DefaultColumnReader(schema, ROWS, ctx, DEFAULT, labels)
    fs = FileSystem(ClusterConfig(
        num_nodes=1, replication=1, block_size=1 << 22,
        io_buffer_size=WINDOW,
    ))
    fs.write_file("/col", payload)
    stream = fs.open("/col", node=0, metrics=ctx.metrics)
    return open_column_reader(stream, schema, ctx, labels=labels)


def _context():
    return TaskContext(node=0, cost=CpuCostModel(), io_buffer_size=WINDOW)


def observe(payload, name, script, batch_kernels):
    recorder = FlightRecorder()
    with recorder.activate():
        ctx = _context()
        reader = _open(payload, name, ctx)
        reader.batch_kernels = batch_kernels
        values = _drive(reader, script)
    return {
        "values": hashlib.sha256(repr(values).encode()).hexdigest(),
        "metrics": dict(sorted(vars(ctx.metrics).items())),
        "counters": _counters(recorder.registry),
    }


def _cases():
    for name in COLUMNS:
        for script in SCRIPTS:
            for batch_kernels in (False, True):
                yield name, script, batch_kernels


CASES = list(_cases())


def _key(name, script, batch_kernels):
    engine = "batch" if batch_kernels else "reference"
    return f"{name}/{script}/{engine}"


@pytest.fixture(scope="module")
def files():
    return _files()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize(
    "name,script,batch_kernels", CASES, ids=[_key(*case) for case in CASES],
)
def test_light_books_match_golden(files, golden, name, script, batch_kernels):
    got = observe(files[name], name, script, batch_kernels)
    assert got == golden[_key(name, script, batch_kernels)]


def test_both_engines_keep_the_same_books(golden):
    for name, script, _ in CASES:
        assert golden[_key(name, script, False)] == golden[
            _key(name, script, True)
        ]


def test_every_entry_point_reads_what_read_value_reads(files):
    """Each script's values agree with one ``read_value`` walk over the
    whole column, so the golden pins right answers."""
    for name in COLUMNS:
        reader = _open(files[name], name, _context())
        whole = [reader.read_value() for _ in range(ROWS)]
        want = {
            "read_value": [whole[row] for row in SCRIPTS["read_value"]],
            "read_vector": [
                whole[start:start + n] for start, n in SCRIPTS["read_vector"]
            ],
            "read_selected": [
                {row: whole[row] for row in rows}
                for rows in SCRIPTS["read_selected"]
            ],
            "skip": [whole[row] for row in SCRIPTS["skip"]],
        }
        for script in SCRIPTS:
            got = _drive(_open(files[name], name, _context()), script)
            assert got == want[script], (name, script)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


if __name__ == "__main__":  # records the golden file
    files = _files()
    books = {
        _key(*case): observe(files[case[0]], *case) for case in CASES
    }
    with open(GOLDEN_PATH, "w") as f:
        json.dump(books, f, indent=1, sort_keys=True)
        f.write("\n")
