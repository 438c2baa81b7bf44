"""Golden books: what a column reader's ``skip`` charges, pinned exactly.

``skip(n)`` is where the skip-list and compressed-block layouts save
their I/O and CPU (Sections 5.1-5.2, Figure 6): a skip-list jumps whole
blocks off their headers, a compressed block no row is wanted from is
passed without inflating it, and values inside a block are hopped one
datum at a time.  Comparing one reader's skip with another's cannot
catch a drift they share, so this file pins the books themselves: for
raw readers over plain, two-level skip-list, DCSL and cblock-zlib
columns, with ``batch_kernels`` off and on, and a set of skip scripts
(each skip followed by a ``read_value``), the values read, every
``Metrics`` field, and the ``column.rows.*``, ``column.skiplist.*`` and
``column.cblock.*`` counters.

The scripts skip gaps of one row, gaps inside a bottom block, gaps that
end exactly on a block boundary, gaps over whole top blocks, gaps whose
bytes cross the reader's window edge, and gaps to the column's end.
The values in ``skip_books_golden.json`` were recorded once and are not
re-recorded: a failing case means a change moved a count or a charge.
"""

import hashlib
import json
import os
import random

import pytest

from repro.core.columnio import ColumnSpec, encode_column_file, open_column_reader
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce.types import TaskContext
from repro.obs import FlightRecorder
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel
from repro.util.buffers import ByteReader

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "skip_books_golden.json")

ROWS = 137  # not a multiple of any block size: the last blocks are short
WINDOW = 61  # bytes per stream read, so skips cross window edges
TOP, BOTTOM = 20, 5

SCHEMAS = {
    "long": Schema("long"),
    "string": Schema.string(),
    "array<long>": Schema.array(Schema("long")),
    "map<string>": Schema.map(Schema.string()),
    "map<long>": Schema.map(Schema("long")),
}
LAYOUTS = {
    "plain": ColumnSpec("plain"),
    "skiplist": ColumnSpec("skiplist", skip_sizes=(TOP, BOTTOM)),
    "dcsl": ColumnSpec("dcsl", skip_sizes=(TOP, BOTTOM)),
    "cblock_zlib": ColumnSpec("cblock", codec="zlib", block_bytes=48),
}
#: DCSL is a layout for map columns only
KINDS = {
    layout: [k for k in SCHEMAS if layout != "dcsl" or k.startswith("map")]
    for layout in LAYOUTS
}


def _values(kind, rng):
    def text():
        return "".join(rng.choice("abcé✓") for _ in range(rng.randrange(12)))

    def one():
        if kind == "long":
            return rng.choice([0, -1, 63, 64, 300, 2**40, -(2**62)])
        if kind == "string":
            return text()
        if kind == "array<long>":
            return [rng.randrange(-500, 500) for _ in range(rng.randrange(4))]
        keys = ["k%d" % i for i in range(6)] + ["", "é"]
        return {
            key: (text() if kind == "map<string>" else rng.randrange(-9, 10**6))
            for key in rng.sample(keys, rng.randrange(4))
        }

    return [one() for _ in range(ROWS)]


def _cblock_starts(payload):
    """The first row of each compressed block of a cblock column file."""
    reader = ByteReader(payload)
    reader.read_bytes(4)  # magic and format byte
    count = reader.read_varint()
    reader.read_string()  # codec
    starts, row = [], 0
    while row < count:
        starts.append(row)
        row += reader.read_varint()
        reader.read_varint()  # raw length
        reader.skip(reader.read_varint())
    return starts


def _scripts(starts):
    """Rows to read, in order, each reached by one ``skip``.  ``starts``
    are the column's block starts: its bottom skip-list blocks, or its
    compressed blocks."""
    b1, b2 = starts[1], starts[2]
    scripts = {
        "gaps_of_one": [1, 3, 5, 7, 9],
        "within_a_bottom_block": [b1 + 1, b1 + 4],
        "onto_block_boundaries": [2, b1, b2, TOP, 2 * TOP],
        "over_whole_top_blocks": [2 * TOP, 2 * TOP + 1 + 2 * TOP + 7],
        "across_a_window_edge": [3, 57, 58, 111],
        "to_the_end": [ROWS - 9, ROWS - 1],
    }
    return {name: sorted(set(rows)) for name, rows in scripts.items()}


def _files():
    rng = random.Random(7)
    files = {}
    for layout, spec in LAYOUTS.items():
        for kind in KINDS[layout]:
            payload = encode_column_file(
                SCHEMAS[kind], _values(kind, random.Random(rng.random())),
                spec,
            )
            starts = (
                _cblock_starts(payload) if spec.format == "cblock"
                else list(range(0, ROWS, BOTTOM))
            )
            files[layout, kind] = payload, starts
    return files


def _counters(registry):
    out = {}
    for name, labels, metric in registry:
        if name.startswith(("column.rows.", "column.skiplist.",
                            "column.cblock.")):
            out[name] = out.get(name, 0) + metric.value
    return dict(sorted(out.items()))


def observe(payload, kind, rows, batch_kernels):
    fs = FileSystem(ClusterConfig(
        num_nodes=1, replication=1, block_size=1 << 22,
        io_buffer_size=WINDOW,
    ))
    fs.write_file("/col", payload)
    recorder = FlightRecorder()
    with recorder.activate():
        ctx = TaskContext(node=0, cost=CpuCostModel(), io_buffer_size=WINDOW)
        stream = fs.open("/col", node=0, metrics=ctx.metrics)
        reader = open_column_reader(
            stream, SCHEMAS[kind], ctx, labels={"column": "c"}
        )
        reader.batch_kernels = batch_kernels
        values = []
        for row in rows:
            reader.skip(row - reader.next_index)
            values.append(reader.read_value())
    return {
        "values": hashlib.sha256(repr(values).encode()).hexdigest(),
        "metrics": dict(sorted(vars(ctx.metrics).items())),
        "counters": _counters(recorder.registry),
    }


def _cases():
    for layout in LAYOUTS:
        for kind in KINDS[layout]:
            for script in _scripts([0, 5, 10]):
                for batch_kernels in (False, True):
                    yield layout, kind, script, batch_kernels


CASES = list(_cases())


def _key(layout, kind, script, batch_kernels):
    engine = "batch" if batch_kernels else "reference"
    return f"{layout}/{kind}/{script}/{engine}"


@pytest.fixture(scope="module")
def files():
    return _files()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize(
    "layout,kind,script,batch_kernels", CASES,
    ids=[_key(*case) for case in CASES],
)
def test_skip_books_match_golden(
    files, golden, layout, kind, script, batch_kernels
):
    payload, starts = files[layout, kind]
    rows = _scripts(starts)[script]
    got = observe(payload, kind, rows, batch_kernels)
    assert got == golden[_key(layout, kind, script, batch_kernels)]


def test_both_engines_keep_the_same_books(golden):
    for layout, kind, script, _ in CASES:
        assert golden[_key(layout, kind, script, False)] == golden[
            _key(layout, kind, script, True)
        ]


def test_scripts_jump_blocks_and_pass_compressed_ones(golden):
    """The scripts reach what they are named for: skip-list jumps and
    compressed blocks passed whole."""
    for layout in ("skiplist", "dcsl"):
        books = golden[_key(layout, "map<string>", "over_whole_top_blocks",
                            True)]
        assert books["counters"]["column.skiplist.jumped_records"] >= 2 * TOP
    books = golden[_key("cblock_zlib", "string", "to_the_end", True)]
    assert books["counters"]["column.cblock.blocks_skipped_compressed"] > 1


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


if __name__ == "__main__":  # records the golden file
    files = _files()
    books = {}
    for case in CASES:
        layout, kind, script, batch_kernels = case
        payload, starts = files[layout, kind]
        books[_key(*case)] = observe(
            payload, kind, _scripts(starts)[script], batch_kernels
        )
    with open(GOLDEN_PATH, "w") as f:
        json.dump(books, f, indent=1, sort_keys=True)
        f.write("\n")
