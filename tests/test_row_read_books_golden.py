"""Golden books: what a row format's record read charges, pinned exactly.

SEQ records and RCFile column chunks are decoded by the compiled codec
plans of ``repro.serde.binary``, and the reference the differential
oracle compares them with decodes through the same plans, so a drift in
them lands on both legs.  This file pins the books themselves: for SEQ
with none / record / block compression and RCFile with and without
zlib, over the crawl schema and one fixed schema of every other shape
(doubles, booleans, a nested record, ``array<array<int>>``,
``map<map<string>>``, non-ASCII strings and strings of 128 bytes or
more, so length prefixes take two bytes), at I/O buffers of 61, 509 and
12288 bytes, it pins a digest of the records read, every ``Metrics``
field of every split, and the ``hdfs.*`` and ``codec.*`` registry
counters.  One truncated image per format pins the error its read
raises and the partial books at the raise.

The values in ``row_read_books_golden.json`` were recorded once and are
not re-recorded: a failing case means a change moved a count or a
charge.
"""

import hashlib
import json
import os
import random

import pytest

from repro.formats import rcfile, sequence_file
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce.types import TaskContext
from repro.obs import FlightRecorder
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel
from repro.workloads.crawl import crawl_records, crawl_schema

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "row_read_books_golden.json"
)

WINDOWS = (61, 509, 12288)
ROWS = 40
BLOCK_SIZE = 4096  # several splits per file, so readers resync


def mixed_schema() -> Schema:
    return Schema.record("Mixed", [
        ("id", Schema("long")),
        ("score", Schema("double")),
        ("flag", Schema("boolean")),
        ("name", Schema.string()),
        ("point", Schema.record("Point", [
            ("x", Schema.int_()), ("label", Schema.string()),
        ])),
        ("grid", Schema.array(Schema.array(Schema.int_()))),
        ("nested", Schema.map(Schema.map(Schema.string()))),
        ("tags", Schema.array(Schema.string())),
        ("attrs", Schema.map(Schema.string())),
        ("blob", Schema.bytes_()),
    ])


def _text(rng):
    alphabet = "abcxyz/._ é✓"
    n = rng.choice([0, 1, 5, 30, 127, 128, 200])
    return "".join(rng.choice(alphabet) for _ in range(n))


def _ascii(rng):
    return "".join(rng.choice("abc01") for _ in range(rng.randrange(8)))


def mixed_records(n, seed=5):
    rng = random.Random(seed)
    for i in range(n):
        yield {
            "id": rng.choice([0, -1, 63, 64, 8191, -(2**40), 2**62]),
            "score": rng.uniform(-1e6, 1e6),
            "flag": rng.random() < 0.5,
            "name": _text(rng),
            "point": {"x": rng.randrange(-300, 300), "label": _text(rng)},
            "grid": [
                [rng.randrange(-100, 100) for _ in range(rng.randrange(4))]
                for _ in range(rng.randrange(3))
            ],
            "nested": {
                _ascii(rng): {_ascii(rng): _text(rng)
                              for _ in range(rng.randrange(3))}
                for _ in range(rng.randrange(3))
            },
            # ASCII on most rows (a proven span), not on every one
            "tags": [
                _ascii(rng) if i % 3 else _text(rng)
                for _ in range(rng.randrange(4))
            ],
            "attrs": {
                _ascii(rng): _ascii(rng) if i % 4 else _text(rng)
                for _ in range(rng.randrange(5))
            },
            "blob": rng.randbytes(rng.choice([0, 3, 127, 130])),
        }


SCHEMAS = {
    "crawl": (crawl_schema, lambda: crawl_records(
        ROWS, content_bytes=160, seed=3
    )),
    "mixed": (mixed_schema, lambda: mixed_records(ROWS)),
}


def _seq(mode):
    def write(fs, path, schema, records):
        sequence_file.write_sequence_file(
            fs, path, schema, records, compression=mode, block_records=7,
            sync_interval=700,
        )
        return sequence_file.SequenceFileInputFormat(path)
    return write


def _rc(codec):
    def write(fs, path, schema, records):
        rcfile.write_rcfile(
            fs, path, schema, records, row_group_bytes=1500, codec=codec
        )
        return rcfile.RCFileInputFormat(path)
    return write


FORMATS = {
    "seq-none": _seq("none"),
    "seq-record": _seq("record"),
    "seq-block": _seq("block"),
    "rcfile-none": _rc(None),
    "rcfile-zlib": _rc("zlib"),
}


def _filesystem(window):
    return FileSystem(ClusterConfig(
        num_nodes=2, replication=1, block_size=BLOCK_SIZE,
        io_buffer_size=window,
    ))


def _counters(registry):
    out = {}
    for name, labels, metric in registry:
        if name.startswith(("hdfs.", "codec.")):
            key = ",".join([name, *(f"{k}={v}" for k, v in sorted(labels))])
            # a histogram by its count and sum
            value = getattr(metric, "value", None)
            out[key] = [metric.count, metric.total] if value is None else value
    return dict(sorted(out.items()))


def _digest(records):
    text = repr([sorted(r.to_dict().items()) for r in records])
    return hashlib.sha256(text.encode()).hexdigest()


def observe(fmt_name, schema_name, window, truncate=False):
    """Every split of one file read whole: the records' digest, each
    split's ``Metrics``, the counters and (for a truncated image) the
    error the read raised."""
    make_schema, make_records = SCHEMAS[schema_name]
    fs = _filesystem(window)
    fmt = FORMATS[fmt_name](fs, "/rows", make_schema(), make_records())
    if truncate:
        data = fs.read_file("/rows")
        fs.delete("/rows")
        fs.write_file("/rows", data[:len(data) * 3 // 5])
    recorder = FlightRecorder()
    records, books, raised = [], [], None
    with recorder.activate():
        for split in fmt.get_splits(fs, fs.cluster):
            ctx = TaskContext(
                node=0, cost=CpuCostModel(), io_buffer_size=window
            )
            try:
                for _, record in fmt.open_reader(fs, split, ctx):
                    records.append(record)
            except Exception as exc:  # noqa: BLE001 - the type is pinned
                raised = type(exc).__name__
            books.append(dict(sorted(vars(ctx.metrics).items())))
            if raised:
                break
    out = {
        "records": len(records),
        "digest": _digest(records),
        "metrics": books,
        "counters": _counters(recorder.registry),
    }
    if truncate:
        out["raised"] = raised
    return out


CASES = [
    (fmt, schema, window)
    for fmt in FORMATS for schema in SCHEMAS for window in WINDOWS
]
TRUNCATED = [(fmt, "mixed", 61) for fmt in FORMATS]


def _key(fmt, schema, window, truncate=False):
    return f"{fmt}/{schema}/{window}" + ("/truncated" if truncate else "")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize(
    "fmt,schema,window", CASES, ids=[_key(*case) for case in CASES]
)
def test_row_read_books_match_golden(golden, fmt, schema, window):
    assert observe(fmt, schema, window) == golden[_key(fmt, schema, window)]


@pytest.mark.parametrize(
    "fmt,schema,window", TRUNCATED,
    ids=[_key(*case, True) for case in TRUNCATED],
)
def test_truncated_books_match_golden(golden, fmt, schema, window):
    got = observe(fmt, schema, window, truncate=True)
    assert got == golden[_key(fmt, schema, window, True)]


def test_every_case_reads_every_record_and_truncation_raises(golden):
    for case in CASES:
        assert golden[_key(*case)]["records"] == ROWS, case
    for case in TRUNCATED:
        books = golden[_key(*case, True)]
        assert books["raised"] is not None, case
        assert books["records"] < ROWS, case


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(
        [_key(*case) for case in CASES]
        + [_key(*case, True) for case in TRUNCATED]
    )


if __name__ == "__main__":  # records the golden file
    books = {_key(*case): observe(*case) for case in CASES}
    for case in TRUNCATED:
        books[_key(*case, True)] = observe(*case, truncate=True)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(books, f, indent=1, sort_keys=True)
        f.write("\n")
