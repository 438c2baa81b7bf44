"""The column encoder against the per-datum codec, and the cuts made
from its offsets.

``encode_values`` writes a column's values into one buffer with their
end offsets; its per-kind loops hand any value they do not take to the
compiled plans.  These properties hold it to ``encode_datum``: the same
bytes, offsets that add up, and the same exception on a bad value.
``ColumnOutputFormat.write`` cuts split-directories from those offsets
a batch of records at a time; the cut must equal a per-record cut.
"""

from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import write_dataset
from repro.core.cif import column_record_count
from repro.core.cof import split_dirs_of
from repro.hdfs import ClusterConfig, FileSystem
from repro.serde.binary import _BATCH_RECORDS, encode_datum, encode_values
from repro.serde.record import Record
from repro.serde.schema import Schema
from repro.util.varint import _VARINT_LIMIT
from tests.conftest import micro_records, micro_schema
from tests.test_fuzz_schemas import FUZZ_SETTINGS, record_schema_strategy

#: the widest value a zig-zag varint holds, either sign
WIDEST = _VARINT_LIMIT // 2

_ints = st.one_of(
    st.integers(-70, 70),
    st.integers(-(2**20), 2**20),
    st.integers(-WIDEST - 2, WIDEST + 1),
    st.sampled_from([WIDEST - 1, -WIDEST, WIDEST, -WIDEST - 1, 8191, 8192]),
    st.booleans(),  # a bool is an int to the codec
)
_strings = st.one_of(
    st.text(max_size=20),  # non-ASCII included
    st.text(alphabet="aé", min_size=60, max_size=70),  # 128 bytes either side
    st.text(alphabet="ab", min_size=125, max_size=131),
)
#: values no schema kind takes, or not everywhere
_junk = st.sampled_from([
    None, 1.5, "x", b"x", [1], {"k": "v"}, {1: 2}, {"k": 1.5}, "\ud800",
    2**70, {"\ud800": 1}, {"k": 2**70},
])
_kinds = ["int", "long", "time", "double", "boolean", "string", "bytes"]


def _schemas():
    """Every kind: primitives, maps of integers, and the fuzz suite's
    arrays, maps and nested records."""
    return st.one_of(
        st.sampled_from(_kinds).map(Schema),
        st.sampled_from(["int", "long", "time", "string"]).map(
            lambda kind: Schema.map(Schema(kind))
        ),
        record_schema_strategy(3).flatmap(
            lambda r: st.sampled_from([r] + [f.schema for f in r.fields])
        ),
    )


def value_for(schema: Schema, draw, junk: bool):
    if junk and draw(st.integers(0, 15)) == 0:
        return draw(_junk)
    kind = schema.kind
    if kind in ("int", "long", "time"):
        return draw(_ints)
    if kind == "double":
        return draw(st.floats(allow_nan=False))
    if kind == "boolean":
        return draw(st.booleans())
    if kind == "string":
        return draw(_strings)
    if kind == "bytes":
        return draw(st.binary(max_size=140))
    if kind == "array":
        return [value_for(schema.items, draw, junk)
                for _ in range(draw(st.integers(0, 3)))]
    if kind == "map":
        return {
            draw(_strings): value_for(schema.values, draw, junk)
            for _ in range(draw(st.integers(0, 4)))
        }
    record = Record(schema)
    for field in schema.fields:
        record.put(field.name, value_for(field.schema, draw, junk))
    return record


def reference(schema, values):
    """``encode_datum`` per value: the joined bytes and the end offsets,
    or the first value's exception."""
    blobs = []
    for value in values:
        try:
            blobs.append(encode_datum(schema, value))
        except Exception as exc:  # noqa: BLE001 - compared below
            return exc
    return b"".join(blobs), list(accumulate(map(len, blobs), initial=0))


class TestEncodeValues:
    @FUZZ_SETTINGS
    @given(st.data(), _schemas(), st.booleans())
    def test_equals_encode_datum_per_value(self, data, schema, junk):
        values = [
            value_for(schema, data.draw, junk)
            for _ in range(data.draw(st.integers(0, 12)))
        ]
        expected = reference(schema, values)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as raised:
                encode_values(schema, values)
            assert str(raised.value) == str(expected)
        else:
            data_, ends = encode_values(schema, values)
            assert (bytes(data_), ends) == expected

    @pytest.mark.parametrize("schema,values", [
        (Schema.string(), []),
        (Schema.int_(), []),
        (Schema.map(Schema.int_()), [{}, {}]),
        (Schema.string(), ["ascii", "é", "x" * 127, "y" * 128]),
        (Schema.long_(), [0, -1, True, WIDEST - 1, -WIDEST]),
        (Schema.map(Schema.long_()), [{"k": False, "é": -3}]),
        (Schema.map(Schema.int_()), [{"k" * 127: 1}, {"é" * 64: 2, "x": 3}]),
        (Schema.map(Schema.int_()), [{str(i): i for i in range(130)}]),
    ])
    def test_edges(self, schema, values):
        data_, ends = encode_values(schema, values)
        assert (bytes(data_), ends) == reference(schema, values)

    @pytest.mark.parametrize("schema,values", [
        (Schema.string(), ["ok", 3]),
        (Schema.string(), ["ok", "\ud800"]),
        (Schema.int_(), [1, 2.5]),
        (Schema.int_(), [1, WIDEST]),
        (Schema.time(), [-WIDEST - 1]),
        (Schema.map(Schema.int_()), [{"a": 1}, {"b": "c"}]),
        (Schema.map(Schema.int_()), [{"a": 1}, {2: 1}]),
        (Schema.map(Schema.int_()), [{"a": 1}, ["a"]]),
        (Schema.map(Schema.int_()), [{"a": WIDEST}]),
    ])
    def test_a_bad_value_raises_what_encode_datum_raises(self, schema, values):
        expected = reference(schema, values)
        assert isinstance(expected, Exception)
        with pytest.raises(type(expected)) as raised:
            encode_values(schema, values)
        assert str(raised.value) == str(expected)


def reference_cut(schema, records, split_bytes):
    """Records per split-directory, cut record by record."""
    counts, rows, held = [], 0, 0
    for record in records:
        rows += 1
        held += sum(
            len(encode_datum(f.schema, record.get(f.name)))
            for f in schema.fields
        )
        if held >= split_bytes:
            counts.append(rows)
            rows = held = 0
    if rows or not counts:
        counts.append(rows)
    return counts


def split_counts(fs, schema, dataset="/d"):
    return [
        column_record_count(fs, f"{d}/{schema.fields[0].name}")
        for d in split_dirs_of(fs, dataset)
    ]


def new_fs():
    return FileSystem(ClusterConfig(num_nodes=4, block_size=64 * 1024))


class TestSplitCut:
    @FUZZ_SETTINGS
    @given(st.integers(0, 700), st.integers(1, 60_000))
    def test_batches_cut_where_records_do(self, n, split_bytes):
        schema = micro_schema()
        records = micro_records(schema, n)
        fs = new_fs()
        written = write_dataset(
            fs, "/d", schema, (r for r in records), split_bytes=split_bytes
        )
        counts = split_counts(fs, schema)
        assert counts == reference_cut(schema, records, split_bytes)
        assert written == len(counts)

    def test_a_bad_value_fails_before_its_batch_is_written(self):
        """A record that cannot be encoded raises before any split of its
        batch is written: the split-directories on disk are those closed
        by earlier batches, fewer than the records before it fill."""
        schema = micro_schema()
        records = micro_records(schema, 400)
        bad = 300
        records[bad].put("int3", "not an int")
        with pytest.raises(Exception) as expected:
            encode_datum(schema.field("int3").schema, "not an int")
        fs = new_fs()
        with pytest.raises(type(expected.value)) as raised:
            write_dataset(fs, "/d", schema, iter(records), split_bytes=2000)
        assert str(raised.value) == str(expected.value)
        closed = reference_cut(schema, records[:bad], 2000)[:-1]
        batch_start = bad - bad % _BATCH_RECORDS
        earlier = [
            c for c, end in zip(closed, accumulate(closed))
            if end <= batch_start
        ]
        assert split_counts(fs, schema) == earlier
        assert 0 < len(earlier) < len(closed)
