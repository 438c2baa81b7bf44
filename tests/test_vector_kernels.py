"""Property tests for the columnar batch kernels (`repro.core.vector`).

Three layers get the Hypothesis treatment:

- **selection algebra** — intersect/union/complement over ascending
  row-index selections must behave like set operations that preserve
  ascending order;
- **filter-without-decode** — the RLE/string-buffer compare and
  contains kernels must select exactly the rows a decode-then-filter
  reference loop selects, for arbitrary data (including the
  empty/single-row/all-null boundaries);
- **batched byte decoding** — `repro.serde.vecdecode` reading k values
  from a raw buffer must yield exactly what k scalar reads yield, at
  the same final position.

Plus the pinned comparison-semantics regressions: mixed int/float at
the +-2**63 boundary and IEEE-754 NaN, which `repro.query.expr` defines
in one place for both engines.
"""

import dataclasses
import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.dictionary import KeyDictionary
from repro.core.vector import (
    NumericVector,
    ObjectVector,
    RunsVector,
    StringVector,
    complement_selection,
    full_selection,
    gather,
    intersect_selections,
    kernel_compare,
    kernel_contains,
    union_selections,
)
from repro.core.columnio import (
    ColumnSpec,
    DcslColumnReader,
    SkipListColumnReader,
    encode_column_file,
    open_column_reader,
)
from repro.hdfs import ClusterConfig, FileSystem
from repro.hdfs.streams import StreamByteReader
from repro.mapreduce.types import TaskContext
from repro.query.expr import compare_values
from repro.serde import vecdecode
from repro.serde.binary import BinaryDecoder, BinaryEncoder
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader, ByteWriter
from repro.util.varint import VarintError

SYMBOLS = ("<", "<=", ">", ">=", "==", "!=")

# -- strategies -------------------------------------------------------------

selections = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.lists(
        st.integers(min_value=0, max_value=39), max_size=n, unique=True
    ).map(sorted)
)

texts = st.text(max_size=8)


def ascending(sel):
    return all(a < b for a, b in zip(sel, sel[1:]))


# -- selection algebra ------------------------------------------------------


@given(selections, selections)
def test_intersect_is_ascending_set_intersection(a, b):
    got = intersect_selections(a, b)
    assert got == sorted(set(a) & set(b))
    assert ascending(got)


@given(selections, selections)
def test_union_is_ascending_set_union(a, b):
    got = union_selections(a, b)
    assert got == sorted(set(a) | set(b))
    assert ascending(got)


@given(selections, selections)
def test_complement_partitions_the_universe(universe, survivors):
    dead = complement_selection(universe, survivors)
    assert ascending(dead)
    assert set(dead) | (set(survivors) & set(universe)) == set(universe)
    assert not set(dead) & set(survivors)


@given(selections)
def test_selection_identities(sel):
    assert intersect_selections(sel, sel) == list(sel)
    assert union_selections(sel, sel) == list(sel)
    assert complement_selection(sel, sel) == []
    assert complement_selection(sel, []) == list(sel)
    assert intersect_selections(sel, []) == []


def test_full_selection_covers_every_row_and_zero_rows():
    assert list(full_selection(0)) == []
    assert list(full_selection(1)) == [0]
    assert list(full_selection(5)) == [0, 1, 2, 3, 4]


# -- filter-without-decode == decode-then-filter ----------------------------


def reference_filter(vector, symbol, literal, sel):
    return [i for i in sel if compare_values(symbol, vector.value(i), literal)]


@given(
    st.lists(st.tuples(texts, st.integers(min_value=1, max_value=5)),
             min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=60)
def test_rle_kernels_evaluate_once_per_run_not_per_row(runs, data):
    values = [v for v, _ in runs]
    starts, pos = [], 0
    for _, width in runs:
        starts.append(pos)
        pos += width
    vector = RunsVector(values, starts, pos)
    sel = [i for i in range(pos) if data.draw(st.booleans())]
    symbol = data.draw(st.sampled_from(SYMBOLS))
    literal = data.draw(texts)
    assert kernel_compare(vector, symbol, literal, sel) == reference_filter(
        vector, symbol, literal, sel
    )
    needle = data.draw(st.text(max_size=3))
    assert kernel_contains(vector, needle, sel, None) == [
        i for i in sel if needle in vector.value(i)
    ]


@given(st.lists(texts, max_size=12), st.text(max_size=3), st.data())
@settings(max_examples=80)
def test_string_buffer_contains_matches_per_row_scan(chunks_text, needle,
                                                     data):
    vector = StringVector.from_chunks(
        [t.encode("utf-8") for t in chunks_text]
    )
    sel = [i for i in range(len(chunks_text)) if data.draw(st.booleans())]
    assert kernel_contains(vector, needle, sel, None) == [
        i for i in sel if needle in chunks_text[i]
    ]


@given(st.lists(texts, max_size=12), st.data())
@settings(max_examples=60)
def test_string_buffer_compare_matches_python_str_order(chunks_text, data):
    vector = StringVector.from_chunks(
        [t.encode("utf-8") for t in chunks_text]
    )
    sel = list(range(len(chunks_text)))
    symbol = data.draw(st.sampled_from(SYMBOLS))
    literal = data.draw(texts)
    assert kernel_compare(vector, symbol, literal, sel) == [
        i for i in sel if compare_values(symbol, chunks_text[i], literal)
    ]


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62),
                max_size=20),
       st.data())
@settings(max_examples=60)
def test_numeric_buffer_compare_matches_reference(values, data):
    vector = NumericVector.build(values)
    sel = [i for i in range(len(values)) if data.draw(st.booleans())]
    symbol = data.draw(st.sampled_from(SYMBOLS))
    literal = data.draw(st.integers(min_value=-(2**62), max_value=2**62))
    assert kernel_compare(vector, symbol, literal, sel) == reference_filter(
        vector, symbol, literal, sel
    )


def test_boundary_vectors_empty_all_null_single_row():
    empty = ObjectVector([])
    assert gather(empty, []) == []
    assert kernel_compare(empty, "==", "x", []) == []

    all_null = ObjectVector([None, None, None])
    assert [all_null.value(i) for i in range(3)] == [None, None, None]
    for symbol in ("<", "<=", ">", ">="):
        assert kernel_compare(all_null, symbol, "only", [0, 1, 2]) == []
    assert kernel_compare(all_null, "!=", "only", [0, 1, 2]) == [0, 1, 2]

    single = StringVector.from_chunks([b"lone"])
    assert kernel_contains(single, "one", [0], None) == [0]
    assert kernel_compare(single, "==", "lone", [0]) == [0]


# -- pinned comparison semantics (repro.query.expr) -------------------------


class TestPinnedComparisonSemantics:
    """Mixed int/float and NaN boundaries, identical in both engines."""

    def test_int_float_compared_exactly_at_2_63(self):
        # float(2**63 - 1) rounds UP to 2.0**63, so coercing through
        # float() would call them equal; the pinned semantics compare
        # exactly (as rationals) and must keep the strict ordering.
        assert float(2**63 - 1) == 2.0**63  # the trap
        assert compare_values("<", 2**63 - 1, 2.0**63)
        assert not compare_values("==", 2**63 - 1, 2.0**63)
        assert compare_values(">", -(2**63) + 1, -(2.0**63))
        assert not compare_values("==", -(2**63) + 1, -(2.0**63))
        assert compare_values("==", 2**63, 2.0**63)
        assert compare_values("==", -(2**63), -(2.0**63))

    def test_nan_is_unordered_and_unequal(self):
        nan = float("nan")
        for symbol in ("<", "<=", ">", ">=", "=="):
            assert not compare_values(symbol, nan, nan)
            assert not compare_values(symbol, nan, 0.0)
            assert not compare_values(symbol, 0.0, nan)
        assert compare_values("!=", nan, nan)
        assert compare_values("!=", nan, 0.0)

    def test_null_never_satisfies_ordering(self):
        for symbol in ("<", "<=", ">", ">="):
            assert not compare_values(symbol, None, 1)
            assert not compare_values(symbol, 1, None)
        assert compare_values("==", None, None)
        assert compare_values("!=", None, 1)

    def test_kernels_agree_on_the_boundary_values(self):
        values = [2**63, 2**63 - 1, -(2**63), 0]
        vector = NumericVector.build(values)
        sel = list(range(len(values)))
        for symbol in SYMBOLS:
            assert kernel_compare(vector, symbol, 2.0**63, sel) == [
                i for i in sel
                if compare_values(symbol, values[i], 2.0**63)
            ]

    @given(st.floats(allow_nan=True, allow_infinity=True),
           st.integers(min_value=-(2**64), max_value=2**64))
    def test_compare_values_matches_python_on_non_null(self, f, n):
        import operator

        ops = {
            "<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
        }
        for symbol, op in ops.items():
            assert compare_values(symbol, n, f) == op(n, f)
            assert compare_values(symbol, f, n) == op(f, n)


# -- batched byte decoding == k scalar reads --------------------------------


ints64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _take(kind):
    """A gather's window loop over ``k`` datums of ``kind``, charged to a
    ``Metrics`` of its own."""
    def take(reader, k):
        gather = vecdecode.Gather(
            reader, Schema(kind), CpuCostModel(), Metrics()
        )
        gather.take(k)
        return gather.values

    return take


class _KernelLog:
    """A profiling sink that lists the kernel calls counted."""

    def __init__(self):
        self.kernels = []

    def kernel(self, name):
        self.kernels.append(name)

    def fallback(self, reader, kernel):
        pass


def _kernel_calls(run):
    """The kernel calls ``run()`` counts, in order."""
    log, sink = _KernelLog(), vecdecode.profile_sink()
    vecdecode.set_profile_sink(log)
    try:
        run()
    finally:
        vecdecode.set_profile_sink(sink)
    return log.kernels


def _hop(schema, k, skip_one=None, kernel="hop"):
    """A hop-only gather over ``k`` datums of ``schema`` (a DCSL value
    stream with ``skip_one``), charged to ``ctx``; it must count one
    call, of the ``kernel`` window loop, not pass them one by one."""
    def hop(reader, ctx):
        gather = vecdecode.Gather(
            reader, schema, ctx.cost, ctx.metrics, None, None, skip_one,
        )
        assert _kernel_calls(lambda: gather.steps((k, 0))) == [kernel], (
            "the gather declined to hop in bulk"
        )

    return hop


def _two_readers(build):
    """Encode once; return two independent readers over the bytes."""
    writer = ByteWriter()
    build(writer)
    payload = writer.getvalue()
    return ByteReader(payload), ByteReader(payload)


@given(st.lists(ints64, max_size=30))
@settings(max_examples=60)
def test_read_zigzags_equals_scalar_reads(values):
    batch, scalar = _two_readers(
        lambda w: [w.write_zigzag(v) for v in values]
    )
    assert _take("long")(batch, len(values)) == [
        scalar.read_zigzag() for _ in values
    ]
    assert batch.offset == scalar.offset


@given(st.lists(st.binary(max_size=20), max_size=20))
@settings(max_examples=60)
def test_read_chunks_equals_scalar_len_prefixed_reads(blobs):
    batch, scalar = _two_readers(
        lambda w: [w.write_len_prefixed(b) for b in blobs]
    )
    got = _take("bytes")(batch, len(blobs))
    want = [scalar.read_bytes(scalar.read_varint()) for _ in blobs]
    assert got == want
    assert batch.offset == scalar.offset


@given(st.lists(
    st.floats(allow_nan=False, allow_infinity=True), max_size=20
))
@settings(max_examples=60)
def test_read_doubles_equals_scalar_reads(values):
    batch, scalar = _two_readers(
        lambda w: [w.write_double(v) for v in values]
    )
    assert _take("double")(batch, len(values)) == [
        scalar.read_double() for _ in values
    ]
    assert batch.offset == scalar.offset


@given(st.lists(st.booleans(), max_size=20))
@settings(max_examples=60)
def test_read_booleans_equals_scalar_reads(values):
    batch, scalar = _two_readers(
        lambda w: [w.write_byte(1 if v else 0) for v in values]
    )
    assert _take("boolean")(batch, len(values)) == [
        scalar.read_byte() != 0 for _ in values
    ]
    assert batch.offset == scalar.offset


@given(st.lists(ints64, min_size=1, max_size=30))
def test_hop_varints_lands_exactly_past_k_varints(values):
    batch, scalar = _two_readers(
        # the trailing byte is what a kernel that over-hops would eat
        lambda w: [w.write_zigzag(v) for v in values] + [w.write_byte(0xFF)]
    )
    ctx = TaskContext(node=0, cost=CpuCostModel(), io_buffer_size=4096)
    _hop(Schema.long_(), len(values))(batch, ctx)
    for _ in values:
        scalar.read_zigzag()
    assert batch.offset == scalar.offset


def test_varint_width_matches_encoder():
    # A skipped string charges its prefix + payload bytes, so a run that
    # crosses every prefix width must charge what k skip_datum calls do.
    blobs = ["x" * n for n in (0, 1, 127, 128, 16383, 16384, 70000)]
    batch, scalar = _two_readers(
        lambda w: [w.write_string(blob) for blob in blobs]
    )
    schema, cost = Schema.string(), CpuCostModel()
    ctx, want = TaskContext(node=0, cost=cost, io_buffer_size=4096), Metrics()
    _hop(schema, len(blobs))(batch, ctx)
    decoder = BinaryDecoder(scalar, cost, want)
    for _ in blobs:
        decoder.skip_datum(schema)
    assert batch.offset == scalar.offset == len(scalar)
    assert ctx.metrics.cpu_ticks == want.cpu_ticks


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("layout", ["plain", "skiplist", "dcsl", "cblock"])
def test_a_hop_only_gather_counts_one_kernel_call_the_hop(layout, batched):
    """A skip is a gather with no rows taken: batched, it counts the hop
    kernel once, however many blocks it crosses, and no take kernel;
    per-datum (the reference), none."""
    schema = Schema.map(Schema.string())
    spec = {
        "plain": ColumnSpec("plain"),
        "skiplist": ColumnSpec("skiplist", skip_sizes=(20, 5)),
        "dcsl": ColumnSpec("dcsl", skip_sizes=(20, 5)),
        "cblock": ColumnSpec("cblock", codec="zlib", block_bytes=64),
    }[layout]
    maps = [{"k": "v" * (i % 9), "k2": str(i)} for i in range(90)]
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/col", encode_column_file(schema, maps, spec))

    def skip(reader, ctx):
        column = open_column_reader(reader._stream, schema, ctx)
        column.batch_kernels = batched
        # a partial top block, whole ones, a partial one
        kernels = _kernel_calls(lambda: column.skip(48))
        assert column.read_value() == maps[48]
        return kernels

    kernels = _run_at_window(fs, "/col", 61, skip)[0]
    hop = "hop_dcsl" if layout == "dcsl" else "hop"
    assert kernels == ([hop] if batched else [])


# -- window edges: every kernel x every truncation point --------------------
#
# A kernel takes whole datums off the buffered window and hands the one
# that does not fit to the per-datum decoder.  So wherever the window
# ends — every offset of a fixed encoded run in turn — the kernel and
# the per-datum walk must agree on the values, the final offset, the
# Metrics, and the stream reads they cause.

_EDGE_INTS = [
    0, -1, 63, 64, -65, 300, 2**31, -(2**63), 2**63 - 1, 7, 8191, -8192,
]
_EDGE_TEXTS = [
    "", "a", "héllo ✓", "x" * 130, "\x00", "urn:cnn.com/2011", "", "yz",
]
_EDGE_VALUES = {
    "int": _EDGE_INTS[:7],
    "long": _EDGE_INTS,
    "double": [0.0, -1.5, 1e300, 3.141592653589793, float("inf")],
    "boolean": [True, False, False, True, True],
    "string": _EDGE_TEXTS,
    "bytes": [t.encode("utf-8") for t in _EDGE_TEXTS],
}
_EDGE_KEYS = ["", "k", "anchor", "é" * 70, "k2"]


def _edge_datums(schema):
    """A fixed run of datums for ``schema`` (primitive, or a map/array
    of primitives) that mixes empty, one-byte and multi-byte encodings."""
    if schema.kind == "map":
        values = _EDGE_VALUES[schema.values.kind]
        return [{}] + [
            {key: values[(i + j) % len(values)]
             for j, key in enumerate(_EDGE_KEYS[:i])}
            for i in (1, 3, 5, 0, 2)
        ]
    if schema.kind == "array":
        values = _EDGE_VALUES[schema.items.kind]
        return [[], values[:1], values, [], values[1:4]]
    return _EDGE_VALUES[schema.kind]


def _datum_run(schema):
    datums = _edge_datums(schema)
    encoder = BinaryEncoder()
    for datum in datums:
        encoder.write_datum(schema, datum)
    return encoder.getvalue(), len(datums)


def _charged_reads(kind, wanted=None):
    """A gather's take of ``k`` datums of ``kind`` charged to ``ctx`` as
    it goes (with ``wanted``, a :data:`~repro.serde.vecdecode.LENGTHS`
    read, its values measured back), against ``k`` charged
    ``read_datum`` calls."""
    schema = Schema(kind)
    payload, k = _datum_run(schema)

    def batch(reader, ctx):
        gather = vecdecode.Gather(reader, schema, ctx.cost, ctx.metrics, wanted)
        gather.take(k)
        if wanted is not None:
            return [
                v if type(v) is int else len(str(v, "utf-8"))
                for v in gather.values
            ]
        if kind == "string":
            return [str(v, "utf-8") for v in gather.values]
        return gather.values

    def scalar(reader, ctx):
        decoder = BinaryDecoder(reader, ctx.cost, ctx.metrics)
        values = [decoder.read_datum(schema) for _ in range(k)]
        return values if wanted is None else [len(v) for v in values]

    return payload, batch, scalar


def _picked(maps, wanted, projected=False):
    """Each map's value at each ``wanted`` key, as ``{full decode}.get(k)``
    gives it (the maps themselves without ``wanted``).  A ``projected``
    map must hold the wanted keys only."""
    if wanted is None:
        return maps
    if projected:
        assert all(set(m) <= set(wanted) for m in maps), maps
    return [tuple(m.get(key) for key in wanted) for m in maps]


def _read_maps(reader, schema, k, cost, metrics, keys=None, read_one=None,
               wanted=None):
    """``k`` map datums through one gather's map take, as a column
    read takes them: DCSL key ids into ``keys`` with ``read_one`` the
    per-datum decode, each map cut down to ``wanted`` if given."""
    gather = vecdecode.Gather(
        reader, schema, cost, metrics, wanted,
        read_one and (lambda _: read_one()),
    )
    if keys is not None:
        gather.use_keys(keys)
    gather.take(k)
    return gather.values


def _map_walks(schema, k, column=None, wanted=None):
    """The map read kernel and the per-datum reference over ``k`` datums
    of ``schema``, or with ``column`` (a DCSL reader over them) that
    reader's kernel run and its per-datum decode.  With ``wanted`` the
    kernel reads key-projected and both walks give ``_picked`` values."""
    if column is None:
        def batch(reader, ctx):
            return _picked(_read_maps(
                reader, schema, k, ctx.cost, ctx.metrics, wanted=wanted
            ), wanted, projected=True)

        def scalar(reader, ctx):
            decoder = BinaryDecoder(reader, ctx.cost, ctx.metrics)
            return _picked(
                [decoder.read_datum(schema) for _ in range(k)], wanted
            )
    else:
        def batch(reader, ctx):
            col = column(reader, ctx)
            return _picked(_read_maps(
                reader, col.field_schema, k, ctx.cost, ctx.metrics,
                col.dictionary.keys, col._decode_one_value, wanted=wanted,
            ), wanted, projected=True)

        def scalar(reader, ctx):
            col = column(reader, ctx)
            return _picked(
                [col._decode_one_value() for _ in range(k)], wanted
            )

    return batch, scalar


#: present, absent, empty and non-ASCII keys, for a plain and a DCSL run
_WANTED = ("k2", "", "é" * 70, "absent")
_DCSL_WANTED = ("key200", "", "é" * 70, "absent")


def _map_reads(kind, wanted=None):
    schema = Schema.map(values=Schema(kind))
    payload, k = _datum_run(schema)
    return (payload, *_map_walks(schema, k, wanted=wanted))


def _skips(schema):
    payload, k = _datum_run(schema)
    payload += b"\x7f"  # what an over-hop would eat

    def scalar(reader, ctx):
        decoder = BinaryDecoder(reader, ctx.cost, ctx.metrics)
        for _ in range(k):
            decoder.skip_datum(schema)

    return payload, _hop(schema, k), scalar


def _dcsl_run(kind):
    """A DCSL value stream of map datums (keys are dictionary ids, some
    of them two-byte varints) and a column reader over it, its block
    dictionary already read."""
    schema = Schema.map(values=Schema(kind))
    datums = _edge_datums(schema)
    writer = ByteWriter()
    for datum in datums:
        writer.write_varint(len(datum))
        for key_id, value in enumerate(datum.values()):
            writer.write_varint(key_id * 50)
            BinaryEncoder(writer).write_datum(schema.values, value)
    writer.write_byte(0x7F)
    keys = [f"key{i}" for i in range(201)]
    keys[50], keys[150] = "", "é" * 70
    return writer.getvalue(), len(datums), _dcsl_column(schema, keys)


def _dcsl_column(schema, keys):
    def column(reader, ctx):
        col = DcslColumnReader(reader, schema, 1000, ctx, (100, 10))
        col.dictionary = KeyDictionary(keys)
        return col

    return column


def _dcsl_skips(kind):
    payload, k, column = _dcsl_run(kind)

    def scalar(reader, ctx):
        col = column(reader, ctx)
        for _ in range(k):
            col._skip_one_value()

    def batch(reader, ctx):
        col = column(reader, ctx)
        _hop(
            col.field_schema, k, lambda _: col._skip_one_value(), "hop_dcsl"
        )(reader, ctx)

    return payload, batch, scalar


def _dcsl_reads(kind, wanted=None):
    payload, k, column = _dcsl_run(kind)
    return (payload, *_map_walks(None, k, column, wanted))


def _container_reads(schema, datums):
    """``batch_decode_values`` over a container with no kernel of its
    own, against ``k`` charged ``read_datum`` calls."""
    encoder = BinaryEncoder()
    for datum in datums:
        encoder.write_datum(schema, datum)
    k = len(datums)

    def scalar(reader, ctx):
        decoder = BinaryDecoder(reader, ctx.cost, ctx.metrics)
        return "obj", [decoder.read_datum(schema) for _ in range(k)]

    return (
        encoder.getvalue(),
        lambda reader, ctx: vecdecode.batch_decode_values(
            reader, schema, k, ctx
        ),
        scalar,
    )


_POINT = Schema.record("point", [
    ("x", Schema("long")), ("tag", Schema.string()),
    ("attrs", Schema.map(Schema.string())),
])
_POINTS = [
    {"x": x, "tag": tag, "attrs": {key: tag for key in _EDGE_KEYS[:n]}}
    for n, (x, tag) in enumerate(zip(_EDGE_INTS[:5], _EDGE_TEXTS[1:6]))
]
_LONGS = Schema.array(Schema("long"))
#: every container kind the value kernels leave to ``read_datum``
_CONTAINERS = {
    "array": (_LONGS, _edge_datums(_LONGS)),
    "record": (_POINT, _POINTS),
    "map-of-record": (Schema.map(_POINT), [
        {}, {"a": _POINTS[0]}, {"é": _POINTS[3], "": _POINTS[4]},
    ]),
}

_PRIMS = ("int", "long", "double", "boolean", "string", "bytes")
_SKIP_SCHEMAS = (
    [Schema(kind) for kind in _PRIMS]
    + [Schema.map(values=Schema(kind)) for kind in _PRIMS]
    + [Schema.array(items=Schema(kind)) for kind in _PRIMS]
)
_EDGE_CASES = {
    "read_zigzags": partial(_charged_reads, "long"),
    "read_chunks": partial(_charged_reads, "bytes"),
    "read_chunks[string]": partial(_charged_reads, "string"),
    "read_doubles": partial(_charged_reads, "double"),
    "read_booleans": partial(_charged_reads, "boolean"),
    **{f"read_lengths[{kind}]": partial(
        _charged_reads, kind, vecdecode.LENGTHS
    ) for kind in ("string", "bytes")},
    **{f"read_maps[{kind}]": partial(_map_reads, kind) for kind in _PRIMS},
    **{f"read_maps[dcsl,{kind}]": partial(_dcsl_reads, kind)
       for kind in _PRIMS},
    **{f"read_maps[{kind},keys]": partial(_map_reads, kind, _WANTED)
       for kind in _PRIMS},
    **{f"read_maps[dcsl,{kind},keys]": partial(
        _dcsl_reads, kind, _DCSL_WANTED
    ) for kind in _PRIMS},
    # the hop cases keep their ids from the kernels they were written
    # against, ``skip_batch`` and ``skip_dcsl_batch``
    **{f"skip_batch[{schema.to_json()}]": partial(_skips, schema)
       for schema in _SKIP_SCHEMAS},
    **{f"skip_dcsl_batch[{kind}]": partial(_dcsl_skips, kind)
       for kind in _PRIMS},
    **{f"batch_decode_values[{name}]": partial(_container_reads, *case)
       for name, case in _CONTAINERS.items()},
}


def _run_at_window(fs, path, window, walk, raises=()):
    """``walk`` a reader over ``path`` whose windows are ``window``
    bytes; what it returned (or the type of the ``raises`` error it
    raised) plus everything it left behind."""
    ctx = TaskContext(node=0, cost=CpuCostModel(), io_buffer_size=window)
    stream = fs.open(path, node=0, metrics=ctx.metrics, buffer_size=window)
    reads, read = [], stream.read

    def logged_read(n=-1):
        reads.append((stream.tell(), n))
        return read(n)

    stream.read = logged_read
    reader = StreamByteReader(stream)
    try:
        values = walk(reader, ctx)
    except raises as error:
        values = type(error)
    return values, reader.offset, dataclasses.asdict(ctx.metrics), reads


@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_kernel_equals_per_datum_path_at_every_window_edge(name):
    payload, batch, scalar = _EDGE_CASES[name]()
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/run", payload)
    for window in range(1, len(payload) + 1):
        got = _run_at_window(fs, "/run", window, batch)
        want = _run_at_window(fs, "/run", window, scalar)
        assert got == want, f"window={window}"
    # ... and a run cut short ends where the per-datum walk ends it
    fs.write_file("/cut", payload[:-2])
    for window in (7, len(payload)):
        for walk in (batch, scalar):
            with pytest.raises(EOFError):
                _run_at_window(fs, "/cut", window, walk)


# -- a map that does not decode --------------------------------------------
#
# A read kernel leaves a map it cannot decode to the hand-off, as it does
# one that runs past the window, so the per-datum path raises, having
# charged exactly what the reference has charged by then.


def _undecodable_maps(layout, value_kind, bad, wanted=None):
    """Three one-entry maps whose third has a key (``bad="key"``) or a
    string value (``"value"``) that is not UTF-8, or a DCSL key id past
    the block dictionary (``"id"``); and the walks that read them, all
    of each map or (``wanted``) a key the third map lacks."""
    schema = Schema.map(values=Schema(value_kind))
    writer = ByteWriter()
    for i in range(3):
        spoilt = i == 2
        writer.write_varint(1)
        if layout == "dcsl":
            writer.write_varint(9 if spoilt and bad == "id" else i)
        else:
            writer.write_len_prefixed(
                b"\xff\xfe" if spoilt and bad == "key" else b"k%d" % i
            )
        if value_kind == "string":
            writer.write_len_prefixed(
                b"v\xc3(" if spoilt and bad == "value" else b"v"
            )
        else:
            writer.write_zigzag(i - 1)
    column = None
    if layout == "dcsl":
        column = _dcsl_column(schema, ["k0", "k1", "k2"])
    return writer.getvalue(), *_map_walks(schema, 3, column, wanted)


_UNDECODABLE = [
    ("plain", "int", "key", UnicodeDecodeError),
    ("plain", "string", "key", UnicodeDecodeError),
    ("plain", "string", "value", UnicodeDecodeError),
    ("dcsl", "string", "value", UnicodeDecodeError),
    ("dcsl", "int", "id", IndexError),
]


@pytest.mark.parametrize("layout, value_kind, bad, error", _UNDECODABLE)
def test_an_undecodable_map_raises_with_the_reference_charges(
    layout, value_kind, bad, error
):
    _raises_as_the_reference(layout, value_kind, bad, error)


@pytest.mark.parametrize("layout, value_kind, bad, error", _UNDECODABLE)
def test_a_key_projected_read_raises_where_the_whole_map_does(
    layout, value_kind, bad, error
):
    """The bad key or value is one the projection does not want, and
    the walk still stops at that map, so the hand-off raises."""
    _raises_as_the_reference(layout, value_kind, bad, error, ("k0",))


def _raises_as_the_reference(layout, value_kind, bad, error, wanted=None):
    payload, batch, scalar = _undecodable_maps(
        layout, value_kind, bad, wanted
    )
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/bad", payload)
    for window in range(1, len(payload) + 1):
        got = _run_at_window(fs, "/bad", window, batch, raises=error)
        want = _run_at_window(fs, "/bad", window, scalar, raises=error)
        assert got == want, f"window={window}"
        assert got[0] is error
        assert got[2]["cells"] >= 4, "the two whole maps are charged"


# -- key-projected column reads ---------------------------------------------
#
# Each layout that holds map columns, read whole and read cut down to a
# key projection, densely (``read_vector``) and sparsely (``sync_to`` +
# ``read_value`` per row of a selection), at I/O buffers from a few
# datums to the whole file: the values at the wanted keys, the Metrics
# and the stream reads must all be the whole read's.

_KEYED_LAYOUTS = {
    "plain": ColumnSpec("plain"),
    "skiplist": ColumnSpec("skiplist", skip_sizes=(20, 5)),
    "cblock": ColumnSpec("cblock", codec="zlib", block_bytes=200),
    "dcsl": ColumnSpec("dcsl", skip_sizes=(20, 5)),
}


def _keyed_column(kind, layout):
    """60 maps of ``kind`` values as a ``layout`` column file.  The
    first 20, a DCSL top block whose dictionary then lacks them, never
    hold "k" or "anchor"."""
    schema = Schema.map(values=Schema(kind))
    values = _EDGE_VALUES[kind]
    datums = [
        {
            key: values[(i + j) % len(values)]
            for j, key in enumerate(
                (_EDGE_KEYS if i >= 20 else ["", "k2", "é" * 70])[:i % 6]
            )
        }
        for i in range(60)
    ]
    return schema, encode_column_file(schema, datums, _KEYED_LAYOUTS[layout])


def _column_walk(schema, rows, keys):
    """Open the column file under the window's stream and read every
    value, or (``rows``) those of a selection."""
    def walk(reader, ctx):
        column = open_column_reader(reader._stream, schema, ctx)
        column.batch_kernels = True
        if rows is None:
            return column.read_vector(column.count, keys).to_list()
        values = []
        for i in rows:
            column.sync_to(i)
            values.append(column.read_value(keys))
        return values

    return walk


@pytest.mark.parametrize("layout", sorted(_KEYED_LAYOUTS))
@pytest.mark.parametrize("kind", ("int", "string", "double", "boolean"))
def test_a_key_projected_column_read_is_the_whole_read_cut_down(
    kind, layout
):
    schema, payload = _keyed_column(kind, layout)
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/column", payload)
    sparse = [i for i in range(60) if i % 3 != 1]
    for window in (61, 509, 2048, 12288):
        for wanted in (("k",), ("anchor", "", "é" * 70, "absent")):
            for rows in (None, sparse):
                got = _run_at_window(
                    fs, "/column", window, _column_walk(schema, rows, wanted)
                )
                want = _run_at_window(
                    fs, "/column", window, _column_walk(schema, rows, None)
                )
                assert (_picked(got[0], wanted, projected=True), *got[1:]) == (
                    _picked(want[0], wanted), *want[1:]
                ), f"window={window} wanted={wanted} sparse={bool(rows)}"


# -- read_selected: one window loop over a selection ------------------------
#
# ``read_selected(rows, keys)`` must be ``sync_to(row)`` + ``read_value(keys)``
# per row: the values, every Metrics field (stream requests and seeks
# included), the registry counters and the stream reads, over every layout,
# the kinds a column holds, selections from empty to dense with gaps past a
# skip block, key projections, and I/O buffers from a few datums to the file.

_SELECT_LAYOUTS = {
    "plain": ColumnSpec("plain"),
    "skiplist": ColumnSpec("skiplist", skip_sizes=(20, 5)),
    "dcsl": ColumnSpec("dcsl", skip_sizes=(20, 5)),
    "cblock": ColumnSpec("cblock", codec="zlib", block_bytes=96),
    "rle": ColumnSpec("rle"),
    "delta": ColumnSpec("delta"),
}
_SELECT_TEXT = st.text(alphabet="ab~\x00é€", max_size=140)
_SELECT_KEYS = st.sampled_from(["", "k", "k2", "é" * 70, "anchor"])
_SELECT_INTS = st.integers(min_value=-(2**40), max_value=2**40)
_SELECT_KINDS = {
    "int": (Schema.int_(), st.integers(-(2**31), 2**31 - 1)),
    "string": (Schema.string(), _SELECT_TEXT),
    "bytes": (Schema.bytes_(), st.binary(max_size=40)),
    "double": (Schema.double(), st.floats(allow_nan=False)),
    "boolean": (Schema.boolean(), st.booleans()),
    "map<int>": (
        Schema.map(Schema.long_()),
        st.dictionaries(_SELECT_KEYS, _SELECT_INTS, max_size=5),
    ),
    "map<string>": (
        Schema.map(Schema.string()),
        st.dictionaries(_SELECT_KEYS, _SELECT_TEXT, max_size=5),
    ),
    "array<int>": (
        Schema.array(Schema.long_()), st.lists(_SELECT_INTS, max_size=6),
    ),
}


def _layout_kinds(layout):
    if layout == "dcsl":
        return ["map<int>", "map<string>"]
    if layout == "delta":
        return ["int"]
    return sorted(_SELECT_KINDS)


@st.composite
def _selections(draw, count):
    """Ascending rows of ``count``: runs of consecutive rows between
    gaps of up to 30 (past a 20-row skip block), possibly none."""
    rows, row = [], draw(st.integers(0, 30))
    for gap, run in draw(st.lists(
        st.tuples(st.integers(1, 30), st.integers(1, 8)), max_size=12,
    )):
        rows.extend(range(row, min(row + run, count)))
        row += run + gap
    return rows


def _selected_walk(schema, calls, keys, per_row):
    """Open the column file and read each call's rows with one
    ``read_selected`` or (``per_row``) ``sync_to`` + ``read_value`` each."""
    def walk(reader, ctx):
        column = open_column_reader(reader._stream, schema, ctx)
        column.batch_kernels = True
        got = []
        for rows in calls:
            if not per_row:
                got.append(column.read_selected(rows, keys))
                continue
            values = {}
            for row in rows:
                column.sync_to(row)
                values[row] = column.read_value(keys)
            got.append(values)
        return got

    return walk


def _counted_run(fs, path, window, walk):
    """:func:`_run_at_window` plus the registry counters it moved."""
    from repro.obs import FlightRecorder

    recorder = FlightRecorder(clock=lambda: 0.0)
    with recorder.activate():
        ran = _run_at_window(fs, path, window, walk)
    counters = {
        (name, labels): metric.value
        for name, labels, metric in recorder.registry
        if hasattr(metric, "inc")
    }
    return ran, counters


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_selected_equals_sync_to_and_read_value_per_row(data):
    layout = data.draw(st.sampled_from(sorted(_SELECT_LAYOUTS)), "layout")
    kind = data.draw(st.sampled_from(_layout_kinds(layout)), "kind")
    schema, values = _SELECT_KINDS[kind]
    pool = data.draw(st.lists(values, min_size=1, max_size=12), "pool")
    column = data.draw(st.lists(
        st.sampled_from(range(len(pool))), min_size=1, max_size=80,
    ).map(lambda picks: [pool[i] for i in picks]), "column")
    rows = data.draw(_selections(len(column)), "rows")
    cut = data.draw(st.integers(0, len(rows)), "cut")
    calls = [rows[:cut], rows[cut:]]  # the second resumes mid-column
    keys = data.draw(st.sampled_from(
        [None, ("k",), ("k2", "", "é" * 70, "absent")]
    ), "keys")
    window = data.draw(st.sampled_from([61, 509, 12 * 1024]), "window")
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/col", encode_column_file(
        schema, column, _SELECT_LAYOUTS[layout]
    ))
    got = _counted_run(
        fs, "/col", window, _selected_walk(schema, calls, keys, False)
    )
    want = _counted_run(
        fs, "/col", window, _selected_walk(schema, calls, keys, True)
    )
    assert got == want
    assert [list(call) for call in got[0][0]] == calls


# -- the skip-list window loop at every window edge --------------------------
#
# Skip-list block headers are parsed off the window and handed to
# ``_consume_block_header`` when one straddles its edge; a DCSL top block's
# dictionary always goes to ``_consume_dictionary``.  Bottom blocks of
# 16-byte strings take 160+ bytes, so every header has a two-byte varint.

_SWEPT = [f"value-{i:03d}-{'é' if i % 7 == 0 else 'e'}xyz" for i in range(40)]
_SWEPT_COLUMNS = {
    "skiplist": (Schema.string(), _SWEPT),
    "dcsl": (Schema.map(Schema.string()), [
        {key: text for key in ("k", "k2", "é" * 3)[:i % 4]}
        for i, text in enumerate(_SWEPT)
    ]),
}


@pytest.mark.parametrize("layout", sorted(_SWEPT_COLUMNS))
def test_skiplist_run_loop_equals_per_row_path_at_every_window_edge(
    layout, monkeypatch
):
    schema, column = _SWEPT_COLUMNS[layout]
    payload = encode_column_file(
        schema, column, ColumnSpec(layout, skip_sizes=(20, 10))
    )
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/col", payload)
    handed = []
    monkeypatch.setattr(
        vecdecode, "fallback", lambda reader, kernel: handed.append(kernel)
    )
    every, sparse = [list(range(40))], [[0, 3, 4, 5, 19, 20, 31], [39]]
    for window in range(1, len(payload) + 1):
        for calls in (every, sparse):
            dense = calls is every
            got = _run_at_window(fs, "/col", window, (
                _column_walk(schema, None, None) if dense
                else _selected_walk(schema, calls, None, False)
            ))
            want = _run_at_window(
                fs, "/col", window, _selected_walk(schema, calls, None, True)
            )
            if dense:
                want = ([want[0][0][row] for row in calls[0]], *want[1:])
            assert got == want, f"window={window} dense={dense}"
    assert "skiplist_headers" in handed


# -- the run loop at every window edge, three levels deep ---------------------
#
# The same sweep over an int column of multi-byte zig-zags and a DCSL
# column read with a key projection, framed into blocks of 8/4/2 rows,
# so that two or three header groups stack on one row.  The run loop's
# hand-offs are compared too.  Each per-row header or datum read that
# has to fetch is recorded as the one the run loop hands off there
# ("skiplist_headers", or the datum's kernel), unless it counted that
# hand-off itself (a map cell read does); its gaps are the run loop's
# own and record their own.

_STACKED = {
    "int": (
        Schema.long_(), [(-1) ** i * 7 ** (i % 13) for i in range(40)], None,
    ),
    "dcsl": (Schema.map(Schema.long_()), [
        {key: (-1) ** i * 5 ** (i % 9) for key in ("k", "k2", "é" * 3)[:i % 4]}
        for i in range(40)
    ], ("k",)),
}


def _record_per_row_hand_offs(monkeypatch, handed, cls, kernel):
    """Inside ``read_value`` of ``cls``, add ``kernel`` to ``handed`` for
    each datum read that fetches and "skiplist_headers" for each header
    read that does, unless the read counted a hand-off itself."""
    fetched, depth, in_row = [], [], []
    require = StreamByteReader._require

    def counted_require(self, n):
        if self.pos + n > len(self._buf):
            fetched.append(n)
        require(self, n)

    def per_row(method, name):
        def wrapped(self, *args, **kwargs):
            fetches, hands = len(fetched), len(handed)
            depth.append(name)
            try:
                return method(self, *args, **kwargs)
            finally:
                depth.pop()
                if in_row and not depth and len(fetched) > fetches and (
                    len(handed) == hands
                ):
                    handed.append(name)
        return wrapped

    def read_value(self, keys=None):
        in_row.append(True)
        try:
            return row_read(self, keys)
        finally:
            in_row.pop()

    row_read = SkipListColumnReader.read_value
    monkeypatch.setattr(StreamByteReader, "_require", counted_require)
    monkeypatch.setattr(SkipListColumnReader, "read_value", read_value)
    monkeypatch.setattr(SkipListColumnReader, "_consume_block_header", per_row(
        SkipListColumnReader._consume_block_header, "skiplist_headers",
    ))
    monkeypatch.setattr(cls, "_read_datum_fast", per_row(
        cls._read_datum_fast, kernel,
    ))


@pytest.mark.parametrize("name", sorted(_STACKED))
def test_stacked_skiplist_run_loop_hands_off_where_the_per_row_path_fetches(
    name, monkeypatch
):
    schema, column, keys = _STACKED[name]
    layout = "dcsl" if schema.kind == "map" else "skiplist"
    payload = encode_column_file(
        schema, column, ColumnSpec(layout, skip_sizes=(8, 4, 2))
    )
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/col", payload)
    handed = []
    monkeypatch.setattr(
        vecdecode, "fallback", lambda reader, kernel: handed.append(kernel)
    )
    kernel = "read_maps" if layout == "dcsl" else "read_zigzags"
    _record_per_row_hand_offs(monkeypatch, handed, (
        DcslColumnReader if layout == "dcsl" else SkipListColumnReader
    ), kernel)
    every, sparse = [list(range(40))], [[0, 1, 2, 5, 8, 15, 16, 17, 31], [39]]
    seen = set()
    for window in range(1, len(payload) + 1):
        for calls in (every, sparse):
            dense = calls is every
            runs = []
            for walk in (
                _column_walk(schema, None, keys) if dense
                else _selected_walk(schema, calls, keys, False),
                _selected_walk(schema, calls, keys, True),
            ):
                handed.clear()
                runs.append((*_run_at_window(fs, "/col", window, walk),
                             list(handed)))
            got, want = runs
            if dense:
                want = ([want[0][0][row] for row in calls[0]], *want[1:])
            assert got == want, f"window={window} dense={dense}"
            seen.update(got[-1])
    assert {"skiplist_headers", kernel} <= seen, seen


def _bad_key_column():
    """A DCSL map column (skip sizes 8/4/2) whose row 13 has a key id
    past its dictionary, on a filesystem at ``/col``."""
    schema = Schema.map(Schema.long_())
    maps = [{"k": i, "k2": -i} for i in range(40)]
    maps[13] = {"k2": 4242}  # zig-zag 8484: the bytes a4 42
    payload = bytearray(encode_column_file(
        schema, maps, ColumnSpec("dcsl", skip_sizes=(8, 4, 2))
    ))
    at = payload.index(b"\xa4\x42") - 1
    assert payload[at] == 1  # the id of "k2"
    payload[at] = 0x7F
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/col", bytes(payload))
    return schema, payload, fs


def _dense_walk(schema, batched):
    """Read the whole column with one ``read_vector``."""
    def walk(reader, ctx):
        column = open_column_reader(reader._stream, schema, ctx)
        column.batch_kernels = batched
        return column.read_vector(column.count).to_list()
    return walk


def test_a_bad_key_id_inside_a_run_raises_as_the_per_datum_gather_does():
    """A DCSL map whose key id is past its dictionary, in a bottom block
    inside a run: the run loop stops at it and hands it to the per-datum
    decode, which raises as the per-datum gather (the reference) does,
    with the same charges and stream reads, wherever the window ends."""
    schema, payload, fs = _bad_key_column()
    dense = partial(_dense_walk, schema)
    for window in range(1, len(payload) + 1):
        got, want = (
            _run_at_window(fs, "/col", window, dense(batched), IndexError)
            for batched in (True, False)
        )
        assert got == want, f"window={window}"
        assert got[0] is IndexError


def test_a_raising_gather_charges_the_headers_it_parsed():
    """The run loop parses headers ahead of the datums it decodes; when a
    datum raises, the headers of the blocks it reached are charged as the
    per-row ``read_value`` path charged them: the same ``Metrics``,
    offset and stream reads at the raise, wherever the window ends."""
    schema, payload, fs = _bad_key_column()

    def per_row(reader, ctx):
        column = open_column_reader(reader._stream, schema, ctx)
        return [column.read_value() for _ in range(column.count)]

    for window in [*range(1, len(payload) + 1), 4096]:
        want = _run_at_window(fs, "/col", window, per_row, IndexError)
        for batched in (True, False):
            got = _run_at_window(
                fs, "/col", window, _dense_walk(schema, batched), IndexError
            )
            assert got == want, f"window={window} batched={batched}"


def test_a_short_bottom_block_nbytes_reads_as_read_value_does():
    """A bottom block whose ``nbytes`` is two short (checksums intact:
    what a writer bug would leave).  ``read_value`` never reads
    ``nbytes``; the run loop checks each header it parses in place
    against the rows its block must hold, so it does not follow that
    ``nbytes`` to a misplaced header, and both read the column right,
    with the same charges and stream reads, wherever the window ends."""
    values = [1000 + i for i in range(40)]
    payload = bytearray(encode_column_file(
        Schema.long_(), values, ColumnSpec("skiplist", skip_sizes=(10,))
    ))
    # a 7-byte file header, then block 1: count 10, nbytes 20, 20 bytes
    at = 7 + 22 + 1
    assert payload[at - 1:at + 1] == bytes([10, 20])  # block 2's header
    payload[at] -= 2
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/col", bytes(payload))
    rows = _column_walk(Schema.long_(), list(range(40)), None)
    for window in range(1, len(payload) + 1):
        got = _run_at_window(fs, "/col", window, _dense_walk(Schema.long_(), True))
        want = _run_at_window(fs, "/col", window, rows)
        assert got == want, f"window={window}"
        assert got[0] == values


@pytest.mark.parametrize("layout", ["plain", "skiplist", "delta"])
@pytest.mark.parametrize(
    "schema", [Schema.long_(), Schema.map(Schema.long_())],
    ids=["long", "map<long>"],
)
def test_an_overlong_varint_raises_as_the_per_datum_gather_does(
    layout, schema
):
    """40 longs 1000..1039 (bare, or each under key "k") whose row 13 is
    a 12-byte varint (in a delta column, row 13's delta), two bytes past
    the longest the per-datum decode takes: read whole (a map also cut
    down to a key it lacks), or hopped to row 39, the window loops hand
    it off at its tenth continuation byte, so it raises (or its skip
    block passes it) as the per-datum gather and the per-row
    ``read_value`` path do, with the same charges and stream reads,
    wherever the window ends: a gather charges each value as it takes
    it, so a raise carries ``read_value``'s books."""
    if layout == "delta" and schema.kind == "map":
        pytest.skip("a delta column holds integers only")
    values = range(1000, 1040)
    if schema.kind == "map":
        values = [{"k": value} for value in values]
    payload = bytearray(encode_column_file(
        schema, list(values), ColumnSpec(layout, skip_sizes=(10,)),
    ))
    if layout == "delta":
        # a 5-byte file header, 1000 as zig-zag 2000 (two bytes), then
        # one byte per delta of 1
        at = 5 + 2 + 12
        assert payload[at:at + 2] == b"\x02\x02"
        payload[at:at + 1] = b"\xff" * 11 + b"\x01"
    else:
        assert payload.count(b"\xea\x0f") == 1  # zig-zag 2026: 1013
        at = payload.index(b"\xea\x0f")
        payload[at:at + 2] = b"\xff" * 11 + b"\x01"
    if layout == "skiplist":
        # a 7-byte file header, then block 1: count 10, nbytes, its rows;
        # block 2, which holds row 13, frames ten more bytes
        payload[7 + 2 + payload[8] + 1] += 10
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/col", bytes(payload))

    def gather(rows, keys, batched):
        def walk(reader, ctx):
            column = open_column_reader(reader._stream, schema, ctx)
            column.batch_kernels = batched
            if rows is None:
                return column.read_vector(column.count, keys).to_list()
            return column.read_selected(rows)
        return walk

    def per_row(rows):
        def walk(reader, ctx):
            column = open_column_reader(reader._stream, schema, ctx)
            if rows is None:
                return [column.read_value() for _ in range(column.count)]
            return {row: column.value_at(row) for row in rows}
        return walk

    reads = [(None, None), ([39], None)]
    if schema.kind == "map":
        reads.append((None, ("j",)))
    for rows, keys in reads:
        for window in [*range(1, len(payload) + 1), 4096]:
            got, want, reference = (
                _run_at_window(fs, "/col", window, walk, VarintError)
                for walk in (
                    gather(rows, keys, True), gather(rows, keys, False),
                    per_row(rows),
                )
            )
            assert got == want, f"rows={rows} keys={keys} window={window}"
            assert got == reference, (
                f"rows={rows} keys={keys} window={window}"
            )
            if rows is None or layout != "skiplist":
                assert got[0] is VarintError
    if layout == "delta":  # rows 0..12 read, then row 13 raises
        metrics = _run_at_window(
            fs, "/col", 4096, gather(None, None, True), VarintError
        )[2]
        assert (metrics["cells"], metrics["cpu_ticks"]) == (13, 216_400)



def test_an_overlong_block_header_raises_as_the_per_datum_gather_does():
    """A skip list whose second block's ``nbytes`` is an 11-byte varint
    (20, padded): the run loop's in-place header parse leaves that group
    to the per-datum parse, which raises as the per-datum gather does,
    with the same charges and stream reads, wherever the window ends."""
    schema = Schema.long_()
    payload = bytearray(encode_column_file(
        schema, list(range(1000, 1040)),
        ColumnSpec("skiplist", skip_sizes=(10,)),
    ))
    at = 7 + 2 + payload[8] + 1  # a 7-byte file header, then block 1
    assert payload[at] == 20
    payload[at:at + 1] = bytes([0x94] + [0x80] * 9 + [0x00])
    fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
    fs.write_file("/col", bytes(payload))
    for window in [*range(1, len(payload) + 1), 4096]:
        got, want = (
            _run_at_window(
                fs, "/col", window, _dense_walk(schema, batched), VarintError
            )
            for batched in (True, False)
        )
        assert got == want, f"window={window}"
        assert got[0] is VarintError
