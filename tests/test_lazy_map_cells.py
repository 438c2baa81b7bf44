"""Lazy map cells: a lazy row's map decodes only the key a job asks for.

On the engine, a lazy CIF row that reads a map cell gets a
:class:`~repro.serde.vecdecode.MapCell` over a copy of the datum's span
instead of a built dict: ``get``, ``[]`` and ``in`` walk the span for
one key, ``len`` reads the entry count, and anything else builds the
dict once.  The cell is charged as the whole map when it is read.

The property below drives every map operation the Record API allows
through hand-written mappers over generated map columns, on the engine
and on the per-datum reference (``execution="scalar"``, which returns
dicts): the outputs (through the shuffle and as map-only job output),
the error type, every ``Metrics`` field and the ``lazy.*`` and
``column.rows.*`` series must be equal.  It covers the plain,
skip-list, DCSL and cblock (zlib and lzo) layouts, every primitive
value kind, non-ASCII keys, keys whose bytes are not UTF-8, and I/O
windows of 61, 509 and 12 288 bytes.
"""

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.oracle import CBLOCK_BYTES, SKIP_SIZES, _sorted_output
from repro.compress.codecs import get_codec
from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.core.cof import split_dirs_of
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.mapreduce.types import TaskContext
from repro.obs import FlightRecorder
from repro.serde.record import Record
from repro.serde.schema import Schema
from repro.serde import vecdecode
from repro.serde.vecdecode import MapCell, map_cell
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader, ByteWriter

LAYOUTS = {
    "plain": ColumnSpec("plain"),
    "skiplist": ColumnSpec("skiplist", skip_sizes=SKIP_SIZES),
    "dcsl": ColumnSpec("dcsl", skip_sizes=SKIP_SIZES),
    "cblock-zlib": ColumnSpec(
        "cblock", codec="zlib", block_bytes=CBLOCK_BYTES
    ),
    "cblock-lzo": ColumnSpec("cblock", codec="lzo", block_bytes=CBLOCK_BYTES),
}
WINDOWS = (61, 509, 12288)
KINDS = ("int", "long", "time", "double", "boolean", "string", "bytes")

#: a key written as these bytes and then planted as bytes that are not
#: UTF-8 (same length, so every length prefix stays right)
MARK, BAD = "\x01\x02\x03\x04", b"\xff\xfe\xfd\xfc"

_TEXT = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x2FF), max_size=12
)
_VALUES = {
    "int": st.integers(-(2 ** 31), 2 ** 31 - 1),
    "long": st.integers(-(2 ** 63), 2 ** 63 - 1),
    "time": st.integers(0, 2 ** 62),
    "double": st.floats(allow_nan=False),
    "boolean": st.booleans(),
    "string": _TEXT,
    "bytes": st.binary(max_size=12),
}
_KEYS = st.one_of(
    st.sampled_from(["k", "k2", "", "é", "ключ", "🔑" * 3, "x" * 140]),
    _TEXT,
)

#: op name -> what it gives for a row's map ``m``, given a key the map
#: may or may not hold, the map as written and the row
OPS = {
    "get": lambda m, key, truth, record: m.get(key),
    "get-default": lambda m, key, truth, record: m.get(key, "absent"),
    "item": lambda m, key, truth, record: _item(m, key),
    "in": lambda m, key, truth, record: (key in m, 7 in m),
    "len": lambda m, key, truth, record: len(m),
    "iter": lambda m, key, truth, record: list(m),
    "items": lambda m, key, truth, record: list(m.items()),
    "eq": lambda m, key, truth, record: (
        m == truth, truth == m, m != truth, m == {}, m == m,
    ),
    "repr": lambda m, key, truth, record: repr(m),
    "dict": lambda m, key, truth, record: dict(m),
    "to_dict": lambda m, key, truth, record: record.to_dict()["m"],
    "materialize": lambda m, key, truth, record: record.materialize().get("m"),
    "pickle": lambda m, key, truth, record: pickle.loads(pickle.dumps(m)),
    "value": lambda m, key, truth, record: m,
}


def _item(m, key):
    try:
        return m[key]
    except KeyError as error:
        return ("KeyError", error.args)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(KINDS))
    maps = draw(st.lists(
        st.dictionaries(_KEYS, _VALUES[kind], max_size=6),
        min_size=1, max_size=30,
    ))
    bad = draw(st.none() | st.integers(0, len(maps) - 1))
    if bad is not None:
        maps[bad] = {**maps[bad], MARK: draw(_VALUES[kind])}
    return dict(
        kind=kind, maps=maps, bad=bad,
        layout=draw(st.sampled_from(sorted(LAYOUTS))),
        window=draw(st.sampled_from(WINDOWS)),
        ops=draw(st.lists(st.sampled_from(sorted(OPS)), min_size=1,
                          max_size=4)),
        probes=draw(st.lists(_KEYS, min_size=1, max_size=3)),
        reduce=draw(st.booleans()),
    )


def _plant(fs, path):
    """Rewrite the column file at ``path`` with :data:`MARK`'s bytes
    replaced by :data:`BAD` (inside each compressed block of a cblock
    file)."""
    payload = fs.read_file(path)
    mark = MARK.encode("utf-8")
    if payload[3] == 2:  # cblock: re-frame its blocks
        reader = ByteReader(payload)
        reader.read_bytes(4)
        reader.read_varint()
        codec = get_codec(reader.read_string())
        out = ByteWriter()
        out.write_bytes(payload[:reader.offset])
        while reader.offset < len(payload):
            out.write_varint(reader.read_varint())
            out.write_varint(reader.read_varint())
            raw = codec.decompress(reader.read_len_prefixed())
            out.write_len_prefixed(codec.compress(raw.replace(mark, BAD)))
        payload = out.getvalue()
    else:
        payload = payload.replace(mark, BAD)
    fs.delete(path)
    fs.write_file(path, payload)


def _write(case):
    fs = FileSystem(ClusterConfig(
        num_nodes=3, replication=1, block_size=16 * 1024,
        io_buffer_size=case["window"],
    ))
    fs.use_column_placement()
    schema = Schema.record("cells", [
        ("i", Schema.int_()), ("m", Schema.map(Schema(case["kind"]))),
    ])
    records = [
        Record(schema, {"i": i, "m": m}) for i, m in enumerate(case["maps"])
    ]
    write_dataset(
        fs, "/cells", schema, records, specs={"m": LAYOUTS[case["layout"]]},
        split_bytes=2 * 1024,
    )
    if case["bad"] is not None:
        for split_dir in split_dirs_of(fs, "/cells"):
            _plant(fs, f"{split_dir}/m")
    return fs


def _mapper(case):
    maps, ops, probes = case["maps"], case["ops"], case["probes"]

    def mapper(key, record, emit, ctx):
        i = record.get("i")
        if i % 3 == 1:  # untouched: its cell is skipped
            return
        m = record.get("m")
        probe = probes[i % len(probes)]
        present = sorted(maps[i])[:1] if maps[i] and i % 2 else [probe]
        for n, op in enumerate(ops):
            emit((i, n, op), OPS[op](m, present[0], maps[i], record))

    return mapper


def _identity(key, values, emit, ctx):
    for value in values:
        emit(key, value)


def _series(recorder):
    return {
        (name, labels): metric.value
        for name, labels, metric in recorder.registry
        if name.startswith(("lazy.", "column.rows."))
    }


def _scan(fs, case, execution):
    """Every split through the mapper by hand, so a read that raises
    leaves its ``Metrics``: ``(emitted or error type, Metrics fields,
    lazy.* and column.rows.*)``."""
    fmt = ColumnInputFormat("/cells", execution=execution, batch_rows=7)
    mapper, emitted = _mapper(case), []
    recorder = FlightRecorder(clock=lambda: 0.0)
    with recorder.activate():
        ctx = TaskContext(
            node=0, cost=CpuCostModel(), io_buffer_size=case["window"],
        )
        try:
            for split in fmt.get_splits(fs, fs.cluster):
                reader = fmt.open_reader(fs, split, ctx)
                for key, record in reader:
                    mapper(key, record, lambda k, v: emitted.append((k, v)),
                           ctx)
        except (UnicodeDecodeError, ValueError, IndexError) as error:
            emitted = type(error)
    return emitted, dataclasses.asdict(ctx.metrics), _series(recorder)


def _job(fs, case, execution):
    """The mapper as a job, its maps emitted through the shuffle (an
    identity reducer) or as map-only output."""
    fmt = ColumnInputFormat("/cells", execution=execution, batch_rows=7)
    recorder = FlightRecorder(clock=lambda: 0.0)
    with recorder.activate():
        result = run_job(fs, Job(
            "cells", _mapper(case), fmt,
            reducer=_identity if case["reduce"] else None,
            num_reducers=2 if case["reduce"] else 0,
        ))
    return (
        _sorted_output(result.output),
        dataclasses.asdict(result.map_metrics),
        dataclasses.asdict(result.reduce_metrics),
        result.counters.as_dict(),
        _series(recorder),
    )


@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
def test_every_map_operation_reads_as_the_reference(case):
    fs = _write(case)
    vec, scalar = _scan(fs, case, "vectorized"), _scan(fs, case, "scalar")
    assert vec == scalar
    if case["bad"] is None:
        assert isinstance(vec[0], list)
        assert _job(fs, case, "vectorized") == _job(fs, case, "scalar")
    elif case["bad"] % 3 != 1:  # a touched row whose key is not UTF-8
        assert vec[0] is UnicodeDecodeError


class _Kernels(list):
    """A profiling sink listing the kernel calls counted."""

    kernel = list.append

    def fallback(self, reader, kernel):
        pass


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_lazy_engine_row_reads_its_map_as_a_cell(layout):
    """The engine hands a lazy row a cell (the window holds each map
    whole here) and counts one ``read_maps`` kernel call per cell; the
    reference hands it a dict and counts none."""
    case = dict(
        kind="string", maps=[{"k": f"v{i}", "é": "w"} for i in range(40)],
        bad=None, layout=layout, window=12288,
    )
    fs = _write(case)
    for execution, cls in (("vectorized", MapCell), ("scalar", dict)):
        fmt = ColumnInputFormat("/cells", execution=execution)
        ctx = TaskContext(node=0, cost=CpuCostModel(), io_buffer_size=12288)
        kernels, sink = _Kernels(), vecdecode.profile_sink()
        vecdecode.set_profile_sink(kernels)
        cells = []
        try:
            for split in fmt.get_splits(fs, fs.cluster):
                for _, record in fmt.open_reader(fs, split, ctx):
                    if record.get("i") % 2:
                        cells.append(record.get("m"))
        finally:
            vecdecode.set_profile_sink(sink)
        assert {type(cell) for cell in cells} == {cls}
        assert [cell.get("k") for cell in cells] == [
            f"v{i}" for i in range(1, 40, 2)
        ]
        assert kernels.count("read_maps") == (20 if cls is MapCell else 0)


def _cell(data, kind="long", keys=None, metrics=None):
    """``data`` (one map datum, then anything) read as a map cell."""
    return map_cell(
        ByteReader(data), kind, CpuCostModel(), metrics or Metrics(), keys
    )


def test_a_cell_is_a_read_only_mapping_and_not_a_dict():
    cell = _cell(bytes([2, 1]) + b"a" + bytes([4, 1]) + b"b" + bytes([5]))
    assert isinstance(cell, MapCell) and not isinstance(cell, dict)
    assert cell == {"a": 2, "b": -3} and {"a": 2, "b": -3} == cell
    assert (cell.get("a"), cell.get("c", 0), "b" in cell, len(cell)) == (
        2, 0, True, 2,
    )
    with pytest.raises(TypeError):
        cell["a"] = 1
    with pytest.raises(TypeError):
        hash(cell)
    copied = pickle.loads(pickle.dumps(cell))
    assert type(copied) is dict and copied == {"a": 2, "b": -3}


def test_a_key_twice_or_an_id_past_the_dictionary_is_left_to_the_decode():
    """``len`` and a one-key walk would disagree with the dict a map that
    holds a key twice decodes to, so such a datum is not read as a
    cell; nor is one whose DCSL id the dictionary does not hold.  Nothing
    is read or charged: the per-datum decode takes it."""
    metrics = Metrics()
    twice = bytes([2, 1]) + b"a" + bytes([2, 1]) + b"a" + bytes([4])
    assert _cell(twice, metrics=metrics) is None
    assert _cell(bytes([1, 5, 2]), keys=["a"], metrics=metrics) is None
    assert metrics == Metrics()
    assert _cell(bytes([1, 0, 2]), keys=["a"]) == {"a": 1}
