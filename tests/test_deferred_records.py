"""Deferred map and array fields are invisible: the proof of equivalence.

A charged record read defers each map or array of primitives it can
prove decodes (``repro.serde.binary``'s deferral step) and the record
builds it on first access.  Every property here compares such a record
with its *eager twin*, ``decode_datum`` of the same bytes, under every
operation the Record API allows, and compares everything the read
charged with the same read done eagerly, one ``read_datum`` per datum
(the deferral step and RCFile's batched chunk decode patched out, on a
fresh copy of the schema so the plans recompile):

- straight off a ``ByteReader`` and a ``StreamByteReader`` at a 61 B
  and a 12 KiB window, so maps straddle window edges constantly;
- through every row format: SEQ with none / record / block compression
  and RCFile with and without zlib;
- as lazy CIF rows, whose every projected cell is deferred to its
  column's reader, in the four ``cif_scan`` layouts through both CIF
  readers, where a lazy scan that reads every cell charges what the
  eager scan does.
"""

import contextlib
import dataclasses
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.formats import rcfile, sequence_file
from repro.hdfs import ClusterConfig, FileSystem
from repro.hdfs.streams import StreamByteReader
from repro.mapreduce.types import TaskContext
from repro.serde import binary, vecdecode
from repro.serde.binary import BinaryDecoder, decode_datum, encode_datum
from repro.serde.record import Record, _Deferred
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader
from repro.workloads.crawl import crawl_records, crawl_schema
from tests.test_fuzz_schemas import (
    FUZZ_SETTINGS, record_schema_strategy, value_for,
)

COST = CpuCostModel()
WINDOWS = (61, 12 * 1024)
#: ASCII, non-ASCII and, at up to 140 characters, two-byte length
#: prefixes and maps that straddle a 61 B window
_MAP_TEXT = st.text(alphabet="ab~\x00é€", max_size=140)


def per_datum(reader, schema, k, ctx, keys=None):
    decoder = BinaryDecoder(reader, ctx.cost, ctx.metrics)
    return "obj", [decoder.read_datum(schema) for _ in range(k)]


@contextlib.contextmanager
def eager_plans():
    """Every datum read eagerly, one ``read_datum`` at a time: the
    record loop patched out for a call of each field's own per-entry
    read, and an RCFile chunk decoded per datum."""
    def per_field(steps, r, p, m, cpu=0, objects=0):
        m.cpu_ticks += cpu
        m.objects += objects
        return [step[1](r, p, m) for step in steps]

    with mock.patch.object(binary, "_walk", per_field), \
            mock.patch.object(vecdecode, "batch_decode_values", per_datum), \
            mock.patch.object(
                BinaryDecoder, "read_deferred",
                lambda self, schema, k: [
                    self.read_datum(schema) for _ in range(k)
                ],
            ):
        yield


def fresh(schema: Schema) -> Schema:
    """An equal schema with no compiled plans on it."""
    return Schema.parse(schema.to_json())


def read_records(schema, data, n, window):
    """``n`` records off ``data`` (a ByteReader when ``window`` is None),
    with everything the reads charged."""
    m = Metrics()
    if window is None:
        reader = ByteReader(data)
    else:
        fs = FileSystem(ClusterConfig(
            num_nodes=1, block_size=4096, io_buffer_size=window
        ))
        fs.write_file("/datums", data)
        reader = StreamByteReader(fs.open("/datums", metrics=m))
    decoder = BinaryDecoder(reader, COST, m)
    return [decoder.read_datum(schema) for _ in range(n)], m


def assert_behaves_as_its_twin(schema, record, twin, draw):
    """Drawn Record operations give the same answers on both, in the
    same drawn order: gets in any order, a put, then the whole-record
    views, equality and re-encoding."""
    names = [f.name for f in schema.fields]
    for name in draw(st.permutations(names)):
        assert record.get(name) == twin.get(name), name
    if draw(st.booleans()):
        field = schema.field(draw(st.sampled_from(names)))
        value = value_for(field.schema, draw)
        record.put(field.name, value)
        twin.put(field.name, value)
    views = ["to_dict", "values_in_order", "repr", "eq", "encode"]
    for view in draw(st.permutations(views)):
        if view == "repr":
            assert repr(record) == repr(twin)
        elif view == "eq":
            assert record == twin and twin == record
        elif view == "encode":
            assert encode_datum(schema, record) == encode_datum(schema, twin)
        else:
            assert getattr(record, view)() == getattr(twin, view)()


class TestCodec:
    @FUZZ_SETTINGS
    @given(data=st.data(), schema=record_schema_strategy())
    def test_a_deferred_read_is_its_eager_twin(self, data, schema):
        values = [value_for(schema, data.draw) for _ in range(3)]
        encoded = b"".join(encode_datum(schema, v) for v in values)
        for window in (None,) + WINDOWS:
            got, metrics = read_records(schema, encoded, 3, window)
            with eager_plans():
                _, eager = read_records(fresh(schema), encoded, 3, window)
            assert dataclasses.asdict(metrics) == dataclasses.asdict(eager)
            for record, value in zip(got, values):
                twin = decode_datum(schema, encode_datum(schema, value))
                assert_behaves_as_its_twin(schema, record, twin, data.draw)

    def test_only_containers_of_primitives_are_deferred(self):
        schema = Schema.record("r", [
            ("tags", Schema.array(Schema.string())),
            ("attrs", Schema.map(Schema.int_())),
            ("nested", Schema.array(Schema.array(Schema.int_()))),
            ("name", Schema.string()),
        ])
        value = {
            "tags": ["a", "b"], "attrs": {"k": 1},
            "nested": [[1]], "name": "n",
        }
        (record,), _ = read_records(schema, encode_datum(schema, value), 1,
                                    None)
        assert type(record) is Record
        held = [type(v) for v in record._values]
        assert held == [_Deferred, _Deferred, list, str]
        assert record.get("tags") is record.get("tags")  # built once
        assert record.to_dict() == value

    def test_what_cannot_be_proven_is_read_eagerly(self):
        schema = Schema.record("r", [
            ("text", Schema.map(Schema.string())),  # not ASCII
            ("wide", Schema.array(Schema.int_())),  # a two-byte varint
            ("fine", Schema.array(Schema.int_())),
        ])
        value = {"text": {"k": "café"}, "wide": [64], "fine": [63]}
        (record,), _ = read_records(schema, encode_datum(schema, value), 1,
                                    None)
        held = [type(v) for v in record._values]
        assert held == [dict, list, _Deferred]
        assert record.to_dict() == value

    @FUZZ_SETTINGS
    @given(maps=st.lists(
        st.dictionaries(_MAP_TEXT, _MAP_TEXT, max_size=5), min_size=1,
        max_size=6,
    ))
    def test_a_string_map_read_is_the_per_entry_read(self, maps):
        # a standalone map<string> takes the deferral step built at once
        # (its one window route), or the per-entry plan when the step
        # cannot prove the span: either way the per-entry plan's read
        schema = Schema.map(Schema.string())
        encoded = b"".join(encode_datum(schema, m) for m in maps)
        for window in (None,) + WINDOWS:
            got, metrics = read_records(schema, encoded, len(maps), window)
            with eager_plans():
                want, eager = read_records(
                    fresh(schema), encoded, len(maps), window
                )
            assert got == want == maps
            assert dataclasses.asdict(metrics) == dataclasses.asdict(eager)

    def test_an_undeferred_record_is_a_plain_record(self):
        schema = Schema.record("r", [("a", Schema.int_())])
        (record,), _ = read_records(schema, encode_datum(schema, {"a": 1}), 1,
                                    None)
        assert type(record) is Record


def write_seq(mode):
    def write(fs, path, schema, records):
        sequence_file.write_sequence_file(
            fs, path, schema, records, compression=mode, block_records=3,
            sync_interval=300,
        )
        return sequence_file.SequenceFileInputFormat(path)
    return write


def write_rc(codec):
    def write(fs, path, schema, records):
        rcfile.write_rcfile(
            fs, path, schema, records, row_group_bytes=256, codec=codec
        )
        return rcfile.RCFileInputFormat(path)
    return write


ROW_FORMATS = {
    "seq-none": write_seq("none"),
    "seq-record": write_seq("record"),
    "seq-block": write_seq("block"),
    "rcfile": write_rc(None),
    "rcfile-zlib": write_rc("zlib"),
}


def scan(write, schema, values, window):
    """``values`` written to a fresh filesystem and read back whole,
    with everything the read charged."""
    fs = FileSystem(ClusterConfig(num_nodes=2, block_size=4096))
    fmt = write(fs, "/rows", schema, values)
    ctx = TaskContext(node=None, cost=COST, io_buffer_size=window)
    out = []
    for split in fmt.get_splits(fs, fs.cluster):
        out.extend(record for _, record in fmt.open_reader(fs, split, ctx))
    return out, ctx.metrics


class TestRowFormats:
    @FUZZ_SETTINGS
    @given(
        data=st.data(),
        schema=record_schema_strategy(max_fields=4),
        n=st.integers(min_value=1, max_value=8),
    )
    def test_every_row_format_reads_the_eager_twin(self, data, schema, n):
        values = [value_for(schema, data.draw) for _ in range(n)]
        for name, write in ROW_FORMATS.items():
            for window in WINDOWS:
                got, metrics = scan(write, schema, values, window)
                with eager_plans():  # the reader parses its own schema
                    _, eager = scan(write, schema, values, window)
                assert dataclasses.asdict(metrics) == dataclasses.asdict(
                    eager
                ), (name, window)
                assert len(got) == n, name
                for record, value in zip(got, values):
                    twin = decode_datum(schema, encode_datum(schema, value))
                    assert_behaves_as_its_twin(
                        schema, record, twin, data.draw
                    )


def test_the_crawl_defers_its_three_containers():
    schema = crawl_schema()
    value = next(crawl_records(1, content_bytes=64, seed=3))
    (record,), _ = read_records(schema, encode_datum(schema, value), 1, None)
    deferred = [
        f.name for f in schema.fields
        if type(record._values[f.index]) is _Deferred
    ]
    assert deferred == ["inlink", "metadata", "annotations"]
    assert record == value


SKIPS = (4, 2)
CIF_LAYOUTS = {
    "plain": {},
    "skiplist": {"default_spec": ColumnSpec("skiplist", skip_sizes=SKIPS)},
    "cblock_zlib": {
        "default_spec": ColumnSpec("cblock", codec="zlib", block_bytes=256),
    },
    "dcsl": {
        "default_spec": ColumnSpec("skiplist", skip_sizes=SKIPS),
        "specs": {"m": ColumnSpec("dcsl", skip_sizes=SKIPS)},
    },
}


def cif_scan(fs, dataset, columns, lazy, execution, visit):
    """Every row of ``dataset`` passed to ``visit`` before the next is
    read; returns what the scan charged."""
    fmt = ColumnInputFormat(
        dataset, columns=columns, lazy=lazy, execution=execution,
        dirs_per_split=2,
    )
    ctx = TaskContext(node=None, cost=COST, io_buffer_size=128)
    for split in fmt.get_splits(fs, fs.cluster):
        for _, record in fmt.open_reader(fs, split, ctx):
            visit(record)
    return ctx.metrics


class TestLazyCifRows:
    @FUZZ_SETTINGS
    @given(
        data=st.data(),
        map_values=st.sampled_from([Schema.int_(), Schema.string()]),
        n=st.integers(min_value=1, max_value=12),
    )
    def test_a_lazy_row_is_its_eager_twin(self, data, map_values, n):
        schema = Schema.record("r", [
            ("s", Schema.string()), ("n", Schema.int_()),
            ("m", Schema.map(map_values)), ("a", Schema.array(Schema.int_())),
        ])
        values = [value_for(schema, data.draw) for _ in range(n)]
        names = data.draw(st.permutations(schema.field_names))
        columns = names[:data.draw(st.integers(1, len(names)))]
        fs = FileSystem(ClusterConfig(num_nodes=2, block_size=4096))
        for layout, spec_args in CIF_LAYOUTS.items():
            dataset = f"/cif/{layout}"
            write_dataset(
                fs, dataset, schema, values, split_bytes=96, **spec_args
            )
            for execution in ("scalar", "vectorized"):
                rows = iter(values)

                def check(record):
                    projected = record.schema
                    assert projected == schema.project(columns)
                    value = next(rows)
                    twin = decode_datum(projected, encode_datum(projected, {
                        name: value.get(name)
                        for name in projected.field_names
                    }))
                    assert isinstance(record, Record)
                    assert_behaves_as_its_twin(
                        projected, record, twin, data.draw
                    )

                cif_scan(fs, dataset, columns, True, execution, check)
                assert next(rows, None) is None
                lazy = cif_scan(
                    fs, dataset, columns, True, execution,
                    lambda record: record.to_dict(),
                )
                eager = cif_scan(
                    fs, dataset, columns, False, execution,
                    lambda record: None,
                )
                assert dataclasses.asdict(lazy) == dataclasses.asdict(
                    eager
                ), (layout, execution)
