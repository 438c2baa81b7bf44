"""What the differential oracle cannot see in the codec.

The compiled codec plans (``repro.serde.binary``) sit under the engine
*and* under the reference ``repro.check`` compares it with, so a bug in
them lands on both legs.  These properties stand outside both:

- a **value-side charge oracle** that never looks at the bytes: it
  walks ``(schema, value)`` through the public ``CpuCostModel.charge_*``
  methods and must equal, exactly, what ``read_datum`` and
  ``skip_datum`` charged;
- a **truncation sweep**: every proper prefix of an encoding raises
  ``EOFError`` or ``VarintError`` from read and from skip, nothing else;
- **charges at a raise**: what ``metrics`` holds when a truncated datum
  raises equals what a per-datum reference walk over the same bytes
  (public reader methods, public charges, one step at a time) holds
  when *it* raises.

Each holds for one datum (``read_datum``) and for a run of ``k``
datums (``read_deferred(schema, k)``, an RCFile column chunk's read),
which charges what ``k`` per-datum reads charge, with one raw scan of
the run.  All of it runs over a ``ByteReader`` and over a
``StreamByteReader`` with a 61-byte buffer, so datums cross window
edges constantly.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hdfs import ClusterConfig, FileSystem
from repro.hdfs.streams import StreamByteReader
from repro.serde.binary import BinaryDecoder, encode_datum
from repro.serde.record import Record, _Deferred, field_values
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader
from repro.util.varint import VarintError, varint_size
from tests.test_codec_golden import GOLDEN
from tests.test_fuzz_schemas import (
    FUZZ_SETTINGS, record_schema_strategy, value_for,
)

COST = CpuCostModel()
WINDOW = 61
READERS = ("bytes", "stream")
RUNS = (1, 2, 5)  # datums per read_deferred


def open_reader(kind: str, data: bytes, metrics=None):
    if kind == "bytes":
        return ByteReader(data)
    fs = FileSystem(
        ClusterConfig(num_nodes=1, block_size=4096, io_buffer_size=WINDOW)
    )
    fs.write_file("/datum", data)
    return StreamByteReader(fs.open("/datum", metrics=metrics))


# -- (i) the value-side oracle -----------------------------------------


def charge_walk(m: Metrics, schema: Schema, value, skipping=False) -> None:
    """Charge ``m`` what decoding ``value`` costs, from the value alone.

    ``skipping`` charges a var-length value for its whole span (the
    length prefix too), which is what a skip walks.
    """
    kind = schema.kind

    def chunk(payload: bytes) -> int:
        n = len(payload)
        return n + varint_size(n) if skipping else n

    if kind == "int":
        COST.charge_int(m)
    elif kind in ("long", "time"):
        COST.charge_long(m)
    elif kind == "double":
        COST.charge_double(m)
    elif kind == "boolean":
        COST.charge_bool(m)
    elif kind == "string":
        COST.charge_string(m, chunk(value.encode("utf-8")))
    elif kind == "bytes":
        COST.charge_bytes(m, chunk(value))
    elif kind == "array":
        COST.charge_array(m, len(value))
        for item in value:
            charge_walk(m, schema.items, item, skipping)
    elif kind == "map":
        COST.charge_map(m, len(value))
        for key, item in value.items():
            COST.charge_string(m, chunk(key.encode("utf-8")))
            charge_walk(m, schema.values, item, skipping)
    else:
        COST.charge_record(m)
        for field, item in zip(schema.fields, field_values(schema, value)):
            charge_walk(m, field.schema, item, skipping)


#: metrics never start at zero in a task
_ALREADY = 123_456_789


def assert_charges_match_the_oracle(schema, value):
    data = encode_datum(schema, value)
    for kind in READERS:
        expected = Metrics(cpu_ticks=_ALREADY)
        charge_walk(expected, schema, value)
        COST.charge_raw_scan(expected, len(data))
        got = Metrics(cpu_ticks=_ALREADY)
        BinaryDecoder(open_reader(kind, data), COST, got).read_datum(schema)
        assert (got.cpu_ticks, got.cells, got.objects) == (
            expected.cpu_ticks, expected.cells, expected.objects
        ), kind

        scratch = Metrics()
        charge_walk(scratch, schema, value, skipping=True)
        COST.charge_raw_scan(scratch, len(data))
        expected = Metrics(cpu_ticks=_ALREADY)
        expected.charge_cpu(COST.skip_discount(scratch.cpu_ticks))
        got = Metrics(cpu_ticks=_ALREADY)
        decoder = BinaryDecoder(open_reader(kind, data), COST, got)
        assert decoder.skip_datum(schema) == len(data)
        assert (got.cpu_ticks, got.cells, got.objects) == (
            expected.cpu_ticks, 0, 0
        ), kind


def assert_a_run_matches_the_oracle(schema, values):
    """``read_deferred`` of ``values`` charges each as the oracle does,
    plus one raw scan of the run, and reads them back."""
    data = b"".join(encode_datum(schema, value) for value in values)
    for kind in READERS:
        expected = Metrics(cpu_ticks=_ALREADY)
        for value in values:
            charge_walk(expected, schema, value)
        COST.charge_raw_scan(expected, len(data))
        got = Metrics(cpu_ticks=_ALREADY)
        reader = open_reader(kind, data)
        run = BinaryDecoder(reader, COST, got).read_deferred(
            schema, len(values)
        )
        assert (got.cpu_ticks, got.cells, got.objects) == (
            expected.cpu_ticks, expected.cells, expected.objects
        ), kind
        assert reader.offset == len(data), kind
        built = [
            v.build(v.span) if type(v) is _Deferred else v for v in run
        ]
        assert b"".join(encode_datum(schema, v) for v in built) == data


class TestChargeOracle:
    @FUZZ_SETTINGS
    @given(data=st.data(), schema=record_schema_strategy())
    def test_generated_schemas(self, data, schema):
        assert_charges_match_the_oracle(schema, value_for(schema, data.draw))

    @pytest.mark.parametrize("schema_json,value,_", GOLDEN)
    def test_golden_rows(self, schema_json, value, _):
        assert_charges_match_the_oracle(Schema.parse(schema_json), value)

    @pytest.mark.parametrize("k", RUNS)
    @FUZZ_SETTINGS
    @given(data=st.data(), schema=record_schema_strategy())
    def test_generated_runs(self, k, data, schema):
        # a run of records, and a run of each field's datums (a column
        # chunk of that field)
        for s in [schema] + [f.schema for f in schema.fields]:
            assert_a_run_matches_the_oracle(
                s, [value_for(s, data.draw) for _ in range(k)]
            )

    @pytest.mark.parametrize("k", RUNS)
    @pytest.mark.parametrize("schema_json,value,_", GOLDEN)
    def test_golden_runs(self, k, schema_json, value, _):
        assert_a_run_matches_the_oracle(Schema.parse(schema_json), [value] * k)

    def test_a_map_far_wider_than_the_window(self):
        # whole entries off the window, entries straddling its edge and
        # entries with two-byte prefixes, all in one datum
        schema = Schema.map(Schema.string())
        value = {f"key-{i}": "v" * (i * 7 % 150) for i in range(60)}
        assert_charges_match_the_oracle(schema, value)
        assert_charges_match_the_oracle(
            Schema.map(Schema.bytes_()),
            {k: v.encode() for k, v in value.items()},
        )


# -- (ii) + (iii) truncation -------------------------------------------


def reference_read(r, m: Metrics, schema: Schema):
    """One datum the per-datum way: a public reader call and a public
    charge per step, in the order the codec has always taken them."""
    kind = schema.kind
    if kind in ("int", "long", "time"):
        (COST.charge_int if kind == "int" else COST.charge_long)(m)
        return r.read_zigzag()
    if kind == "double":
        COST.charge_double(m)
        return r.read_double()
    if kind == "boolean":
        COST.charge_bool(m)
        return r.read_byte() != 0
    if kind in ("string", "bytes"):
        raw = r.read_len_prefixed()
        if kind == "bytes":
            COST.charge_bytes(m, len(raw))
            return raw
        COST.charge_string(m, len(raw))
        return raw.decode("utf-8")
    if kind == "array":
        count = r.read_varint()
        COST.charge_array(m, count)
        return [reference_read(r, m, schema.items) for _ in range(count)]
    if kind == "map":
        count = r.read_varint()
        COST.charge_map(m, count)
        out = {}
        for _ in range(count):
            raw = r.read_len_prefixed()
            COST.charge_string(m, len(raw))
            out[raw.decode("utf-8")] = reference_read(r, m, schema.values)
        return out
    COST.charge_record(m)
    return Record.of(
        schema, [reference_read(r, m, f.schema) for f in schema.fields]
    )


def outcome(kind, data, schema, consume):
    """``(exception type or None, everything metrics held afterwards)``
    of consuming one datum, after one whole datum read before it."""
    m = Metrics()
    reader = open_reader(kind, data, metrics=m)
    raised = None
    try:
        consume(reader, m, schema)  # the whole datum in front
        consume(reader, m, schema)  # the truncated one
    except Exception as exc:  # noqa: BLE001 - the type is the assertion
        raised = type(exc)
    return raised, dataclasses.asdict(m)


def plan_read(reader, m, schema):
    return BinaryDecoder(reader, COST, m).read_datum(schema)


def plan_skip(reader, m, schema):
    return BinaryDecoder(reader, COST, m).skip_datum(schema)


def reference_read_datum(reader, m, schema):
    start = reader.offset
    value = reference_read(reader, m, schema)
    COST.charge_raw_scan(m, reader.offset - start)
    return value


def assert_every_prefix_raises_cleanly(schema, value):
    whole = encode_datum(schema, value)
    for cut in range(len(whole)):
        data = whole + whole[:cut]
        for kind in READERS:
            raised, held = outcome(kind, data, schema, plan_read)
            assert raised in (EOFError, VarintError), (kind, cut, raised)
            # (iii) every step completed before the raise is charged,
            # the raw scan of the datum that raised is not
            assert (raised, held) == outcome(
                kind, data, schema, reference_read_datum
            ), (kind, cut)

            raised, held = outcome(kind, data, schema, plan_skip)
            assert raised in (EOFError, VarintError), (kind, cut, raised)
            # a skip charges once, at its end: only the whole datum in
            # front has been charged
            before = Metrics()
            plan_skip(open_reader(kind, whole, metrics=before), before, schema)
            assert held["cpu_ticks"] == before.cpu_ticks, (kind, cut)
            assert (held["cells"], held["objects"]) == (0, 0)


def assert_every_prefix_of_a_run_raises_cleanly(schema, values):
    """Every proper prefix of a run of ``values`` raises from
    ``read_deferred``, holding the books of one per-datum reference read
    after another: every step completed before the raise, and no raw
    scan (a run charges it once, at its end)."""
    k = len(values)
    whole = b"".join(encode_datum(schema, value) for value in values)

    def plan_run(reader, m, schema):
        return BinaryDecoder(reader, COST, m).read_deferred(schema, k)

    def reference_run(reader, m, schema):
        start = reader.offset
        run = [reference_read(reader, m, schema) for _ in range(k)]
        COST.charge_raw_scan(m, reader.offset - start)
        return run

    for cut in range(len(whole)):
        data = whole + whole[:cut]
        for kind in READERS:
            raised, held = outcome(kind, data, schema, plan_run)
            assert raised in (EOFError, VarintError), (kind, cut, raised)
            assert (raised, held) == outcome(
                kind, data, schema, reference_run
            ), (kind, cut)


class TestTruncation:
    @FUZZ_SETTINGS
    @given(data=st.data(), schema=record_schema_strategy(max_fields=3))
    def test_generated_schemas(self, data, schema):
        assert_every_prefix_raises_cleanly(
            schema, value_for(schema, data.draw)
        )

    @pytest.mark.parametrize("k", RUNS)
    @FUZZ_SETTINGS
    @given(data=st.data(), schema=record_schema_strategy(max_fields=3))
    def test_generated_runs(self, k, data, schema):
        assert_every_prefix_of_a_run_raises_cleanly(
            schema, [value_for(schema, data.draw) for _ in range(k)]
        )

    @pytest.mark.parametrize(
        "schema_json,value",
        [(s, v) for s, v, encoded in GOLDEN if 2 < len(encoded) < 160],
    )
    def test_golden_rows(self, schema_json, value):
        assert_every_prefix_raises_cleanly(Schema.parse(schema_json), value)

    def test_a_map_wider_than_the_window(self):
        schema = Schema.map(Schema.string())
        value = {f"k{i}": "v" * (i * 37 % 140) for i in range(8)}
        assert_every_prefix_raises_cleanly(schema, value)

    @pytest.mark.parametrize("broken", [b"KK", b"VV"])
    def test_invalid_utf8_inside_a_map(self, broken):
        # not a truncation, but the same contract: the entries taken off
        # the window before the one that does not decode stay charged
        schema = Schema.map(Schema.string())
        value = {"k0": "a", "k1": "bb", "KK": "c", "k3": "VV", "k4": "d"}
        whole = encode_datum(schema, value)
        data = whole + whole.replace(broken, b"\xff\xfe")
        for kind in READERS:
            raised, held = outcome(kind, data, schema, plan_read)
            assert raised is UnicodeDecodeError, kind
            assert held["cells"] > 2 * len(value), kind
            assert (raised, held) == outcome(
                kind, data, schema, reference_read_datum
            ), kind
