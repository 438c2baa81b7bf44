"""Tests for binary encode/decode/skip of schema-typed datums."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serde.binary import BinaryDecoder, BinaryEncoder, decode_datum, encode_datum
from repro.serde.record import Record
from repro.serde.schema import Schema, SchemaError
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader


def micro_schema():
    """The Section 6.2 microbenchmark schema: 6 strings, 6 ints, 1 map."""
    fields = [(f"str{i}", Schema.string()) for i in range(6)]
    fields += [(f"int{i}", Schema.int_()) for i in range(6)]
    fields.append(("attrs", Schema.map(Schema.int_())))
    return Schema.record("micro", fields)


def micro_record(schema, i=0):
    rec = Record(schema)
    for j in range(6):
        rec.put(f"str{j}", f"value-{i}-{j}" * 3)
        rec.put(f"int{j}", i * 7 + j)
    rec.put("attrs", {f"k{j:02d}": i + j for j in range(10)})
    return rec


class TestPrimitives:
    @pytest.mark.parametrize(
        "kind,value",
        [
            ("int", 0),
            ("int", -12345),
            ("long", 2**40),
            ("time", 1300000000),
            ("double", 3.25),
            ("boolean", True),
            ("boolean", False),
            ("string", "héllo wörld"),
            ("bytes", b"\x00\xff binary"),
        ],
    )
    def test_roundtrip(self, kind, value):
        schema = Schema(kind)
        assert decode_datum(schema, encode_datum(schema, value)) == value

    def test_empty_string_and_bytes(self):
        assert decode_datum(Schema.string(), encode_datum(Schema.string(), "")) == ""
        assert decode_datum(Schema.bytes_(), encode_datum(Schema.bytes_(), b"")) == b""


class TestComplexTypes:
    def test_array_roundtrip(self):
        schema = Schema.array(Schema.string())
        value = ["a", "bb", "", "dddd"]
        assert decode_datum(schema, encode_datum(schema, value)) == value

    def test_map_roundtrip_preserves_entries(self):
        schema = Schema.map(Schema.int_())
        value = {"content-type": 1, "encoding": 2, "language": 3}
        assert decode_datum(schema, encode_datum(schema, value)) == value

    def test_nested_array_of_maps(self):
        schema = Schema.array(Schema.map(Schema.string()))
        value = [{"a": "x"}, {}, {"b": "y", "c": "z"}]
        assert decode_datum(schema, encode_datum(schema, value)) == value

    def test_record_roundtrip(self):
        schema = micro_schema()
        rec = micro_record(schema, 5)
        assert decode_datum(schema, encode_datum(schema, rec)) == rec

    def test_record_from_dict(self):
        schema = Schema.record("p", [("x", Schema.int_()), ("y", Schema.int_())])
        data = encode_datum(schema, {"x": 1, "y": 2})
        rec = decode_datum(schema, data)
        assert rec.get("x") == 1 and rec.get("y") == 2

    def test_nested_record(self):
        inner = Schema.record("pt", [("x", Schema.int_()), ("y", Schema.int_())])
        outer = Schema.record("seg", [("a", inner), ("b", inner)])
        value = {"a": {"x": 1, "y": 2}, "b": {"x": 3, "y": 4}}
        rec = decode_datum(outer, encode_datum(outer, value))
        assert rec.get("b").get("y") == 4


class TestSkip:
    def test_skip_positions_like_decode(self):
        schema = micro_schema()
        enc = BinaryEncoder()
        for i in range(10):
            enc.write_datum(schema, micro_record(schema, i))
        data = enc.getvalue()

        dec = BinaryDecoder(ByteReader(data))
        skipped = 0
        for _ in range(9):
            skipped += dec.skip_datum(schema)
        last = dec.read_datum(schema)
        assert last == micro_record(schema, 9)
        assert skipped + (len(data) - skipped) == len(data)

    def test_skip_is_cheaper_than_decode(self):
        schema = micro_schema()
        data = encode_datum(schema, micro_record(schema, 1))
        cost = CpuCostModel()

        m_read = Metrics()
        BinaryDecoder(ByteReader(data), cost, m_read).read_datum(schema)
        m_skip = Metrics()
        BinaryDecoder(ByteReader(data), cost, m_skip).skip_datum(schema)

        assert 0 < m_skip.cpu_time < m_read.cpu_time
        assert m_skip.objects == 0 and m_read.objects > 0

    def test_decode_charges_cells(self):
        schema = micro_schema()
        data = encode_datum(schema, micro_record(schema, 0))
        cost, metrics = CpuCostModel(), Metrics()
        BinaryDecoder(ByteReader(data), cost, metrics).read_datum(schema)
        # 6 strings + 6 ints + 10 map keys + 10 map values
        assert metrics.cells == 6 + 6 + 10 + 10


class TestTypedErrors:
    def test_missing_record_field_is_a_schema_error(self):
        schema = Schema.record(
            "pair", [("a", Schema.int_()), ("b", Schema.int_())]
        )
        with pytest.raises(SchemaError, match=r"'pair'.*'b'"):
            encode_datum(schema, {"a": 1})

    def test_metrics_without_a_cost_model_are_rejected(self):
        with pytest.raises(ValueError, match="cost model"):
            BinaryDecoder(ByteReader(b"\x02"), cost=None, metrics=Metrics())
        # a cost model alone is fine: nothing to charge, nothing charged
        decoder = BinaryDecoder(ByteReader(b"\x02\x02"), cost=CpuCostModel())
        assert decoder.read_datum(Schema.int_()) == 1
        assert decoder.skip_datum(Schema.int_()) == 1

    @pytest.mark.parametrize("cost", [None, CpuCostModel()])
    def test_a_run_without_metrics_is_read_uncharged(self, cost):
        # as read_datum, read_inner and skip_datum: plain values, built
        schema = micro_schema()
        records = [micro_record(schema, i) for i in range(3)]
        data = b"".join(encode_datum(schema, r) for r in records)
        decoder = BinaryDecoder(ByteReader(data), cost=cost)
        assert decoder.read_deferred(schema, 3) == records
        assert decoder.reader.at_end()
        attrs = Schema.map(Schema.int_())
        maps = [{"a": 1}, {}, {"b": -300}]
        data = b"".join(encode_datum(attrs, m) for m in maps)
        got = BinaryDecoder(ByteReader(data)).read_deferred(attrs, 3)
        assert got == maps and all(type(m) is dict for m in got)


values_strategy = st.recursive(
    st.one_of(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def schema_for(value):
    if isinstance(value, bool):
        return Schema.boolean()
    if isinstance(value, int):
        return Schema.long_()
    if isinstance(value, str):
        return Schema.string()
    if isinstance(value, list):
        inner = schema_for(value[0]) if value else Schema.int_()
        if inner is None or any(schema_for(v) != inner for v in value):
            return None
        return Schema.array(inner)
    if isinstance(value, dict):
        vals = list(value.values())
        inner = schema_for(vals[0]) if vals else Schema.int_()
        if inner is None or any(schema_for(v) != inner for v in vals):
            return None
        return Schema.map(inner)
    return None


class TestPropertyRoundtrip:
    @settings(max_examples=200)
    @given(values_strategy)
    def test_uniform_containers_roundtrip(self, value):
        schema = schema_for(value)
        if schema is None:  # heterogeneous container: not schema-typable
            return
        assert decode_datum(schema, encode_datum(schema, value)) == value

    @given(st.lists(st.text(max_size=30), min_size=0, max_size=50))
    def test_string_array_skip_then_read(self, items):
        schema = Schema.record(
            "r", [("a", Schema.array(Schema.string())), ("tail", Schema.int_())]
        )
        enc = BinaryEncoder()
        enc.write_datum(schema, {"a": items, "tail": 99})
        dec = BinaryDecoder(ByteReader(enc.getvalue()))
        dec.skip_datum(schema.field("a").schema)
        assert dec.read_datum(Schema.int_()) == 99
