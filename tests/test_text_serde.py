"""Tests for the delimited text record codec (TXT baseline)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serde.record import Record
from repro.serde.schema import Schema, SchemaError
from repro.serde.text import decode_record, encode_record
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics


def log_schema():
    return Schema.record(
        "log",
        [
            ("url", Schema.string()),
            ("status", Schema.int_()),
            ("latency", Schema.double()),
            ("ok", Schema.boolean()),
            ("tags", Schema.array(Schema.string())),
            ("headers", Schema.map(Schema.string())),
            ("payload", Schema.bytes_()),
        ],
    )


def sample_record(schema):
    return Record(
        schema,
        {
            "url": "http://a.com/x?q=1",
            "status": 404,
            "latency": 1.5,
            "ok": False,
            "tags": ["web", "jp"],
            "headers": {"content-type": "text/html", "server": "ws"},
            "payload": b"\x00\x01binary",
        },
    )


class TestRoundtrip:
    def test_basic_roundtrip(self):
        schema = log_schema()
        rec = sample_record(schema)
        assert decode_record(schema, encode_record(schema, rec)) == rec

    def test_separators_escaped(self):
        schema = Schema.record(
            "r", [("s", Schema.string()), ("m", Schema.map(Schema.string()))]
        )
        rec = Record(
            schema,
            {"s": "tab\there;and,more:x", "m": {"k:1": "v;2", "k\t3": "v,4"}},
        )
        line = encode_record(schema, rec)
        assert "\t" in line  # only the field separator
        assert line.count("\t") == 1
        assert decode_record(schema, line) == rec

    def test_empty_containers(self):
        schema = Schema.record(
            "r",
            [("a", Schema.array(Schema.int_())), ("m", Schema.map(Schema.int_()))],
        )
        rec = Record(schema, {"a": [], "m": {}})
        assert decode_record(schema, encode_record(schema, rec)) == rec

    def test_wrong_field_count_raises(self):
        schema = log_schema()
        with pytest.raises(SchemaError):
            decode_record(schema, "only-one-field")

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40))
    def test_arbitrary_strings_roundtrip(self, text):
        schema = Schema.record("r", [("s", Schema.string()), ("i", Schema.int_())])
        rec = Record(schema, {"s": text, "i": 7})
        assert decode_record(schema, encode_record(schema, rec)) == rec


class TestCostCharging:
    def test_parse_charges_per_byte(self):
        schema = log_schema()
        line = encode_record(schema, sample_record(schema))
        cost, metrics = CpuCostModel(), Metrics()
        decode_record(schema, line, cost, metrics)
        expected = len(line) * cost.profile.text_parse_per_byte
        assert metrics.cpu_ticks == expected

    def test_parse_is_much_pricier_than_binary_decode(self):
        from repro.serde.binary import BinaryDecoder, encode_datum
        from repro.util.buffers import ByteReader

        schema = log_schema()
        rec = sample_record(schema)
        cost = CpuCostModel()

        m_text = Metrics()
        decode_record(schema, encode_record(schema, rec), cost, m_text)
        m_bin = Metrics()
        BinaryDecoder(
            ByteReader(encode_datum(schema, rec)), cost, m_bin
        ).read_datum(schema)
        # TXT's parse overhead is the reason SEQ is ~3x faster (Sec 6.2).
        assert m_text.cpu_time > 2 * m_bin.cpu_time
