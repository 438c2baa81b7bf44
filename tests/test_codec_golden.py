"""Golden bytes: the binary wire format, pinned.

Every row is ``(schema JSON, value, hex of its encoding)``.  The hex
was generated once, by the per-datum ``if kind ==`` codec that preceded
the compiled plans (the parent of PR 21), and is never regenerated: if
a row fails, the on-disk format of every SEQ, RCFile and column file
has moved.  ``docs/format-specs.md`` § Datum encoding describes the
format these rows pin.
"""

import pytest

from repro.serde.binary import BinaryDecoder, decode_datum, encode_datum
from repro.serde.record import Record
from repro.serde.schema import Schema
from repro.util.buffers import ByteReader

_NESTED = (
    '{"type": "record", "name": "outer", "fields": ['
    '{"name": "id", "type": "long"}, '
    '{"name": "inner", "type": {"type": "record", "name": "inner", "fields": ['
    '{"name": "tags", "type": {"type": "array", "items": "string"}}, '
    '{"name": "score", "type": "double"}]}}, '
    '{"name": "attrs", "type": {"type": "map", "values": "int"}}]}'
)

GOLDEN = [
    # integers: one-byte edge, negatives, and beyond 64 bits
    ('"int"', 0, "00"),
    ('"int"', -1, "01"),
    ('"int"', 63, "7e"),
    ('"int"', 64, "8001"),
    ('"int"', -65, "8101"),
    ('"long"', 2**31, "8080808010"),
    ('"long"', -(2**62), "ffffffffffffffff7f"),
    ('"long"', 2**63, "80808080808080808002"),
    ('"long"', -(2**63) - 1, "81808080808080808002"),
    ('"long"', 2**69 - 1, "feffffffffffffffff7f"),
    ('"time"', 1317427200000, "8080beccd74c"),
    ('"double"', 0.0, "0000000000000000"),
    ('"double"', -2.5, "00000000000004c0"),
    ('"double"', 1e300, "9c7500883ce4377e"),
    ('"boolean"', True, "01"),
    ('"boolean"', False, "00"),
    # length prefixes: empty, non-ASCII, the last one-byte and the first
    # two-byte prefix
    ('"string"', "", "00"),
    ('"string"', "héllo wörld ✓", "1168c3a96c6c6f2077c3b6726c6420e29c93"),
    ('"string"', "x" * 127, "7f" + "78" * 127),
    ('"string"', "y" * 128, "8001" + "79" * 128),
    ('"bytes"', b"", "00"),
    ('"bytes"', bytes(range(256)), "8002" + bytes(range(256)).hex()),
    # containers: empty, flat, nested
    ('{"type": "array", "items": "int"}', [], "00"),
    ('{"type": "array", "items": "int"}', [1, -2, 300], "030203d804"),
    (
        '{"type": "array", "items": {"type": "array", "items": "string"}}',
        [[], ["a"], ["b", "cc"]],
        "0300010161020162026363",
    ),
    ('{"type": "map", "values": "string"}', {}, "00"),
    (
        '{"type": "map", "values": "string"}',
        {"clé": "valeur", "鍵": "値", "": ""},
        "0304636cc3a90676616c65757203e98db503e580a40000",
    ),
    (
        '{"type": "map", "values": "int"}',
        {"a": 1, "b": -1, "big": 2**40},
        "0301610201620103626967808080808040",
    ),
    (
        '{"type": "map", "values": "double"}',
        {"pi": 3.141592653589793},
        "01027069182d4454fb210940",
    ),
    (
        '{"type": "map", "values": "boolean"}',
        {"t": True, "f": False},
        "02017401016600",
    ),
    ('{"type": "map", "values": "bytes"}', {"k": b"\x00\xff"}, "01016b0200ff"),
    (
        '{"type": "map", "values": {"type": "map", "values": '
        '{"type": "array", "items": "long"}}}',
        {"outer": {"inner": [2**63, -1]}, "empty": {}},
        "02056f757465720105696e6e657202808080808080808080020105656d70747900",
    ),
    ('{"type": "record", "name": "empty", "fields": []}', {}, ""),
    (
        _NESTED,
        {"id": 7, "inner": {"tags": ["x", "ü"], "score": 0.5},
         "attrs": {"n": -3}},
        "0e02017802c3bc000000000000e03f01016e05",
    ),
    (
        _NESTED,
        {"id": -(2**40), "inner": {"tags": [], "score": -0.0}, "attrs": {}},
        "ffffffffff3f00000000000000008000",
    ),
]


def plain(value):
    """A decoded value with every Record turned back into a dict."""
    if isinstance(value, Record):
        return {k: plain(v) for k, v in value.to_dict().items()}
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value


def test_the_table_covers_every_kind():
    kinds = set()

    def walk(schema):
        kinds.add(schema.kind)
        for child in (schema.items, schema.values):
            if child is not None:
                walk(child)
        for field in schema.fields or ():
            walk(field.schema)

    for schema_json, _, _ in GOLDEN:
        walk(Schema.parse(schema_json))
    assert kinds == {
        "int", "long", "time", "double", "boolean", "string", "bytes",
        "array", "map", "record",
    }
    assert len(GOLDEN) >= 20


@pytest.mark.parametrize("schema_json,value,encoded", GOLDEN)
def test_golden_bytes(schema_json, value, encoded):
    schema = Schema.parse(schema_json)
    data = bytes.fromhex(encoded)
    assert encode_datum(schema, value).hex() == encoded
    decoded = decode_datum(schema, data)
    assert plain(decoded) == value
    assert repr(plain(decoded)) == repr(value)  # -0.0, True vs 1
    # read and skip each consume exactly the encoding, nothing after it
    tail = b"\x7f tail"
    for consume in ("read_datum", "skip_datum"):
        reader = ByteReader(data + tail)
        getattr(BinaryDecoder(reader), consume)(schema)
        assert reader.pos == len(data)
