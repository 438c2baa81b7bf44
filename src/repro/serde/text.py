"""Delimited text encoding — the TXT baseline's record codec.

One record per line, fields separated by tabs.  Complex types use the
ad-hoc conventions real log pipelines use (and that make text files so
expensive to parse back):

- arrays: elements joined with ``,``
- maps: ``key:value`` pairs joined with ``;``
- bytes: base64

Parsing a line back charges ``text_parse_per_byte`` — the CPU cost that
made TXT 3x slower than SequenceFiles in Section 6.2.
"""

from __future__ import annotations

import base64
from typing import Optional

from repro.serde.record import Record, field_values
from repro.serde.schema import Schema, SchemaError
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics

FIELD_SEP = "\t"
ITEM_SEP = ","
ENTRY_SEP = ";"
KV_SEP = ":"

_ESCAPES = {
    "\t": "\\t",
    "\n": "\\n",
    "\\": "\\\\",
    ",": "\\c",
    ";": "\\s",
    ":": "\\k",
}
_UNESCAPES = {v: k for k, v in _ESCAPES.items()}


def _escape(text: str) -> str:
    if not any(ch in text for ch in _ESCAPES):
        return text
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        pair = text[i:i + 2]
        if pair in _UNESCAPES:
            out.append(_UNESCAPES[pair])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def _encode_value(schema: Schema, value) -> str:
    kind = schema.kind
    if kind in ("int", "long", "time"):
        return str(value)
    if kind == "double":
        return repr(float(value))
    if kind == "boolean":
        return "true" if value else "false"
    if kind == "string":
        return _escape(value)
    if kind == "bytes":
        return base64.b64encode(value).decode("ascii")
    if kind == "array":
        return ITEM_SEP.join(_encode_value(schema.items, v) for v in value)
    if kind == "map":
        return ENTRY_SEP.join(
            _escape(k) + KV_SEP + _encode_value(schema.values, v)
            for k, v in value.items()
        )
    raise SchemaError(f"text format cannot encode nested {kind!r}")


def _decode_value(schema: Schema, text: str):
    kind = schema.kind
    if kind in ("int", "long", "time"):
        return int(text)
    if kind == "double":
        return float(text)
    if kind == "boolean":
        return text == "true"
    if kind == "string":
        return _unescape(text)
    if kind == "bytes":
        return base64.b64decode(text.encode("ascii"))
    if kind == "array":
        if not text:
            return []
        return [_decode_value(schema.items, t) for t in text.split(ITEM_SEP)]
    if kind == "map":
        if not text:
            return {}
        out = {}
        for entry in text.split(ENTRY_SEP):
            key, _, val = entry.partition(KV_SEP)
            out[_unescape(key)] = _decode_value(schema.values, val)
        return out
    raise SchemaError(f"text format cannot decode nested {kind!r}")


def encode_record(schema: Schema, record) -> str:
    """Render one record as a text line (without trailing newline)."""
    values = field_values(schema, record)
    return FIELD_SEP.join(
        _encode_value(f.schema, v) for f, v in zip(schema.fields, values)
    )


def decode_record(
    schema: Schema,
    line: str,
    cost: Optional[CpuCostModel] = None,
    metrics: Optional[Metrics] = None,
) -> Record:
    """Parse one line back into a record, charging text-parse CPU cost."""
    if cost is not None and metrics is not None:
        cost.charge_text_parse(metrics, len(line))
        metrics.objects += 1 + len(schema.fields)
    parts = line.rstrip("\n").split(FIELD_SEP)
    if len(parts) != len(schema.fields):
        raise SchemaError(
            f"line has {len(parts)} fields, schema has {len(schema.fields)}"
        )
    rec = Record(schema)
    for field, part in zip(schema.fields, parts):
        rec.put(field.name, _decode_value(field.schema, part))
    return rec
