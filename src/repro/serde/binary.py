"""Binary encoding and decoding of schema-typed datums.

The wire format follows Avro's binary encoding closely:

- ``int``/``long``/``time``: zig-zag varints,
- ``double``: 8 little-endian bytes,
- ``boolean``: one byte,
- ``string``/``bytes``: varint length + raw bytes,
- ``array``: varint count + elements,
- ``map``: varint count + (string key, value) pairs,
- ``record``: field values in schema order, no per-field framing.

A schema is *compiled* the first time it is encoded or decoded: every
node gets a :class:`_Plan`, five functions with the node's kind and its
children's plans already bound, kept on the schema (``Schema._codec``)
so it lives exactly as long as the schema does.  :class:`BinaryDecoder`
and :class:`BinaryEncoder` are one call into the plan per datum.

:class:`BinaryDecoder` has two read paths: :meth:`read_datum`, which
materializes a value and charges full deserialization cost, and
:meth:`skip_datum`, which walks the structure without materializing and
charges only the (cheaper) skip cost — the distinction lazy record
construction exploits (Section 5).

Charges are whole ticks added into ``metrics.cpu_ticks``: a plan adds
the same terms the cost model's ``charge_*`` methods would
(``docs/cost-model.md`` § Where charges are applied).

A charged record read *defers* its map and array fields (see
:func:`_deferral`): each is charged in full and built on first access.
A charged ``map<string>`` read outside a record takes the same step and
builds the span at once.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from itertools import accumulate, islice
from typing import (
    Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.serde.record import Record, _Deferred, field_values
from repro.serde.schema import Schema, SchemaError
from repro.sim.cost import CpuCostModel, decode_rates
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader, ByteWriter
from repro.util.varint import _VARINT_LIMIT, encode_varint, encode_zigzag

_DOUBLE = struct.Struct("<d")


class _Plan(NamedTuple):
    """One schema node, compiled.  ``r`` is a ByteReader, ``p`` a
    CostProfile, ``m`` the Metrics charged, ``out`` a bytearray."""

    read: Callable  #: (r) -> value
    read_charged: Callable  #: (r, p, m) -> value, decode cost added to m
    skip: Callable  #: (r) -> None
    #: (r, p, cpu) -> cpu plus the datum's decode-equivalent cost
    skip_charged: Callable
    write: Callable  #: (value, out) -> None
    #: (r, p, m) -> value or a ``_Deferred``, charged as ``read_charged``:
    #: what a record field or :meth:`BinaryDecoder.read_deferred` reads
    defer: Callable


def _plan(schema: Schema) -> _Plan:
    plan = schema._codec
    if plan is None:
        compile_container = _CONTAINER_PLANS.get(schema.kind)
        plan = schema._codec = (
            compile_container(schema) if compile_container
            else _PRIMITIVE_PLANS[schema.kind]
        )
    return plan


# -- window steps -------------------------------------------------------
#
# Each takes the common case straight off the reader's buffered window
# (``r._buf`` / ``r.pos``) and hands everything else (a multi-byte
# prefix, a datum crossing the window's edge, EOF) to the reader's own
# method, so a stream-backed reader refills, seeks and raises as ever.


def _varint(r) -> int:
    try:
        byte = r._buf[r.pos]
    except IndexError:
        return r.read_varint()
    if byte >= 0x80:
        return r.read_varint()
    r.pos += 1
    return byte


def _zigzag(r) -> int:
    folded = _varint(r)
    return (folded >> 1) ^ -(folded & 1)


def _chunk(r):
    """A length-prefixed payload (``bytes`` or ``bytearray``)."""
    buf = r._buf
    pos = r.pos
    try:
        n = buf[pos]
    except IndexError:
        return r.read_len_prefixed()
    end = pos + 1 + n
    if n >= 0x80 or end > len(buf):
        return r.read_len_prefixed()
    r.pos = end
    return buf[pos + 1:end]


def _hop_chunk(r) -> int:
    """Pass a length-prefixed payload; the bytes passed, prefix included."""
    buf = r._buf
    pos = r.pos
    try:
        n = buf[pos]
    except IndexError:
        return r.skip_len_prefixed()
    end = pos + 1 + n
    if n >= 0x80 or end > len(buf):
        return r.skip_len_prefixed()
    r.pos = end
    return 1 + n


# -- primitives: one shared plan per kind -------------------------------
#
# What a datum costs comes from ``decode_rates`` as getters over the
# profile, bound here once; the profile itself (``p``) is the decoder's.


def _fixed(kind: str, read, skip, write) -> _Plan:
    """A primitive charged one flat rate per value."""
    rate, _ = decode_rates(kind)

    def read_charged(r, p, m):
        m.cpu_ticks += rate(p)
        m.cells += 1
        return read(r)

    def skip_charged(r, p, cpu):
        skip(r)
        return cpu + rate(p)

    return _Plan(read, read_charged, skip, skip_charged, write, read_charged)


def _write_chunk(value, out) -> None:
    encode_varint(len(value), out)
    out += value


def _chunk_plan(kind: str, decode, encode) -> _Plan:
    """``string`` or ``bytes``: a length prefix, then the payload."""
    base, per_byte = decode_rates(kind)

    def read(r):
        return decode(_chunk(r))

    def read_charged(r, p, m):
        raw = _chunk(r)
        m.cpu_ticks += base(p) + len(raw) * per_byte(p)
        m.cells += 1
        m.objects += 1
        return decode(raw)

    def skip_charged(r, p, cpu):
        # a skipped value is charged for its whole span, prefix included
        return cpu + (base(p) + _hop_chunk(r) * per_byte(p))

    def write(value, out):
        _write_chunk(encode(value), out)

    return _Plan(
        read, read_charged, _hop_chunk, skip_charged, write, read_charged
    )


_PRIMITIVE_PLANS = {
    "int": _fixed("int", _zigzag, _varint, encode_zigzag),
    "long": _fixed("long", _zigzag, _varint, encode_zigzag),
    "time": _fixed("time", _zigzag, _varint, encode_zigzag),
    "double": _fixed(
        "double",
        lambda r: r.read_double(),
        lambda r: r.skip(8),
        lambda value, out: out.extend(_DOUBLE.pack(value)),
    ),
    "boolean": _fixed(
        "boolean",
        lambda r: r.read_byte() != 0,
        lambda r: r.skip(1),
        lambda value, out: out.append(1 if value else 0),
    ),
    "string": _chunk_plan(
        "string",
        lambda raw: str(raw, "utf-8"),
        lambda text: text.encode("utf-8"),
    ),
    "bytes": _chunk_plan("bytes", bytes, lambda data: data),
}


# -- containers: closures over the children's plans ---------------------


def _array_plan(schema: Schema) -> _Plan:
    item_read, item_read_charged, item_skip, item_skip_charged, \
        item_write, _ = _plan(schema.items)
    base, per_element = decode_rates("array")

    def read(r):
        return [item_read(r) for _ in range(_varint(r))]

    def read_charged(r, p, m):
        count = _varint(r)
        m.cpu_ticks += base(p) + count * per_element(p)
        m.objects += 1
        return [item_read_charged(r, p, m) for _ in range(count)]

    def skip(r):
        for _ in range(_varint(r)):
            item_skip(r)

    def skip_charged(r, p, cpu):
        count = _varint(r)
        cpu += base(p) + count * per_element(p)
        for _ in range(count):
            cpu = item_skip_charged(r, p, cpu)
        return cpu

    def write(value, out):
        encode_varint(len(value), out)
        for element in value:
            item_write(element, out)

    return _Plan(
        read, read_charged, skip, skip_charged, write,
        _deferral(schema, read_charged),
    )


_MAP_BASE, _MAP_ENTRY = decode_rates("map")
_KEY_BASE, _KEY_BYTE = decode_rates("string")


def _key_charged(r, p, m):
    """A map key's bytes, charged.  The caller decodes them once the
    entry's value is read, the order the codec has always taken."""
    raw = _chunk(r)
    m.cpu_ticks += _KEY_BASE(p) + len(raw) * _KEY_BYTE(p)
    m.cells += 1
    m.objects += 1
    return raw


def _map_plan(schema: Schema) -> _Plan:
    value_read, value_read_charged, value_skip, value_skip_charged, \
        value_write, _ = _plan(schema.values)

    def read(r):
        out = {}
        for _ in range(_varint(r)):
            key = str(_chunk(r), "utf-8")
            out[key] = value_read(r)
        return out

    def per_entry(r, p, m):
        count = _varint(r)
        m.cpu_ticks += _MAP_BASE(p) + count * _MAP_ENTRY(p)
        m.objects += 1 + count
        out = {}
        for _ in range(count):
            raw = _key_charged(r, p, m)
            out[str(raw, "utf-8")] = value_read_charged(r, p, m)
        return out

    defer = _deferral(schema, per_entry)
    if schema.values.kind == "string":
        def read_charged(r, p, m):
            # the one window route: the deferral step, built at once
            value = defer(r, p, m)
            if type(value) is _Deferred:
                return value.build(value.span)
            return value
    else:
        read_charged = per_entry

    def skip(r):
        for _ in range(_varint(r)):
            _hop_chunk(r)
            value_skip(r)

    def skip_charged(r, p, cpu):
        count = _varint(r)
        cpu += _MAP_BASE(p) + count * _MAP_ENTRY(p)
        for _ in range(count):
            cpu += _KEY_BASE(p) + _hop_chunk(r) * _KEY_BYTE(p)
            cpu = value_skip_charged(r, p, cpu)
        return cpu

    def write(value, out):
        encode_varint(len(value), out)
        for key, val in value.items():
            _write_chunk(key.encode("utf-8"), out)
            value_write(val, out)

    return _Plan(read, read_charged, skip, skip_charged, write, defer)


# -- deferral: a record's maps and arrays, built on first access --------
#
# A charged record read takes each map or array of primitives with one
# window loop and one hand-off.  The loop hops the datum and proves it
# decodes: it lies wholly in the window and is ASCII throughout, so every
# varint in it is one byte and every string in it is ASCII.  It charges
# what ``read_charged`` would and returns a ``_Deferred`` over a copy of
# the span.  Any other datum goes to the per-entry ``read_charged``,
# which refills, raises and charges partially as it always has.  (A
# double's eight bytes are seldom ASCII, so doubles are never deferred.)
# Each plan compiles its step once (``_Plan.defer``), and a ``map<string>``
# read anywhere else is the same step with its span built at once: the
# one window route that type has.

#: item kind -> its value from its one byte in a proven span
_ONE_BYTE = dict.fromkeys(("int", "long", "time"), lambda b: b >> 1 ^ -(b & 1))
_ONE_BYTE["boolean"] = bool


def _builder(keyed: bool, kind: str) -> Callable:
    """Builds the map (``keyed``) or array in a proven span in one loop;
    every string is a slice of the span's text, decoded once."""
    one_byte = _ONE_BYTE.get(kind)
    raw = kind == "bytes"

    def build(span):
        text = span.decode("ascii")
        out = {} if keyed else []
        pos = 1
        for _ in range(span[0]):
            if keyed:
                key_end = pos + 1 + span[pos]
                key = text[pos + 1:key_end]
                pos = key_end
            if one_byte:
                value = one_byte(span[pos])
                pos += 1
            else:
                end = pos + 1 + span[pos]
                value = bytes(span[pos + 1:end]) if raw else text[pos + 1:end]
                pos = end
            if keyed:
                out[key] = value
            else:
                out.append(value)
        return out

    return build


def _deferral(schema: Schema, eager: Callable) -> Callable:
    """The deferral step of a map or array of primitives; ``eager`` (its
    ``read_charged``) for any other schema."""
    if schema.kind not in ("map", "array"):
        return eager
    keyed = schema.kind == "map"
    item = schema.values if keyed else schema.items
    if item.kind not in ("string", "bytes", *_ONE_BYTE):
        return eager
    chunked = item.kind in ("string", "bytes")
    base, per_unit = decode_rates(schema.kind)
    item_base, item_byte = decode_rates(item.kind)
    build = _builder(keyed, item.kind)

    def step(r, p, m):
        buf = r._buf
        start = r.pos
        keys = 0  # key payload bytes
        try:
            count = buf[start]
            pos = start + 1
            for _ in range(count):
                if keyed:
                    n = buf[pos]
                    keys += n
                    pos += n + 1
                pos += buf[pos] + 1 if chunked else 1
        except IndexError:
            return eager(r, p, m)
        span = buf[start:pos]
        if pos > len(buf) or not span.isascii():
            return eager(r, p, m)
        r.pos = pos
        cells = 2 * count if keyed else count  # and as many prefixes
        cpu = base(p) + count * (per_unit(p) + item_base(p))
        if chunked:
            cpu += (pos - start - 1 - cells - keys) * item_byte(p)
        if keyed:
            cpu += count * _KEY_BASE(p) + keys * _KEY_BYTE(p)
        m.cpu_ticks += cpu
        m.cells += cells
        # the container, and a key (plus its entry) and a string a value
        m.objects += 1 + count * (2 * keyed + chunked)
        return _Deferred(build, span)

    return step


def _record_plan(schema: Schema) -> _Plan:
    plans = [_plan(f.schema) for f in schema.fields]
    reads, _, skips, skips_charged, writes, steps = (
        zip(*plans) if plans else [()] * 6
    )
    base, _ = decode_rates("record")

    def read(r):
        return Record.of(schema, [field(r) for field in reads])

    def read_charged(r, p, m):
        m.cpu_ticks += base(p)
        m.objects += 1
        return Record.of(schema, [field(r, p, m) for field in steps])

    def skip(r):
        for field in skips:
            field(r)

    def skip_charged(r, p, cpu):
        cpu += base(p)
        for field in skips_charged:
            cpu = field(r, p, cpu)
        return cpu

    def write(value, out):
        values = field_values(schema, value)
        if len(values) != len(writes):
            raise SchemaError(
                f"record value has {len(values)} fields, "
                f"schema has {len(writes)}"
            )
        for field, fval in zip(writes, values):
            field(fval, out)

    return _Plan(read, read_charged, skip, skip_charged, write, read_charged)


_CONTAINER_PLANS = {
    "array": _array_plan, "map": _map_plan, "record": _record_plan,
}


# -- the public codec ---------------------------------------------------


class BinaryEncoder:
    """Serializes datums into a :class:`~repro.util.buffers.ByteWriter`."""

    def __init__(self, writer: Optional[ByteWriter] = None) -> None:
        self.writer = writer if writer is not None else ByteWriter()

    def write_datum(self, schema: Schema, value) -> None:
        _plan(schema).write(value, self.writer._buf)

    def getvalue(self) -> bytes:
        return self.writer.getvalue()


def encode_datum(schema: Schema, value) -> bytes:
    """Convenience one-shot encode."""
    out = bytearray()
    _plan(schema).write(value, out)
    return bytes(out)


# -- whole columns ------------------------------------------------------
#
# A loader encodes a column at a time.  Strings, integers and maps of
# integers have loops of their own for plain values (ASCII strings under
# 128 characters, ``int`` values a varint holds, ``dict`` maps of under
# 128 entries and keys of under 128 bytes); a column with any other
# value is written by its plan, so every error is ``encode_datum``'s.

_ZIGZAG_KINDS = ("int", "long", "time")


def _string_column(values):
    if not set(map(type, values)) <= {str}:
        return None
    lengths = list(map(len, values))
    if max(lengths, default=0) >= 0x80:
        return None
    parts = [""] * (2 * len(values))  # length prefix, text, ...
    parts[0::2] = map(chr, lengths)
    parts[1::2] = values
    text = "".join(parts)
    if not text.isascii():
        return None
    ends = accumulate(map((1).__add__, lengths), initial=0)
    return text.encode("ascii"), list(ends)


def _zigzag_column(values):
    if not set(map(type, values)) <= {int}:
        return None
    out, ends = bytearray(), [0]
    append = out.append
    for value in values:
        folded = value << 1 if value >= 0 else (-value << 1) - 1
        if folded >= _VARINT_LIMIT:
            return None
        while folded >= 0x80:
            append(folded & 0x7F | 0x80)
            folded >>= 7
        append(folded)
        ends.append(len(out))
    return out, ends


def _zigzag_map_column(values):
    out, ends, keys = bytearray(), [0], {}  # keys: str -> prefix + bytes
    append = out.append
    for mapping in values:
        if type(mapping) is not dict or len(mapping) >= 0x80:
            return None
        append(len(mapping))
        for key, value in mapping.items():
            if type(key) is not str or type(value) is not int:
                return None
            encoded = keys.get(key)
            if encoded is None:
                encoded = key.encode("utf-8")
                if len(encoded) >= 0x80:
                    return None
                encoded = keys[key] = bytes((len(encoded),)) + encoded
            out += encoded
            folded = value << 1 if value >= 0 else (-value << 1) - 1
            if folded >= _VARINT_LIMIT:
                return None
            while folded >= 0x80:
                append(folded & 0x7F | 0x80)
                folded >>= 7
            append(folded)
        ends.append(len(out))
    return out, ends


def encode_values(schema: Schema, values: Sequence) -> Tuple[bytes, List[int]]:
    """A column's ``values`` back to back in one buffer, and their end
    offsets: value ``i`` is ``data[ends[i]:ends[i + 1]]``, ``ends[0]``
    is 0.  The bytes are :func:`encode_datum`'s, joined, and a value
    it rejects raises what :func:`encode_datum` raises."""
    encoded = None
    if schema.kind == "string":
        encoded = _string_column(values)
    elif schema.kind in _ZIGZAG_KINDS:
        encoded = _zigzag_column(values)
    elif schema.kind == "map" and schema.values.kind in _ZIGZAG_KINDS:
        encoded = _zigzag_map_column(values)
    if encoded is not None:
        return encoded
    write = _plan(schema).write
    data, ends = bytearray(), [0]
    for value in values:
        write(value, data)
        ends.append(len(data))
    return data, ends


#: records read and encoded per step of :func:`column_runs`: a bigger
#: batch costs less per value, and a batch of wide records is held
#: while the runs it closes are written
_BATCH_RECORDS = 128


def _extend(run: list, batch: list, start: int, stop: int) -> None:
    """Append rows ``start:stop`` of an encoded batch to ``run``."""
    for (values, data, ends), (column, cdata, cends) in zip(run, batch):
        values += column[start:stop]
        shift = len(data) - cends[start]
        data += memoryview(cdata)[cends[start]:cends[stop]]
        ends += [end + shift for end in cends[start + 1:stop + 1]]


def column_runs(schema: Schema, records: Iterable, limit: int) -> Iterator:
    """Cut ``records`` into runs, each closed by the record that brings
    its encoded bytes to ``limit`` or more (the last may fall short),
    and yield ``(count, columns)``: a run's record count and, per field
    of the record ``schema``, ``(values, data, ends)`` as
    :func:`encode_values` returns them.

    Records are encoded a fixed batch at a time, a column per call; the
    rows past a batch's last cut are copied into the next run, so no
    value is encoded twice.  A value that cannot be encoded raises
    before any run holding a row of its batch is yielded.
    """
    records, run, count, held = iter(records), None, 0, 0
    while True:
        rows = [
            field_values(schema, r) for r in islice(records, _BATCH_RECORDS)
        ]
        if not rows:
            break
        batch = [
            (column, *encode_values(f.schema, column))
            for f, column in zip(schema.fields, zip(*rows))
        ]
        # the batch's bytes before each row (all 0 without fields)
        totals = list(map(sum, zip(*[e for _, _, e in batch])))
        totals = totals or [0] * (len(rows) + 1)
        start, closed = 0, []
        while start < len(rows):
            stop = bisect_left(totals, totals[start] + limit - held, start + 1)
            cut = stop <= len(rows)
            stop = min(stop, len(rows))
            run = run or [([], bytearray(), [0]) for _ in batch]
            _extend(run, batch, start, stop)
            count += stop - start
            held += totals[stop] - totals[start]
            if cut:
                closed.append((count, run))
                run, count, held = None, 0, 0
            start = stop
        batch = rows = None  # hold only the rows past the last cut
        yield from closed
    if run is not None:
        yield count, run


class BinaryDecoder:
    """Deserializes (or skips) datums, charging simulated CPU cost.

    ``cost`` and ``metrics`` are optional: loaders and tests decode
    without accounting, while record readers inside a MapReduce task pass
    the task's cost model and metrics.
    """

    def __init__(
        self,
        reader: ByteReader,
        cost: Optional[CpuCostModel] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if metrics is not None and cost is None:
            raise ValueError("metrics need a cost model to charge them")
        self.reader = reader
        self.cost = cost
        self.metrics = metrics

    def read_datum(self, schema: Schema):
        """Decode one datum, charging full deserialization cost."""
        plan = _plan(schema)
        m = self.metrics
        if m is None:
            return plan.read(self.reader)
        r = self.reader
        cost = self.cost
        start = r.offset
        value = plan.read_charged(r, cost.profile, m)
        m.cpu_ticks += cost.raw_scan_cpu(r.offset - start)
        return value

    def read_inner(self, schema: Schema):
        """Decode one datum nested in a container the caller frames (and
        raw-scans) itself: :meth:`read_datum` without the raw-scan term."""
        plan = _plan(schema)
        if self.metrics is None:
            return plan.read(self.reader)
        return plan.read_charged(
            self.reader, self.cost.profile, self.metrics
        )

    def read_deferred(self, schema: Schema, k: int) -> list:
        """``k`` datums charged as ``k`` :meth:`read_datum` calls, maps and
        arrays deferred as a record's are (for a :class:`Record`)."""
        step = _plan(schema).defer
        r, cost = self.reader, self.cost
        start = r.offset
        out = [step(r, cost.profile, self.metrics) for _ in range(k)]
        self.metrics.cpu_ticks += cost.raw_scan_cpu(r.offset - start)
        return out

    def skip_datum(self, schema: Schema) -> int:
        """Skip one datum without materializing it; returns bytes skipped.

        The byte structure still has to be walked (variable-length fields
        carry their lengths inline), so skipping is not free — it is
        charged at ``skip_fraction`` of the decode cost, with no object
        creation.  This models the paper's observation that a column file
        *not* in skip-list format yields "no deserialization or I/O
        savings" beyond avoided object churn.
        """
        plan = _plan(schema)
        r = self.reader
        m = self.metrics
        start = r.offset
        if m is None:
            plan.skip(r)
            return r.offset - start
        cost = self.cost
        cpu = plan.skip_charged(r, cost.profile, 0)
        span = r.offset - start
        # decode-equivalent cost plus the raw scan, discounted once
        m.cpu_ticks += cost.skip_discount(cpu + cost.raw_scan_cpu(span))
        return span


def decode_datum(schema: Schema, data: bytes):
    """Convenience one-shot decode (no cost accounting)."""
    return _plan(schema).read(ByteReader(data))
