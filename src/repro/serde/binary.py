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

A charged record read is one loop over its fields (see :func:`_walk`),
and it *defers* its map and array fields: each is charged in full and
built on first access.  An RCFile column chunk
(:meth:`BinaryDecoder.read_deferred`) is the same loop a chunk wide, and
a charged ``map<string>`` read outside a record is the same loop one
datum wide, its span built at once.  A SequenceFile reader runs the loop
on each value itself, with the record's steps from :func:`record_steps`.
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
from repro.util.varint import (
    _VARINT_LIMIT, VarintError, decode_varint, encode_varint, encode_zigzag,
)

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
    #: (p) -> the datum's step in :func:`_walk`, bound to p's rates: how
    #: a record field or :meth:`BinaryDecoder.read_deferred` reads it
    step: Callable
    #: a record's (p) -> :func:`record_steps`, kept per profile
    fields: Optional[Callable] = None


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


def _per_profile(bind: Callable) -> Callable:
    """``bind(p)``, kept for the last profile it was asked for."""
    last = [(None, None)]  # one (profile, binding) pair, swapped whole

    def bound(p):
        profile, value = last[0]
        if profile is not p:
            value = bind(p)
            last[0] = p, value
        return value

    return bound


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

    step = (
        _per_profile(lambda p: ("zigzag", read_charged, rate(p)))
        if kind in _ZIGZAG_KINDS else lambda p: ("call", read_charged)
    )
    return _Plan(read, read_charged, skip, skip_charged, write, step)


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

    step = _per_profile(lambda p: (kind, read_charged, base(p), per_byte(p)))
    return _Plan(read, read_charged, _hop_chunk, skip_charged, write, step)


_ZIGZAG_KINDS = ("int", "long", "time")
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
        item_write, _, _ = _plan(schema.items)
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
        _container_step(schema, read_charged),
    )


_MAP_BASE, _MAP_ENTRY = decode_rates("map")
_KEY_BASE, _KEY_BYTE = decode_rates("string")


def _map_plan(schema: Schema) -> _Plan:
    value_read, value_read_charged, value_skip, value_skip_charged, \
        value_write, _, _ = _plan(schema.values)

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
            raw = _chunk(r)  # decoded once its value is read
            m.cpu_ticks += _KEY_BASE(p) + len(raw) * _KEY_BYTE(p)
            m.cells += 1
            m.objects += 1
            out[str(raw, "utf-8")] = value_read_charged(r, p, m)
        return out

    step = _container_step(schema, per_entry)
    if schema.values.kind == "string":
        def read_charged(r, p, m):
            # the one window route: the loop one datum wide, built at once
            value, = _walk((step(p),), r, p, m)
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

    return _Plan(read, read_charged, skip, skip_charged, write, step)


# -- deferral: a record's maps and arrays, built on first access --------
#
# The record loop takes a map or array of primitives with one hop, which
# proves the datum decodes: it lies wholly in the window and is ASCII
# throughout, so every varint in it is one byte and every string ASCII.
# It charges what ``read_charged`` would and holds a ``_Deferred`` over a
# copy of the span; any other datum goes to the per-entry ``read_charged``.
# (A double's eight bytes are seldom ASCII, so doubles are never deferred.)

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


def _container_step(schema: Schema, eager: Callable) -> Callable:
    """A map's or array's step: the hop when its items are primitives a
    span can hold, else a call of ``eager`` (its per-entry read)."""
    keyed = schema.kind == "map"
    item = schema.values if keyed else schema.items
    if item.kind not in ("string", "bytes", *_ONE_BYTE):
        return lambda p: ("call", eager)
    chunked = item.kind in ("string", "bytes")
    base, per_unit = decode_rates(schema.kind)
    item_base, item_byte = decode_rates(item.kind)
    build = _builder(keyed, item.kind)
    # per entry: a key (and its entry) and a string or bytes value are
    # objects, and every key and value is a cell with a one-byte prefix
    cells, objects = 1 + keyed, 2 * keyed + chunked

    def bind(p):
        key_base, key_byte = (_KEY_BASE(p), _KEY_BYTE(p)) if keyed else (0, 0)
        return (
            "hop", eager, build, keyed, chunked, base(p),
            per_unit(p) + item_base(p) + key_base,
            item_byte(p) if chunked else 0, key_byte, cells, objects,
        )

    return _per_profile(bind)


# -- one loop per record ------------------------------------------------
#
# A charged record read is one loop over its fields' steps (bound once
# per profile), and so are an RCFile column chunk (``k`` steps of one
# schema) and a standalone ``map<string>`` read.  The loop takes each
# field straight off the window (``r._buf`` / ``r.pos``), its charges
# summed in locals and added once.  A field it cannot take there (one on
# the window's edge, a span failing its proof, any other shape) goes to
# the field's own read, after the loop adds what it has summed: the
# reader sees the same calls, and a raise leaves the same books.


def _walk(steps, r, p, m, cpu: int = 0, objects: int = 0) -> list:
    """The datums of ``steps`` off ``r``, in order, charged into ``m``
    with ``cpu`` and ``objects`` (a record's own terms)."""
    buf, pos, cells, out = r._buf, r.pos, 0, []
    try:
        for step in steps:
            kind = step[0]
            try:
                if kind == "hop":
                    _, _, build, keyed, chunked, base, per_entry, per_byte, \
                        key_byte, cells_per, objects_per = step
                    count = buf[pos]
                    end, keys = pos + 1, 0  # keys: key payload bytes
                    for _ in range(count):
                        if keyed:
                            n = buf[end]
                            keys += n
                            end += n + 1
                        end += buf[end] + 1 if chunked else 1
                    span = buf[pos:end]
                    if end <= len(buf) and span.isascii():
                        cells_in = count * cells_per
                        cpu += base + count * per_entry + keys * key_byte + (
                            end - pos - 1 - cells_in - keys
                        ) * per_byte
                        cells += cells_in
                        objects += 1 + count * objects_per
                        pos = end
                        out.append(_Deferred(build, span))
                        continue
                elif kind == "string" or kind == "bytes":
                    n, start = buf[pos], pos + 1
                    if n >= 0x80:
                        n, start = decode_varint(buf, pos)
                    end = start + n
                    if end <= len(buf):
                        raw, pos = buf[start:end], end
                        cpu += step[2] + n * step[3]
                        cells += 1
                        objects += 1
                        out.append(
                            str(raw, "utf-8") if kind == "string"
                            else bytes(raw)
                        )
                        continue
                elif kind == "zigzag":
                    folded = buf[pos]
                    if folded < 0x80:
                        pos += 1
                    else:
                        folded, pos = decode_varint(buf, pos)
                    cpu += step[2]
                    cells += 1
                    out.append(folded >> 1 ^ -(folded & 1))
                    continue
            except (IndexError, VarintError):
                pass
            # the field's own read, with what the loop summed added first
            r.pos = pos
            m.cpu_ticks += cpu
            m.cells += cells
            m.objects += objects
            cpu = cells = objects = 0
            pos = None  # the read owns the position, also if it raises
            out.append(step[1](r, p, m))
            buf, pos = r._buf, r.pos
    finally:
        if pos is not None:
            r.pos = pos
        m.cpu_ticks += cpu
        m.cells += cells
        m.objects += objects
    return out


def record_steps(schema: Schema, p) -> tuple:
    """``(steps, cpu)``: the field steps of the record ``schema`` bound
    to profile ``p``, and the record's own decode term.  A charged
    record read is ``Record.of(schema, _walk(steps, r, p, m, cpu, 1))``,
    which a row reader may run in its own loop."""
    return _plan(schema).fields(p)


def _record_plan(schema: Schema) -> _Plan:
    plans = [_plan(f.schema) for f in schema.fields]
    reads, _, skips, skips_charged, writes, steps, _ = (
        zip(*plans) if plans else [()] * 7
    )
    base, _ = decode_rates("record")
    bound = _per_profile(lambda p: (tuple(step(p) for step in steps), base(p)))

    def read(r):
        return Record.of(schema, [field(r) for field in reads])

    def read_charged(r, p, m):
        field_steps, cpu = bound(p)
        return Record.of(schema, _walk(field_steps, r, p, m, cpu, 1))

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

    return _Plan(read, read_charged, skip, skip_charged, write,
                 lambda p: ("call", read_charged), bound)


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
        arrays deferred as a record's are: the record loop ``k`` wide."""
        plan = _plan(schema)
        r, m = self.reader, self.metrics
        if m is None:
            return [plan.read(r) for _ in range(k)]
        cost = self.cost
        start = r.offset
        out = _walk((plan.step(cost.profile),) * k, r, cost.profile, m)
        m.cpu_ticks += cost.raw_scan_cpu(r.offset - start)
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
