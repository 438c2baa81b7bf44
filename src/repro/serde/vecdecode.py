"""Batched decode and skip kernels for vectorized execution.

The scalar reference path decodes one value per method call through
:class:`~repro.serde.binary.BinaryDecoder`; these kernels decode (or
skip) runs of values in tight loops over the reader's buffered window.

Every kernel is a *window loop* plus one *hand-off*.  A window loop is
a pure function over ``(buf, pos)``: it consumes only datums that lie
wholly inside the window and stops at the first byte of one that does
not, or that does not decode (running off the edge drops that datum's
partial sums).  That one datum is handed to the per-datum method the
reference itself uses (``reader.read_zigzag()``,
``BinaryDecoder.read_datum``/``skip_datum``, the DCSL reader's own
per-value decode and skip), which refills or raises; the loop resumes on
whatever window the hand-off left behind.  :class:`Gather` is the one
place this happens.

That is what keeps the kernels *charge-identical* to the scalar path
by construction.  Stream-level charges (disk bytes, seeks, probes)
happen inside ``StreamByteReader._require`` at refill granularity, and
a refill only happens on a shortfall.  A datum inside the window never
refills on either path, and the one that straddles the edge is decoded
by the scalar path itself — so the stream sees the identical read and
seek pattern.  CPU charges come from the same linear cost formulas
(:meth:`~repro.sim.cost.CpuCostModel.prim_cpu`), summed over a window's
run instead of applied per value; every charge is whole ticks, so the
run's sum is exactly the per-value charges' (cells, objects and
``cpu_ticks`` alike).

Hand-offs therefore follow the window edges a scan crosses, not the
values it reads: they can be made rarer (a larger I/O buffer), never
zero.  See ``docs/vectorized.md`` § Window edges.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from functools import partial
from operator import methodcaller

from repro.serde.binary import BinaryDecoder
from repro.util.varint import MAX_VARINT_BYTES, VarintError, decode_varint

_DOUBLE = struct.Struct("<d")

_INTEGER_KINDS = ("int", "long", "time")
_FIXED_WIDTH = {"double": 8, "boolean": 1}
_PRIMITIVE_KINDS = frozenset(
    ("int", "long", "time", "double", "boolean", "string", "bytes")
)

#: What ends a window loop early: the datum under the cursor runs past
#: the buffered bytes (or starts beyond them, after a skip).
_OFF_WINDOW = (IndexError, VarintError, struct.error)

#: The shift an inline LEB128 loop ends on past a varint's tenth byte,
#: where the per-datum decode raises: such a datum is left to the
#: hand-off (its bytes are looked at only if it is more than one long).
_OVERLONG_SHIFT = 7 * MAX_VARINT_BYTES

#: Optional profiling sink (an ``obs.opprofile.OperatorProfiler``).
#: ``None`` outside profiled scans, so the only hot-path overhead is
#: one identity check per *batch* kernel call.
_SINK = None


def profile_sink():
    """The currently-installed profiling sink (or None)."""
    return _SINK


def set_profile_sink(sink) -> None:
    """Install (or with ``None`` clear) the kernel/fallback sink."""
    global _SINK
    _SINK = sink


def _kernel(name: str) -> None:
    if _SINK is not None:
        _SINK.kernel(name)


def fallback(reader, kernel: str) -> None:
    """Count one datum ``kernel`` handed to the per-datum path."""
    if _SINK is not None:
        _SINK.fallback(reader, kernel)


# ---------------------------------------------------------------------------
# Batched primitive reads (value lists; caller applies the charges)
# ---------------------------------------------------------------------------


def _zigzags(buf, pos, k, out):
    before = len(out)
    append = out.append
    try:
        for _ in range(k):
            folded = buf[pos]
            p = pos + 1
            if folded >= 0x80:
                folded &= 0x7F
                shift = 7
                while True:
                    b = buf[p]
                    p += 1
                    if b < 0x80:
                        break
                    folded |= (b & 0x7F) << shift
                    shift += 7
                if shift >= _OVERLONG_SHIFT:
                    break
                folded |= b << shift
            append(-((folded + 1) >> 1) if folded & 1 else folded >> 1)
            pos = p
    except IndexError:
        pass
    return pos, len(out) - before


def _chunks(buf, pos, k, out):
    before = len(out)
    append = out.append
    limit = len(buf)
    try:
        for _ in range(k):
            n = buf[pos]
            if n < 0x80:
                start = pos + 1
            else:
                n, start = decode_varint(buf, pos)
            end = start + n
            if end > limit:
                break
            append(bytes(buf[start:end]))
            pos = end
    except _OFF_WINDOW:
        pass
    return pos, len(out) - before


def _doubles(buf, pos, k, out):
    done = max(0, min(k, (len(buf) - pos) // 8))
    if done:
        out.extend(struct.unpack_from(f"<{done}d", buf, pos))
    return pos + 8 * done, done


def _booleans(buf, pos, k, out):
    done = max(0, min(k, len(buf) - pos))
    out.extend([b != 0 for b in buf[pos:pos + done]])
    return pos + done, done


#: primitive kind -> (window loop, per-datum read, kernel, vector tag:
#: an array typecode, "str" for UTF-8 chunks, or "obj")
_TAKES = {
    "int": (_zigzags, methodcaller("read_zigzag"), "read_zigzags", "q"),
    "double": (_doubles, methodcaller("read_double"), "read_doubles", "d"),
    "boolean": (
        _booleans, lambda reader: reader.read_byte() != 0, "read_booleans",
        "obj",
    ),
    "string": (
        _chunks, methodcaller("read_len_prefixed"), "read_chunks", "str"
    ),
}
_TAKES["long"] = _TAKES["time"] = _TAKES["int"]
_TAKES["bytes"] = _TAKES["string"][:3] + ("obj",)


# ---------------------------------------------------------------------------
# Batched map decode
# ---------------------------------------------------------------------------


def map_batch_supported(field_schema) -> bool:
    return (
        field_schema.kind == "map"
        and field_schema.values.kind in _PRIMITIVE_KINDS
    )


def _maps(buf, pos, k, out, value_kind, cost, metrics, keys, coded_keys,
          wanted=None):
    """Decode whole maps off the window and charge them as that many
    per-datum decodes: map container + per-entry key + per-entry value
    + raw scan of the span.  Keys are strings (``keys`` memoizes their
    decode) or, ``coded_keys``, DCSL ids into ``keys``, each charged a
    ``dictionary_lookup``.  A map that does not decode (bad UTF-8, an id
    past the dictionary) is left to the hand-off, which raises.

    A key projection (``wanted`` not None) keeps the wanted entries,
    charged as whole maps.  A DCSL ``keys`` holds None for an unwanted
    key; a plain key is compared as raw bytes with ``wanted`` (byte
    length -> ``(raw, key)`` pairs), decoded only if not ASCII, to raise
    if not UTF-8.  Unwanted integers are hopped; other unwanted values
    decode (bad UTF-8 raises) and land under None, dropped per map."""
    ints = value_kind in _INTEGER_KINDS
    limit = len(buf)
    unpack = _DOUBLE.unpack_from
    start = pos
    before = len(out)
    entries = key_payload = value_payload = 0  # string/bytes values only
    whole = (0, 0, 0)  # the sums as of the last whole map
    try:
        for _ in range(k):
            count = buf[pos]
            if count < 0x80:
                p = pos + 1
            else:
                count, p = decode_varint(buf, pos)
            item = {}
            for _ in range(count):
                n = buf[p]
                if n < 0x80:
                    p += 1
                else:
                    n, p = decode_varint(buf, p)
                if coded_keys:
                    key = keys[n]
                else:
                    # a key slice that comes up short is caught at its
                    # value, which then starts beyond the window (what
                    # the short slice decoded to is still its decode)
                    raw_key = buf[p:p + n]
                    p += n
                    key_payload += n
                    if wanted is None:
                        raw_key = bytes(raw_key)
                        key = keys.get(raw_key)
                        if key is None:
                            key = keys[raw_key] = raw_key.decode("utf-8")
                    else:
                        if not raw_key.isascii():
                            raw_key.decode("utf-8")
                        key = None
                        for raw, name in wanted.get(n, ()):
                            if raw_key == raw:
                                key = name
                if ints:  # inline LEB128, as in _zigzags and hop_prims
                    if key is None:  # unwanted: hop it
                        if buf[p] < 0x80:
                            p += 1
                        elif buf[p + 1] < 0x80:
                            p += 2
                        else:
                            q, p = p, p + 2
                            while buf[p] >= 0x80:
                                p += 1
                            if p - q >= MAX_VARINT_BYTES:
                                raise VarintError("varint too long")
                            p += 1
                        continue
                    folded = buf[p]
                    p += 1
                    if folded >= 0x80:
                        folded &= 0x7F
                        shift = 7
                        while True:
                            b = buf[p]
                            p += 1
                            if b < 0x80:
                                break
                            folded |= (b & 0x7F) << shift
                            shift += 7
                        if shift >= _OVERLONG_SHIFT:
                            raise VarintError("varint too long")
                        folded |= b << shift
                    value = (
                        -((folded + 1) >> 1) if folded & 1 else folded >> 1
                    )
                elif value_kind == "double":
                    value = unpack(buf, p)[0]
                    p += 8
                elif value_kind == "boolean":
                    value = buf[p] != 0
                    p += 1
                else:  # string / bytes
                    n, p = decode_varint(buf, p)
                    end = p + n
                    if end > limit:  # the slice would come up short
                        raise IndexError
                    value = bytes(buf[p:end])
                    p = end
                    value_payload += n
                    if value_kind == "string":
                        value = value.decode("utf-8")
                item[key] = value
            if wanted is not None:
                item.pop(None, None)  # where unwanted values landed
            out.append(item)
            pos = p
            entries += count
            whole = (entries, key_payload, value_payload)
    except _OFF_WINDOW + (UnicodeDecodeError,):
        pass
    done = len(out) - before
    entries, key_payload, value_payload = whole
    profile = cost.profile
    metrics.cells += 2 * entries  # keys + values
    # maps + entries, and a string per key unless it is looked up
    metrics.objects += done + (1 if coded_keys else 2) * entries
    if value_kind in ("string", "bytes"):
        metrics.objects += entries
    metrics.charge_cpu(
        done * profile.map_decode_base
        + entries * profile.map_entry
        + (
            entries * profile.dictionary_lookup if coded_keys
            else cost.prim_cpu("string", entries, key_payload)
        )
        + cost.prim_cpu(value_kind, entries, value_payload)
        + (pos - start) * profile.raw_scan_per_byte
    )
    return pos, done


# ---------------------------------------------------------------------------
# Hops: passing datums, charged as that many skips
# ---------------------------------------------------------------------------


def hop_prims(buf, pos, k, kind):
    """Hop up to ``k`` primitives lying wholly inside the window.

    (Here and below, ``for done in range(k)`` leaves ``done`` at the
    count of whole datums when the loop is left early; its ``else``
    covers running to the end.)
    """
    limit = len(buf)
    width = _FIXED_WIDTH.get(kind)
    if width:
        done = max(0, min(k, (limit - pos) // width))
        return pos + width * done, done
    done = 0
    try:
        if kind in _INTEGER_KINDS:
            for done in range(k):
                if buf[pos] < 0x80:
                    pos += 1
                elif buf[pos + 1] < 0x80:
                    pos += 2
                else:
                    p = pos + 2
                    while buf[p] >= 0x80:
                        p += 1
                    if p - pos >= MAX_VARINT_BYTES:  # left to the hand-off
                        break
                    pos = p + 1
            else:
                done = k
        else:  # string / bytes: length prefix, then the payload
            for done in range(k):
                n = buf[pos]
                if n < 0x80:
                    end = pos + 1 + n
                else:
                    n, end = decode_varint(buf, pos)
                    end += n
                if end > limit:
                    break
                pos = end
            else:
                done = k
    except _OFF_WINDOW:
        pass
    return pos, done


def _hop_arrays(buf, pos, k, item_kind):
    """Hop whole arrays of primitives; ``(pos, done, elements,
    item_span)`` with the span counting the elements' bytes only."""
    elements = item_span = 0
    done = 0
    try:
        for done in range(k):
            count, p = decode_varint(buf, pos)
            end, hopped = hop_prims(buf, p, count, item_kind)
            if hopped < count:
                break
            pos = end
            elements += count
            item_span += end - p
        else:
            done = k
    except _OFF_WINDOW:
        pass
    return pos, done, elements, item_span


def _hop_maps(buf, pos, k, value_kind, coded_keys):
    """Hop whole maps without materializing.

    Keys are length-prefixed strings (``coded_keys=False``) or varint
    dictionary ids (DCSL).  Returns ``(pos, done, entries, key_span,
    value_span)`` where the spans count prefix+payload bytes — the
    quantities the skip cost formulas need.
    """
    ints = value_kind in _INTEGER_KINDS
    fixed = _FIXED_WIDTH.get(value_kind)
    limit = len(buf)
    entries = key_span = value_span = 0
    whole = (0, 0, 0)  # the sums as of the last whole map
    done = 0
    try:
        for done in range(k):
            count = buf[pos]
            if count < 0x80:
                p = pos + 1
            else:
                count, p = decode_varint(buf, pos)
            for _ in range(count):
                key_start = p
                n = buf[p]
                if n < 0x80:
                    p += 1
                else:
                    n, p = decode_varint(buf, p)
                if not coded_keys:
                    p += n
                value_start = p
                if ints:  # as in hop_prims
                    if buf[p] < 0x80:
                        p += 1
                    elif buf[p + 1] < 0x80:
                        p += 2
                    else:
                        p += 2
                        while buf[p] >= 0x80:
                            p += 1
                        if p - value_start >= MAX_VARINT_BYTES:
                            raise VarintError("varint too long")
                        p += 1
                elif fixed:
                    p += fixed
                else:
                    n, p = decode_varint(buf, p)
                    p += n
                key_span += value_start - key_start
                value_span += p - value_start
            if p > limit:
                break
            pos = p
            entries += count
            whole = (entries, key_span, value_span)
        else:
            done = k
    except _OFF_WINDOW:
        pass
    return (pos, done) + whole


def _skips(buf, pos, k, field_schema, cost, metrics):
    """Hop whole datums and charge them as that many ``skip_datum``
    calls: decode-equivalent cpu at ``skip_fraction``, no cells/objects."""
    kind = field_schema.kind
    profile = cost.profile
    if kind == "map":
        value_kind = field_schema.values.kind
        end, done, entries, key_span, value_span = _hop_maps(
            buf, pos, k, value_kind, False
        )
        cpu = (
            done * profile.map_decode_base
            + entries * profile.map_entry
            + cost.prim_cpu("string", entries, key_span)
            + cost.prim_cpu(value_kind, entries, value_span)
        )
    elif kind == "array":
        item_kind = field_schema.items.kind
        end, done, elements, item_span = _hop_arrays(buf, pos, k, item_kind)
        cpu = (
            done * profile.array_decode_base
            + elements * profile.array_element
            + cost.prim_cpu(item_kind, elements, item_span)
        )
    else:
        # A var-length value's skip charge counts prefix+payload bytes
        # (skip_datum charges the full span, length prefix included),
        # which over a run of them is the run's own span.
        end, done = hop_prims(buf, pos, k, kind)
        cpu = cost.prim_cpu(kind, done, end - pos)
    cpu += (end - pos) * profile.raw_scan_per_byte
    metrics.charge_cpu(cost.skip_discount(cpu))
    return end, done


def _dcsl_skips(buf, pos, k, value_kind, cost, metrics):
    """Matches the scalar DCSL walk: each entry's value is skip-charged
    like a standalone ``skip_datum`` (discounted decode cpu + its own
    raw scan), and each datum's full span is raw-scanned undiscounted."""
    end, done, entries, _, value_span = _hop_maps(
        buf, pos, k, value_kind, True
    )
    value_cpu = (
        cost.prim_cpu(value_kind, entries, value_span)
        + value_span * cost.profile.raw_scan_per_byte
    )
    metrics.charge_cpu(cost.skip_discount(value_cpu))
    cost.charge_raw_scan(metrics, end - pos)
    return end, done


def _hops(schema, cost, metrics, skip_one=None):
    """How to pass datums of ``schema``: ``(kernel, window, args, skip)``
    with ``skip(reader, k=1)`` ``k`` per-datum skips (``skip_one``, a
    DCSL reader's, if given).  ``window`` is a fixed width for position
    arithmetic, or None for ``skip`` per datum."""
    if skip_one is not None:
        one = partial(_repeat, skip_one)
        value_kind = schema.values.kind
        if value_kind not in _PRIMITIVE_KINDS:
            return None, None, (), one
        return "hop_dcsl", _dcsl_skips, (value_kind, cost, metrics), one
    one = partial(_skip_data, schema, cost, metrics)
    kind = schema.kind
    if kind in ("map", "array"):
        kind = (schema.values if kind == "map" else schema.items).kind
    if kind not in _PRIMITIVE_KINDS:
        return None, None, (), one
    return "hop", _FIXED_WIDTH.get(schema.kind, _skips), (
        schema, cost, metrics
    ), one


# ---------------------------------------------------------------------------
# One window loop per column read
# ---------------------------------------------------------------------------


def _read_datum(schema, cost, metrics, reader):
    return BinaryDecoder(reader, cost, metrics).read_datum(schema)


def _skip_data(schema, cost, metrics, reader, k=1):
    skip = BinaryDecoder(reader, cost, metrics).skip_datum
    for _ in range(k):
        skip(schema)


def _repeat(step, reader, k=1):
    for _ in range(k):
        step(reader)


class Gather:
    """One window loop over a column's datums, for a whole read.

    :meth:`take` decodes the next ``k`` datums onto ``values`` and
    :meth:`hop` passes ``k``, off the window of ``reader`` (repointed at
    each compressed block a column reader opens); a datum on an edge
    goes to the per-datum method, one ``fallback`` count.  A kind with
    no window loop, and every kind in the per-datum mode (``batched``
    off: the reference), is one per-datum decode or skip per datum.
    Primitives taken are charged once, by :meth:`finish`, as the
    per-datum sums; anything else as it goes.  ``wanted`` cuts maps down
    as :func:`read_maps` does.  A DCSL reader passes its per-datum
    ``decode_one(reader)`` and ``skip_one(reader)``, and each block
    dictionary to :meth:`use_keys`.  The take and the hop machinery are
    each built on first use, and each counts one kernel call, however
    many blocks the gather crosses.
    """

    #: whether datums go through the window loops; off, each goes to
    #: the per-datum decode or skip, and no kernel call is counted
    batched = True
    # built on first use (a skip builds no take machinery)
    one = _hops = _keys = window = None
    args = ()
    #: skip-list header bytes :meth:`take` parsed in place, its caller's
    #: to charge (also when a take raises)
    parsed = 0

    def __init__(
        self, reader, field_schema, cost, metrics, wanted=None,
        decode_one=None, skip_one=None,
    ) -> None:
        self.reader, self.schema, self.wanted = reader, field_schema, wanted
        self.cost, self.metrics = cost, metrics
        self.values, self.span = [], 0  # and the primitives' bytes
        self._decode_one, self._skip_one = decode_one, skip_one

    @property
    def tag(self) -> str:
        """What ``values`` hold: an array typecode, "str" for UTF-8
        chunks, or "obj"."""
        take = _TAKES.get(self.schema.kind)
        return take[3] if take else "obj"

    def _arm(self) -> None:
        """Build the take machinery."""
        schema, cost, metrics = self.schema, self.cost, self.metrics
        self.one = self._decode_one or partial(
            _read_datum, schema, cost, metrics
        )
        if schema.kind in _TAKES:
            self.window, self.one, self.kernel, _ = _TAKES[schema.kind]
            self.args = (self.values,)
        elif map_batch_supported(schema):
            self.window, self.kernel = _maps, "read_maps"
            lookup = None  # the wanted plain keys, by byte length
            if self.wanted is not None:
                lookup = {}
                for key in self.wanted:
                    raw = key.encode("utf-8")
                    lookup[len(raw)] = lookup.get(len(raw), ()) + ((raw, key),)
                self.one = partial(_cut, self.one, self.wanted)
            # plain keys: bytes -> decoded str (map keys repeat heavily)
            self.args = [
                self.values, schema.values.kind, cost, metrics, {}, False,
                lookup,
            ]
            if self._keys is not None:
                self.use_keys(self._keys)
        if not self.batched:
            self.window = None
        elif self.window is not None:
            _kernel(self.kernel)

    def use_keys(self, keys) -> None:
        """Map keys are ids into ``keys`` (a DCSL block dictionary) from
        here on; a key projection resolves them once per dictionary."""
        self._keys = keys
        if self.window is _maps:
            if self.wanted is not None:
                keys = [key if key in self.wanted else None for key in keys]
            self.args[4:6] = keys, True

    def take(self, k: int, frame=None) -> None:
        """Decode the next ``k`` datums onto ``values``.  A skip-list run
        passes ``frame = (row, sizes, count, top, headers)``: each
        multiple of ``sizes[-1]`` from ``row`` on follows its blocks'
        headers.  Batched, those the window holds are parsed in place
        (onto :attr:`parsed`) and one window loop takes the bodies they
        frame, joined.  Any other header group, every one per datum, one
        whose bottom block does not hold the rows a column of ``count``
        has there, and (``top``) one on a top-block row go to
        ``headers(row, 0)``."""
        if self.one is None:
            self._arm()
        reader, one, values = self.reader, self.one, self.values
        window, args = self.window, self.args
        row, sizes, count, top, headers = frame or (
            0, (k + 1,), 0, False, None
        )
        smallest, end = sizes[-1], row + k
        start, parsed_before = reader.offset, self.parsed
        ready = frame is None or row % smallest  # no headers pending
        while row < end:
            n = smallest - row % smallest  # to the next boundary or the
            n = n if n < end - row else end - row  # end (min() costs a call)
            if ready and window is None:
                values += [one(reader) for _ in range(n)]
                got = n
            elif ready:  # the rest of a bottom block, off the window
                reader.pos, got = window(reader._buf, reader.pos, n, *args)
            else:
                buf, p = reader._buf, reader.pos
                parts, spans, at, header, b = [], [], 0, 0, row
                nbytes = 0
                try:
                    while window and b < end and (b % sizes[0] or not top):
                        q = p  # b's header group: each level's rows, bytes
                        for size in sizes:
                            for _ in (0, 1) if b % size == 0 else ():
                                rows, nbytes = nbytes, buf[q]
                                q += 1
                                if nbytes >= 0x80:  # inline LEB128
                                    nbytes, shift = nbytes & 0x7F, 7
                                    while buf[q] >= 0x80:
                                        nbytes |= (buf[q] & 0x7F) << shift
                                        q, shift = q + 1, shift + 7
                                    if shift >= _OVERLONG_SHIFT:
                                        raise VarintError("varint too long")
                                    nbytes |= buf[q] << shift
                                    q += 1
                        if rows != (smallest if count - b > smallest
                                    else count - b):
                            break  # misplaced by a wrong nbytes: stop here
                        header, p = header + q - p, q + nbytes
                        parts.append(buf[q:p])  # the bottom block's body
                        spans.append((at, q, header))
                        at += len(parts[-1])
                        b += smallest
                except (IndexError, VarintError):  # a header group off
                    pass  # the window, or one headers() rejects below
                if not parts:
                    before = reader.offset
                    headers(row, 0)
                    start += reader.offset - before  # out of the span
                    ready = True
                    continue
                n = min(b, end) - row  # then back into the body it ends in
                at, got = window(b"".join(parts), 0, n, *args)
                j = bisect_right(spans, (at, len(buf) + 1)) - 1
                reader.pos = spans[j][1] + at - spans[j][0]
                self.parsed += spans[j][2]
            row += got
            if got < n:  # a datum on the window's edge
                fallback(reader, self.kernel)
                values.append(one(reader))
                row += 1
            ready = row % smallest
        self.span += reader.offset - start - (self.parsed - parsed_before)

    def hop(self, k: int) -> None:
        """Pass ``k`` datums, charged as ``k`` per-datum skips."""
        if self._hops is None:
            self._hops = _hops(
                self.schema, self.cost, self.metrics, self._skip_one
            )
            if not self.batched:
                self._hops = (None, None, (), self._hops[3])
            elif self._hops[1] is not None:
                _kernel(self._hops[0])
        kernel, window, args, skip = self._hops
        reader = self.reader
        if window is None:
            skip(reader, k)
        elif type(window) is int:
            # A fixed-width run is position arithmetic wherever the window
            # ends (reader.skip keeps the lazy-gap elision and EOF check).
            schema, cost, metrics = args
            reader.skip(k * window)
            metrics.charge_cpu(cost.skip_discount(
                cost.prim_cpu(schema.kind, k)
                + k * window * cost.profile.raw_scan_per_byte
            ))
        else:
            while True:
                reader.pos, done = window(reader._buf, reader.pos, k, *args)
                k -= done
                if k <= 0:
                    break
                fallback(reader, kernel)  # a datum on the window's edge
                skip(reader)
                k -= 1

    def finish(self) -> "Gather":
        """Charge the primitives taken: a cell each, an object each if
        var-length, their decode cpu and the raw scan of their bytes."""
        n = len(self.values)
        kind = self.schema.kind
        if n and kind in _TAKES:
            cost, metrics = self.cost, self.metrics
            payload = 0
            if _TAKES[kind][0] is _chunks:
                payload = sum(map(len, self.values))
                metrics.objects += n
            metrics.cells += n
            metrics.charge_cpu(
                cost.prim_cpu(kind, n, payload)
                + self.span * cost.profile.raw_scan_per_byte
            )
        return self


def _cut(read, wanted, reader):
    item = read(reader)
    return {key: item[key] for key in wanted if key in item}


def batch_decode_values(reader, field_schema, k: int, ctx, keys=None):
    """Decode ``k`` consecutive plainly-encoded values off ``reader``
    as ``(tag, values)``, maps cut down to ``keys`` if given: one
    :class:`Gather`, charged as ``k`` per-datum ``read_datum`` calls."""
    gather = Gather(reader, field_schema, ctx.cost, ctx.metrics, keys)
    gather.take(k)
    gather.finish()
    return gather.tag, gather.values


def read_maps(
    reader, field_schema, k: int, cost, metrics, keys=None, read_one=None,
    wanted=None,
) -> list:
    """Decode ``k`` map datums, charging exactly what ``k`` per-datum
    decodes do: ``read_datum`` calls, or for a DCSL value stream, whose
    key ids index the block dictionary's ``keys``, the column reader's
    own ``read_one``.

    With ``wanted`` (a tuple of keys), each map comes back as a dict of
    the wanted keys it holds, still charged as the whole map.  A map
    handed off is read whole by ``read_one`` and then cut down."""
    gather = Gather(
        reader, field_schema, cost, metrics, wanted,
        read_one and (lambda _: read_one()),
    )
    if keys is not None:
        gather.use_keys(keys)
    gather.take(k)
    return gather.values
