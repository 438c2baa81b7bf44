"""Column file layouts: plain, skip-list, compressed blocks, DCSL.

Every column of a CIF split-directory is one HDFS file whose layout is
chosen per column at load time (Section 5).  All four layouts share a
small header::

    magic "CF1" | format byte | varint record count | format params

followed by the value stream:

``plain``
    Serialized values back to back.  Skipping must walk each value's
    byte structure individually ("no deserialization or I/O savings",
    Section 5.2).

``skiplist`` (CIF-SL, Figure 6)
    Values organized into nested blocks of (by default) 1000/100/10
    records.  Each block is prefixed by ``varint count, varint nbytes``
    so a reader can jump whole blocks without touching their bytes —
    skips larger than the HDFS readahead window save real I/O.

``cblock`` (CIF-LZO / CIF-ZLIB, Section 5.3)
    Contiguous values compressed in blocks:
    ``varint count, varint raw_len, varint comp_len, payload``.  A block
    whose values are never accessed is skipped without decompression
    (lazy decompression); touching any value inflates the whole block.

``dcsl`` (CIF-DCSL, Section 5.3)
    The skip-list layout for map-typed columns, with a per-top-block key
    dictionary.  Map keys are stored as dictionary ids — decoding an
    entry is a table lookup, and individual values remain addressable
    without decompressing anything.

Two further lightweight encodings from the column-store literature the
paper cites (Abadi et al. [10]; Section 3.3 notes they suit simple
types, not complex ones):

``rle``
    Run-length encoding: ``varint run_length, value`` pairs.  Ideal for
    sorted/clustered low-cardinality columns; runs also skip in O(1).

``delta``
    Delta encoding for integer-kinded columns: first value, then
    zig-zag deltas.  Ideal for near-monotonic columns (timestamps,
    auto-increment ids).
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy
from dataclasses import dataclass
from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.compress.codecs import get_codec
from repro.compress.dictionary import KeyDictionary
from repro.mapreduce.types import TaskContext
from repro.obs import NULL_PROFILER
from repro.serde import vecdecode
from repro.serde.binary import BinaryDecoder, BinaryEncoder, encode_values
from repro.serde.schema import Schema, SchemaError
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader, ByteWriter
from repro.util.varint import VarintError, decode_varint, encode_varint

MAGIC = b"CF1"

FORMAT_PLAIN = 0
FORMAT_SKIPLIST = 1
FORMAT_CBLOCK = 2
FORMAT_DCSL = 3
FORMAT_RLE = 4
FORMAT_DELTA = 5

_FORMAT_NAMES = {
    "plain": FORMAT_PLAIN,
    "skiplist": FORMAT_SKIPLIST,
    "cblock": FORMAT_CBLOCK,
    "dcsl": FORMAT_DCSL,
    "rle": FORMAT_RLE,
    "delta": FORMAT_DELTA,
}

_INTEGER_KINDS = ("int", "long", "time")

DEFAULT_SKIP_SIZES = (1000, 100, 10)
DEFAULT_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True)
class ColumnSpec:
    """Per-column layout choice made at load time.

    ``format`` is one of ``plain``, ``skiplist``, ``cblock``, ``dcsl``.
    ``codec`` applies to ``cblock`` (``"lzo"`` or ``"zlib"``);
    ``block_bytes`` is the uncompressed block size for ``cblock``;
    ``skip_sizes`` are the skip-list levels for ``skiplist``/``dcsl``.
    """

    format: str = "plain"
    codec: str = "lzo"
    block_bytes: int = DEFAULT_BLOCK_BYTES
    skip_sizes: Tuple[int, ...] = DEFAULT_SKIP_SIZES

    def __post_init__(self) -> None:
        if self.format not in _FORMAT_NAMES:
            raise ValueError(f"unknown column format {self.format!r}")
        sizes = tuple(self.skip_sizes)
        if any(a <= b or a % b for a, b in zip(sizes, sizes[1:])) or any(
            s < 2 for s in sizes
        ):
            raise ValueError(f"skip sizes must be descending >= 2 and nest: {sizes}")
        if self.format == "cblock" and self.block_bytes < 1:
            raise ValueError("block_bytes must be positive")


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def encode_column_file(
    field_schema: Schema, values: Sequence, spec: ColumnSpec
) -> bytes:
    """Serialize one column's values into a complete column-file payload.

    The whole column is assembled in memory: HDFS output streams are
    append-only, so skip-block lengths must be known before any value
    byte is written (the double-buffering cost Appendix B.3 measures).
    That buffer is the column's values in one buffer plus their end
    offsets (:func:`~repro.serde.binary.encode_values`); every block and
    skip-block cut reads the offsets.
    """
    data, ends = encode_values(field_schema, values)
    return frame_column_file(field_schema, values, spec, data, ends)


def frame_column_file(
    field_schema: Schema, values: Sequence, spec: ColumnSpec,
    data: bytes, ends: List[int],
) -> bytes:
    """:func:`encode_column_file` from ``values`` already through
    ``encode_values`` (``data``, ``ends``), for a caller that encoded
    them to size a split (``ColumnOutputFormat.write``)."""
    out = ByteWriter()
    out.write_bytes(MAGIC)
    out.write_byte(_FORMAT_NAMES[spec.format])
    out.write_varint(len(values))
    body = b""  # the value region, when it is built whole: copied once

    if spec.format == "plain":
        body = data
    elif spec.format == "skiplist":
        _write_skip_params(out, spec.skip_sizes)
        body = _build_skip_region(data, ends, 0, len(values), spec.skip_sizes)
    elif spec.format == "cblock":
        out.write_string(spec.codec)
        _write_cblocks(out, data, ends, spec)
    elif spec.format == "dcsl":
        if field_schema.kind != "map":
            raise SchemaError("dcsl layout requires a map-typed column")
        _write_skip_params(out, spec.skip_sizes)
        body = _build_dcsl_region(field_schema, values, spec.skip_sizes)
    elif spec.format == "rle":
        _write_rle(out, field_schema, list(values))
    elif spec.format == "delta":
        if field_schema.kind not in _INTEGER_KINDS:
            raise SchemaError("delta layout requires an integer-kinded column")
        previous = 0
        for value in values:
            out.write_zigzag(value - previous)
            previous = value
    return out.getvalue() + body


def _write_rle(out: ByteWriter, field_schema: Schema, values: List) -> None:
    encoder = BinaryEncoder(out)
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[j] == values[i]:
            j += 1
        out.write_varint(j - i)
        encoder.write_datum(field_schema, values[i])
        i = j


def _write_skip_params(out: ByteWriter, sizes: Sequence[int]) -> None:
    out.write_varint(len(sizes))
    for size in sizes:
        out.write_varint(size)


def _build_skip_region(
    data: bytes, ends: List[int], lo: int, hi: int, sizes: Sequence[int],
    level: int = 0, dictionaries: Optional[List[bytes]] = None,
) -> bytes:
    """Recursively frame values ``lo:hi`` into blocks: ``count, nbytes,
    [dict,] body``; ``dictionaries`` (one per top block) for DCSL."""
    if level == len(sizes):
        return data[ends[lo]:ends[hi]]
    size = sizes[level]
    out = bytearray()
    for start in range(lo, hi, size):
        stop = min(start + size, hi)
        body = _build_skip_region(data, ends, start, stop, sizes, level + 1)
        if dictionaries is not None:
            body = dictionaries[(start - lo) // size] + body
        encode_varint(stop - start, out)
        encode_varint(len(body), out)
        out += body
    return out


def _write_cblocks(
    out: ByteWriter, data: bytes, ends: List[int], spec: ColumnSpec
) -> None:
    """Blocks of whole values, each closed by the value that brings it
    to ``block_bytes`` or more."""
    codec = get_codec(spec.codec)
    count = len(ends) - 1
    i = 0
    while i < count:
        j = min(bisect_left(ends, ends[i] + spec.block_bytes, i + 1), count)
        raw = data[ends[i]:ends[j]]
        out.write_varint(j - i)
        out.write_varint(len(raw))
        out.write_len_prefixed(codec.compress(raw))
        i = j


def _build_dcsl_region(
    field_schema: Schema, values: Sequence, sizes: Sequence[int]
) -> bytes:
    """Skip-list region with per-top-block dictionaries and id-coded
    keys: one loop per top block numbers its keys in order of first
    use and writes its maps into one buffer, each entry's value a slice
    of the block's values through ``encode_values``."""
    top = sizes[0]
    data, ends = bytearray(), [0]
    dictionaries: List[bytes] = []
    for start in range(0, len(values), top):
        chunk, ids = values[start:start + top], {}
        entries, entry_ends = encode_values(
            field_schema.values, [v for m in chunk for v in m.values()]
        )
        i = 0
        for mapping in chunk:
            encode_varint(len(mapping), data)
            for key in mapping:
                encode_varint(ids.setdefault(key, len(ids)), data)
                data += entries[entry_ends[i]:entry_ends[i + 1]]
                i += 1
            ends.append(len(data))
        dict_writer = ByteWriter()
        KeyDictionary(ids).write(dict_writer)
        dictionaries.append(dict_writer.getvalue())
    return _build_skip_region(
        data, ends, 0, len(values), sizes, 0, dictionaries
    )


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class _Taken(NamedTuple):
    """A walk's result where no :class:`~repro.serde.vecdecode.Gather`
    holds it: ``values`` tagged as a gather's are, or (``tag`` "runs")
    the values of RLE runs, ``values[r]`` from taken row ``starts[r]``
    on, ``length`` rows in all."""

    tag: str
    values: list
    starts: Optional[list] = None
    length: int = 0


def _vector(gather):
    """A walk's values as the typed vector of its tag."""
    from repro.core.vector import (
        NumericVector, ObjectVector, RunsVector, StringVector,
    )

    if gather.tag == "runs":
        return RunsVector(gather.values, gather.starts, gather.length)
    if gather.tag in ("q", "d"):
        return NumericVector.build(gather.values, gather.tag)
    if gather.tag == "str":
        return StringVector.from_chunks(gather.values)
    return ObjectVector(gather.values)


def _walk(gather, plan) -> list:
    """Run a body's ``plan`` (datum counts hopped, taken, hopped, ...,
    its last pair open) through the gather's step loop if it holds a
    datum; a fresh plan."""
    if len(plan) > 2 or plan[0]:
        gather.steps(plan)
    return [0, 0]


def _runs(rows):
    """Ascending ``rows`` as ``(start, length)`` runs of consecutive rows."""
    start = end = rows[0]
    for row in rows:
        if row != end:
            if row < end:
                raise ValueError(f"rows must ascend: {row} after {end - 1}")
            yield start, end - start
            start = row
        end = row + 1
    yield start, end - start


class ColumnReader:
    """Positioned reader over one column file.

    ``next_index`` is the record index the next :meth:`read_value` will
    return; :meth:`skip` advances it as cheaply as the layout allows.
    This is the object a lazy row's deferral keeps its per-column
    ``lastPos`` in (Section 5.1).

    A read's ``keys`` (a tuple of map keys) asks for each map cut down
    to those keys, charged as the whole map; a read without a map
    kernel for the column returns whole values.

    ``labels`` (typically ``file=...``, ``column=...``) tag the
    per-reader access counters — ``column.rows.read`` and
    ``column.rows.skipped`` — so the storage heatmap can attribute
    row touches to a specific split/column.
    """

    def __init__(
        self, reader, field_schema: Schema, count: int, ctx: TaskContext,
        labels: Optional[dict] = None,
    ) -> None:
        self.reader = reader
        self.field_schema = field_schema
        self.count = count
        self.ctx = ctx
        self.labels = dict(labels or {})
        self.next_index = 0
        #: vectorized execution flips this on: each column read's gather
        #: (:meth:`_new_gather`) then takes and hops runs of datums
        #: through the window loops of :mod:`repro.serde.vecdecode`,
        #: where off (the reference) it steps one datum at a time.
        #: Charges are identical either way (the differential layer
        #: proves it).
        self.batch_kernels = False
        #: whether the batched map kernel can decode this column's
        #: values (``_read_datum_fast`` asks per value)
        self._map_kernel = vecdecode.map_batch_supported(field_schema)
        self._decoder = BinaryDecoder(reader, ctx.cost, ctx.metrics)
        # Operator attribution: every row this reader decodes or skips
        # is credited to whatever operator is current on the profiler.
        # Resolved at construction — profilers install on the ctx
        # before the reader is opened.  The byte reader is stamped with
        # this reader's class name so vecdecode fallback counters can
        # be labeled by reader type.
        self._profiler = getattr(ctx, "profiler", NULL_PROFILER)
        if reader is not None:
            reader._vec_owner = type(self).__name__
        registry = ctx.obs.registry
        self._obs_rows_read = registry.counter(
            "column.rows.read", **self.labels
        )
        self._obs_rows_skipped = registry.counter(
            "column.rows.skipped", **self.labels
        )

    def sync_to(self, index: int) -> None:
        """Position so the next read returns the value at ``index``."""
        if index < self.next_index:
            raise ValueError(
                f"cannot rewind column from {self.next_index} to {index}"
            )
        if index > self.next_index:
            self.skip(index - self.next_index)

    def value_at(self, index: int, keys=None):
        self.sync_to(index)
        return self.read_value(keys)

    def skip(self, n: int) -> None:
        """Advance ``n`` rows as cheaply as the layout allows: one gap of
        the layout's gather, with no rows taken."""
        self._check_bounds(n)
        if n:
            self._gather(((self.next_index + n, 0),))

    def read_value(self, keys=None):
        raise NotImplementedError

    def _gather(self, runs, keys=None):
        """The layout's one walk over ``(start, length)`` runs of rows
        from ``next_index`` on: gaps are skipped, runs taken, each body's
        (a plain column, an inflated block, a bottom block) in one
        :meth:`~repro.serde.vecdecode.Gather.steps` loop.  Returns the
        :class:`~repro.serde.vecdecode.Gather` or a :class:`_Taken`."""
        raise NotImplementedError

    def _read_datum_fast(self, reader=None, decoder=None, keys=None):
        """One datum via the batched map kernel when enabled (a lazy
        row's cell read hits this); charge-identical to
        ``read_datum`` either way."""
        if self.batch_kernels and self._map_kernel:
            return vecdecode.read_maps(
                reader if reader is not None else self.reader,
                self.field_schema, 1, self.ctx.cost, self.ctx.metrics,
                wanted=keys,
            )[0]
        return (decoder if decoder is not None else self._decoder).read_datum(
            self.field_schema
        )

    def _new_gather(self, reader, keys, *per_datum):
        """The gather of one column read, in window steps or (without
        ``batch_kernels``) per-datum ones; a DCSL reader passes its
        ``per_datum`` decode and skip."""
        gather = vecdecode.Gather(
            reader, self.field_schema, self.ctx.cost, self.ctx.metrics, keys,
            *per_datum,
        )
        gather.batched = self.batch_kernels
        return gather

    def read_vector(self, n: int, keys=None):
        """Decode the next ``n`` values into a typed vector.

        Charge-identical to ``n`` consecutive :meth:`read_value` calls
        (the vectorized execution contract): one ``_gather`` over one
        run.
        """
        self._check_read_vector(n)
        gather = self._gather(((self.next_index, n),), keys)
        self._obs_rows_read.inc(n)
        self._profiler.on_cells(n)
        return _vector(gather)

    def read_selected(self, rows: Sequence[int], keys=None) -> dict:
        """``{row: value}`` for ascending absolute ``rows``: one window
        loop that hops each gap and decodes each survivor, equal in every
        charge, counter and stream request to ``sync_to(row)`` +
        ``read_value(keys)`` per row."""
        if not rows:
            return {}
        if rows[0] < self.next_index:
            self.sync_to(rows[0])  # raises: a column cannot rewind
        self._check_read_vector(rows[-1] + 1 - self.next_index)
        skipped = rows[-1] + 1 - self.next_index - len(rows)
        gather = self._gather(_runs(rows), keys)
        values = gather.values
        if gather.tag == "str":
            values = [str(raw, "utf-8") for raw in values]
        elif gather.tag == "runs":
            values = _vector(gather).to_list()
        if skipped:
            self._obs_rows_skipped.inc(skipped)
            self._profiler.on_cells_skipped(skipped)
        self._obs_rows_read.inc(len(rows))
        self._profiler.on_cells(len(rows))
        return dict(zip(rows, values))

    def _check_read_vector(self, n: int) -> None:
        if n < 0:
            raise ValueError("cannot read a negative number of values")
        if self.next_index + n > self.count:
            raise EOFError(
                f"read of {n} values at {self.next_index} past column "
                f"end {self.count}"
            )

    def _check_bounds(self, n: int) -> None:
        """Validate a skip of ``n`` rows and account it to the heatmap.

        Every layout's ``skip`` calls this exactly once with the full
        row count before advancing, so it doubles as the single
        ``column.rows.skipped`` attribution point (``read_selected``
        counts its gaps itself).
        """
        if n < 0:
            raise ValueError("cannot skip backwards")
        if self.next_index + n > self.count:
            raise EOFError(
                f"skip to {self.next_index + n} past column end {self.count}"
            )
        if n:
            self._obs_rows_skipped.inc(n)
            self._profiler.on_cells_skipped(n)


class PlainColumnReader(ColumnReader):
    """Values back to back; skips walk each value individually."""

    def read_value(self, keys=None):
        if self.next_index >= self.count:
            raise EOFError("read past column end")
        value = self._read_datum_fast(keys=keys)
        self.next_index += 1
        self._obs_rows_read.inc()
        self._profiler.on_cells(1)
        return value

    def _gather(self, runs, keys=None):
        gather = self._new_gather(self.reader, keys)
        i, plan = self.next_index, []
        for start, length in runs:
            plan += (start - i, length)
            i = start + length
        gather.steps(plan)
        self.next_index = i
        return gather


class SkipListColumnReader(ColumnReader):
    """Skip-list layout: block jumps for large skips (Figure 6)."""

    has_dictionaries = False

    def __init__(
        self, reader, field_schema, count, ctx, sizes, labels=None
    ) -> None:
        super().__init__(reader, field_schema, count, ctx, labels=labels)
        self.sizes = tuple(sizes)
        self.dictionary: Optional[KeyDictionary] = None
        registry = ctx.obs.registry
        self._obs_jumps = registry.counter(
            "column.skiplist.jumps", **self.labels
        )
        self._obs_jumped_records = registry.counter(
            "column.skiplist.jumped_records", **self.labels
        )
        self._obs_jumped_bytes = registry.counter(
            "column.skiplist.jumped_bytes", **self.labels
        )

    def _consume_block_header(self) -> Tuple[int, int]:
        """Read ``count, nbytes`` (charging their bytes as raw scan)."""
        before = self.reader.offset
        block_count = self.reader.read_varint()
        nbytes = self.reader.read_varint()
        self.ctx.cost.charge_raw_scan(self.ctx.metrics, self.reader.offset - before)
        return block_count, nbytes

    def _consume_dictionary(self) -> None:
        before = self.reader.offset
        self.dictionary = KeyDictionary.read(self.reader)
        self.ctx.cost.charge_raw_scan(self.ctx.metrics, self.reader.offset - before)

    def _jump(self, block_count: int, nbytes: int) -> None:
        self.reader.skip(nbytes)
        self._obs_jumps.inc()
        self._obs_jumped_records.inc(block_count)
        self._obs_jumped_bytes.inc(nbytes)

    def read_value(self, keys=None):
        if self.next_index >= self.count:
            raise EOFError("read past column end")
        for level, size in enumerate(self.sizes):
            if self.next_index % size:
                continue
            self._consume_block_header()
            if level == 0 and self.has_dictionaries:
                self._consume_dictionary()
        value = self._decode_one_value(keys)
        self.next_index += 1
        self._obs_rows_read.inc()
        self._profiler.on_cells(1)
        return value

    def _gather(self, runs, keys=None):
        """Headers are parsed off the window (one it does not hold goes
        to :meth:`_consume_block_header`, a DCSL dictionary always to
        :meth:`_consume_dictionary`); a gap jumps each whole block it
        covers from that block's start.  The gaps and runs inside one
        bottom block are one step loop; a run that starts on or crosses
        a block's start is one take across its blocks' headers."""
        reader, ctx = self.reader, self.ctx
        dcsl = self.has_dictionaries
        gather = self._new_gather(reader, keys, *(
            (lambda _: self._decode_one_value(),
             lambda _: self._skip_one_value()) if dcsl else ()
        ))
        if dcsl and self.dictionary is not None:
            gather.use_keys(self.dictionary.keys)
        sizes, smallest = self.sizes, self.sizes[-1]
        parsed = 0  # header bytes parsed off the window

        def headers(i, n):
            """Row ``i``'s headers, for a gap of ``n`` rows or (``n == 0``)
            as ``read_value`` takes them: the rows jumped, or 0."""
            nonlocal parsed
            for level, size in enumerate(sizes):
                if i % size:
                    continue
                buf, pos = reader._buf, reader.pos
                try:
                    block_count, p = decode_varint(buf, pos)
                    nbytes, p = decode_varint(buf, p)
                    parsed += p - pos
                    reader.pos = p
                except VarintError:
                    vecdecode.fallback(reader, "skiplist_headers")
                    block_count, nbytes = self._consume_block_header()
                if n and n >= block_count:
                    self._jump(block_count, nbytes)
                    return block_count
                if level == 0 and dcsl:
                    self._consume_dictionary()
                    gather.use_keys(self.dictionary.keys)
            return 0

        i, plan = self.next_index, [0, 0]  # the bottom block's counts
        try:  # a read that raises has still parsed its headers
            for start, length in runs:
                n = start - i
                while n > 0:
                    if i % smallest == 0:
                        plan = _walk(gather, plan)
                        jumped = headers(i, n)
                        if jumped:
                            i += jumped
                            n -= jumped
                            continue
                    step = min(n, smallest - i % smallest)
                    plan[-2] += step
                    i += step
                    n -= step
                if not length:
                    continue
                if i % smallest and i % smallest + length <= smallest:
                    plan[-1] = length
                    plan += (0, 0)
                else:  # (its headers() calls add to parsed as it goes)
                    plan = _walk(gather, plan)
                    gather.take(length, (i, sizes, self.count, dcsl, headers))
                i += length
            _walk(gather, plan)
        finally:
            ctx.cost.charge_raw_scan(ctx.metrics, parsed + gather.parsed)
        self.next_index = i
        return gather

    def _decode_one_value(self, keys=None):
        return self._read_datum_fast(keys=keys)


class DcslColumnReader(SkipListColumnReader):
    """Dictionary compressed skip list for map columns (Section 5.3)."""

    has_dictionaries = True

    def _decode_one_value(self, keys=None) -> dict:
        ctx = self.ctx
        reader = self.reader
        if keys is not None and self._map_kernel:  # a key-projected read
            return vecdecode.read_maps(
                reader, self.field_schema, 1, ctx.cost, ctx.metrics,
                self.dictionary.keys, self._decode_one_value, wanted=keys,
            )[0]
        start = reader.offset
        entries = reader.read_varint()
        ctx.cost.charge_map(ctx.metrics, entries)
        out = {}
        for _ in range(entries):
            key_id = reader.read_varint()
            ctx.cost.charge_dictionary_lookup(ctx.metrics)
            key = self.dictionary.key_of(key_id)
            out[key] = self._decoder.read_inner(self.field_schema.values)
        ctx.cost.charge_raw_scan(ctx.metrics, reader.offset - start)
        ctx.metrics.cells += entries
        return out

    def _skip_one_value(self) -> None:
        reader = self.reader
        start = reader.offset
        entries = reader.read_varint()
        for _ in range(entries):
            reader.read_varint()  # key id
            self._decoder.skip_datum(self.field_schema.values)
        self.ctx.cost.charge_raw_scan(
            self.ctx.metrics, reader.offset - start
        )


class CBlockColumnReader(ColumnReader):
    """Compressed blocks with lazy (all-or-nothing) decompression."""

    def __init__(
        self, reader, field_schema, count, ctx, codec_name, labels=None
    ) -> None:
        super().__init__(reader, field_schema, count, ctx, labels=labels)
        self.codec_name = codec_name
        self._codec = get_codec(codec_name)
        self._block_values: List[bytes] = []
        self._block_reader: Optional[ByteReader] = None
        self._block_decoder: Optional[BinaryDecoder] = None
        self._block_remaining = 0  # values left in the open block
        registry = ctx.obs.registry
        self._obs_blocks_skipped = registry.counter(
            "column.cblock.blocks_skipped_compressed", **self.labels
        )
        # Decompression-amplification probes: compressed bytes read vs
        # raw bytes inflated (touching one value inflates the block).
        self._obs_bytes_compressed = registry.counter(
            "column.cblock.bytes.compressed", **self.labels
        )
        self._obs_bytes_inflated = registry.counter(
            "column.cblock.bytes.inflated", **self.labels
        )
        self._obs_bytes_skipped = registry.counter(
            "column.cblock.bytes.skipped_compressed", **self.labels
        )

    def _block_header(self) -> Tuple[int, int, int]:
        before = self.reader.offset
        block_count = self.reader.read_varint()
        raw_len = self.reader.read_varint()
        comp_len = self.reader.read_varint()
        self.ctx.cost.charge_raw_scan(self.ctx.metrics, self.reader.offset - before)
        return block_count, raw_len, comp_len

    def _open_block(self, header: Optional[tuple] = None) -> None:
        """Inflate the next block; ``header`` is :meth:`_block_header`'s
        result when the caller has already consumed it."""
        ctx = self.ctx
        block_count, raw_len, comp_len = header or self._block_header()
        compressed = self.reader.read_bytes(comp_len)
        ctx.cost.charge_raw_scan(ctx.metrics, comp_len)
        ctx.cost.charge_block_inflate_setup(ctx.metrics)
        self._obs_bytes_compressed.inc(comp_len)
        self._obs_bytes_inflated.inc(raw_len)
        raw = self._codec.decompress(
            compressed, ctx.cost, ctx.metrics, registry=ctx.obs.registry
        )
        if len(raw) != raw_len:
            raise ValueError("corrupt compressed block")
        self._block_reader = ByteReader(raw)
        self._block_reader._vec_owner = type(self).__name__
        self._block_decoder = BinaryDecoder(self._block_reader, ctx.cost, ctx.metrics)
        self._block_remaining = block_count

    def _skip_block(self, comp_len: int) -> None:
        """Pass a whole block no row is wanted from, compressed."""
        self.reader.skip(comp_len)
        self._obs_blocks_skipped.inc()
        self._obs_bytes_skipped.inc(comp_len)

    def read_value(self, keys=None):
        if self.next_index >= self.count:
            raise EOFError("read past column end")
        if self._block_remaining == 0:
            self._open_block()
        value = self._read_datum_fast(
            self._block_reader, self._block_decoder, keys
        )
        self._block_remaining -= 1
        self.next_index += 1
        self._obs_rows_read.inc()
        self._profiler.on_cells(1)
        return value

    def _gather(self, runs, keys=None):
        """Gaps pass whole blocks compressed or hop in an open one; a
        survivor inflates its block."""
        gather = self._new_gather(self._block_reader, keys)
        i, plan = self.next_index, [0, 0]  # the open block's counts
        for start, length in runs:
            for n, take in ((start - i, False), (length, True)):
                while n > 0:
                    if self._block_remaining == 0:
                        plan = _walk(gather, plan)
                        header = self._block_header()
                        block_count, _, comp_len = header
                        if not take and n >= block_count:
                            self._skip_block(comp_len)
                            i += block_count
                            n -= block_count
                            continue
                        self._open_block(header)
                        gather.reader = self._block_reader
                    step = min(n, self._block_remaining)
                    if take:
                        plan[-1] = step
                        plan += (0, 0)
                    else:
                        plan[-2] += step
                    self._block_remaining -= step
                    i += step
                    n -= step
        _walk(gather, plan)
        self.next_index = i
        return gather


class DefaultColumnReader(ColumnReader):
    """Synthesizes a declared-but-unwritten column's default value.

    Used when a split-directory predates a column added with
    :func:`repro.core.cof.declare_column`: there is no file to read, so
    every record gets the field's default (container defaults are
    copied so callers cannot alias a shared value).
    """

    def __init__(
        self, field_schema: Schema, count: int, ctx, default, labels=None
    ) -> None:
        super().__init__(reader=None, field_schema=field_schema,
                         count=count, ctx=ctx, labels=labels)
        self._default = default
        self._decoder = None  # no bytes to decode

    def read_value(self, keys=None):
        if self.next_index >= self.count:
            raise EOFError("read past column end")
        self.next_index += 1
        self._obs_rows_read.inc()
        self._profiler.on_cells(1)
        return copy(self._default)

    def _gather(self, runs, keys=None):
        """No bytes to walk: a gap moves ``next_index``, a run copies the
        default once per row."""
        values = []
        for start, length in runs:
            values += [copy(self._default) for _ in range(length)]
            self.next_index = start + length
        return _Taken("obj", values)


class RleColumnReader(ColumnReader):
    """Run-length encoded column: one decode per run, O(1) run skips."""

    def __init__(self, reader, field_schema, count, ctx, labels=None) -> None:
        super().__init__(reader, field_schema, count, ctx, labels=labels)
        self._run_remaining = 0
        self._run_value = None

    def _open_run(self, gap: int = 0) -> int:
        """Read the next run's length and value, or hop the value of a
        run that a ``gap`` covers whole: returns the rows hopped."""
        reader = self.reader
        before = reader.offset
        run = reader.read_varint()
        if gap >= run:
            self._decoder.skip_datum(self.field_schema)
        else:
            self._run_value = self._decoder.read_datum(self.field_schema)
            self._run_remaining = run
        self.ctx.cost.charge_raw_scan(self.ctx.metrics, reader.offset - before)
        return run if gap >= run else 0

    def read_value(self, keys=None):
        if self.next_index >= self.count:
            raise EOFError("read past column end")
        if self._run_remaining == 0:
            self._open_run()
        else:
            # Re-emitting the run's value is a register copy, not a
            # deserialization.
            self.ctx.cost.charge_dictionary_lookup(self.ctx.metrics)
            self.ctx.metrics.cells += 1
        self._run_remaining -= 1
        self.next_index += 1
        self._obs_rows_read.inc()
        self._profiler.on_cells(1)
        return self._run_value

    def _gather(self, runs, keys=None):
        """Runs of rows as RLE runs (a :class:`~repro.core.vector.RunsVector`
        when whole, so a filter evaluates once per run): one decode per
        run opened, one re-emit charge per further row.  A gap hops the
        value of each run it covers whole."""
        cost, metrics = self.ctx.cost, self.ctx.metrics
        values, starts, taken = [], [], 0
        i = self.next_index
        for start, length in runs:
            for n, take in ((start - i, False), (length, True)):
                i += n
                while n > 0:
                    opened = self._run_remaining == 0
                    if opened:
                        hopped = self._open_run(0 if take else n)
                        if hopped:
                            n -= hopped
                            continue
                    step = min(n, self._run_remaining)
                    self._run_remaining -= step
                    n -= step
                    if take:
                        values.append(self._run_value)
                        starts.append(taken)
                        taken += step
                        if step > opened:  # the opening decode was charged
                            cost.charge_dictionary_lookup(metrics, step - opened)
                            metrics.cells += step - opened
        self.next_index = i
        return _Taken("runs", values, starts, taken)


class DeltaColumnReader(ColumnReader):
    """Delta-encoded integer column; values reconstruct cumulatively."""

    def __init__(self, reader, field_schema, count, ctx, labels=None) -> None:
        super().__init__(reader, field_schema, count, ctx, labels=labels)
        self._current = 0

    def read_value(self, keys=None):
        if self.next_index >= self.count:
            raise EOFError("read past column end")
        before = self.reader.offset
        self._current += self.reader.read_zigzag()
        cost, metrics = self.ctx.cost, self.ctx.metrics
        cost.charge_int(metrics)
        cost.charge_raw_scan(metrics, self.reader.offset - before)
        self.next_index += 1
        self._obs_rows_read.inc()
        self._profiler.on_cells(1)
        return self._current

    def _gather(self, runs, keys=None):
        """One take of every delta up to the last run's end: deltas are
        cumulative, so a gap's are summed too (cheap, they are bare
        varints), and charged as skipped."""
        cost, metrics = self.ctx.cost, self.ctx.metrics
        first, runs = self.next_index, list(runs)
        end = runs[-1][0] + runs[-1][1]
        # the deltas are charged below, as skips and reads, not as the
        # gather's takes (it charges a scratch Metrics)
        deltas = vecdecode.Gather(self.reader, self.field_schema, cost, Metrics())
        deltas.batched = self.batch_kernels
        before = self.reader.offset
        deltas.take(end - first)
        sums = list(accumulate(deltas.values, initial=self._current))
        values, i = [], first
        cpu = (self.reader.offset - before) * cost.profile.raw_scan_per_byte
        for start, length in runs:
            if start > i:
                cpu += cost.skip_discount(cost.prim_cpu("int", start - i))
            values += sums[start - first + 1:start - first + 1 + length]
            i = start + length
        metrics.cells += len(values)
        metrics.charge_cpu(cpu + cost.prim_cpu("int", len(values)))
        self._current, self.next_index = sums[-1], end
        return _Taken("q", values)


def open_column_reader(
    stream, field_schema: Schema, ctx: TaskContext,
    labels: Optional[dict] = None,
) -> ColumnReader:
    """Parse a column file header off ``stream`` and build its reader.

    ``labels`` tag the reader's access counters (see
    :class:`ColumnReader`); CIF passes ``file``/``column`` so the
    storage heatmap can attribute rows to a split directory.
    """
    from repro.hdfs.streams import StreamByteReader

    reader = StreamByteReader(stream)
    magic = reader.read_bytes(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"not a column file (magic {magic!r})")
    fmt = reader.read_byte()
    count = reader.read_varint()
    if fmt == FORMAT_PLAIN:
        return PlainColumnReader(reader, field_schema, count, ctx,
                                 labels=labels)
    if fmt in (FORMAT_SKIPLIST, FORMAT_DCSL):
        levels = reader.read_varint()
        sizes = tuple(reader.read_varint() for _ in range(levels))
        cls = DcslColumnReader if fmt == FORMAT_DCSL else SkipListColumnReader
        return cls(reader, field_schema, count, ctx, sizes, labels=labels)
    if fmt == FORMAT_CBLOCK:
        codec_name = reader.read_string()
        return CBlockColumnReader(reader, field_schema, count, ctx, codec_name,
                                  labels=labels)
    if fmt == FORMAT_RLE:
        return RleColumnReader(reader, field_schema, count, ctx, labels=labels)
    if fmt == FORMAT_DELTA:
        return DeltaColumnReader(reader, field_schema, count, ctx,
                                 labels=labels)
    raise ValueError(f"unknown column format byte {fmt}")
