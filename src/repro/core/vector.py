"""Columnar batch execution: the engine every CIF scan runs on.

Materializing and evaluating one record per Python iteration leaves
real wall-clock dominated by interpreter overhead rather than the
simulated I/O the cost model charges.  Here a column block is decoded
into a typed vector **once** (ints/floats as flat ``array`` buffers,
strings as offsets + one byte buffer),
predicates from :mod:`repro.query.expr` are compiled into kernels that
evaluate whole vectors producing **selection indexes**, and only
surviving rows are late-materialized for map functions.

The per-datum reader (``execution="scalar"``) is kept as the reference
this engine is checked against, under *zero-tolerance equivalence*:
outputs are record-exact identical, and every metric field (bytes,
seeks, ``io_ticks`` / ``cpu_ticks``, records, cells, objects, ``extra``)
and every obs counter is exactly equal.  Charges are whole ticks summed
as ints, so a batched charge equals the per-datum charges it replaces.

:func:`reconcile_metrics` checks that contract; the differential test
suite, the oracle's ``metrics:`` cells and the ``vector_scan`` bench
scenario gate on it.

Selections are frame-local row indexes in ascending order.  The
pinned comparison semantics (NULL never satisfies an ordering
predicate, IEEE-754 NaN, exact mixed int/float comparison) live in
:mod:`repro.query.expr` and are imported lazily to keep this module
free of import cycles with the query layer.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import fields
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence

from repro.serde.record import Record, _Deferred
from repro.serde.vecdecode import LENGTHS
from repro.util.compare import exact_mismatches

__all__ = [
    "EXECUTION_MODES",
    "DEFAULT_BATCH_ROWS",
    "resolve_execution",
    "Vector",
    "ObjectVector",
    "NumericVector",
    "StringVector",
    "RunsVector",
    "full_selection",
    "intersect_selections",
    "union_selections",
    "complement_selection",
    "gather",
    "compile_predicate",
    "PredicateProgram",
    "FrameProgram",
    "fold_aggregate",
    "fold_partials",
    "BatchOp",
    "run_batch_map",
    "VectorFrame",
    "CellLedger",
    "reconcile_metrics",
]


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

#: ``"vectorized"`` is the engine; ``"scalar"`` opens the per-datum
#: reference reader the differential oracle compares it against
EXECUTION_MODES = ("scalar", "vectorized")

#: rows per decoded frame — large enough to amortize per-batch Python
#: overhead, small enough that late materialization stays cache-friendly
DEFAULT_BATCH_ROWS = 1024


def resolve_execution(mode: str) -> str:
    """Validate a reader name (one of :data:`EXECUTION_MODES`)."""
    if mode not in EXECUTION_MODES:
        raise ValueError(
            f"execution must be one of {EXECUTION_MODES}, got {mode!r}"
        )
    return mode


def _compare_funcs() -> Dict[str, Callable]:
    # Lazy import: repro.query imports repro.core (for planning), so a
    # module-level import here would be circular.  The pinned semantics
    # stay defined in exactly one place — repro.query.expr.
    from repro.query.expr import _COMPARE_FUNCS

    return _COMPARE_FUNCS


# ---------------------------------------------------------------------------
# Typed vectors
# ---------------------------------------------------------------------------


class Vector:
    """One decoded column block: positional access to ``length`` values.

    The storage layer never writes NULLs; a ``None`` enters only as a
    value computed above the vectors (map-key access).
    """

    kind = "object"

    def __init__(self, length: int) -> None:
        self.length = length

    def value(self, i: int):
        raise NotImplementedError

    def to_list(self) -> List:
        return [self.value(i) for i in range(self.length)]

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"{type(self).__name__}(length={self.length})"


class ObjectVector(Vector):
    """Arbitrary Python values (the universal fallback representation)."""

    kind = "object"

    def __init__(self, values: List) -> None:
        super().__init__(len(values))
        self.values = values

    def value(self, i: int):
        return self.values[i]

    def to_list(self) -> List:
        return list(self.values)


class NumericVector(Vector):
    """Flat int64/float64 buffer (``array('q')`` / ``array('d')``).

    Values that overflow int64 fall back to :class:`ObjectVector` at
    build time (see ``build``).
    """

    kind = "numeric"

    def __init__(self, data: array) -> None:
        super().__init__(len(data))
        self.data = data

    @classmethod
    def build(cls, values: List, typecode: str = "q") -> Vector:
        try:
            return cls(array(typecode, values))
        except (OverflowError, TypeError):
            # e.g. a long column holding values past ±2**63
            return ObjectVector(values)

    def value(self, i: int):
        return self.data[i]

    def to_list(self) -> List:
        return self.data.tolist()


class StringVector(Vector):
    """Strings as one shared byte buffer plus row offsets.

    ``offsets`` has ``length + 1`` entries; row *i* occupies
    ``buffer[offsets[i]:offsets[i + 1]]`` (UTF-8).  Decoding to ``str``
    happens lazily per row and is cached, so predicates that resolve at
    the byte level (substring scan, equality, ordering — UTF-8 byte
    order equals code-point order) never pay for it.
    """

    kind = "string"

    def __init__(self, buffer: bytes, offsets: List[int]) -> None:
        super().__init__(len(offsets) - 1)
        self.buffer = buffer
        self.offsets = offsets
        self._decoded: List[Optional[str]] = [None] * self.length

    @classmethod
    def from_chunks(cls, chunks: List[bytes]) -> "StringVector":
        offsets = list(accumulate(map(len, chunks), initial=0))
        return cls(b"".join(chunks), offsets)

    def value(self, i: int) -> str:
        cached = self._decoded[i]
        if cached is None:
            cached = self.buffer[self.offsets[i]:self.offsets[i + 1]].decode(
                "utf-8"
            )
            self._decoded[i] = cached
        return cached


class RunsVector(Vector):
    """Run-length-encoded values: ``values[r]`` covers rows
    ``[starts[r], starts[r + 1])``.

    Built directly by the RLE column reader, so a filter evaluates its
    predicate once per run — never decoding (or even touching) the
    individual rows.  Re-emitted rows alias the same value object,
    exactly like the scalar RLE reader.
    """

    kind = "runs"

    def __init__(self, values: List, starts: List[int], length: int) -> None:
        super().__init__(length)
        self.run_values = values
        self.starts = starts  # ascending; starts[0] == 0

    def run_of(self, i: int) -> int:
        return bisect_right(self.starts, i) - 1

    def value(self, i: int):
        return self.run_values[self.run_of(i)]


# ---------------------------------------------------------------------------
# Selections
# ---------------------------------------------------------------------------


def full_selection(length: int) -> range:
    """All rows of a frame (``range`` — cheap and iteration-friendly)."""
    return range(length)


def intersect_selections(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Rows present in both ascending selections (ascending result)."""
    in_b = set(b)
    return [i for i in a if i in in_b]


def union_selections(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Rows present in either ascending selection (ascending result)."""
    return sorted(set(a) | set(b))


def complement_selection(
    universe: Sequence[int], survivors: Sequence[int]
) -> List[int]:
    """Rows of ``universe`` not in ``survivors`` (ascending result)."""
    dead = set(survivors)
    return [i for i in universe if i not in dead]


def gather(data, sel: Sequence[int]) -> List:
    """Materialize the values of ``sel`` from a vector or sparse dict
    (a whole frame's in one ``to_list``: one call for a flat vector)."""
    if isinstance(data, dict):
        return [data[i] for i in sel]
    if sel == range(data.length):
        return data.to_list()
    value = data.value
    return [value(i) for i in sel]


# ---------------------------------------------------------------------------
# Predicate kernels
# ---------------------------------------------------------------------------
#
# Kernels never charge decode cost — the column readers already charged
# it (batched) when the vector was built, exactly as the scalar path
# charges it per `read_value`.  The only per-row charge a scalar
# predicate makes is `charge_predicate` inside `contains`, which the
# contains kernel reproduces for every evaluated row.

_SWAPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

def kernel_compare(data, symbol: str, literal, sel: Sequence[int]) -> List[int]:
    """Rows of ``sel`` where ``value <symbol> literal`` holds.

    Dispatches on the vector representation: numeric buffers compare
    raw; strings compare as UTF-8 byte slices (byte order == code-point
    order, so no decode); runs evaluate the predicate once per run.
    """
    fn = _compare_funcs()[symbol]
    if isinstance(data, dict):
        return [i for i in sel if fn(data[i], literal)]
    if isinstance(data, NumericVector):
        # no NULLs and no None literal short-circuit needed beyond fn
        values = data.data
        return [i for i in sel if fn(values[i], literal)]
    if isinstance(data, RunsVector):
        verdicts = [fn(v, literal) for v in data.run_values]
        starts = data.starts
        nruns = len(verdicts)
        out = []
        run = 0
        for i in sel:
            while run + 1 < nruns and i >= starts[run + 1]:
                run += 1
            if verdicts[run]:
                out.append(i)
        return out
    if isinstance(data, StringVector) and isinstance(literal, str):
        # Compare byte slices against the encoded literal: UTF-8
        # preserves code-point order, so every operator agrees with
        # Python str comparison and no row needs decoding.
        needle = literal.encode("utf-8")
        buffer = data.buffer
        offsets = data.offsets
        return [
            i for i in sel
            if fn(buffer[offsets[i]:offsets[i + 1]], needle)
        ]
    value = data.value
    return [i for i in sel if fn(value(i), literal)]


def kernel_contains(data, needle, sel: Sequence[int], ctx) -> List[int]:
    """Rows of ``sel`` whose value contains ``needle``.

    Charges ``charge_predicate`` for every evaluated string row, like
    the scalar `contains`.  The StringVector fast path runs one
    ``bytes.find`` scan over the shared buffer (UTF-8 is
    self-synchronizing, so a byte-level hit inside a row's span is a
    character-level hit) instead of a per-row Python loop.
    """
    if isinstance(data, StringVector) and isinstance(needle, str):
        offsets = data.offsets
        if ctx is not None:
            # charge_predicate takes *character* counts; for an ASCII
            # buffer char count == byte span, else decode (cached).
            if data.buffer.isascii():
                total = sum(offsets[i + 1] - offsets[i] for i in sel)
            else:
                total = sum(len(data.value(i)) for i in sel)
            ctx.metrics.charge_cpu(
                total * ctx.cost.profile.predicate_per_byte
            )
        needle_bytes = needle.encode("utf-8")
        if not needle_bytes:
            return list(sel)
        buffer = data.buffer
        find = buffer.find
        hits = set()
        pos = find(needle_bytes)
        while pos != -1:
            row = bisect_right(offsets, pos) - 1
            if pos + len(needle_bytes) <= offsets[row + 1]:
                hits.add(row)
                pos = find(needle_bytes, offsets[row + 1])
            else:
                # match straddles a row boundary: not a real hit,
                # resume just past this position
                pos = find(needle_bytes, pos + 1)
        return [i for i in sel if i in hits]
    if isinstance(data, RunsVector):
        out = []
        starts = data.starts
        nruns = len(data.run_values)
        run = -1
        verdict = False
        run_value = None
        per_byte = None if ctx is None else ctx.cost.profile.predicate_per_byte
        charged_chars = 0
        for i in sel:
            while run + 1 < nruns and (run < 0 or i >= starts[run + 1]):
                run += 1
                run_value = data.run_values[run]
                verdict = needle in run_value
            if per_byte is not None and isinstance(run_value, (str, bytes)):
                charged_chars += len(run_value)
            if verdict:
                out.append(i)
        if per_byte is not None and charged_chars:
            ctx.metrics.charge_cpu(charged_chars * per_byte)
        return out
    values = (
        (lambda i: data[i]) if isinstance(data, dict) else data.value
    )
    out = []
    for i in sel:
        v = values(i)
        if ctx is not None and isinstance(v, (str, bytes)):
            ctx.charge_predicate(v)
        if needle in v:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# Predicate and value compiler
# ---------------------------------------------------------------------------
#
# Exprs self-describe their structure (`op_symbol`, `operands`, `op_fn`,
# `contains_needle`, ...; see repro.query.expr).  The compiler pattern-
# matches that metadata into vector kernels; any shape it does not
# recognize falls back to evaluating the original Expr row-at-a-time
# over frame rows (VectorFrame.row), which is charge-identical to the
# scalar path by construction.  Note scalar `&`/`|` evaluate BOTH sides
# on every row (no short-circuit inside one Expr), so compiled and/or
# run both children over the same selection before combining — keeping
# contains charges identical.


class PredicateProgram:
    """A compiled (or fallback) filter: selection in, selection out."""

    __slots__ = ("expr", "compiled", "_fn")

    def __init__(self, expr, fn: Callable, compiled: bool) -> None:
        self.expr = expr
        self.compiled = compiled
        self._fn = fn

    def run(self, frame, sel: Sequence[int], ctx=None) -> List[int]:
        return self._fn(frame, sel, ctx)

    def __repr__(self) -> str:
        tag = "compiled" if self.compiled else "fallback"
        return f"PredicateProgram({self.expr.description!r}, {tag})"


def _is_column(expr) -> Optional[str]:
    return getattr(expr, "column_name", None)


def _has_literal(expr) -> bool:
    return hasattr(expr, "literal_value")


def _compile_value(expr) -> Optional[Callable]:
    """Compile to ``fn(frame, sel, ctx) -> list`` aligned with ``sel``.

    A column leaf is ``frame.values(name, sel)``, a column's ``length``
    is :func:`_lengths` of it, and every other node maps its ``op_fn``
    over its operands' lists.  None for what has no value
    function: ``contains``, whose charge belongs to a filter, and an
    Expr built without metadata.
    """
    name = _is_column(expr)
    if name is not None:
        return lambda frame, sel, ctx: frame.values(name, sel)
    if _has_literal(expr):
        literal = expr.literal_value
        return lambda frame, sel, ctx: [literal] * len(sel)
    op = getattr(expr, "op_fn", None)
    if op is None:
        return None
    name = _is_column(expr.operands[0])
    if expr.op_symbol == "length" and name is not None:
        return lambda frame, sel, ctx: _lengths(frame, name, sel)
    fns = [_compile_value(operand) for operand in expr.operands]
    if None in fns:
        return None
    if len(fns) == 1:
        (arg,) = fns
        return lambda frame, sel, ctx: list(map(op, arg(frame, sel, ctx)))
    left, right = fns
    return lambda frame, sel, ctx: list(
        map(op, left(frame, sel, ctx), right(frame, sel, ctx))
    )


def _lengths(frame, name: str, sel: Sequence[int]) -> List[int]:
    """``len`` of the column's value at each row of ``sel``.

    A string or bytes column read as :data:`~repro.serde.vecdecode.LENGTHS`
    holds them already, as ints, but for a non-ASCII string's bytes,
    decoded here as a whole read's value would be (bad UTF-8 raises
    here either way); one read whole (a layout with no lengths window)
    holds values.  An ASCII string buffer holds one byte per
    character, so its offsets give the counts undecoded."""
    data = frame.column(name, sel)
    kind = frame._readers[name].field_schema.kind
    if kind not in ("string", "bytes"):
        return list(map(len, gather(data, sel)))
    if isinstance(data, NumericVector):
        return gather(data, sel)
    if isinstance(data, StringVector) and data.buffer.isascii():
        offsets = data.offsets
        return [offsets[i + 1] - offsets[i] for i in sel]
    text = kind == "string"
    return [
        v if type(v) is int
        else len(str(v, "utf-8") if text and type(v) is not str else v)
        for v in gather(data, sel)
    ]


def _compile_pred(expr) -> Optional[Callable]:
    """Compile to ``fn(frame, sel, ctx) -> selection`` or None."""
    symbol = getattr(expr, "op_symbol", None)
    if symbol in _SWAPPED:  # <, <=, >, >=, ==, !=
        left, right = expr.operands
        left_col, right_col = _is_column(left), _is_column(right)
        if left_col is not None and _has_literal(right):
            literal = right.literal_value
            return lambda frame, sel, ctx: kernel_compare(
                frame.column(left_col, sel), symbol, literal, sel
            )
        if right_col is not None and _has_literal(left):
            literal = left.literal_value
            swapped = _SWAPPED[symbol]
            return lambda frame, sel, ctx: kernel_compare(
                frame.column(right_col, sel), swapped, literal, sel
            )
        left_fn = _compile_value(left)
        right_fn = _compile_value(right)
        if left_fn is None or right_fn is None:
            return None

        def general_compare(frame, sel, ctx):
            fn = _compare_funcs()[symbol]
            lhs = left_fn(frame, sel, ctx)
            rhs = right_fn(frame, sel, ctx)
            return [i for i, a, b in zip(sel, lhs, rhs) if fn(a, b)]

        return general_compare
    if symbol == "and":
        left_fn = _compile_pred(expr.operands[0])
        right_fn = _compile_pred(expr.operands[1])
        if left_fn is None or right_fn is None:
            return None
        return lambda frame, sel, ctx: intersect_selections(
            left_fn(frame, sel, ctx), right_fn(frame, sel, ctx)
        )
    if symbol == "or":
        left_fn = _compile_pred(expr.operands[0])
        right_fn = _compile_pred(expr.operands[1])
        if left_fn is None or right_fn is None:
            return None
        return lambda frame, sel, ctx: union_selections(
            left_fn(frame, sel, ctx), right_fn(frame, sel, ctx)
        )
    if symbol == "not":
        child_fn = _compile_pred(expr.operands[0])
        if child_fn is None:
            return None
        return lambda frame, sel, ctx: complement_selection(
            sel, child_fn(frame, sel, ctx)
        )
    if symbol == "is_null":
        value_fn = _compile_value(expr.operands[0])
        if value_fn is None:
            return None
        return lambda frame, sel, ctx: [
            i for i, v in zip(sel, value_fn(frame, sel, ctx)) if v is None
        ]
    if symbol == "contains":
        needle = expr.contains_needle
        base = expr.operands[0]
        base_col = _is_column(base)
        if base_col is not None:
            return lambda frame, sel, ctx: kernel_contains(
                frame.column(base_col, sel), needle, sel, ctx
            )
        value_fn = _compile_value(base)
        if value_fn is None:
            return None

        def contains_values(frame, sel, ctx):
            out = []
            for i, v in zip(sel, value_fn(frame, sel, ctx)):
                if ctx is not None and isinstance(v, (str, bytes)):
                    ctx.charge_predicate(v)
                if needle in v:
                    out.append(i)
            return out

        return contains_values
    return None


def compile_predicate(expr) -> PredicateProgram:
    """Compile one filter Expr; always succeeds (fallback is row-eval)."""
    fn = _compile_pred(expr)
    if fn is not None:
        return PredicateProgram(expr, fn, compiled=True)

    def fallback(frame, sel, ctx):
        evaluate = expr.evaluate
        row = frame.row
        return [i for i in sel if bool(evaluate(row(i), ctx))]

    return PredicateProgram(expr, fallback, compiled=False)


def _projection(exprs, lengths: bool = True) -> Dict[str, object]:
    """Map column -> how ``exprs`` read it, for each column they read
    only as ``col(m)[k]`` with a str ``k`` (the tuple of those keys) or,
    with ``lengths``, only as ``col(c).length()``
    (:data:`~repro.serde.vecdecode.LENGTHS`).  A column also read whole
    (a bare reference, or under an Expr without structure), or both
    ways, is left out: readers cannot rewind, so it is decoded once,
    whole."""
    keys: Dict[str, dict] = {}  # column -> its keys, as an ordered set
    measured, whole = set(), set()
    stack = list(exprs)
    while stack:
        expr = stack.pop()
        operands = getattr(expr, "operands", None)
        name = _is_column(operands[0]) if operands else None
        key = getattr(expr, "item_key", None)
        if name is not None and isinstance(key, str):
            keys.setdefault(name, {})[key] = None
        elif lengths and name is not None and expr.op_symbol == "length":
            measured.add(name)
        elif operands is not None:
            stack.extend(operands)
        elif not _has_literal(expr):
            whole |= expr.columns  # a column leaf, or no structure
    whole |= measured & keys.keys()
    out: Dict[str, object] = {
        name: tuple(k) for name, k in keys.items() if name not in whole
    }
    out.update((name, LENGTHS) for name in measured - whole)
    return out


class FrameProgram:
    """``Q``'s select / group-by / aggregate expressions, compiled once.

    :meth:`run` evaluates each expression column-at-a-time into a list
    aligned with ``sel``, reading every column it names through
    ``frame.values``.  ``refused`` is the first expression that does not
    compile; then the whole op runs row by row, because the op's
    ``frame_fn`` takes every expression's column or none of them.

    ``keys`` is the projection of these expressions and the op's
    ``filters`` together (:func:`_projection`), one walk: frames read
    those map columns cut down to the keys ``getitem`` looks up, and
    those string and bytes columns as the lengths ``length`` takes.  A
    row evaluated whole (a refused expression, a filter that does not
    compile) would see a length for its value, so then no column is
    read as lengths.
    """

    __slots__ = ("refused", "keys", "_fns")

    def __init__(self, exprs: Sequence, filters: Sequence) -> None:
        self._fns = [_compile_value(expr) for expr in exprs]
        self.refused = next(
            (e for e, fn in zip(exprs, self._fns) if fn is None), None
        )
        compiled = self.refused is None and all(
            _compile_pred(f) is not None for f in filters
        )
        self.keys = _projection([*filters, *exprs], lengths=compiled)

    def run(self, frame, sel: Sequence[int], ctx) -> List[List]:
        return [fn(frame, sel, ctx) for fn in self._fns]


# ---------------------------------------------------------------------------
# Aggregate folds
# ---------------------------------------------------------------------------


def fold_aggregate(agg, values: Sequence, state):
    """Fold one aggregate's values, in row order, into ``state``:
    exactly ``merge(state, step(init(), v))`` per value, as a combiner
    merges one-row partials.  The built-in kinds fold inline, bit for
    bit the same (sums fold left; ``0 + v`` is ``v`` but for ``-0.0``,
    and ``x + 0.0`` is ``x + -0.0`` for any ``x`` a sum reaches).  NULL
    semantics match repro.query.aggregates: ``count`` counts every row,
    every value-consuming aggregate skips None.
    """
    kind = agg.kind
    if kind == "count":
        return state + len(values)
    if kind == "sum":
        for v in values:
            if v is not None:
                state = state + v
        return state
    if kind == "min" or kind == "max":
        # strict left fold: min/max are not associative under NaN, and
        # the contract is bit-exact agreement with the scalar chain
        pick = min if kind == "min" else max
        for v in values:
            if v is not None:
                state = v if state is None else pick(state, v)
        return state
    if kind == "avg":
        total, n = state
        for v in values:
            if v is not None:
                total = total + v
                n += 1
        return (total, n)
    step, merge, init = agg.step, agg.merge, agg.init
    for v in values:
        state = merge(state, step(init(), v))
    return state


def fold_partials(acc: Dict, key, aggregates: Sequence, columns) -> None:
    """Fold one group's rows into ``acc[key]``, its list of partial
    states, one per combinable aggregate (``columns`` holds each one's
    values in row order).  A group's first row starts it, as the
    combiner's first partial does: ``step(init(), v)``.
    """
    states = acc.get(key)
    if states is None:
        states = acc[key] = [
            a.step(a.init(), column[0])
            for a, column in zip(aggregates, columns)
        ]
        columns = [column[1:] for column in columns]
    for j, (a, column) in enumerate(zip(aggregates, columns)):
        states[j] = fold_aggregate(a, column, states[j])


# ---------------------------------------------------------------------------
# Batch frames and late materialization
# ---------------------------------------------------------------------------


class VectorFrame:
    """A window of rows over one split-directory, decoded column-wise
    on demand.

    A column is decoded exactly once per frame, at its first use: the
    whole frame (``read_vector``) when the requesting selection covers
    every row, else a sparse gather of the selected rows
    (``read_selected``: one window loop over the selection, charged as
    ``sync_to`` + ``read_value`` per row would be).  Because
    selections only shrink as filters apply, later uses are always
    subsets of the first and hit the cache, mirroring a lazy row's
    first-touch-only accounting.

    A column named in ``keys`` (a :attr:`FrameProgram.keys` projection)
    is read cut down to those map keys, or as its values' lengths, and
    cached so.

    Row indexes are frame-local (0 .. length-1); ``start`` maps them to
    absolute record positions for the column readers.
    """

    def __init__(
        self, readers: Dict, schema, start: int, length: int, ctx,
        ledger: Optional["CellLedger"] = None,
    ) -> None:
        self._readers = readers
        self.schema = schema
        self.start = start
        self.length = length
        self.ctx = ctx
        self.ledger = ledger
        self.keys: Dict[str, tuple] = {}
        self._columns: Dict[str, object] = {}
        self._touched: Dict[str, object] = {}  # name -> set of rows | True
        self.selection: Sequence[int] = full_selection(length)

    def _require_reader(self, name: str):
        reader = self._readers.get(name)
        if reader is None:
            from repro.serde.schema import SchemaError

            raise SchemaError(
                f"column {name!r} is not in this reader's projection"
            )
        return reader

    def touched(self, name: str):
        return self._touched.get(name)

    def column(self, name: str, sel: Sequence[int]):
        """The column's data at ``sel``: a Vector (full frame) or a
        sparse ``{row: value}`` dict."""
        data = self._columns.get(name)
        keys = self.keys.get(name)
        if data is None:
            reader = self._require_reader(name)
            if len(sel) == self.length:
                reader.sync_to(self.start)
                data = reader.read_vector(self.length, keys)
                self._touched[name] = True
                if self.ledger is not None:
                    self.ledger.on_materialized(name, self.length)
            else:
                data = self._read_selected(reader, sel, keys)
                self._touched[name] = set(sel)
                if self.ledger is not None:
                    self.ledger.on_materialized(name, len(sel))
            self._columns[name] = data
        elif isinstance(data, dict):
            # Selections shrink monotonically, so this is normally a
            # cache hit; gather any genuinely new rows (ascending —
            # column readers cannot rewind).
            missing = [i for i in sel if i not in data]
            if missing:
                reader = self._require_reader(name)
                data.update(self._read_selected(reader, missing, keys))
                self._touched[name].update(missing)
                if self.ledger is not None:
                    self.ledger.on_materialized(name, len(missing))
        return data

    def _read_selected(self, reader, sel: Sequence[int], keys) -> dict:
        """``{row: value}`` of frame-local ``sel``."""
        got = reader.read_selected([self.start + i for i in sel], keys)
        return dict(zip(sel, got.values()))

    def values(self, name: str, sel: Sequence[int]) -> List:
        """The column's values at ``sel``, aligned with it: what compiled
        value expressions read, in a filter or above it."""
        return gather(self.column(name, sel), sel)

    def get_value(self, name: str, i: int):
        """One cell, decoding at most once (a lazy row's ``get``)."""
        data = self._columns.get(name)
        if data is None or (isinstance(data, dict) and i not in data):
            data = self.column(name, (i,))
        return data[i] if isinstance(data, dict) else data.value(i)

    def row(self, i: int) -> Record:
        """Row ``i`` as a Record whose slots each read their cell with
        :meth:`get_value` on first ``get``: what row-at-a-time
        fallbacks evaluate."""
        cell = self._cell
        return Record.of(self.schema, [
            _Deferred(cell, (f.name, i)) for f in self.schema.fields
        ])

    def _cell(self, span):
        return self.get_value(*span)

    def __repr__(self) -> str:
        return (
            f"VectorFrame(start={self.start}, length={self.length}, "
            f"decoded={sorted(self._columns)})"
        )


class CellLedger:
    """The ``lazy.*`` counters of one split-directory's projection.

    ``lazy.records``, ``lazy.cells.materialized{column=}`` and
    ``lazy.cells.skipped{column=}`` are registered here only, eagerly,
    so registry snapshots of both engines compare exactly.  A lazy row
    (:class:`~repro.core.cif.CIFRecordReader`) counts into them row by
    row: a record per row, a materialized cell when a slot's deferral
    reads it, and at the next row a skipped cell for each slot that
    still holds its deferral.  Batch frames count through
    :meth:`on_rows`, :meth:`on_materialized` and :meth:`settle_frame`.
    """

    def __init__(self, names: Sequence[str], obs) -> None:
        registry = obs.registry
        self.records = registry.counter("lazy.records")
        # Per-column cells: labeled so the heatmap can show which
        # projected columns a map function actually touches.  Aggregate
        # queries (value_of with no labels) still sum across columns.
        self.materialized = {
            name: registry.counter("lazy.cells.materialized", column=name)
            for name in names
        }
        self.skipped = {
            name: registry.counter("lazy.cells.skipped", column=name)
            for name in names
        }

    def on_rows(self, n: int) -> None:
        self.records.inc(n)

    def on_materialized(self, name: str, n: int) -> None:
        self.materialized[name].inc(n)

    def settle_frame(self, frame: VectorFrame, exclude_last: bool) -> None:
        """Frame-granular settle (batch mode).

        ``exclude_last`` marks the final frame of a split-directory,
        whose last row a lazy row never settles: it settles a row when
        the next row of the directory starts.
        """
        settled = frame.length - (1 if exclude_last else 0)
        if settled <= 0:
            return
        for name, skipped in self.skipped.items():
            touched = frame.touched(name)
            if touched is True:
                continue
            covered = (
                0 if touched is None
                else sum(1 for i in touched if i < settled)
            )
            if settled > covered:
                skipped.inc(settled - covered)


# ---------------------------------------------------------------------------
# Batch map execution
# ---------------------------------------------------------------------------


class BatchOp:
    """A vectorizable mapper: ``filters`` run as selection kernels over
    each frame, then ``frame_fn(program.run(frame, sel, ctx), emit,
    acc)`` once over the survivors; when ``program.refused``,
    ``row_fn(row, emit, ctx)`` runs per survivor instead.

    ``frame_fn`` emits pairs or folds into ``acc``, the map task's group
    key -> partial states (:func:`fold_partials`), which the task emits
    as ``(key, tuple(states))``, first seen first, once drained."""

    __slots__ = ("filters", "row_fn", "program", "frame_fn")

    def __init__(
        self, filters: Sequence, row_fn: Callable,
        program: FrameProgram, frame_fn: Callable,
    ) -> None:
        self.filters = list(filters)
        self.row_fn = row_fn
        self.program = program
        self.frame_fn = frame_fn


def run_batch_map(job, reader, emit, ctx) -> None:
    """Drain a batch-capable reader through a job's BatchOp.

    Charge parity with the scalar loop: the reader counts records as
    frames open; ``map_invoke`` is charged once per row (batched
    multiply); filters are applied in `.where()` order over shrinking
    selections, matching the scalar ``all()`` short-circuit between
    filters (never within one Expr).  A task that evaluates row by row
    counts one ``vecexpr.fallback{expr=}``.
    """
    op = job.batch_op
    predicates = [compile_predicate(f) for f in op.filters]
    map_invoke = job.cost.profile.map_invoke
    metrics = ctx.metrics
    row_fn, frame_fn, program = op.row_fn, op.frame_fn, op.program
    per_row = program.refused is not None
    if per_row:
        ctx.obs.registry.counter(
            "vecexpr.fallback", expr=program.refused.description
        ).inc()
    profiler = ctx.profiler
    acc: Dict = {}
    while True:
        frame = reader.read_batch()
        if frame is None:
            for key, states in acc.items():
                emit(key, tuple(states))
            return
        metrics.charge_cpu(frame.length * map_invoke)
        frame.keys = program.keys
        sel = frame.selection
        if predicates:
            profiler.switch("filter")
            for predicate in predicates:
                if not sel:
                    break
                sel = predicate.run(frame, sel, ctx)
            profiler.add_rows("filter", frame.length, len(sel))
        profiler.switch("materialize")
        profiler.add_rows("materialize", len(sel), len(sel))
        if per_row:
            row = frame.row
            for i in sel:
                row_fn(row(i), emit, ctx)
        elif sel:
            frame_fn(program.run(frame, sel, ctx), emit, acc)
        # Attribute the next read_batch to the scan stage.
        profiler.switch("scan")


# ---------------------------------------------------------------------------
# Zero-tolerance reconcile
# ---------------------------------------------------------------------------


def reconcile_metrics(scalar, vectorized) -> List[str]:
    """Compare two Metrics under the vectorized-equivalence contract:
    every field, ``extra`` included, exactly (simulated time is whole
    ticks, so batched charges sum to the per-datum ones).  Returns
    human-readable mismatch descriptions — empty means reconciled.
    """
    triples = [
        (f.name, getattr(scalar, f.name), getattr(vectorized, f.name))
        for f in fields(scalar) if f.name != "extra"
    ]
    triples += [
        (f"extra[{key}]", scalar.extra.get(key, 0),
         vectorized.extra.get(key, 0))
        for key in sorted(set(scalar.extra) | set(vectorized.extra))
    ]
    return exact_mismatches("scalar", "vectorized", triples)
