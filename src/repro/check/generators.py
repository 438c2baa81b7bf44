"""Deterministic, boundary-biased case generation for the oracle/fuzzer.

One seed maps to exactly one :class:`Case` — a schema, a batch of
records, a query, a chaos seed and an I/O buffer size — forever.
Reproducing any fuzzer finding is therefore ``repro check run --seed
N``: no corpus file or saved state is required, the seed *is* the test
case.

The generators are structure-aware and boundary-biased: value pools
lead with the encodings most likely to break (empty strings, NUL bytes,
max/min varint values, deep maps, empty containers), and per-field "run
modes" produce long constant runs so RLE/delta layouts and lazy
skip-ahead paths get exercised, not just random noise.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.serde.record import Record
from repro.serde.schema import Schema

__all__ = [
    "Case",
    "DEFAULT_IO_BUFFER",
    "IO_BUFFERS",
    "QuerySpec",
    "case_from_obj",
    "case_to_obj",
    "expected_output",
    "freeze",
    "generate_case",
    "normalize",
    "to_records",
    "zero_value",
]

# -- boundary-biased value pools --------------------------------------------
#
# Pools lead with the nastiest values (index order matters: the
# generator samples low indices more often than high ones), so even a
# one-record shrunk case tends to keep a boundary value.

INT_POOL = [
    0, 2**31 - 1, -(2**31), -1, 1, 127, 128, -128, 255, 256, 7, 42, 1000,
]
LONG_POOL = [
    0, 2**63 - 1, -(2**63), 2**31 - 1, -(2**31), -1, 1, 2**40, 300, 7,
]
DOUBLE_POOL = [
    0.0, -0.0, 1.0, -1.5, 1e300, -1e-300, 3.141592653589793, 2.5, -273.15,
]
STRING_POOL = [
    "",
    "\x00",
    "a",
    "tab\there",
    "nl\nhere",
    "back\\slash",
    "comma,semi;colon:",
    "x" * 300,
    "héllo wörld ✓",
    "urn:cnn.com/2011",
]
BYTES_POOL = [b"", b"\x00", b"\xff" * 8, b"\x00\x01\x7f\x80", b"payload"]
BOOL_POOL = [False, True]
TIME_POOL = [0, 1302000000, 2**31, 2**62, 1, 86400]
MAP_KEY_POOL = ["", "k", "anchor", "a" * 40, "key:colon", "k2", "k3"]

_POOLS = {
    "int": INT_POOL,
    "long": LONG_POOL,
    "double": DOUBLE_POOL,
    "boolean": BOOL_POOL,
    "string": STRING_POOL,
    "bytes": BYTES_POOL,
    "time": TIME_POOL,
}

#: primitive kinds a group-by key may have (doubles excluded: -0.0/0.0
#: would merge groups in Python while staying distinct on disk)
KEY_KINDS = ("int", "long", "string", "boolean", "time")

#: schema kinds whose values ``len()`` applies to (the lensum aggregate)
LEN_KINDS = ("string", "bytes")

#: int-kinded fields usable by the sum aggregate
SUM_KINDS = ("int", "long", "time")

#: I/O buffer (= decode window) sizes a case's cluster may run at: two
#: primes small enough that most datums straddle a window edge, the
#: oracle's long-standing 2 KiB, and the micro-benchmarks' 12 KiB
IO_BUFFERS = (61, 509, 2048, 12288)
DEFAULT_IO_BUFFER = 2048


@dataclass(frozen=True)
class QuerySpec:
    """The query half of a case: what job the oracle runs.

    ``kind == "project"`` emits the tuple of ``columns`` per record
    (identity through the shuffle); ``kind == "group"`` groups by
    ``columns[0]`` and aggregates ``agg`` over ``value_col``.
    """

    kind: str                      # "project" | "group"
    columns: tuple                 # columns the mapper touches, in order
    agg: Optional[str] = None      # "count" | "sum" | "lensum"
    value_col: Optional[str] = None

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "columns": list(self.columns),
            "agg": self.agg,
            "value_col": self.value_col,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "QuerySpec":
        return cls(
            kind=obj["kind"],
            columns=tuple(obj["columns"]),
            agg=obj.get("agg"),
            value_col=obj.get("value_col"),
        )


@dataclass
class Case:
    """One differential test case: dataset + query + chaos seed.

    ``rows`` is the ground truth as plain Python values (dicts for
    records/maps, lists for arrays) — the oracle compares every
    format's scan output against it after :func:`normalize`.
    """

    seed: int
    schema: Schema
    rows: List[dict]
    query: QuerySpec
    chaos_seed: int
    #: free-form provenance note ("generated", "shrunk from seed N"...)
    note: str = "generated"
    #: the cluster's I/O buffer size, one of :data:`IO_BUFFERS`
    io_buffer: int = DEFAULT_IO_BUFFER

    def describe(self) -> str:
        kinds = ", ".join(
            f"{f.name}:{f.schema.kind}" for f in self.schema.fields
        )
        return (
            f"case(seed={self.seed}, rows={len(self.rows)}, "
            f"io_buffer={self.io_buffer}, "
            f"query={self.query.kind}/{'+'.join(self.query.columns)}, "
            f"fields=[{kinds}])"
        )


# -- schema generation ------------------------------------------------------


def _gen_field_schema(rng: random.Random, depth: int = 0) -> Schema:
    """One field schema; complex kinds only at depth 0."""
    roll = rng.random()
    if depth == 0 and roll < 0.12:
        # maps, ~1/3 of them deep (map of map) — the DCSL columns
        inner = (
            Schema.map(values=_primitive(rng))
            if rng.random() < 0.35
            else _primitive(rng)
        )
        return Schema.map(values=inner)
    if depth == 0 and roll < 0.20:
        return Schema.array(items=_primitive(rng))
    if depth == 0 and roll < 0.25:
        return Schema.record(
            "nested",
            [("n0", _primitive(rng)), ("n1", _primitive(rng))],
        )
    return _primitive(rng)


def _primitive(rng: random.Random) -> Schema:
    kind = rng.choices(
        ["string", "int", "long", "double", "boolean", "bytes", "time"],
        weights=[28, 22, 12, 10, 10, 10, 8],
    )[0]
    return Schema(kind)


def _gen_schema(rng: random.Random) -> Schema:
    nfields = rng.randint(2, 6)
    fields = [("c0", Schema(rng.choice(KEY_KINDS)))]
    for i in range(1, nfields):
        fields.append((f"c{i}", _gen_field_schema(rng)))
    return Schema.record("fuzz", fields)


# -- value generation -------------------------------------------------------


def _gen_value(rng: random.Random, schema: Schema):
    if schema.kind in _POOLS:
        pool = _POOLS[schema.kind]
        # bias toward the head of the pool (the boundary values)
        index = min(
            rng.randrange(len(pool)), rng.randrange(len(pool))
        )
        return pool[index]
    if schema.kind == "array":
        return [
            _gen_value(rng, schema.items)
            for _ in range(rng.choice([0, 0, 1, 2, 3]))
        ]
    if schema.kind == "map":
        nkeys = rng.choice([0, 1, 1, 2, 3])
        keys = rng.sample(MAP_KEY_POOL, k=min(nkeys, len(MAP_KEY_POOL)))
        return {k: _gen_value(rng, schema.values) for k in sorted(keys)}
    if schema.kind == "record":
        return {f.name: _gen_value(rng, f.schema) for f in schema.fields}
    raise ValueError(f"cannot generate for schema kind {schema.kind!r}")


def zero_value(schema: Schema):
    """The simplest legal value for ``schema`` (the shrinker's target)."""
    simple = {
        "int": 0, "long": 0, "time": 0, "double": 0.0,
        "boolean": False, "string": "", "bytes": b"",
    }
    if schema.kind in simple:
        return simple[schema.kind]
    if schema.kind == "array":
        return []
    if schema.kind == "map":
        return {}
    if schema.kind == "record":
        return {f.name: zero_value(f.schema) for f in schema.fields}
    raise ValueError(f"no zero value for schema kind {schema.kind!r}")


def _gen_rows(
    rng: random.Random, schema: Schema, num_rows: int
) -> List[dict]:
    """Rows with per-field value modes.

    ``pool``   — fresh draw per row (noise)
    ``run``    — one constant value for the whole batch (RLE heaven)
    ``runs``   — alternating constant runs of 3-8 rows (null runs when
                 the constant is the zero value, which the pools favor)
    """
    modes = {}
    for f in schema.fields:
        modes[f.name] = rng.choices(
            ["pool", "run", "runs"], weights=[55, 20, 25]
        )[0]
    constants = {f.name: _gen_value(rng, f.schema) for f in schema.fields}
    rows: List[dict] = []
    run_left = {f.name: 0 for f in schema.fields}
    for _ in range(num_rows):
        row = {}
        for f in schema.fields:
            mode = modes[f.name]
            if mode == "pool":
                row[f.name] = _gen_value(rng, f.schema)
            elif mode == "run":
                row[f.name] = constants[f.name]
            else:
                if run_left[f.name] == 0:
                    constants[f.name] = _gen_value(rng, f.schema)
                    run_left[f.name] = rng.randint(3, 8)
                run_left[f.name] -= 1
                row[f.name] = constants[f.name]
        rows.append(row)
    return rows


# -- query generation -------------------------------------------------------


def _gen_query(rng: random.Random, schema: Schema) -> QuerySpec:
    names = schema.field_names
    if rng.random() < 0.5:
        count = rng.randint(1, min(3, len(names)))
        columns = tuple(sorted(rng.sample(names, k=count)))
        return QuerySpec(kind="project", columns=columns)
    key = "c0"  # generated schemas always make c0 a key-able primitive
    sum_cols = [
        f.name for f in schema.fields
        if f.schema.kind in SUM_KINDS and f.name != key
    ]
    len_cols = [f.name for f in schema.fields if f.schema.kind in LEN_KINDS]
    choices = [("count", None)]
    if sum_cols:
        choices.append(("sum", rng.choice(sum_cols)))
    if len_cols:
        choices.append(("lensum", rng.choice(len_cols)))
    agg, value_col = rng.choice(choices)
    columns = (key,) if value_col is None else (key, value_col)
    return QuerySpec(kind="group", columns=columns, agg=agg,
                     value_col=value_col)


def rewrite_query(query: QuerySpec, schema: Schema) -> QuerySpec:
    """Restrict ``query`` to columns still present in ``schema``
    (used by the shrinker after dropping fields)."""
    names = schema.field_names
    if query.kind == "project":
        kept = tuple(c for c in query.columns if c in names)
        return replace(query, columns=kept or (names[0],))
    key = query.columns[0]
    if key not in names or schema.field(key).schema.kind not in KEY_KINDS:
        fallback = next(
            (n for n in names if schema.field(n).schema.kind in KEY_KINDS),
            names[0],
        )
        return QuerySpec(kind="project", columns=(fallback,))
    if query.value_col is not None and query.value_col not in names:
        return QuerySpec(kind="group", columns=(key,), agg="count")
    return query


# -- the one entry point ----------------------------------------------------


def generate_case(
    seed: int, num_rows: Optional[int] = None
) -> Case:
    """The deterministic seed -> case mapping (stable across runs)."""
    # int-only seeding: seeding from a str/tuple would go through
    # hash(), which PYTHONHASHSEED randomizes per process
    rng = random.Random(0x5EED ^ (seed * 2654435761 % 2**63))
    schema = _gen_schema(rng)
    rows = _gen_rows(rng, schema, num_rows or rng.randint(4, 28))
    query = _gen_query(rng, schema)
    chaos_seed = rng.randrange(1 << 30)
    # a stream of its own, so adding this dimension moved no seed's
    # schema, rows or query
    io_buffer = random.Random(0x10B0F ^ seed).choice(IO_BUFFERS)
    return Case(seed=seed, schema=schema, rows=rows, query=query,
                chaos_seed=chaos_seed, io_buffer=io_buffer)


# -- canonical forms and reference semantics --------------------------------


def normalize(value):
    """Project a scanned value onto plain Python ground-truth form."""
    if isinstance(value, Record):
        return {
            name: normalize(v) for name, v in value.to_dict().items()
        }
    if isinstance(value, Mapping):  # a dict, or a lazy row's map cell
        return {k: normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    return value


def freeze(value):
    """A hashable, order-canonical form of a normalized value."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    return value


def to_records(schema: Schema, rows: Sequence[dict]) -> List[Record]:
    """Materialize ground-truth rows as writable :class:`Record`s."""
    out = []
    for row in rows:
        rec = Record(schema)
        for f in schema.fields:
            rec.put(f.name, _to_storage(f.schema, row[f.name]))
        out.append(rec)
    return out


def _to_storage(schema: Schema, value):
    """Nested record values stay dicts — every encoder in the tree
    accepts dict-indexable records, and dicts survive deep copies."""
    return value


def expected_output(case: Case) -> List[tuple]:
    """Reference job output computed purely from the ground truth,
    sorted the way the oracle sorts real job output (by repr)."""
    query = case.query
    pairs: List[tuple] = []
    if query.kind == "project":
        for row in case.rows:
            pairs.append(
                (0, tuple(freeze(normalize(row[c])) for c in query.columns))
            )
    else:
        groups: Dict[object, int] = {}
        key_col = query.columns[0]
        for row in case.rows:
            key = row[key_col]
            if query.agg == "count":
                delta = 1
            elif query.agg == "sum":
                delta = row[query.value_col]
            else:  # lensum
                delta = len(row[query.value_col])
            groups[key] = groups.get(key, 0) + delta
        pairs = list(groups.items())
    return sorted(pairs, key=repr)


# -- JSON persistence (corpus files) ----------------------------------------


def _encode_value(schema: Schema, value):
    if schema.kind == "bytes":
        return value.hex()
    if schema.kind == "array":
        return [_encode_value(schema.items, v) for v in value]
    if schema.kind == "map":
        return {k: _encode_value(schema.values, v) for k, v in value.items()}
    if schema.kind == "record":
        return {
            f.name: _encode_value(f.schema, value[f.name])
            for f in schema.fields
        }
    return value


def _decode_value(schema: Schema, obj):
    if schema.kind == "bytes":
        return bytes.fromhex(obj)
    if schema.kind == "array":
        return [_decode_value(schema.items, v) for v in obj]
    if schema.kind == "map":
        return {k: _decode_value(schema.values, v) for k, v in obj.items()}
    if schema.kind == "record":
        return {
            f.name: _decode_value(f.schema, obj[f.name])
            for f in schema.fields
        }
    return obj


def case_to_obj(case: Case) -> dict:
    obj = {
        "version": 1,
        "seed": case.seed,
        "chaos_seed": case.chaos_seed,
        "note": case.note,
        "schema": case.schema.to_obj(),
        "query": case.query.to_obj(),
        "rows": [_encode_value(case.schema, row) for row in case.rows],
    }
    # absent means the default, which keeps the bytes (and so the
    # digest-carrying names) of corpus files saved before the field
    if case.io_buffer != DEFAULT_IO_BUFFER:
        obj["io_buffer"] = case.io_buffer
    return obj


def case_from_obj(obj: dict) -> Case:
    schema = Schema.parse(obj["schema"])
    return Case(
        seed=obj["seed"],
        schema=schema,
        rows=[_decode_value(schema, row) for row in obj["rows"]],
        query=QuerySpec.from_obj(obj["query"]),
        chaos_seed=obj["chaos_seed"],
        note=obj.get("note", "loaded"),
        io_buffer=obj.get("io_buffer", DEFAULT_IO_BUFFER),
    )
