"""Schemas for records with complex types.

Supports the type system the paper's examples use (Figure 2):
primitives (``int``, ``long``, ``double``, ``boolean``, ``string``,
``bytes``, ``time``) plus ``array``, ``map`` (string keys, as in Avro)
and nested ``record`` types.

Schemas parse from a JSON-able structure (and serialize back to one),
which is how COF persists the schema file inside each split-directory.
"""

from __future__ import annotations

import json
from typing import List, Optional

PRIMITIVES = ("int", "long", "double", "boolean", "string", "bytes", "time")
COMPLEX = ("array", "map", "record")


class SchemaError(ValueError):
    """Raised for malformed schema declarations or mismatched data."""


#: sentinel distinguishing "no default" from "defaults to None"
NO_DEFAULT = object()


class Field:
    """One named field of a record schema.

    ``default`` (optional) is the value readers substitute when data
    written under an older schema lacks this field — what lets a column
    be added to a dataset without backfilling it (Section 4.3 taken one
    step further; Avro's schema-resolution rules work the same way).
    """

    __slots__ = ("name", "schema", "index", "default")

    def __init__(
        self, name: str, schema: "Schema", index: int, default=NO_DEFAULT
    ) -> None:
        self.name = name
        self.schema = schema
        self.index = index
        self.default = default

    @property
    def has_default(self) -> bool:
        return self.default is not NO_DEFAULT

    def __repr__(self) -> str:
        suffix = f", default={self.default!r}" if self.has_default else ""
        return f"Field({self.name!r}, {self.schema!r}{suffix})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.name == other.name
            and self.schema == other.schema
            and (self.default == other.default
                 if self.has_default == other.has_default else False)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.schema))


class Schema:
    """A parsed schema node.

    Use the class methods (:meth:`int_`, :meth:`string`, :meth:`array`,
    :meth:`map`, :meth:`record`, ...) or :meth:`parse` to construct one.
    """

    # _codec: this node's compiled codec plan (repro.serde.binary builds
    # it on first use).  Kept on the schema so it dies with the schema.
    __slots__ = (
        "kind", "items", "values", "fields", "name", "_field_index", "_codec",
    )

    def __init__(
        self,
        kind: str,
        items: Optional["Schema"] = None,
        values: Optional["Schema"] = None,
        fields: Optional[List[Field]] = None,
        name: Optional[str] = None,
    ) -> None:
        if kind not in PRIMITIVES and kind not in COMPLEX:
            raise SchemaError(f"unknown schema kind {kind!r}")
        self.kind = kind
        self.items = items
        self.values = values
        self.fields = fields
        self.name = name
        self._field_index = (
            {f.name: f for f in fields} if fields is not None else None
        )
        self._codec = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def int_(cls) -> "Schema":
        return cls("int")

    @classmethod
    def long_(cls) -> "Schema":
        return cls("long")

    @classmethod
    def double(cls) -> "Schema":
        return cls("double")

    @classmethod
    def boolean(cls) -> "Schema":
        return cls("boolean")

    @classmethod
    def string(cls) -> "Schema":
        return cls("string")

    @classmethod
    def bytes_(cls) -> "Schema":
        return cls("bytes")

    @classmethod
    def time(cls) -> "Schema":
        """Timestamp type (encoded exactly like ``long``)."""
        return cls("time")

    @classmethod
    def array(cls, items: "Schema") -> "Schema":
        return cls("array", items=items)

    @classmethod
    def map(cls, values: "Schema") -> "Schema":
        """A map with string keys (as in Avro) and ``values``-typed values."""
        return cls("map", values=values)

    @classmethod
    def record(cls, name: str, fields) -> "Schema":
        """A record schema from ``(name, Schema)`` or
        ``(name, Schema, default)`` tuples."""
        built = []
        seen = set()
        for index, field_spec in enumerate(fields):
            if len(field_spec) == 2:
                fname, fschema = field_spec
                default = NO_DEFAULT
            else:
                fname, fschema, default = field_spec
            if fname in seen:
                raise SchemaError(f"duplicate field name {fname!r}")
            seen.add(fname)
            built.append(Field(fname, fschema, index, default))
        return cls("record", fields=built, name=name)

    # -- parsing --------------------------------------------------------

    @classmethod
    def parse(cls, obj) -> "Schema":
        """Parse a schema from its JSON-able form (or a JSON string)."""
        if isinstance(obj, str):
            try:
                decoded = json.loads(obj)
            except json.JSONDecodeError:
                decoded = obj  # a bare primitive name like "int"
            if isinstance(decoded, str):
                if decoded not in PRIMITIVES:
                    raise SchemaError(f"unknown primitive {decoded!r}")
                return cls(decoded)
            obj = decoded
        if isinstance(obj, Schema):
            return obj
        if isinstance(obj, dict):
            kind = obj.get("type")
            if kind in PRIMITIVES:
                return cls(kind)
            if kind == "array":
                return cls.array(cls.parse(obj["items"]))
            if kind == "map":
                return cls.map(cls.parse(obj["values"]))
            if kind == "record":
                fields = [
                    (f["name"], cls.parse(f["type"]), f["default"])
                    if "default" in f
                    else (f["name"], cls.parse(f["type"]))
                    for f in obj["fields"]
                ]
                return cls.record(obj.get("name", "record"), fields)
            raise SchemaError(f"unknown schema type {kind!r}")
        raise SchemaError(f"cannot parse schema from {type(obj).__name__}")

    def to_obj(self):
        """The JSON-able form accepted back by :meth:`parse`."""
        if self.kind in PRIMITIVES:
            return self.kind
        if self.kind == "array":
            return {"type": "array", "items": self.items.to_obj()}
        if self.kind == "map":
            return {"type": "map", "values": self.values.to_obj()}
        fields = []
        for f in self.fields:
            entry = {"name": f.name, "type": f.schema.to_obj()}
            if f.has_default:
                entry["default"] = f.default
            fields.append(entry)
        return {"type": "record", "name": self.name, "fields": fields}

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    # -- record helpers ---------------------------------------------------

    @property
    def is_primitive(self) -> bool:
        return self.kind in PRIMITIVES

    @property
    def field_names(self) -> List[str]:
        self._require_record()
        return [f.name for f in self.fields]

    def field(self, name: str) -> Field:
        self._require_record()
        try:
            return self._field_index[name]
        except KeyError:
            raise SchemaError(
                f"record {self.name!r} has no field {name!r}"
            ) from None

    def has_field(self, name: str) -> bool:
        self._require_record()
        return name in self._field_index

    @staticmethod
    def _field_spec(f: "Field"):
        if f.has_default:
            return (f.name, f.schema, f.default)
        return (f.name, f.schema)

    def project(self, names) -> "Schema":
        """A record schema keeping only ``names``, in schema order."""
        self._require_record()
        wanted = set(names)
        missing = wanted - set(self._field_index)
        if missing:
            raise SchemaError(f"unknown fields {sorted(missing)!r}")
        kept = [self._field_spec(f) for f in self.fields if f.name in wanted]
        return Schema.record(self.name, kept)

    def with_field(
        self, name: str, schema: "Schema", default=NO_DEFAULT
    ) -> "Schema":
        """A new record schema with one field appended (Section 4.3).

        A JSON-compatible ``default`` makes the new field readable from
        split-directories written before it existed.
        """
        self._require_record()
        if name in self._field_index:
            raise SchemaError(f"field {name!r} already exists")
        specs = [self._field_spec(f) for f in self.fields]
        specs.append(
            (name, schema, default) if default is not NO_DEFAULT
            else (name, schema)
        )
        return Schema.record(self.name, specs)

    def _require_record(self) -> None:
        if self.kind != "record":
            raise SchemaError(f"{self.kind} schema has no fields")

    # -- dunder -----------------------------------------------------------

    def __repr__(self) -> str:
        if self.kind in PRIMITIVES:
            return f"Schema({self.kind})"
        if self.kind == "array":
            return f"Schema(array<{self.items!r}>)"
        if self.kind == "map":
            return f"Schema(map<{self.values!r}>)"
        return f"Schema(record {self.name} {self.field_names})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.items == other.items
            and self.values == other.values
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.kind,
                self.items,
                self.values,
                tuple(self.fields) if self.fields else None,
            )
        )
