"""The generic Record abstraction (Appendix A).

MapReduce jobs in the paper access record attributes through
``rec.get(name)`` on a generic record, regardless of which InputFormat
produced it.  :class:`Record` is that interface; it is implemented
eagerly here and lazily by :class:`repro.core.lazy.LazyRecord` — map
functions cannot tell the difference, which is the point (Section 5.1).
A row format's decoder hands out a :class:`DeferringRecord`, whose map
and array fields are built on first access.
"""

from __future__ import annotations

from typing import Optional

from repro.serde.schema import Schema, SchemaError


class Record:
    """An eagerly materialized record conforming to a record schema.

    Attribute access follows the paper's API: ``rec.get("url")`` returns
    the value (callers type-cast in Java; in Python they just use it).
    """

    __slots__ = ("schema", "_values")

    def __init__(self, schema: Schema, values: Optional[dict] = None) -> None:
        if schema.kind != "record":
            raise SchemaError("Record requires a record schema")
        self.schema = schema
        self._values = [None] * len(schema.fields)
        if values:
            for name, value in values.items():
                self.put(name, value)

    @classmethod
    def of(cls, schema: Schema, values: list) -> "Record":
        """A record over ``values``, one per field in schema order; the
        list is kept, not copied or checked (the decoder's constructor)."""
        record = cls.__new__(cls)
        record.schema = schema
        record._values = values
        return record

    def get(self, name: str):
        """Return the value of field ``name`` (None if never set)."""
        return self._values[self.schema.field(name).index]

    def put(self, name: str, value) -> None:
        self._values[self.schema.field(name).index] = value

    def to_dict(self) -> dict:
        return {f.name: self._values[f.index] for f in self.schema.fields}

    def values_in_order(self) -> list:
        """Field values in schema order (used by encoders)."""
        return list(self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.schema == other.schema and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"Record({self.to_dict()!r})"


class _Deferred:
    """A container field charged but not built: a copy of the span its
    decoder proved, and the function that builds it from the span."""

    __slots__ = ("build", "span")

    def __init__(self, build, span) -> None:
        self.build, self.span = build, span


class DeferringRecord(Record):
    """A decoded record that builds each ``_Deferred`` field on first
    access and keeps it.  A record no decoder made is a plain
    :class:`Record` and pays nothing for this."""

    __slots__ = ()

    def get(self, name: str):
        index = self.schema.field(name).index
        value = self._values[index]
        if type(value) is _Deferred:
            value = self._values[index] = value.build(value.span)
        return value

    def values_in_order(self) -> list:
        values = self._values
        for index, value in enumerate(values):
            if type(value) is _Deferred:
                values[index] = value.build(value.span)
        return list(values)

    def to_dict(self) -> dict:
        return dict(zip(self.schema.field_names, self.values_in_order()))


def field_values(schema: Schema, value) -> list:
    """The fields of ``value`` (a :class:`Record`, or a mapping keyed by
    field name) in ``schema``'s order: what every writer serializes."""
    if isinstance(value, Record):
        return value.values_in_order()
    try:
        return [value[f.name] for f in schema.fields]
    except KeyError as exc:
        raise SchemaError(
            f"record {schema.name!r} value is missing field {exc.args[0]!r}"
        ) from None
