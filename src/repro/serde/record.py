"""The one record type (Section 5.1, Appendix A).

Map functions read attributes with ``rec.get(name)`` whichever
InputFormat made the record, and lazy and eager records share that
interface "so map functions cannot tell which one the InputFormat
instantiated".  :class:`Record` is the only class behind it.  Each slot
holds a value or a :class:`_Deferred`, which the first access builds
and keeps.  A row format's decoder defers the maps and arrays it proved
decode (:mod:`repro.serde.binary`); a lazy CIF row defers every
projected cell to its column's reader (:mod:`repro.core.cif`), and a
frame row each cell to its frame (:mod:`repro.core.vector`).  A lazy
CIF row is reused, as in Hadoop, so a caller that keeps one keeps
:meth:`Record.materialize`'s copy.
"""

from __future__ import annotations

from typing import Optional

from repro.serde.schema import Schema, SchemaError


class Record:
    """A record conforming to a record schema.

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
        """A record over ``values``, one value or ``_Deferred`` per field
        in schema order; the list is kept, not copied or checked (the
        readers' constructor)."""
        record = cls.__new__(cls)
        record.schema = schema
        record._values = values
        return record

    def get(self, name: str):
        """Return the value of field ``name`` (None if never set)."""
        try:
            index = self.schema._field_index[name].index
        except KeyError:
            index = self.schema.field(name).index  # raises SchemaError
        value = self._values[index]
        if type(value) is _Deferred:
            value = self._values[index] = value.build(value.span)
        return value

    def put(self, name: str, value) -> None:
        self._values[self.schema.field(name).index] = value

    def to_dict(self) -> dict:
        return dict(zip(self.schema.field_names, self.values_in_order()))

    def values_in_order(self) -> list:
        """Field values in schema order (used by encoders)."""
        values = self._values
        for index, value in enumerate(values):
            if type(value) is _Deferred:
                values[index] = value.build(value.span)
        return list(values)

    def materialize(self) -> "Record":
        """A copy with every slot built: what a caller keeps of a row
        its reader will reuse."""
        return Record.of(self.schema, self.values_in_order())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.schema == other.schema and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"Record({self.to_dict()!r})"


class _Deferred:
    """A slot's value not yet built: ``build(span)`` builds it, where
    ``span`` is whatever the builder needs (a proven span's bytes, a
    column's cursor, a frame cell)."""

    __slots__ = ("build", "span")

    def __init__(self, build, span) -> None:
        self.build, self.span = build, span


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
