"""Lazy record construction (Section 5.1).

``EagerRecord`` and ``LazyRecord`` implement the same ``get(name)``
interface, so map functions cannot tell which one the InputFormat
instantiated — the paper's design requirement.

A :class:`LazyRecord` holds no values.  The record reader advances a
split-level ``curPos``; each column reader keeps its own ``lastPos``
(its ``next_index``).  Only when ``get()`` is called does the column
reader ``skip(curPos - lastPos)`` and deserialize one value — so
columns that a map function never touches (for a given record) are
never deserialized, and with skip-list files their bytes are never
read at all.

As in Hadoop, the record object handed to ``map()`` is **reused**
across calls: values fetched for record *i* are invalid once the reader
advances to record *i+1*.  Call :meth:`LazyRecord.materialize` to take
a stable copy.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.columnio import ColumnReader
from repro.core.vector import CellLedger
from repro.obs import NULL_OBS, Observability
from repro.serde.record import Record
from repro.serde.schema import Schema, SchemaError


class LazyRecord:
    """A record whose fields deserialize on first access (per record)."""

    def __init__(
        self,
        schema: Schema,
        readers: Dict[str, ColumnReader],
        obs: Optional[Observability] = None,
    ) -> None:
        schema._require_record()
        self.schema = schema
        self._readers = readers
        self._row = -1
        self._cache: Dict[str, object] = {}
        ledger = CellLedger(readers, obs if obs is not None else NULL_OBS)
        self._obs_records = ledger.records
        self._obs_materialized = ledger.materialized
        self._obs_skipped = ledger.skipped

    def _advance(self, row: int) -> None:
        """Move to record ``row`` (called by the record reader)."""
        if self._row >= 0:
            # Settle the previous record's books: projected columns the
            # map function never touched were skipped, not deserialized.
            for name in self._readers:
                if name not in self._cache:
                    self._obs_skipped[name].inc()
        self._obs_records.inc()
        self._row = row
        self._cache.clear()

    def get(self, name: str):
        """Deserialize (at most once) and return field ``name``'s value."""
        if name in self._cache:
            return self._cache[name]
        reader = self._readers.get(name)
        if reader is None:
            raise SchemaError(
                f"column {name!r} is not in this reader's projection"
            )
        # lastPos (reader.next_index) catches up to curPos (self._row):
        # the records in between are skipped, not deserialized.
        reader.sync_to(self._row)
        value = reader.read_value()
        # Counted only after the read succeeds, so a fault mid-read
        # cannot desynchronize this from column.rows.read — the exact
        # reconciliation `repro explain` performs depends on it.
        self._obs_materialized[name].inc()
        self._cache[name] = value
        return value

    def materialize(self) -> Record:
        """An eager copy of this record (all projected fields fetched)."""
        record = Record(self.schema)
        for name in self._readers:
            record.put(name, self.get(name))
        return record

    def to_dict(self) -> dict:
        return self.materialize().to_dict()

    def __repr__(self) -> str:
        return f"LazyRecord(row={self._row}, cached={sorted(self._cache)})"
