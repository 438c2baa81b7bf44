"""Per-split-directory column statistics (zone maps) and split pruning.

An extension in the spirit of the paper's I/O-elimination theme (and of
the systems CIF prefigured — ORC and Parquet both ship per-stripe /
per-row-group min-max statistics): COF records each split-directory's
per-column minimum and maximum in a ``.stats`` file, and CIF can then
*prune whole split-directories* whose statistics prove a conjunctive
predicate can never match — eliminating not just unread columns but
unread splits.

Statistics are kept for orderable primitive columns (int, long, time,
double, string, boolean).  Complex columns get only a count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.serde.schema import Schema

STATS_FILE = ".stats"

_ORDERABLE = ("int", "long", "time", "double", "string", "boolean")

#: operators a range predicate may use
OPS = ("<", "<=", ">", ">=", "==")


@dataclass(frozen=True)
class RangePredicate:
    """``column <op> value`` — the prunable fragment of a filter."""

    column: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unsupported predicate operator {self.op!r}")

    def satisfiable(self, stats: "ColumnStats") -> bool:
        """Could *any* record in a split with these stats match?

        Unknown statistics (None) are conservatively satisfiable.
        """
        lo, hi = stats.minimum, stats.maximum
        if lo is None or hi is None:
            return True
        try:
            if self.op == "<":
                return lo < self.value
            if self.op == "<=":
                return lo <= self.value
            if self.op == ">":
                return hi > self.value
            if self.op == ">=":
                return hi >= self.value
            return lo <= self.value <= hi  # ==
        except TypeError:
            return True  # incomparable types: never prune


@dataclass
class ColumnStats:
    """Min/max (orderable columns only) and non-null count."""

    count: int = 0
    minimum: Optional[object] = None
    maximum: Optional[object] = None

    def to_obj(self) -> dict:
        return {"count": self.count, "min": self.minimum, "max": self.maximum}

    @classmethod
    def from_obj(cls, obj: dict) -> "ColumnStats":
        return cls(
            count=obj.get("count", 0),
            minimum=obj.get("min"),
            maximum=obj.get("max"),
        )


def compute_stats(schema: Schema, columns: Dict[str, list]) -> Dict[str, ColumnStats]:
    """Statistics for one split-directory's buffered column values."""
    out: Dict[str, ColumnStats] = {}
    for field in schema.fields:
        present = [v for v in columns.get(field.name, ()) if v is not None]
        stats = out[field.name] = ColumnStats(len(present))
        if present and field.schema.kind in _ORDERABLE:
            # like a running ``v < lo`` / ``v > hi``: the first of equal
            # values is kept and a NaN after the first value never wins
            stats.minimum, stats.maximum = min(present), max(present)
    return out


def encode_stats(stats: Dict[str, ColumnStats]) -> bytes:
    return json.dumps(
        {name: s.to_obj() for name, s in stats.items()}
    ).encode("utf-8")


def decode_stats(payload: bytes) -> Dict[str, ColumnStats]:
    raw = json.loads(payload.decode("utf-8"))
    return {name: ColumnStats.from_obj(obj) for name, obj in raw.items()}


def read_split_stats(fs, split_dir: str) -> Optional[Dict[str, ColumnStats]]:
    """A split-directory's stats, or None if it predates them."""
    path = f"{split_dir}/{STATS_FILE}"
    if not fs.exists(path):
        return None
    return decode_stats(fs.read_file(path))


def split_satisfiable(
    stats: Optional[Dict[str, ColumnStats]],
    predicates: Sequence[RangePredicate],
) -> bool:
    """False only when the stats *prove* no record can match.

    Missing stats (old datasets) or unknown columns never prune; any
    single unsatisfiable conjunct prunes the whole split.
    """
    if stats is None:
        return True
    for predicate in predicates:
        column_stats = stats.get(predicate.column)
        if column_stats is None:
            continue
        if not predicate.satisfiable(column_stats):
            return False
    return True


def extract_range_predicates(filters) -> List[RangePredicate]:
    """Collect the prunable fragments of conjunctive filter expressions.

    Only expressions that self-describe as ``column <op> literal`` (see
    :mod:`repro.query.expr`) contribute; everything else is simply not
    used for pruning (it still filters record-by-record).
    """
    out: List[RangePredicate] = []
    for expr in filters:
        constraints = getattr(expr, "range_constraints", None)
        if constraints is None:
            single = getattr(expr, "range_constraint", None)
            constraints = [single] if single is not None else []
        for constraint in constraints:
            out.append(RangePredicate(*constraint))
    return out
