"""The one comparison rule behind ``bench check``, ``perf diff`` and
``perf diff --operators``.

Each view folds its two sides to ``{key: number}`` and gives every key
a direction: ``lower`` or ``higher`` (is better), ``exact`` or
``drift``.  Then:

- an ``exact`` key moved iff ``a != b``; any other key moved iff
  ``|b - a| > max(abs_tol, rel_tol * |a|)``;
- a move is a regression, an improvement or a drift by its direction
  (every ``exact`` move is a regression);
- a key on one side only is ``new`` or ``gone``.

Which severities fail a view, and how its lines read, stay with the view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

DIRECTIONS = ("lower", "higher", "exact", "drift")


class Delta(NamedTuple):
    """One key that moved, or that one side lacks (``None`` there)."""

    key: str
    a: Optional[float]
    b: Optional[float]
    severity: str  # regression | improvement | drift | new | gone

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel(self) -> float:
        return self.delta / abs(self.a) if self.a else float("inf")


@dataclass
class Diff:
    """The keys that moved, in key order, out of ``compared`` keys."""

    entries: List[Delta] = field(default_factory=list)
    compared: int = 0

    def of(self, severity: str) -> List[Delta]:
        return [entry for entry in self.entries if entry.severity == severity]

    @property
    def regressions(self) -> List[Delta]:
        return self.of("regression")

    @property
    def improvements(self) -> List[Delta]:
        return self.of("improvement")

    @property
    def drifts(self) -> List[Delta]:
        return self.of("drift")

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare(
    a: Dict[str, float],
    b: Dict[str, float],
    direction: Callable[[str], str],
    rel_tol: float,
    abs_tol: float = 0.0,
) -> Diff:
    """``b`` against ``a`` by the rule above, ``a``'s keys first."""
    diff = Diff(compared=len(a.keys() | b.keys()))
    for key in dict.fromkeys([*a, *b]):
        x, y, way = a.get(key), b.get(key), direction(key)
        if x is None or y is None:
            severity = "new" if x is None else "gone"
        elif way == "exact":
            if x == y:
                continue
            severity = "regression"
        elif abs(y - x) <= max(abs_tol, rel_tol * abs(x)):
            continue
        elif way == "drift":
            severity = "drift"
        else:
            severity = "regression" if (y > x) == (way == "lower") else (
                "improvement"
            )
        diff.entries.append(Delta(key, x, y, severity))
    return diff


def exact_mismatches(left: str, right: str, triples) -> List[str]:
    """One line per ``(name, left value, right value)`` triple whose
    values differ, each side named by its label: the one comparison
    every reconcile makes (the two engines', the tsdb's, the
    heatmap's), with no tolerance."""
    return [
        f"{name}: {left}={a!r} {right}={b!r} (exact match required)"
        for name, a, b in triples if a != b
    ]
