"""Aggregate functions for the query layer.

Each aggregate is defined by three pieces (the classic
initialize/accumulate/merge/finalize decomposition that makes combiners
possible): a per-record accumulator, a partial-state merger (run in the
combiner and the reducer), and a finalizer.  Aggregates whose partials
are not summaries (``count_distinct``) mark themselves non-combinable
and force the planner to skip the combiner.

NULL handling is pinned to SQL semantics so the scalar ``step``
functions and the vectorized kernels in ``repro.core.vector`` agree:
``count()`` counts every record in the group, while every
value-consuming aggregate (``sum``/``min``/``max``/``avg``/
``count_distinct``) skips NULL inputs.  ``avg`` divides by the number
of non-NULL inputs only.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.query.expr import Expr, lit


class Aggregate:
    """One aggregate: expr + (init, step, merge, finish).

    ``kind`` names the aggregate family ("count", "sum", ...) so the
    vectorized kernels can pick a whole-vector fast path; unknown kinds
    fall back to merging one-row partials row by row, which is always
    correct.
    """

    def __init__(
        self,
        expr: Optional[Expr],
        init: Callable,
        step: Callable,
        merge: Callable,
        finish: Callable,
        description: str,
        combinable: bool = True,
        kind: Optional[str] = None,
    ) -> None:
        self.expr = expr if expr is not None else lit(None)
        self.init = init
        self.step = step
        self.merge = merge
        self.finish = finish
        self.description = description
        self.combinable = combinable
        self.kind = kind

    @property
    def columns(self):
        return self.expr.columns

    def __repr__(self) -> str:
        return f"Aggregate({self.description})"


def count() -> Aggregate:
    """Number of records in the group (NULLs included)."""
    return Aggregate(
        None,
        init=lambda: 0,
        step=lambda state, value: state + 1,
        merge=lambda a, b: a + b,
        finish=lambda state: state,
        description="count()",
        kind="count",
    )


def sum_(expr: Expr) -> Aggregate:
    return Aggregate(
        expr,
        init=lambda: 0,
        step=lambda state, value: state if value is None else state + value,
        merge=lambda a, b: a + b,
        finish=lambda state: state,
        description=f"sum({expr.description})",
        kind="sum",
    )


def min_(expr: Expr) -> Aggregate:
    return Aggregate(
        expr,
        init=lambda: None,
        step=lambda state, value: (
            state if value is None
            else value if state is None
            else min(state, value)
        ),
        merge=lambda a, b: b if a is None else a if b is None else min(a, b),
        finish=lambda state: state,
        description=f"min({expr.description})",
        kind="min",
    )


def max_(expr: Expr) -> Aggregate:
    return Aggregate(
        expr,
        init=lambda: None,
        step=lambda state, value: (
            state if value is None
            else value if state is None
            else max(state, value)
        ),
        merge=lambda a, b: b if a is None else a if b is None else max(a, b),
        finish=lambda state: state,
        description=f"max({expr.description})",
        kind="max",
    )


def avg(expr: Expr) -> Aggregate:
    """Arithmetic mean (partials are (sum, count) pairs, so it combines)."""
    return Aggregate(
        expr,
        init=lambda: (0, 0),
        step=lambda state, value: (
            state if value is None else (state[0] + value, state[1] + 1)
        ),
        merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        finish=lambda state: state[0] / state[1] if state[1] else None,
        description=f"avg({expr.description})",
        kind="avg",
    )


def count_distinct(expr: Expr) -> Aggregate:
    """Exact distinct count over non-NULL values.

    Partials are full value sets, which a combiner can still merge —
    but shuffling sets loses the size advantage, so it is marked
    non-combinable and resolved reduce-side, like Figure 1's job.
    """
    return Aggregate(
        expr,
        init=lambda: set(),
        step=lambda state, value: (
            state if value is None else (state.add(value), state)[1]
        ),
        merge=lambda a, b: a | b,
        finish=lambda state: len(state),
        description=f"count_distinct({expr.description})",
        combinable=False,
        kind="count_distinct",
    )
