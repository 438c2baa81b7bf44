"""Expression trees over records.

An :class:`Expr` evaluates against a record (eager or lazy — it only
uses ``record.get``) and knows which top-level columns it touches, which
is what lets the planner push projections down without the user naming
columns.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from typing import Callable, FrozenSet, Optional


# -- pinned comparison semantics ------------------------------------------
#
# The scalar operators below and the vectorized kernels in
# ``repro.core.vector`` must agree on every boundary value, so the
# comparison semantics are pinned here, in one place, and both layers
# route through :func:`compare_values`:
#
# - Ordering (``<``, ``<=``, ``>``, ``>=``): a NULL operand never
#   satisfies the predicate — the result is False.
# - Equality keeps Python semantics: ``None == None`` is True and
#   ``None != x`` is True for non-None ``x``.
# - NaN follows IEEE-754: every ordering comparison and ``==`` against
#   NaN is False (including NaN vs NaN); ``!=`` is True.
# - Mixed int/float pairs compare exactly (Python compares the integer
#   against the float as rationals): ``2**63 > 2.0**63 - 1`` even
#   though both round to the same double.  No operand is ever coerced
#   through ``float()``.

def cmp_lt(a, b):
    return False if a is None or b is None else a < b


def cmp_le(a, b):
    return False if a is None or b is None else a <= b


def cmp_gt(a, b):
    return False if a is None or b is None else a > b


def cmp_ge(a, b):
    return False if a is None or b is None else a >= b


def cmp_eq(a, b):
    return a == b


def cmp_ne(a, b):
    return a != b


_COMPARE_FUNCS = {
    "<": cmp_lt,
    "<=": cmp_le,
    ">": cmp_gt,
    ">=": cmp_ge,
    "==": cmp_eq,
    "!=": cmp_ne,
}


def compare_values(symbol: str, a, b) -> bool:
    """Apply one pinned comparison operator (see the table above)."""
    return _COMPARE_FUNCS[symbol](a, b)


class Expr:
    """A scalar expression over one record."""

    def __init__(
        self,
        evaluate: Callable,
        columns: FrozenSet[str],
        description: str,
    ) -> None:
        self._evaluate = evaluate
        #: top-level record columns this expression reads
        self.columns = columns
        self.description = description

    def __repr__(self) -> str:
        return f"Expr({self.description})"

    def evaluate(self, record, ctx=None):
        """Evaluate against a record (optionally charging predicate cost)."""
        return self._evaluate(record, ctx)

    # -- composition -----------------------------------------------------

    _COMPARISONS = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}

    def _binary(self, other, op: Callable, symbol: str) -> "Expr":
        other = other if isinstance(other, Expr) else lit(other)

        def evaluate(record, ctx):
            return op(self.evaluate(record, ctx), other.evaluate(record, ctx))

        result = Expr(
            evaluate,
            self.columns | other.columns,
            f"({self.description} {symbol} {other.description})",
        )
        # Self-describe `column <op> literal` comparisons so the planner
        # can push them down as zone-map range predicates; conjunctions
        # concatenate both sides' constraints (an AND of prunable parts
        # is itself prunable — any unsatisfiable conjunct prunes).
        if symbol in self._COMPARISONS:
            left_col = getattr(self, "column_name", None)
            right_col = getattr(other, "column_name", None)
            if left_col is not None and hasattr(other, "literal_value"):
                result.range_constraint = (
                    left_col, symbol, other.literal_value
                )
            elif right_col is not None and hasattr(self, "literal_value"):
                result.range_constraint = (
                    right_col, self._COMPARISONS[symbol], self.literal_value
                )
            if hasattr(result, "range_constraint"):
                result.range_constraints = [result.range_constraint]
        elif symbol == "and":
            combined = list(getattr(self, "range_constraints", [])) + list(
                getattr(other, "range_constraints", [])
            )
            if combined:
                result.range_constraints = combined
        # Purely descriptive: evaluation still goes through the closure.
        return _describe(result, symbol, op, self, other)

    def __eq__(self, other):  # type: ignore[override]
        return self._binary(other, cmp_eq, "==")

    def __ne__(self, other):  # type: ignore[override]
        return self._binary(other, cmp_ne, "!=")

    def __lt__(self, other):
        return self._binary(other, cmp_lt, "<")

    def __le__(self, other):
        return self._binary(other, cmp_le, "<=")

    def __gt__(self, other):
        return self._binary(other, cmp_gt, ">")

    def __ge__(self, other):
        return self._binary(other, cmp_ge, ">=")

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b, "+")

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b, "-")

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b, "*")

    def __and__(self, other):
        return self._binary(other, lambda a, b: bool(a) and bool(b), "and")

    def __or__(self, other):
        return self._binary(other, lambda a, b: bool(a) or bool(b), "or")

    def __invert__(self):
        return self._unary(operator.not_, "not", f"(not {self.description})")

    def _unary(self, fn: Callable, symbol: str, description: str) -> "Expr":
        result = Expr(
            lambda record, ctx: fn(self.evaluate(record, ctx)),
            self.columns,
            description,
        )
        return _describe(result, symbol, fn, self)

    def __hash__(self):
        return hash(self.description)

    # -- string / container helpers ---------------------------------------

    def contains(self, needle: str) -> "Expr":
        """Substring (or membership) test; charges predicate CPU cost."""

        def evaluate(record, ctx):
            value = self.evaluate(record, ctx)
            if ctx is not None and isinstance(value, (str, bytes)):
                ctx.charge_predicate(value)
            return needle in value

        result = Expr(
            evaluate, self.columns,
            f"{self.description} contains {needle!r}",
        )
        # No value function: the charge it makes belongs to a filter.
        result.contains_needle = needle
        return _describe(result, "contains", None, self)

    def __getitem__(self, key) -> "Expr":
        """Map-key (or array-index) access: ``col('metadata')['server']``.

        A missing map key is NULL.  ``item_key`` records the key: a
        query that uses a map column only as ``col(m)[k]`` (str ``k``)
        reads it key-projected, keeping only the wanted keys' values
        and charging whole maps (``core.vector.FrameProgram.keys``).
        """

        def item(value):
            if isinstance(value, Mapping):  # a dict, or a lazy map cell
                return value.get(key)
            return value[key]

        result = self._unary(item, "getitem", f"{self.description}[{key!r}]")
        result.item_key = key
        return result

    def length(self) -> "Expr":
        return self._unary(len, "length", f"len({self.description})")

    def is_null(self) -> "Expr":
        return self._unary(
            lambda value: value is None, "is_null",
            f"{self.description} is null",
        )

    def apply(self, fn: Callable, name: Optional[str] = None) -> "Expr":
        """Escape hatch: apply an arbitrary Python function."""
        return self._unary(
            fn, "apply",
            f"{name or getattr(fn, '__name__', 'fn')}({self.description})",
        )


def _describe(expr: Expr, symbol: str, fn: Optional[Callable], *operands):
    """Attach the structure :mod:`repro.core.vector` compiles from:
    the operator, its operand Exprs and ``op_fn``, the function of the
    operands' values the node computes (None for ``contains``)."""
    expr.op_symbol = symbol
    expr.operands = operands
    expr.op_fn = fn
    return expr


def col(name: str) -> Expr:
    """Reference a top-level record column."""
    expr = Expr(
        lambda record, ctx: record.get(name), frozenset([name]), name
    )
    expr.column_name = name  # marks a bare column ref (for push-down)
    return expr


def lit(value) -> Expr:
    """A constant."""
    expr = Expr(lambda record, ctx: value, frozenset(), repr(value))
    expr.literal_value = value
    return expr
