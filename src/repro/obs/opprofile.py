"""Operator-level query profiling: EXPLAIN ANALYZE for both engines.

A scan — scalar or vectorized — is logically the same operator chain:

    scan -> decode -> filter -> materialize -> aggregate

This module turns that chain into measured numbers.  An
:class:`OperatorProfiler` rides along on a ``TaskContext``
(``ctx.profiler``); instrumented code switches the *current operator*
at the chain's boundaries (:meth:`OperatorProfiler.switch`) and the
shared column readers attribute every decoded/skipped cell to whatever
operator is current.  Because both engines hit the identical
``ColumnReader`` counting sites — the same sites the access heatmap
already reconciles exactly — per-operator rows and cells agree
*exactly* across engines, which the differential suite asserts.

Simulated time is accrued per operator in ticks, from the deltas of
``metrics.task_ticks`` at each switch, so the operators' simulated
times add up to the task's exactly; wall time from a
clock (the tracer's injectable clock, so fake-clock runs stay
byte-identical).  Batch-kernel invocations and window hand-offs inside
:mod:`repro.serde.vecdecode` are routed here through a module sink
(:meth:`OperatorProfiler.install`), giving the ``vecdecode.fallback.*``
counters: one count per datum a kernel passed to the per-datum decoder
because it did not lie wholly inside the buffered window.

On :meth:`OperatorProfiler.finish` the profile is published through the
ambient :class:`~repro.obs.recorder.Observability`:

- one ``kind="operator"`` span per operator (``op:scan`` ... —
  ``sim_duration`` carries the operator's simulated seconds, attrs
  carry rows/cells/batches/invocations/wall time), which the JSONL
  trace, Chrome exporter (per-operator lanes) and ``repro perf
  diff`` (``span op:*.sim_time`` entries) all pick up for free;
- one ``operator.profile`` event on the bus (folded into the ``.tsdb``
  sidecar for cluster runs);
- labeled registry counters (``op.rows.*``, ``op.cells.*``,
  ``op.invocations.*``, ``vecdecode.kernel.calls``,
  ``vecdecode.fallback.<kernel>``) that the Prometheus exporter
  serves without further wiring.

The report-side helpers (:func:`operator_profiles`,
:func:`render_operators`, :func:`diff_operators`) read those spans and
counters back out of a :class:`~repro.obs.recorder.RunReport` for
``repro perf operators`` / ``repro perf diff --operators`` /
``repro explain --analyze``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.calibration import TICKS_PER_SECOND
from repro.sim.metrics import Metrics
from repro.util.compare import Diff, compare, exact_mismatches

#: The operator chain, in pipeline order.  Every profile reports all
#: five, zero-valued where an engine/mode has no work for a stage
#: (e.g. ``decode`` is empty under lazy materialization).
OPS = ("scan", "decode", "filter", "materialize", "aggregate")

#: Per-operator integer fields that must agree exactly across engines.
_RECONCILE_FIELDS = ("rows_in", "rows_out", "cells_decoded")

#: registry counter -> the OperatorStats field each task adds to it
_OP_COUNTERS = (
    ("op.rows.in", "rows_in"),
    ("op.rows.out", "rows_out"),
    ("op.cells.decoded", "cells_decoded"),
    ("op.cells.skipped", "cells_skipped"),
    ("op.batches", "batches"),
    ("op.invocations.kernel", "kernel_calls"),
    ("op.invocations.fallback", "fallback_calls"),
)


class OperatorStats:
    """One operator's accumulated profile."""

    __slots__ = (
        "op", "rows_in", "rows_out", "cells_decoded", "cells_skipped",
        "batches", "batch_rows", "kernel_calls", "fallback_calls",
        "sim_ticks", "wall_time",
    )

    def __init__(self, op: str) -> None:
        self.op = op
        self.rows_in = 0
        self.rows_out = 0
        self.cells_decoded = 0
        self.cells_skipped = 0
        self.batches = 0
        self.batch_rows = 0
        self.kernel_calls = 0
        self.fallback_calls = 0
        self.sim_ticks = 0
        self.wall_time = 0.0

    @property
    def sim_time(self) -> float:
        return self.sim_ticks / TICKS_PER_SECOND

    @property
    def selectivity(self) -> float:
        """Effective selectivity: rows out per row in (1.0 when idle)."""
        return self.rows_out / self.rows_in if self.rows_in else 1.0

    @property
    def mean_batch_rows(self) -> float:
        return self.batch_rows / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["sim_time"] = self.sim_time
        out["selectivity"] = self.selectivity
        out["mean_batch_rows"] = self.mean_batch_rows
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OperatorStats({self.as_dict()!r})"


class OperatorProfiler:
    """Accrues per-operator rows/cells/time for one scan or map task.

    ``engine`` is ``"scalar"`` or ``"vectorized"``; ``metrics`` is the
    task's ``sim.Metrics`` (simulated time is read as ``task_ticks``
    deltas, scan rows as ``records`` deltas).
    ``clock`` defaults to :func:`time.perf_counter`; pass the tracer's
    clock for deterministic traces.
    """

    active = True

    def __init__(
        self,
        engine: str,
        metrics=None,
        meta: Optional[dict] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.engine = engine
        self.meta = dict(meta or {})
        self.stats: Dict[str, OperatorStats] = {
            op: OperatorStats(op) for op in OPS
        }
        #: kernel name -> batched-kernel invocation count
        self.kernel_counts: Dict[str, int] = {}
        #: (kernel, reader type) -> window hand-off count
        self.fallback_counts: Dict[Tuple[str, str], int] = {}
        self._clock = clock
        self._current = "scan"
        self._wall_mark = clock()
        self._prev_sink = None
        self._installed = False
        self._finished = False
        # a profiler built before its task context binds to it later
        self.bind(metrics if metrics is not None else Metrics())

    # -- lifecycle -----------------------------------------------------

    def bind(self, metrics) -> "OperatorProfiler":
        """Re-point sim-time accrual at a (new) task ``Metrics``.

        Resets the sim and record marks, so time and rows charged to
        the old metrics object before the call are not re-counted.
        Lets callers construct a profiler before the task context that
        owns the metrics exists.
        """
        self._metrics = metrics
        self._sim_mark = metrics.task_ticks
        self._records_mark = metrics.records
        return self

    def install(self) -> "OperatorProfiler":
        """Route vecdecode kernel/fallback notes here until finish."""
        from repro.serde import vecdecode

        self._prev_sink = vecdecode.profile_sink()
        vecdecode.set_profile_sink(self)
        self._installed = True
        return self

    def finish(self, obs=None, sim_time: Optional[float] = None):
        """Close out the profile and publish it through ``obs``.

        Derives the ``scan`` operator's rows from the ``records``
        metric delta (both engines count records at the reader), emits
        one ``kind="operator"`` span per operator plus an
        ``operator.profile`` event and labeled counters, and restores
        any previously-installed vecdecode sink.  Idempotent.
        """
        if self._finished:
            return self.stats
        self._finished = True
        self._accrue()
        if self._installed:
            from repro.serde import vecdecode

            vecdecode.set_profile_sink(self._prev_sink)
            self._installed = False
        scanned = self._metrics.records - self._records_mark
        scan = self.stats["scan"]
        scan.rows_in += scanned
        scan.rows_out += scanned
        if obs is not None and obs.enabled:
            self._publish(obs, sim_time)
        return self.stats

    # -- instrumentation hooks -----------------------------------------

    def switch(self, op: str) -> str:
        """Make ``op`` the current operator; returns the previous one.

        Time accrued since the last switch is charged to the operator
        that was current.  Callers bracketing a stage restore the
        returned value afterwards.
        """
        prev = self._current
        if op != prev:
            self._accrue()
            self._current = op
        return prev

    def wrap_mapper(self, mapper: Callable) -> Callable:
        """``mapper`` run under ``materialize`` (a scalar mapper is where
        lazy cells settle), returning to ``scan`` for the next row."""
        switch = self.switch

        def profiled(key, value, emit, ctx):
            switch("materialize")
            mapper(key, value, emit, ctx)
            switch("scan")

        return profiled

    def add_rows(self, op: str, rows_in: int, rows_out: int) -> None:
        stats = self.stats[op]
        stats.rows_in += rows_in
        stats.rows_out += rows_out

    def on_cells(self, n: int) -> None:
        """``n`` cells were decoded under the current operator."""
        self.stats[self._current].cells_decoded += n

    def on_cells_skipped(self, n: int) -> None:
        """``n`` cells were skipped (never decoded)."""
        self.stats[self._current].cells_skipped += n

    def on_batch(self, rows: int) -> None:
        """One vector batch of ``rows`` rows was produced by the scan."""
        scan = self.stats["scan"]
        scan.batches += 1
        scan.batch_rows += rows

    def kernel(self, name: str) -> None:
        """A vecdecode batch kernel ran under the current operator."""
        self.stats[self._current].kernel_calls += 1
        self.kernel_counts[name] = self.kernel_counts.get(name, 0) + 1

    def fallback(self, reader, kernel: str) -> None:
        """``kernel`` handed one datum to the per-datum decode path.

        ``reader`` is the byte reader the kernel was inlining over; the
        owning column reader stamps its class name on it
        (``_vec_owner``) so the counter is labeled by reader type.
        """
        self.stats[self._current].fallback_calls += 1
        owner = getattr(reader, "_vec_owner", None) or type(reader).__name__
        key = (kernel, owner)
        self.fallback_counts[key] = self.fallback_counts.get(key, 0) + 1

    # -- internals -----------------------------------------------------

    def _accrue(self) -> None:
        now_wall = self._clock()
        now_sim = self._metrics.task_ticks
        stats = self.stats[self._current]
        stats.wall_time += now_wall - self._wall_mark
        stats.sim_ticks += now_sim - self._sim_mark
        self._wall_mark = now_wall
        self._sim_mark = now_sim

    def _publish(self, obs, sim_time: Optional[float]) -> None:
        registry = obs.registry
        event_ops = {}
        for op in OPS:
            stats = self.stats[op]
            obs.tracer.record_span(
                f"op:{op}",
                "operator",
                None,
                stats.sim_time,
                engine=self.engine,
                op=op,
                rows_in=stats.rows_in,
                rows_out=stats.rows_out,
                selectivity=round(stats.selectivity, 6),
                cells_decoded=stats.cells_decoded,
                cells_skipped=stats.cells_skipped,
                batches=stats.batches,
                batch_rows=stats.batch_rows,
                kernel_calls=stats.kernel_calls,
                fallback_calls=stats.fallback_calls,
                wall_time=stats.wall_time,
                **self.meta,
            )
            for name, field in _OP_COUNTERS:
                value = getattr(stats, field)
                if value:
                    registry.counter(name, engine=self.engine, op=op).inc(
                        value
                    )
            event_ops[op] = {
                "rows_in": stats.rows_in,
                "rows_out": stats.rows_out,
                "cells_decoded": stats.cells_decoded,
                "cells_skipped": stats.cells_skipped,
                "sim_time": stats.sim_time,
            }
        for name, calls in self.kernel_counts.items():
            registry.counter(
                "vecdecode.kernel.calls", kernel=name, engine=self.engine
            ).inc(calls)
        for (kernel, owner), calls in self.fallback_counts.items():
            registry.counter(
                f"vecdecode.fallback.{kernel}", reader=owner,
                engine=self.engine,
            ).inc(calls)
        if sim_time is None:
            sim_time = self._metrics.task_time
        obs.emit(
            "operator.profile",
            sim_time=sim_time,
            engine=self.engine,
            ops=event_ops,
            **self.meta,
        )


class NullOperatorProfiler:
    """Shared no-op profiler: the default ``ctx.profiler``."""

    __slots__ = ()
    active = False
    engine = "none"

    def bind(self, metrics) -> "NullOperatorProfiler":
        return self

    def install(self) -> "NullOperatorProfiler":
        return self

    def finish(self, obs=None, sim_time=None):
        return {}

    def switch(self, op: str) -> str:
        return "scan"

    def wrap_mapper(self, mapper):
        return mapper

    def add_rows(self, op, rows_in, rows_out) -> None:
        pass

    def on_cells(self, n) -> None:
        pass

    def on_cells_skipped(self, n) -> None:
        pass

    def on_batch(self, rows) -> None:
        pass

    def kernel(self, name) -> None:
        pass

    def fallback(self, reader, kernel) -> None:
        pass


NULL_PROFILER = NullOperatorProfiler()


def reconcile_profiles(scalar, vectorized) -> List[str]:
    """Cross-engine profile reconciliation; returns mismatch strings.

    Per operator, rows in/out (hence selectivity) and decoded cells
    must agree *exactly* — both engines count at the same
    ``ColumnReader`` sites and switch operators at logically identical
    boundaries.  Skipped cells must agree exactly in total (which
    operator observes a deferred skip legitimately differs between
    row-at-a-time and frame-at-a-time settling).  Times, batch counts
    and kernel invocations are engine-specific and excluded.

    Accepts ``{op: OperatorStats}`` dicts or profiler instances; an
    operator missing from one side reads as ``None``.
    """
    scalar = getattr(scalar, "stats", scalar)
    vectorized = getattr(vectorized, "stats", vectorized)
    triples = [
        (
            f"{op}.{field}", getattr(scalar.get(op), field, None),
            getattr(vectorized.get(op), field, None),
        )
        for op in OPS for field in _RECONCILE_FIELDS
    ]
    triples.append((
        "total cells_skipped",
        sum(s.cells_skipped for s in scalar.values()),
        sum(s.cells_skipped for s in vectorized.values()),
    ))
    return exact_mismatches("scalar", "vectorized", triples)


# -- report-side: reading profiles back out of a RunReport -------------

#: Additive span-attr fields aggregated by :func:`operator_profiles`.
_SUM_FIELDS = (
    "rows_in", "rows_out", "cells_decoded", "cells_skipped",
    "batches", "batch_rows", "kernel_calls", "fallback_calls",
    "wall_time",
)


def operator_profiles(report) -> Dict[str, Dict[str, dict]]:
    """``{engine: {op: totals}}`` from a report's operator spans.

    Sums every ``kind="operator"`` span per (engine, operator) — a
    multi-task run contributes one span set per task — and recomputes
    the derived ``selectivity`` / ``mean_batch_rows`` / ``profiles``
    (span count) fields from the sums.
    """
    out: Dict[str, Dict[str, dict]] = {}
    for span in report.spans:
        if span.get("kind") != "operator":
            continue
        attrs = span.get("attrs", {})
        engine = attrs.get("engine", "?")
        op = attrs.get("op") or span.get("name", "op:?")[3:]
        ops = out.setdefault(engine, {})
        totals = ops.setdefault(
            op,
            {field: 0 for field in _SUM_FIELDS} | {
                "op": op, "engine": engine, "sim_time": 0.0,
                "wall_time": 0.0, "profiles": 0,
            },
        )
        totals["profiles"] += 1
        totals["sim_time"] += span.get("sim_duration") or 0.0
        for field in _SUM_FIELDS:
            totals[field] += attrs.get(field, 0)
    for ops in out.values():
        for totals in ops.values():
            rows_in = totals["rows_in"]
            totals["selectivity"] = (
                totals["rows_out"] / rows_in if rows_in else 1.0
            )
            batches = totals["batches"]
            totals["mean_batch_rows"] = (
                totals["batch_rows"] / batches if batches else 0.0
            )
    return out


def kernel_call_totals(report) -> Dict[str, int]:
    """``{kernel name: batched invocations}`` from report counters."""
    return report.registry.sums("kernel", "vecdecode.kernel.calls")


def fallback_totals(report) -> Dict[str, int]:
    """``{"kernel/ReaderType": hand-offs}`` from report counters."""
    prefix = "vecdecode.fallback."
    names = sorted({
        name for name, _, _ in report.registry if name.startswith(prefix)
    })
    return {
        f"{name[len(prefix):]}/{reader}": calls
        for name in names
        for reader, calls in report.registry.sums("reader", name).items()
    }


def expr_fallback_totals(report) -> Dict[str, int]:
    """``{expression: map tasks}`` from ``vecexpr.fallback`` counters:
    the ``Q`` ops whose select / group / aggregate expressions did not
    compile and were evaluated row by row."""
    return report.registry.sums("expr", "vecexpr.fallback")


def render_operators(report, pal=None) -> str:
    """ASCII operator tree for ``repro perf operators``.

    One chain per engine found in the trace, pipeline order, with
    rows in/out, selectivity, cells decoded/skipped, batch shape,
    kernel/fallback invocations and sim+wall time per operator.
    """
    from repro.util.term import PLAIN

    pal = pal if pal is not None else PLAIN
    profiles = operator_profiles(report)
    if not profiles:
        return "(no operator profiles in this trace)"
    sections: List[str] = []
    for engine in sorted(profiles):
        ops = profiles[engine]
        tasks = max((t["profiles"] for t in ops.values()), default=0)
        lines = [pal.bold(
            f"operator profile — engine={engine}"
            f" ({tasks} task{'s' if tasks != 1 else ''})"
        )]
        present = [op for op in OPS if op in ops]
        present += [op for op in sorted(ops) if op not in OPS]
        for depth, op in enumerate(present):
            totals = ops[op]
            indent = "  " * depth
            branch = "└ " if depth else ""
            parts = [
                f"rows {totals['rows_in']:,} → {totals['rows_out']:,}"
                f" ({totals['selectivity']:.1%})",
                f"cells {totals['cells_decoded']:,} dec"
                f" / {totals['cells_skipped']:,} skip",
            ]
            if totals["batches"]:
                parts.append(
                    f"batches {totals['batches']:,}"
                    f" (mean {totals['mean_batch_rows']:.1f} rows)"
                )
            if totals["kernel_calls"] or totals["fallback_calls"]:
                parts.append(
                    f"kernels {totals['kernel_calls']:,}"
                    f" / fallbacks {totals['fallback_calls']:,}"
                )
            parts.append(
                f"sim {totals['sim_time']:.6f}s"
                f" wall {totals['wall_time']:.4f}s"
            )
            lines.append(
                f"{indent}{branch}{pal.bold(op.ljust(11))} "
                + "  ".join(parts)
            )
        fallbacks = fallback_totals(report)
        if engine == "vectorized" and fallbacks:
            lines.append(
                "  fallbacks: " + ", ".join(
                    f"{key}={calls:,}"
                    for key, calls in sorted(fallbacks.items())
                )
            )
        row_by_row = expr_fallback_totals(report)
        if engine == "vectorized" and row_by_row:
            lines.append(
                "  evaluated row by row (map tasks): " + ", ".join(
                    f"{expr}={tasks:,}"
                    for expr, tasks in sorted(row_by_row.items())
                )
            )
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


#: operator fields ``perf diff --operators`` compares: the ``*_time``
#: fields within tolerance, the counts exactly
_DIFF_FIELDS = (
    "rows_in", "rows_out", "cells_decoded", "cells_skipped",
    "kernel_calls", "fallback_calls", "sim_time", "wall_time",
)


def diff_operators(
    baseline, fresh, rel_tol: float = 0.01
) -> Tuple[Diff, Dict[str, dict]]:
    """Per-operator deltas between two runs, and who is to blame.

    Both runs fold to ``<engine>/<op>.<field>`` keys, an operator one
    run lacks reading 0 there.  The attribution names, per engine, the
    operator whose simulated time grew the most; an operator whose
    simulated time did not move beyond tolerance counts its wall-time
    growth instead (the vectorized engine's whole point is moving wall
    time without moving simulated time).  It also names the kernel
    whose invocation count grew the most, or none if none grew.
    Returns ``(diff, {engine: {"op", "sim_delta", "wall_delta",
    "kernel", "kernel_delta"}})``, the dict empty when no operator
    slowed down.
    """
    profiles = operator_profiles(baseline), operator_profiles(fresh)
    present = sorted(
        {(engine, op) for by_engine in profiles
         for engine, ops in by_engine.items() for op in ops if op in OPS},
        key=lambda pair: (pair[0], OPS.index(pair[1])),
    )
    series_a, series_b = (
        {
            f"{engine}/{op}.{field}":
            by_engine.get(engine, {}).get(op, {}).get(field, 0)
            for engine, op in present for field in _DIFF_FIELDS
        }
        for by_engine in profiles
    )
    diff = compare(
        series_a, series_b,
        lambda key: "lower" if key.endswith("_time") else "exact", rel_tol,
    )
    moved = {entry.key for entry in diff.entries}
    kernels_a, kernels_b = map(kernel_call_totals, (baseline, fresh))
    grown = {
        name: calls - kernels_a.get(name, 0)
        for name, calls in sorted(kernels_b.items())
        if calls > kernels_a.get(name, 0)
    }
    kernel = max(grown, key=grown.get, default=None)
    attribution: Dict[str, dict] = {}
    worst: Dict[str, float] = {}
    for engine, op in present:
        sim, wall = f"{engine}/{op}.sim_time", f"{engine}/{op}.wall_time"
        sim_delta = series_b[sim] - series_a[sim]
        wall_delta = series_b[wall] - series_a[wall]
        score = sim_delta if sim in moved else wall_delta
        if score > worst.get(engine, 0):
            worst[engine] = score
            attribution[engine] = {
                "op": op, "sim_delta": sim_delta, "wall_delta": wall_delta,
                "kernel": kernel, "kernel_delta": grown.get(kernel, 0),
            }
    return diff, attribution


def render_operator_diff(diff: Diff, attribution, pal=None) -> str:
    """``repro perf diff --operators``'s text for :func:`diff_operators`."""
    from repro.util.term import PLAIN

    pal = pal if pal is not None else PLAIN
    if not diff.entries:
        if diff.compared:
            return "operator diff: no per-operator deltas beyond tolerance"
        return "(no operator profiles to diff)"
    lines = [pal.bold("operator diff (baseline → fresh)")]
    for entry in diff.entries:
        if entry.key.endswith("_time"):
            rendered = (
                f"{entry.a:.6f}s → {entry.b:.6f}s ({entry.delta:+.6f}s)"
            )
        else:
            rendered = f"{entry.a:,} → {entry.b:,} ({entry.delta:+,})"
        lines.append(f"  {entry.key}: {rendered}")
    for engine, blame in sorted(attribution.items()):
        line = (
            f"slowdown attributed to operator {pal.bold(blame['op'])} "
            f"({engine}): sim {blame['sim_delta']:+.6f}s, "
            f"wall {blame['wall_delta']:+.4f}s"
        )
        if blame["kernel"]:
            line += (
                f"; kernel {pal.bold(blame['kernel'])} "
                f"calls {blame['kernel_delta']:+,}"
            )
        lines.append(pal.yellow(line))
    if not attribution:
        lines.append("no operator slowed down")
    return "\n".join(lines)
