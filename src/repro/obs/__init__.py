"""repro.obs — tracing, metrics, and the per-job flight recorder.

The observability subsystem gives every run three instruments:

- a **metric registry** (:mod:`repro.obs.registry`): labeled counters,
  gauges and fixed-boundary histograms: the one metric store, which a
  saved run's registry and the monitoring :class:`TimeSeriesStore`
  (the same map with a time axis) share;
- a **tracer** (:mod:`repro.obs.trace`): nested job → phase → task →
  op spans on both the wall clock and the simulated clock;
- a **flight recorder** (:mod:`repro.obs.recorder`): collects spans,
  registry snapshots, ``sim.Metrics`` and job ``Counters`` into one
  :class:`RunReport`, exportable as JSONL and renderable as ASCII.

Everything is zero-overhead by default: code paths hold the ambient
:data:`NULL_OBS` (no-op tracer/registry) until a recorder is activated::

    from repro.obs import FlightRecorder

    rec = FlightRecorder()
    with rec.activate():
        result = run_job(fs, job)          # instrumented automatically
    rec.report().write_jsonl("run.jsonl")  # `repro report run.jsonl`

The package exports what a run touches: those three, the event bus and
the operator profiler.  The readers of a finished or live run are
imported from their own modules, so an engine run never loads them:
``tsdb``, ``slo``, ``alerts``, ``live``, ``analysis``, ``export``,
``heatmap`` and ``advisor``.

See ``docs/observability.md`` for the span model, the metric naming
scheme, and the JSONL schema.
"""

from __future__ import annotations

from contextvars import ContextVar

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.obs.trace import NullTracer, Span, Tracer, NULL_TRACER
from repro.obs.events import (
    Event,
    EventBus,
    JsonlEventSink,
    NullEventBus,
    NULL_BUS,
)
from repro.obs.recorder import (
    FlightRecorder,
    NULL_OBS,
    NULL_STREAM_PROBE,
    Observability,
    RunReport,
    StreamProbe,
)
from repro.obs.opprofile import (
    NULL_PROFILER,
    NullOperatorProfiler,
    OperatorProfiler,
    OperatorStats,
    OPS,
    diff_operators,
    expr_fallback_totals,
    fallback_totals,
    kernel_call_totals,
    operator_profiles,
    reconcile_profiles,
    render_operator_diff,
    render_operators,
)

#: the ambient observability; FlightRecorder.activate() swaps it in
_ACTIVE: ContextVar[Observability] = ContextVar("repro_obs", default=NULL_OBS)


def current_obs() -> Observability:
    """The active observability (the no-op :data:`NULL_OBS` by default).

    Task contexts, the job runner and the bench harness call this at
    construction time, so activating a :class:`FlightRecorder` is all it
    takes to instrument a run — no parameter plumbing.
    """
    return _ACTIVE.get()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NullTracer",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "Event",
    "EventBus",
    "JsonlEventSink",
    "NullEventBus",
    "NULL_BUS",
    "FlightRecorder",
    "NULL_OBS",
    "NULL_STREAM_PROBE",
    "Observability",
    "RunReport",
    "StreamProbe",
    "current_obs",
    "NULL_PROFILER",
    "NullOperatorProfiler",
    "OperatorProfiler",
    "OperatorStats",
    "OPS",
    "diff_operators",
    "expr_fallback_totals",
    "fallback_totals",
    "kernel_call_totals",
    "operator_profiles",
    "reconcile_profiles",
    "render_operator_diff",
    "render_operators",
]
