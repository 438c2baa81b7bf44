"""Nested span tracing with an injectable clock.

A :class:`Tracer` produces :class:`Span`\\ s — job → phase → task →
stream-op — via context managers.  Every span records *two* time axes:

- **wall time**, from the tracer's injectable ``clock`` (pass a fake
  clock for byte-identical traces across runs — the determinism the
  flight-recorder tests rely on), and
- **simulated time**: hand ``span(..., metrics=ctx.metrics)`` a
  :class:`~repro.sim.metrics.Metrics` and the span records, in
  seconds, the ``io_ticks``/``cpu_ticks`` deltas accrued inside it.

Tasks replayed by the event-driven scheduler do not nest inside a
``with`` block in wall time; :meth:`Tracer.record_span` registers those
with explicit simulated start/duration instead.

The :class:`NullTracer` makes tracing zero-overhead when observability
is off: ``span()`` returns a shared no-op context manager.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.sim.calibration import TICKS_PER_SECOND


class Span:
    """One timed region.  Mutable while open; frozen facts after exit."""

    __slots__ = (
        "span_id", "parent_id", "name", "kind", "attrs",
        "wall_start", "wall_end",
        "sim_start", "sim_duration", "sim_io", "sim_cpu",
        "_tracer", "_metrics", "_io0", "_cpu0",
    )

    def __init__(
        self,
        tracer: Optional["Tracer"],
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        attrs: dict,
        metrics=None,
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self.wall_start = 0.0
        self.wall_end = 0.0
        self.sim_start: Optional[float] = None
        self.sim_duration: Optional[float] = None
        self.sim_io: Optional[float] = None
        self.sim_cpu: Optional[float] = None
        self._metrics = metrics
        self._io0 = 0
        self._cpu0 = 0

    def set(self, key: str, value) -> None:
        """Attach an attribute discovered while the span is open."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.wall_start = tracer._clock()
        tracer._stack.append(self.span_id)
        if self._metrics is not None:
            self._io0 = self._metrics.io_ticks
            self._cpu0 = self._metrics.cpu_ticks
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        self.wall_end = tracer._clock()
        tracer._stack.pop()
        if self._metrics is not None:
            io = self._metrics.io_ticks - self._io0
            cpu = self._metrics.cpu_ticks - self._cpu0
            self.sim_io = io / TICKS_PER_SECOND
            self.sim_cpu = cpu / TICKS_PER_SECOND
            self.sim_duration = (io + cpu) / TICKS_PER_SECOND
            self._metrics = None

    def to_dict(self) -> dict:
        out = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
        }
        for key in ("sim_start", "sim_duration", "sim_io", "sim_cpu"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, kind={self.kind!r}, id={self.span_id}, "
            f"parent={self.parent_id})"
        )


class Tracer:
    """Builds the span tree; spans appear in ``spans`` in start order."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: List[int] = []
        self._next_id = 1
        self.spans: List[Span] = []

    def _parent(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @property
    def current_span_id(self) -> Optional[int]:
        """The innermost open span's id (None outside any span).

        Events emitted on the bus carry this for trace correlation.
        """
        return self._stack[-1] if self._stack else None

    def span(self, name: str, kind: str = "op", metrics=None, **attrs) -> Span:
        """Open a nested span: ``with tracer.span("scan", fmt="cif"): ...``"""
        span = Span(
            self,
            self._next_id,
            self._parent(),
            name,
            kind,
            dict(attrs),
            metrics=metrics,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def record_span(
        self,
        name: str,
        kind: str,
        sim_start: float,
        sim_duration: float,
        sim_io: Optional[float] = None,
        sim_cpu: Optional[float] = None,
        **attrs,
    ) -> Span:
        """Register a span whose interval exists only on the simulated

        clock (e.g. a scheduler-replayed map task): no wall-time extent,
        explicit ``sim_start``/``sim_duration``.
        """
        span = Span(
            self, self._next_id, self._parent(), name, kind, dict(attrs)
        )
        self._next_id += 1
        now = self._clock()
        span.wall_start = span.wall_end = now
        span.sim_start = sim_start
        span.sim_duration = sim_duration
        span.sim_io = sim_io
        span.sim_cpu = sim_cpu
        self.spans.append(span)
        return span


class _NullSpan:
    """Shared no-op span: context manager and setter both do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set(self, key: str, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The disabled tracer: records nothing, allocates nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0)

    def span(self, name: str, kind: str = "op", metrics=None, **attrs):
        return _NULL_SPAN

    def record_span(self, name, kind, sim_start, sim_duration, **kw):
        return _NULL_SPAN


NULL_TRACER = NullTracer()
