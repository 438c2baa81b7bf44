"""The in-process event bus: trace-correlated structured events.

Spans say how long things took; *events* say that something happened —
a job started, a task attempt launched on node 3 slot 2, a fault fired,
a replica read failed over.  The bus is the live side of the
observability subsystem: the flight recorder subscribes to persist
events into the JSONL artifact, ``repro top`` subscribes to drive its
progress display, and tests subscribe to assert on lifecycle ordering.

Events are deliberately tiny: a monotonically increasing ``seq``, a
dotted ``kind`` (``job.start``, ``task.finish``, ``fault.injected``,
``replica.failover``, ``scheduler`` decisions...), a wall timestamp
from the bus's injectable clock, an optional *simulated* timestamp, an
optional correlating span id (the tracer's innermost open span at emit
time), and free-form attrs.

Like the rest of ``repro.obs`` this is zero-overhead by default:
instrumented code calls ``obs.emit(...)``, which hits the shared
:data:`NULL_BUS` until a recorder is active.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.util.jsonl import JsonlWriter


class Event:
    """One structured occurrence on the bus (immutable once emitted)."""

    __slots__ = ("seq", "kind", "wall_time", "sim_time", "span_id", "attrs")

    def __init__(
        self,
        seq: int,
        kind: str,
        wall_time: float,
        sim_time: Optional[float] = None,
        span_id: Optional[int] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.wall_time = wall_time
        self.sim_time = sim_time
        self.span_id = span_id
        self.attrs = attrs or {}

    def to_dict(self) -> dict:
        out = {"seq": self.seq, "kind": self.kind, "wall": self.wall_time}
        if self.sim_time is not None:
            out["sim"] = self.sim_time
        if self.span_id is not None:
            out["span"] = self.span_id
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, record: dict) -> "Event":
        return cls(
            seq=record.get("seq", 0),
            kind=record.get("kind", "?"),
            wall_time=record.get("wall", 0.0),
            sim_time=record.get("sim"),
            span_id=record.get("span"),
            attrs=dict(record.get("attrs") or {}),
        )

    def __repr__(self) -> str:
        return f"Event({self.kind!r}, seq={self.seq}, attrs={self.attrs})"


class EventBus:
    """Synchronous pub/sub: ``emit`` calls every subscriber in order.

    Subscribers are plain callables taking one :class:`Event`.  The bus
    stores nothing itself — persistence is just another subscriber (the
    flight recorder), so a monitor attached mid-run simply sees events
    from that point on.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._subscribers: List[Callable[[Event], None]] = []
        self._seq = 0

    def subscribe(self, fn: Callable[[Event], None]) -> Callable[[], None]:
        """Add a subscriber; returns a zero-arg unsubscribe callable."""
        self._subscribers.append(fn)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(fn)
            except ValueError:
                pass

        return unsubscribe

    def emit(
        self,
        kind: str,
        /,
        sim_time: Optional[float] = None,
        span_id: Optional[int] = None,
        **attrs,
    ) -> Optional[Event]:
        self._seq += 1
        event = Event(
            self._seq, kind, self._clock(),
            sim_time=sim_time, span_id=span_id, attrs=attrs,
        )
        for fn in list(self._subscribers):
            fn(event)
        return event

    def replay(self, records: List[dict]) -> int:
        """Re-deliver recorded event dicts (a ``RunReport``'s ``events``)

        to the current subscribers, preserving the recorded seq/times.
        Returns the number of events delivered — this is how ``repro
        top --replay`` drives a monitor from a saved artifact.
        """
        count = 0
        for record in records:
            event = Event.from_dict(record)
            for fn in list(self._subscribers):
                fn(event)
            count += 1
        return count


class NullEventBus(EventBus):
    """The disabled bus: emits nothing, allocates nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0)

    def subscribe(self, fn: Callable[[Event], None]) -> Callable[[], None]:
        return lambda: None

    def emit(self, kind, /, sim_time=None, span_id=None, **attrs):
        return None

    def replay(self, records: List[dict]) -> int:
        return 0


NULL_BUS = NullEventBus()


class JsonlEventSink:
    """A bus subscriber streaming events to a JSONL file, one flushed

    line per event — so a run that crashes mid-job still leaves every
    event up to the crash on disk (readers tolerate the torn tail, see
    :mod:`repro.util.jsonl`).

    ``flush_every`` opts into buffered mode for high-volume runs
    (cluster traffic emits tens of thousands of events): the sink
    flushes only every N events and on :meth:`close`.  The default of
    1 keeps the crash-safe flush-per-line behaviour.
    """

    def __init__(self, path: str, flush_every: int = 1) -> None:
        self.path = path
        self.flush_every = flush_every
        self._writer = JsonlWriter(path, flush_every)
        self._unsubscribe: Optional[Callable[[], None]] = None

    def attach(self, bus: EventBus) -> "JsonlEventSink":
        self._unsubscribe = bus.subscribe(self)
        return self

    def __call__(self, event: Event) -> None:
        if not self._writer.closed:
            self._writer.write({"type": "event", **event.to_dict()})

    def close(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self._writer.close()

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
