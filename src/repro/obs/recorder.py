"""Per-job flight recorder: spans + metrics + counters in one artifact.

An :class:`Observability` bundles the two instruments — a
:class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.registry.MetricRegistry` — that instrumented code
reaches through ``ctx.obs``.  The default instance is :data:`NULL_OBS`,
whose parts are all no-ops, so instrumentation costs nothing until a
recorder is activated.

A :class:`FlightRecorder` is a *live* Observability that additionally
collects :class:`~repro.sim.metrics.Metrics` snapshots and
``mapreduce.Counters`` dumps as jobs/scans complete.  ``report()``
freezes everything into a :class:`RunReport`, which serializes to JSONL
(one self-describing record per line) and renders as ASCII tables.

JSONL schema (see ``docs/observability.md``):

- ``{"type": "meta", ...}`` — one header line
- ``{"type": "span", "id", "parent", "name", "kind", "wall_start",
  "wall_end", ["sim_start", "sim_duration", "sim_io", "sim_cpu",]
  ["attrs"]}``
- ``{"type": "counter"|"gauge", "name", "labels", "value"}``
- ``{"type": "histogram", "name", "labels", "boundaries", "counts",
  "sum", "count"}``
- ``{"type": "metrics", "label", <Metrics fields>}``
- ``{"type": "counters", "label", "values"}``
- ``{"type": "event", "seq", "kind", "wall", ["sim", "span", "attrs"]}``
  — one per event-bus emission, in emission order

Artifacts are written one flushed line at a time (gzipped when the
path ends in ``.gz``); a run that crashes mid-write leaves a readable
prefix, which :meth:`RunReport.load` salvages with a warning instead of
raising (the codec is :mod:`repro.util.jsonl`).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.events import NULL_BUS, EventBus
from repro.obs.registry import (
    NULL_REGISTRY,
    SNAPSHOT_QUANTILES,
    MetricRegistry,
    checked_number,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.util import jsonl

#: what :mod:`repro.util.jsonl` calls this artifact's lines in errors
_RECORD = "flight-recorder record"

#: span and event records (the schema above): the keys each must hold,
#: and its times, which must be numbers where present
_SHAPES = {
    "span": (
        ("id", "parent", "name", "kind", "wall_start", "wall_end"),
        ("wall_start", "wall_end", "sim_start", "sim_duration", "sim_io",
         "sim_cpu"),
    ),
    "event": (("seq", "kind", "wall"), ("wall", "sim")),
}

#: Metrics fields serialized into ``metrics`` records, in schema order.
_METRICS_FIELDS = (
    "disk_bytes", "net_bytes", "requested_bytes", "seeks",
    "io_time", "cpu_time", "records", "cells", "objects",
)

#: fetch-size histogram buckets: readahead-window-ish byte sizes
FETCH_BOUNDARIES = (
    1024, 4096, 12 * 1024, 32 * 1024, 128 * 1024, 512 * 1024, 4 * 1024 * 1024,
)


class StreamProbe:
    """Per-stream byte/seek attribution, bound to labeled counters.

    One probe is attached per opened :class:`HdfsInputStream` (labels
    identify the file — and for CIF, the column), so per-column bytes,
    seeks and readahead waste can be reconciled against the task's
    aggregate ``sim.Metrics``.
    """

    __slots__ = ("_disk", "_net", "_requested", "_seeks", "_fetches", "_sizes")

    def __init__(self, registry: MetricRegistry, labels: Dict[str, object]):
        self._disk = registry.counter("hdfs.bytes.disk", **labels)
        self._net = registry.counter("hdfs.bytes.net", **labels)
        self._requested = registry.counter("hdfs.bytes.requested", **labels)
        self._seeks = registry.counter("hdfs.seeks", **labels)
        self._fetches = registry.counter("hdfs.fetches", **labels)
        self._sizes = registry.histogram(
            "hdfs.fetch.bytes", FETCH_BOUNDARIES, **labels
        )

    def on_request(self, nbytes: int) -> None:
        """The reader asked for ``nbytes`` (pre-readahead)."""
        self._requested.inc(nbytes)

    def on_fetch(self, local_bytes: int, remote_bytes: int, seek: bool) -> None:
        """One readahead fetch hit disk/network for this many bytes."""
        if local_bytes:
            self._disk.inc(local_bytes)
        if remote_bytes:
            self._net.inc(remote_bytes)
        if seek:
            self._seeks.inc()
        self._fetches.inc()
        self._sizes.observe(local_bytes + remote_bytes)


class NullStreamProbe(StreamProbe):
    """Shared no-op probe installed on every stream by default."""

    __slots__ = ()

    def __init__(self) -> None:
        pass

    def on_request(self, nbytes: int) -> None:
        pass

    def on_fetch(self, local_bytes, remote_bytes, seek) -> None:
        pass


NULL_STREAM_PROBE = NullStreamProbe()


class Observability:
    """What instrumented code holds: tracer, registry and event bus."""

    __slots__ = ("tracer", "registry", "bus", "enabled")

    def __init__(
        self,
        tracer: Tracer,
        registry: MetricRegistry,
        enabled: bool = True,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.tracer = tracer
        self.registry = registry
        self.bus = bus if bus is not None else NULL_BUS
        self.enabled = enabled

    def stream_probe(self, **labels) -> StreamProbe:
        """A byte-attribution probe for one stream (no-op when off)."""
        if not self.enabled:
            return NULL_STREAM_PROBE
        return StreamProbe(self.registry, labels)

    def emit(self, kind: str, /, sim_time: Optional[float] = None, **attrs):
        """Publish a structured event on the bus, correlated with the

        tracer's innermost open span.  A no-op (returning None) until a
        flight recorder is active.
        """
        if not self.enabled:
            return None
        return self.bus.emit(
            kind,
            sim_time=sim_time,
            span_id=self.tracer.current_span_id,
            **attrs,
        )

    # Collection hooks; only the FlightRecorder stores anything.

    def record_metrics(self, label: str, metrics) -> None:
        pass

    def record_counters(self, label: str, counters) -> None:
        pass


NULL_OBS = Observability(NULL_TRACER, NULL_REGISTRY, enabled=False)


class _Activation:
    """Context manager installing a recorder as the ambient obs."""

    __slots__ = ("_obs", "_token")

    def __init__(self, obs: Observability) -> None:
        self._obs = obs
        self._token = None

    def __enter__(self) -> Observability:
        from repro import obs as _obs_pkg

        self._token = _obs_pkg._ACTIVE.set(self._obs)
        return self._obs

    def __exit__(self, *exc) -> None:
        from repro import obs as _obs_pkg

        _obs_pkg._ACTIVE.reset(self._token)


class FlightRecorder(Observability):
    """A live recording: activate it, run work, then ``report()``.

    ``clock`` is injectable for determinism — pass a fake monotonic
    counter and two identical runs produce byte-identical JSONL (wall
    timestamps included), which the accounting-invariant tests assert.
    """

    __slots__ = ("meta", "metrics_log", "counters_log", "events_log")

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        meta: Optional[dict] = None,
    ) -> None:
        super().__init__(
            Tracer(clock=clock), MetricRegistry(), enabled=True,
            bus=EventBus(clock=clock),
        )
        self.meta = dict(meta or {})
        self.metrics_log: List[Tuple[str, dict]] = []
        self.counters_log: List[Tuple[str, Dict[str, int]]] = []
        #: every bus event, in emission order (the recorder subscribes
        #: to its own bus, like any other consumer)
        self.events_log: List = []
        self.bus.subscribe(self.events_log.append)

    def activate(self) -> _Activation:
        """``with recorder.activate(): ...`` — contexts created inside

        (TaskContext, JobRunner, harness.scan) pick this recorder up as
        their ambient observability.
        """
        return _Activation(self)

    def record_metrics(self, label: str, metrics) -> None:
        snap = {name: getattr(metrics, name) for name in _METRICS_FIELDS}
        extra = getattr(metrics, "extra", None)
        if extra:
            snap["extra"] = dict(sorted(extra.items()))
        self.metrics_log.append((label, snap))

    def record_counters(self, label: str, counters) -> None:
        self.counters_log.append(
            (label, dict(sorted(counters.as_dict().items())))
        )

    def report(self) -> "RunReport":
        return RunReport(
            meta=dict(self.meta),
            spans=[span.to_dict() for span in self.tracer.spans],
            metrics=[
                {"label": label, **snap} for label, snap in self.metrics_log
            ],
            counters=[
                {"label": label, "values": values}
                for label, values in self.counters_log
            ],
            registry=self.registry.snapshot(),
            events=[event.to_dict() for event in self.events_log],
        )


def _check_shape(index: int, kind: str, record: dict) -> None:
    """A ``span`` or ``event`` record as the schema has it, else a
    ValueError naming the record: no reader meets a missing key or a
    time that is not a number."""
    keys, times = _SHAPES[kind]
    what = f"record {index}: {kind}"
    missing = [key for key in keys if key not in record]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")
    for key in times:
        if key in record:
            checked_number(record[key], f"{what} {key}")


class RunReport:
    """The frozen artifact: everything one run's flight recorder saw."""

    def __init__(
        self,
        meta: dict,
        spans: List[dict],
        metrics: List[dict],
        counters: List[dict],
        registry: List[dict],
        events: Optional[List[dict]] = None,
        warnings: Optional[List[str]] = None,
    ) -> None:
        self.meta = meta
        self.spans = spans
        self.metrics = metrics
        self.counters = counters
        #: the run's metric store, loaded (and checked) from its
        #: snapshot records
        self.registry = MetricRegistry.load(registry)
        self.events = events if events is not None else []
        #: loader warnings (e.g. a truncated final line from a crashed
        #: run); surfaced by ``repro report|perf|explain``
        self.warnings = warnings if warnings is not None else []

    # -- aggregate views ----------------------------------------------

    def counter_total(self, name: str, /, **labels) -> float:
        """Sum of the registry's counters matching ``name`` + labels."""
        return self.registry.value_of(name, **labels)

    def span_totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (span count, summed sim_duration)``; a span with
        no simulated duration counts with zero time."""
        out: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            count, total = out.get(span["name"], (0, 0.0))
            out[span["name"]] = (
                count + 1, total + (span.get("sim_duration") or 0.0)
            )
        return out

    def metrics_total(self, field: str) -> float:
        """Sum of one Metrics field across every recorded snapshot."""
        return sum(snap.get(field, 0) for snap in self.metrics)

    def per_column_bytes(self) -> Dict[str, int]:
        """``column -> disk+net bytes`` from the stream-probe counters."""
        return self.registry.sums(
            "column", "hdfs.bytes.disk", "hdfs.bytes.net"
        )

    def task_duration_stats(self) -> Dict[str, dict]:
        """Per-task-kind duration stats from the duration histograms.

        Keyed by the ``kind`` label of the ``task.duration.seconds``
        histograms (``map``/``reduce``).  Min, max and quantile keys are
        absent for artifacts recorded before snapshots carried them.
        """
        out: Dict[str, dict] = {}
        for labels, metric in self.registry.find("task.duration.seconds"):
            if metric.kind != "histogram" or not metric.count:
                continue
            stats = {
                "count": metric.count, "mean": metric.total / metric.count,
            }
            if metric.vmin is not None:
                stats["min"], stats["max"] = metric.vmin, metric.vmax
                for key, q in SNAPSHOT_QUANTILES:
                    stats[key] = metric.quantile(q)
            out[dict(labels).get("kind", "task")] = stats
        return out

    def summary(self) -> dict:
        """A structured (JSON-ready) digest for tooling.

        The machine-readable sibling of :meth:`render`, which reads its
        per-column bytes, task durations, event counts and readahead
        line from here; surfaced by ``repro report --json``.
        """
        fetched = self.counter_total("hdfs.bytes.disk") + self.counter_total(
            "hdfs.bytes.net"
        )
        requested = self.counter_total("hdfs.bytes.requested")
        events_by_kind = Counter(
            event.get("kind", "?") for event in self.events
        )
        spans_by_kind = Counter(span.get("kind", "op") for span in self.spans)
        return {
            "meta": dict(self.meta),
            "events": {
                "count": len(self.events),
                "by_kind": dict(sorted(events_by_kind.items())),
            },
            "warnings": list(self.warnings),
            "spans": {
                "count": len(self.spans),
                "by_kind": dict(sorted(spans_by_kind.items())),
                "sim_time_by_name": {
                    name: sim
                    for name, (_, sim) in sorted(self.span_totals().items())
                    if sim
                },
            },
            "metrics": {
                field: self.metrics_total(field) for field in _METRICS_FIELDS
            },
            "per_column_bytes": dict(sorted(self.per_column_bytes().items())),
            "readahead": {
                "requested_bytes": int(requested),
                "fetched_bytes": int(fetched),
                "waste_bytes": int(fetched - requested),
                "seeks": int(self.counter_total("hdfs.seeks")),
                "fetches": int(self.counter_total("hdfs.fetches")),
            },
            "task_durations": self.task_duration_stats(),
            "counters": [
                {"label": dump["label"], "values": dict(dump["values"])}
                for dump in self.counters
            ],
        }

    # -- serialization -------------------------------------------------

    def _records(self):
        """Yield the artifact's records, in file order."""
        yield {"type": "meta", **self.meta}
        for span in self.spans:
            yield {"type": "span", **span}
        for event in self.events:
            yield {"type": "event", **event}
        for entry in self.registry.snapshot():
            yield {"type": entry.pop("kind"), **entry}
        for snap in self.metrics:
            yield {"type": "metrics", **snap}
        for dump in self.counters:
            yield {"type": "counters", **dump}

    def to_jsonl(self) -> str:
        return "".join(jsonl.dumps(r) + "\n" for r in self._records())

    def write_jsonl(self, path: str) -> None:
        """Write the artifact, one flushed line per record.

        Flushing per line means a crash mid-write loses at most the
        line in flight — readers tolerate that torn tail.  A ``.gz``
        suffix gzips.
        """
        with jsonl.JsonlWriter(path) as writer:
            for record in self._records():
                writer.write(record)

    @classmethod
    def _from_records(
        cls, records: List[dict], warnings: List[str]
    ) -> "RunReport":
        if not records:
            raise ValueError("no flight-recorder records")
        meta: dict = {}
        spans: List[dict] = []
        metrics: List[dict] = []
        counters: List[dict] = []
        registry: List[dict] = []
        events: List[dict] = []
        for index, record in enumerate(records):
            kind = record.pop("type")
            if kind in _SHAPES:
                _check_shape(index, kind, record)
            if kind == "meta":
                meta = record
            elif kind == "span":
                spans.append(record)
            elif kind == "event":
                events.append(record)
            elif kind in ("counter", "gauge", "histogram"):
                registry.append({"kind": kind, **record})
            elif kind == "metrics":
                metrics.append(record)
            elif kind == "counters":
                counters.append(record)
            else:
                raise ValueError(
                    f"record {index}: unknown record type {kind!r}"
                )
        return cls(
            meta, spans, metrics, counters, registry,
            events=events, warnings=warnings,
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "RunReport":
        return cls._from_records(*jsonl.parse(text, _RECORD))

    @classmethod
    def load(cls, path: str) -> "RunReport":
        """Load an artifact; gzip framing is sniffed from the content,
        and a truncated stream or torn final line (a crashed run's
        tail) loads as its readable prefix with a warning."""
        return cls._from_records(*jsonl.read(path, _RECORD))

    # -- rendering -----------------------------------------------------

    def render(
        self,
        top: int = 12,
        width: int = 48,
        pal=None,
        quiet: bool = False,
    ) -> str:
        """ASCII flight-recorder readout: top spans, per-column bytes,

        recorded metrics and counters.  Uses the same terminal plotting
        helpers as the figure experiments.  ``pal`` is an optional
        :class:`repro.util.term.Palette`; ``quiet`` keeps only the
        header, warnings and counter sections.
        """
        from repro.bench.ascii_plot import bar_chart
        from repro.util.term import PLAIN

        pal = pal if pal is not None else PLAIN
        sections: List[str] = []
        if self.meta:
            sections.append(
                pal.bold("flight recorder: ")
                + ", ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
            )
        for warning in self.warnings:
            sections.append(pal.yellow(f"WARNING: {warning}"))
        counters = ["Job counters"]
        for dump in self.counters:
            counters.append(f"  {dump['label']}:")
            counters += [
                f"    {name} = {value:,}"
                for name, value in sorted(dump["values"].items())
            ]
        if quiet:
            if self.counters:
                sections.append("\n".join(counters))
            if not sections:
                sections.append("(empty flight recording)")
            return "\n\n".join(sections)

        summary = self.summary()
        timed = [
            span for span in self.spans
            if span.get("sim_duration") or span["wall_end"] > span["wall_start"]
        ]

        def span_time(span: dict) -> float:
            sim = span.get("sim_duration")
            return sim if sim is not None else span["wall_end"] - span["wall_start"]

        timed.sort(key=span_time, reverse=True)
        if timed:
            bars = {}
            for span in timed[:top]:
                label = f"{span['name']}#{span['id']} ({span['kind']})"
                bars[label] = span_time(span)
            sections.append(bar_chart(
                bars,
                title=f"Top spans by time ({len(self.spans)} spans total)",
                width=width,
                unit=" s",
            ))

        columns = summary["per_column_bytes"]
        if columns:
            lines = ["Per-column bytes read (disk + net)"]
            col_width = max(len(c) for c in columns)
            for column in sorted(columns):
                lines.append(
                    f"  {column.ljust(col_width)}  {columns[column]:>12,}"
                )
            lines.append(
                f"  {'TOTAL'.ljust(col_width)}  {sum(columns.values()):>12,}"
            )
            sections.append("\n".join(lines))

        if self.metrics:
            lines = ["Recorded metrics snapshots"]
            for snap in self.metrics:
                lines.append(
                    f"  {snap['label']}: "
                    f"disk={snap.get('disk_bytes', 0):,}B "
                    f"net={snap.get('net_bytes', 0):,}B "
                    f"seeks={snap.get('seeks', 0)} "
                    f"io={snap.get('io_time', 0.0):.4f}s "
                    f"cpu={snap.get('cpu_time', 0.0):.4f}s"
                )
            sections.append("\n".join(lines))

        durations = summary["task_durations"]
        if durations:
            lines = ["Task durations (simulated seconds)"]
            for kind in sorted(durations):
                stats = durations[kind]
                line = (
                    f"  {kind}: n={stats['count']} "
                    f"mean={stats['mean']:.6f}"
                )
                for key in ("p50", "p95", "p99", "max"):
                    if key in stats:
                        line += f" {key}={stats[key]:.6f}"
                lines.append(line)
            sections.append("\n".join(lines))

        if self.counters:
            sections.append("\n".join(counters))

        events = summary["events"]
        if events["count"]:
            lines = [f"Events ({events['count']} total)"]
            for kind, count in events["by_kind"].items():
                lines.append(f"  {kind} = {count:,}")
            sections.append("\n".join(lines))

        readahead = summary["readahead"]
        if readahead["fetches"]:
            sections.append(
                f"Readahead waste: {readahead['waste_bytes']:,} bytes over "
                f"{readahead['fetches']:,} fetches, "
                f"{readahead['seeks']:,} seeks"
            )

        if not sections:
            sections.append("(empty flight recording)")
        return "\n\n".join(sections)
