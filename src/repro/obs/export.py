"""Trace exporters: Chrome trace-event JSON and Prometheus text.

Both exporters work from a :class:`~repro.obs.recorder.RunReport`, so
they serve live runs (``recorder.report()``) and saved artifacts
(``RunReport.load("run.jsonl")``) identically — that is what lets
``repro export chrome run.jsonl.gz`` post-process a CI recording.

**Chrome trace** (:func:`chrome_trace`) emits the trace-event JSON
format that Perfetto and ``chrome://tracing`` load.  Wall-clock spans
(job/phase/scan) become B/E duration pairs on one "wall clock" process;
simulated-clock task spans are laid out on a second "simulated cluster"
process with one thread lane per ``(node, slot)`` (reduce tasks get a
lane per partition), so the scheduler's packing is visible at a glance.
Faults and bus events are instant (``"i"``) markers.  The event array
is globally sorted by timestamp with End-before-Begin tie-breaking, so
every lane's B/E nesting is balanced in file order — the invariant the
tests assert.

**Prometheus** (:func:`prometheus_text`) renders any metric store in
the text exposition format: a live registry, a report's, or a
time-series store over a ``since``/``until`` range.  Names are
``repro_``-prefixed with a ``_total`` suffix on counters; a bucketed
histogram renders cumulative ``_bucket`` series, an exact-sample
``hist`` a summary.  :func:`parse_prometheus_text` is a small
validating parser used by the round-trip tests.
"""

from __future__ import annotations

import re
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.util.stats import percentile

_MICROS = 1_000_000.0

#: pid of the wall-clock span process in the Chrome trace
WALL_PID = 1
#: pid of the simulated-cluster process (one tid lane per node/slot)
SIM_PID = 2


def _span_depths(spans: List[dict]) -> Dict[int, int]:
    """Depth of each span in the parent tree (roots are depth 0)."""
    by_id = {span["id"]: span for span in spans}
    depths: Dict[int, int] = {}

    def depth_of(span_id: int) -> int:
        if span_id in depths:
            return depths[span_id]
        parent = by_id[span_id].get("parent")
        d = 0 if parent is None or parent not in by_id else depth_of(parent) + 1
        depths[span_id] = d
        return d

    for span in spans:
        depth_of(span["id"])
    return depths


def _sim_lane(span: dict) -> str:
    """The simulated-process thread lane a task span belongs on.

    Lanes must be sequential (no overlapping spans) for B/E pairs to
    balance: a scheduler slot runs one attempt at a time, and a reduce
    partition is one sequential task, so both qualify.
    """
    attrs = span.get("attrs", {})
    if span["name"] == "reduce_task" or "partition" in attrs:
        return f"reduce p{attrs.get('partition', '?')}"
    node = attrs.get("node")
    slot = attrs.get("slot")
    if node is not None:
        return f"node {node} slot {slot if slot is not None else 0}"
    return span.get("kind", "op")


def chrome_trace(report) -> dict:
    """Render a report as a Chrome trace-event JSON object.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` ready
    for ``json.dump``; load the file in Perfetto or chrome://tracing.
    """
    op_spans = [s for s in report.spans if s.get("kind") == "operator"]
    wall_spans = [
        s for s in report.spans
        if s.get("sim_start") is None and s.get("kind") != "operator"
    ]
    sim_spans = [s for s in report.spans if s.get("sim_start") is not None]
    depths = _span_depths(report.spans)
    t0 = min((s["wall_start"] for s in wall_spans), default=0.0)

    events: List[Tuple[float, int, int, dict]] = []

    def add(ts: float, phase: str, depth: int, record: dict) -> None:
        # Sort key: ts, then End before Begin/instant at equal ts, then
        # deeper Ends first / shallower Begins first — this keeps B/E
        # nesting balanced per lane in file order.
        if phase == "E":
            rank, tie = 0, -depth
        else:
            rank, tie = 1, depth
        record = {"ts": ts, "ph": phase, **record}
        events.append((ts, rank, tie, record))

    for span in wall_spans:
        args = dict(span.get("attrs", {}))
        args["span_id"] = span["id"]
        base = {
            "name": span["name"],
            "cat": span.get("kind", "op"),
            "pid": WALL_PID,
            "tid": 1,
            "args": args,
        }
        depth = depths.get(span["id"], 0)
        start = (span["wall_start"] - t0) * _MICROS
        end = (span["wall_end"] - t0) * _MICROS
        if end <= start:
            add(start, "i", depth, {**base, "s": "t"})
        else:
            add(start, "B", depth, base)
            add(end, "E", depth, {k: base[k] for k in ("name", "cat", "pid", "tid")})

    lanes: Dict[str, int] = {}
    for span in sim_spans:
        lane = _sim_lane(span)
        tid = lanes.setdefault(lane, len(lanes) + 1)
        args = dict(span.get("attrs", {}))
        args["span_id"] = span["id"]
        base = {
            "name": span["name"],
            "cat": span.get("kind", "op"),
            "pid": SIM_PID,
            "tid": tid,
            "args": args,
        }
        start = span["sim_start"] * _MICROS
        duration = span.get("sim_duration") or 0.0
        if duration <= 0:
            add(start, "i", 0, {**base, "s": "t"})
        else:
            add(start, "B", 0, base)
            add(
                start + duration * _MICROS, "E", 0,
                {k: base[k] for k in ("name", "cat", "pid", "tid")},
            )

    # Operator-profile spans have a simulated *duration* but no start
    # (they annotate time already inside a task span).  Give each
    # engine its own lane and lay its operators out back-to-back in
    # pipeline order, as "X" complete events, so relative operator
    # cost is visible at a glance without perturbing the task lanes.
    cursors: Dict[str, float] = {}
    for span in op_spans:
        attrs = span.get("attrs", {})
        lane = f"operators:{attrs.get('engine', '?')}"
        tid = lanes.setdefault(lane, len(lanes) + 1)
        duration = (span.get("sim_duration") or 0.0) * _MICROS
        start = cursors.get(lane, 0.0)
        cursors[lane] = start + duration
        args = dict(attrs)
        args["span_id"] = span["id"]
        add(start, "X", 0, {
            "name": span["name"],
            "cat": "operator",
            "pid": SIM_PID,
            "tid": tid,
            "dur": duration,
            "args": args,
        })

    for record in getattr(report, "events", []):
        sim = record.get("sim")
        ts = sim * _MICROS if sim is not None else (
            (record.get("wall", 0.0) - t0) * _MICROS
        )
        pid = SIM_PID if sim is not None else WALL_PID
        add(max(ts, 0.0), "i", 0, {
            "name": record.get("kind", "event"),
            "cat": "event",
            "pid": pid,
            "tid": 0,
            "s": "p",
            "args": dict(record.get("attrs", {})),
        })

    meta_events = [
        {"ph": "M", "pid": WALL_PID, "tid": 0, "ts": 0,
         "name": "process_name", "args": {"name": "wall clock"}},
        {"ph": "M", "pid": SIM_PID, "tid": 0, "ts": 0,
         "name": "process_name", "args": {"name": "simulated cluster"}},
    ]
    for lane, tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        meta_events.append({
            "ph": "M", "pid": SIM_PID, "tid": tid, "ts": 0,
            "name": "thread_name", "args": {"name": lane},
        })

    events.sort(key=lambda item: item[:3])
    return {
        "traceEvents": meta_events + [record for *_key, record in events],
        "displayTimeUnit": "ms",
        "otherData": dict(report.meta) if report.meta else {},
    }


# -- Prometheus text exposition ---------------------------------------

_NAME_PREFIX = "repro_"
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, kind: str) -> str:
    base = _NAME_PREFIX + _INVALID_CHARS.sub("_", name)
    if kind == "counter" and not base.endswith("_total"):
        base += "_total"
    return base


def _prom_label_value(value: object) -> str:
    text = str(value)
    text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


def _prom_labels(labels: Dict[str, object], extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f"{_INVALID_CHARS.sub('_', str(k))}={_prom_label_value(v)}"
        for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


#: metric kind -> its Prometheus type
_PROM_TYPES = {
    "counter": "counter", "gauge": "gauge", "histogram": "histogram",
    "hist": "summary",
}


def _prom_samples(kind: str, value) -> List[Tuple[str, Optional[dict], float]]:
    """What one metric exposes, as ``(suffix, extra labels, value)``:
    a counter or gauge its value (nothing for a gauge with no value in
    the range), a bucketed histogram its cumulative ``_bucket`` counts,
    an exact-sample ``hist`` a summary's quantiles."""
    if kind == "histogram":
        cumulative = list(accumulate(value.counts))
        edges = [_format_value(float(b)) for b in value.boundaries] + ["+Inf"]
        return [
            ("_bucket", {"le": le}, count)
            for le, count in zip(edges, cumulative)
        ] + [("_sum", None, value.total), ("_count", None, cumulative[-1])]
    if kind == "hist":
        return [
            ("", {"quantile": quantile}, percentile(value, p))
            for quantile, p in (("0.5", 50), ("0.95", 95), ("0.99", 99))
        ] + [("_sum", None, float(sum(value))), ("_count", None, len(value))]
    return [] if value is None else [("", None, value)]


def prometheus_text(
    source, since: Optional[float] = None, until: Optional[float] = None,
) -> str:
    """Render a metric store as Prometheus text exposition.

    ``source`` is a ``MetricRegistry``, anything holding one as
    ``.registry`` (a ``RunReport``, a recorder), or a
    ``TimeSeriesStore``, whose counters expose their totals over
    simulated ``since..until``, gauges the last value in it and
    exact-sample series a summary of the pooled range.
    """
    store = getattr(source, "registry", source)
    # Group by (exposed name, kind) so each family gets one TYPE line.
    families: Dict[Tuple[str, str], List[Tuple[dict, object]]] = {}
    for name, labels, metric in store:
        exposed = _prom_name(name, _PROM_TYPES[metric.kind])
        families.setdefault((exposed, metric.kind), []).append(
            (dict(labels), store.reading(metric, since, until))
        )
    lines: List[str] = []
    for (exposed, kind), members in sorted(families.items()):
        lines.append(f"# TYPE {exposed} {_PROM_TYPES[kind]}")
        lines.extend(
            f"{exposed}{suffix}{_prom_labels(labels, extra)}"
            f" {_format_value(value)}"
            for labels, reading in members
            for suffix, extra, value in _prom_samples(kind, reading)
        )
    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[-+0-9.eE]+|[-+]?Inf|NaN)\s*$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


class PromSample:
    """One parsed exposition sample."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str], value: float):
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:
        return f"PromSample({self.name!r}, {self.labels!r}, {self.value!r})"


def parse_prometheus_text(text: str) -> Tuple[Dict[str, str], List[PromSample]]:
    """Parse (and validate) Prometheus text exposition.

    Returns ``(types, samples)`` where ``types`` maps family name to
    declared type.  Raises ``ValueError`` on malformed lines — the
    round-trip tests lean on this as a format validator.
    """
    types: Dict[str, str] = {}
    samples: List[PromSample] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            pos = 0
            while pos < len(raw):
                lmatch = _LABEL_RE.match(raw, pos)
                if not lmatch:
                    raise ValueError(
                        f"line {lineno}: malformed labels: {raw!r}"
                    )
                labels[lmatch.group("key")] = (
                    lmatch.group("value")
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                pos = lmatch.end()
                if pos < len(raw):
                    if raw[pos] != ",":
                        raise ValueError(
                            f"line {lineno}: malformed labels: {raw!r}"
                        )
                    pos += 1
        value_text = match.group("value")
        value = float(value_text)
        family = match.group("name")
        for suffix in ("_bucket", "_sum", "_count"):
            if family.endswith(suffix) and family[: -len(suffix)] in types:
                family = family[: -len(suffix)]
                break
        if family not in types:
            raise ValueError(
                f"line {lineno}: sample {family!r} has no TYPE declaration"
            )
        samples.append(PromSample(match.group("name"), labels, value))
    return types, samples


def validate_chrome_trace(trace: dict) -> List[str]:
    """Check trace-event invariants; returns a list of violations.

    Used by tests and ``repro export --check``: per-(pid, tid) lane,
    B/E events must balance like parentheses, and timestamps must be
    monotonically non-decreasing in file order.
    """
    problems: List[str] = []
    events = trace.get("traceEvents", [])
    stacks: Dict[Tuple[int, int], List[str]] = {}
    last_ts: Optional[float] = None
    for i, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            continue
        ts = event.get("ts")
        if ts is None:
            problems.append(f"event {i}: missing ts")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"event {i}: ts {ts} < previous {last_ts} (not monotonic)"
            )
        last_ts = ts
        lane = (event.get("pid"), event.get("tid"))
        if phase == "B":
            stacks.setdefault(lane, []).append(event.get("name", "?"))
        elif phase == "E":
            stack = stacks.setdefault(lane, [])
            if not stack:
                problems.append(
                    f"event {i}: E {event.get('name')!r} with empty stack"
                    f" on lane {lane}"
                )
            else:
                opened = stack.pop()
                if opened != event.get("name"):
                    problems.append(
                        f"event {i}: E {event.get('name')!r} closes"
                        f" B {opened!r} on lane {lane}"
                    )
    for lane, stack in stacks.items():
        if stack:
            problems.append(f"lane {lane}: unclosed spans {stack}")
    return problems
