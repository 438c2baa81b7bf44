"""Performance analysis over :class:`~repro.obs.recorder.RunReport`\\ s.

The flight recorder captures *what happened* — a span tree on the
simulated clock plus byte/seek counters.  This module explains it:

- :func:`critical_path` — the chain of spans that determines the run's
  simulated wall time (slot-chains through scheduled task spans,
  sequential descent through nested scan spans).  The summed step
  contributions equal the run's simulated time by construction.
- :func:`timeline` / :func:`render_timeline` — a per-(node, slot)
  Gantt chart of scheduled task attempts on the simulated clock.
- :func:`detect_stragglers` — task-duration outliers vs. sibling
  tasks, each labeled with its dominant cost (seeks, network bytes,
  disk transfer, or CPU).
- :func:`partition_skew` — duration/record imbalance across sibling
  task groups (map splits, reduce partitions).
- :func:`io_breakdown` — per-format/per-column requested vs. disk vs.
  net bytes, readahead waste, and seeks, from the stream-probe
  counters; this is the "why is RCFile slower than CIF here" table.
- :func:`diff_runs` — metric-by-metric and span-by-span comparison of
  two reports with noise tolerances, classifying each delta as a
  regression, an improvement, or neutral drift.

Everything works on the *serialized* artifact (``RunReport`` loaded
from JSONL), so a run can be analyzed long after — and far away from —
the process that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.util.compare import Diff, compare

#: float slack when chaining simulated task intervals
_EPS = 1e-9

#: sibling groups smaller than this give a straggler no baseline
_MIN_STRAGGLER_GROUP = 4

#: absolute delta below which two runs' series are the same number
_ABS_TOL = 1e-9

#: sim.Metrics fields whose growth between runs is a cost regression
_COST_METRICS = (
    "disk_bytes", "net_bytes", "requested_bytes", "seeks",
    "io_time", "cpu_time",
)

#: sim.Metrics fields that only indicate drift (output shape changed)
_DRIFT_METRICS = ("records", "cells", "objects")

#: registry-counter name fragments that measure physical cost
_COST_COUNTER_MARKERS = (
    "bytes", "seeks", "fetches", "spill", "shuffle", "blocks",
)


# ---------------------------------------------------------------------------
# span tree


class SpanNode:
    """One span of a loaded report, linked into the tree."""

    __slots__ = (
        "span", "children", "_sim_time", "span_id", "name", "kind",
        "attrs", "sim_start", "sim_duration",
    )

    def __init__(self, span: dict) -> None:
        self.span = span
        self.children: List["SpanNode"] = []
        self._sim_time: Optional[float] = None
        # the span's fields, read once
        self.span_id: int = span["id"]
        self.name: str = span["name"]
        self.kind: str = span.get("kind", "op")
        self.attrs: dict = span.get("attrs", {})
        self.sim_start: Optional[float] = span.get("sim_start")
        self.sim_duration: Optional[float] = span.get("sim_duration")

    @property
    def sim_end(self) -> Optional[float]:
        if self.sim_start is None or self.sim_duration is None:
            return None
        return self.sim_start + self.sim_duration

    def label(self) -> str:
        extra = ""
        for key in ("split", "experiment", "job", "partition", "dataset"):
            if key in self.attrs:
                extra = f" {key}={self.attrs[key]}"
                break
        return f"{self.name}#{self.span_id} ({self.kind}){extra}"

    # -- timing model --------------------------------------------------

    def scheduled_children(self) -> List["SpanNode"]:
        """Children replayed on the simulated clock (explicit interval)."""
        return [
            c for c in self.children
            if c.kind != "operator"
            and c.sim_start is not None and (c.sim_duration or 0.0) > 0.0
        ]

    def sequential_children(self) -> List["SpanNode"]:
        """Nested ``with``-spans: they ran inline, one after another.

        Operator-profile spans are annotations *within* a task's
        already-counted time, not additional work — they are excluded
        from the timing model entirely (here and in
        :meth:`scheduled_children`/:meth:`sim_time`) so profiling a run
        does not perturb its critical path or timeline.
        """
        return [
            c for c in self.children
            if c.kind != "operator" and c.sim_start is None
        ]

    def sim_time(self) -> float:
        """The span's simulated wall extent.

        Scheduled children (tasks placed by the scheduler) run in
        parallel, so a phase containing them spans their makespan;
        otherwise the span's own metrics delta, falling back to the sum
        of its children for pure containers like the CLI's
        ``experiment`` span.
        """
        if self._sim_time is None:
            scheduled = self.scheduled_children()
            if scheduled:
                self._sim_time = max(c.sim_end for c in scheduled)
            elif self.sim_duration is not None:
                self._sim_time = self.sim_duration
            else:
                self._sim_time = sum(
                    c.sim_time() for c in self.children
                    if c.kind != "operator"
                )
        return self._sim_time


def build_tree(report) -> List[SpanNode]:
    """Link a report's flat span list into trees; returns the roots."""
    nodes: Dict[int, SpanNode] = {
        span["id"]: SpanNode(span) for span in report.spans
    }
    roots: List[SpanNode] = []
    for span in report.spans:
        node = nodes[span["id"]]
        parent = span.get("parent")
        if parent is not None and parent in nodes:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    return roots


def _virtual_root(roots: Sequence[SpanNode]) -> SpanNode:
    """A synthetic parent treating top-level spans as sequential."""
    root = SpanNode({"id": 0, "parent": None, "name": "run", "kind": "run"})
    root.children = list(roots)
    return root


def _resolve_root(report, root_id: Optional[int]) -> SpanNode:
    roots = build_tree(report)
    if root_id is not None:
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node.span_id == root_id:
                return node
            stack.extend(node.children)
        raise ValueError(f"no span with id {root_id} in this report")
    if len(roots) == 1:
        return roots[0]
    return _virtual_root(roots)


# ---------------------------------------------------------------------------
# critical path


@dataclass
class PathStep:
    """One contribution to the critical path."""

    node: Optional[SpanNode]   # None for synthetic idle time
    sim_time: float
    note: str = ""             # "", "self", or "idle"

    def label(self) -> str:
        if self.node is None:
            return "(slot idle)"
        base = self.node.label()
        return f"{base} [{self.note}]" if self.note else base


@dataclass
class CriticalPath:
    """The dominant chain: steps sum to the root's simulated time."""

    root: SpanNode
    steps: List[PathStep]

    @property
    def total(self) -> float:
        return sum(step.sim_time for step in self.steps)

    @property
    def root_time(self) -> float:
        return self.root.sim_time()

    @property
    def coverage(self) -> float:
        """total / root simulated time (1.0 when fully attributed)."""
        return self.total / self.root_time if self.root_time else 1.0

    def render(self, top: int = 30) -> str:
        lines = [
            "Critical path (simulated clock): "
            f"{self.total:.6f} s attributed of {self.root_time:.6f} s "
            f"run time ({self.coverage * 100:.2f}%)"
        ]
        shown = sorted(self.steps, key=lambda s: s.sim_time, reverse=True)
        width = max((len(s.label()) for s in shown[:top]), default=10)
        for step in shown[:top]:
            share = (
                step.sim_time / self.total * 100 if self.total else 0.0
            )
            lines.append(
                f"  {step.label().ljust(width)}  "
                f"{step.sim_time:>12.6f} s  {share:>5.1f}%"
            )
        if len(shown) > top:
            rest = sum(s.sim_time for s in shown[top:])
            lines.append(
                f"  {'... ' + str(len(shown) - top) + ' more steps':{width}}"
                f"  {rest:>12.6f} s"
            )
        return "\n".join(lines)


def _slot_chain(tasks: List[SpanNode]) -> Tuple[List[SpanNode], float]:
    """The busy chain ending at the last-finishing scheduled task.

    Walks backwards from the task that determines the makespan,
    preferring predecessors on the same (node, slot) — the slot the
    final task waited for — and falling back to any task finishing by
    the current start.  Returns ``(chain, idle)`` where ``idle`` is the
    part of the makespan not covered by chain work.
    """
    last = max(tasks, key=lambda t: (t.sim_end, t.sim_duration))
    chain = [last]
    current = last
    while current.sim_start > _EPS:
        preds = [
            t for t in tasks
            if t is not current
            and t not in chain
            and t.sim_end <= current.sim_start + _EPS
        ]
        if not preds:
            break
        same_slot = [
            t for t in preds
            if t.attrs.get("node") == current.attrs.get("node")
            and t.attrs.get("slot") == current.attrs.get("slot")
        ]
        pool = same_slot or preds
        chain.append(max(pool, key=lambda t: (t.sim_end, t.sim_duration)))
        current = chain[-1]
    chain.reverse()
    makespan = max(t.sim_end for t in tasks)
    idle = makespan - sum(t.sim_duration for t in chain)
    return chain, max(0.0, idle)


def _path_of(node: SpanNode) -> List[PathStep]:
    steps: List[PathStep] = []
    scheduled = node.scheduled_children()
    if scheduled:
        chain, idle = _slot_chain(scheduled)
        for task in chain:
            steps.append(PathStep(task, task.sim_duration))
        if idle > _EPS:
            steps.append(PathStep(None, idle, note="idle"))
        return steps
    sequential = node.sequential_children()
    child_total = 0.0
    for child in sequential:
        child_time = child.sim_time()
        if child_time <= _EPS:
            continue
        steps.extend(_path_of(child))
        child_total += child_time
    if node.sim_duration is not None:
        self_time = node.sim_duration - child_total
        if self_time > _EPS:
            note = "self" if node.children else ""
            steps.append(PathStep(node, self_time, note=note))
    elif not steps and node.sim_time() > _EPS:
        steps.append(PathStep(node, node.sim_time()))
    return steps


def critical_path(report, root_id: Optional[int] = None) -> CriticalPath:
    """The chain of spans that determines the run's simulated time.

    With no ``root_id`` the whole run is analyzed (a virtual root over
    every top-level span).  The returned steps' summed ``sim_time``
    equals the root's simulated wall time: phases with scheduler-placed
    tasks contribute their dominant slot-chain (plus explicit idle
    gaps), nested inline spans contribute their metric deltas, and a
    parent's unattributed remainder appears as a ``self`` step.
    """
    root = _resolve_root(report, root_id)
    return CriticalPath(root=root, steps=_path_of(root))


# ---------------------------------------------------------------------------
# timeline (Gantt)


@dataclass
class Lane:
    """One slot's (or reduce partition's) task sequence."""

    key: str
    tasks: List[SpanNode]


def timeline(report) -> List[Lane]:
    """Scheduled task spans grouped into per-(node, slot) lanes."""
    lanes: Dict[Tuple, List[SpanNode]] = {}
    for root in build_tree(report):
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.kind != "task" or node.sim_start is None:
                continue
            attrs = node.attrs
            if "partition" in attrs:
                key = (1, "reduce", attrs["partition"], "")
                label = f"reduce p{attrs['partition']}"
            else:
                key = (0, attrs.get("node", -1), attrs.get("slot", -1), "")
                label = (
                    f"node {attrs.get('node', '?')} "
                    f"slot {attrs.get('slot', '?')}"
                )
            lanes.setdefault((key, label), []).append(node)
    out = []
    for (key, label), tasks in sorted(lanes.items(), key=lambda kv: kv[0][0]):
        tasks.sort(key=lambda t: (t.sim_start, t.sim_end))
        out.append(Lane(key=label, tasks=tasks))
    return out


def render_timeline(report, width: int = 64, pal=None) -> str:
    """ASCII Gantt chart of task attempts on the simulated clock.

    Normal attempts alternate ``#``/``=`` so adjacent tasks on one slot
    stay distinguishable; failed attempts draw ``x``, speculative
    duplicates ``s``, and attempts killed by a speculative race ``k``.
    ``pal`` (a :class:`repro.util.term.Palette`) colors failures red and
    speculation yellow; the default PLAIN palette changes nothing.
    """
    from repro.util.term import PLAIN

    pal = pal if pal is not None else PLAIN
    lanes = timeline(report)
    if not lanes:
        return (
            "(no scheduled task spans — the timeline needs a job run, "
            "not a bare scan)"
        )
    t_max = max(t.sim_end for lane in lanes for t in lane.tasks)
    if t_max <= 0:
        return "(all task spans have zero simulated duration)"
    label_width = max(len(lane.key) for lane in lanes)
    lines = [
        f"Task timeline (simulated clock, 0 .. {t_max:.6f} s, "
        f"{sum(len(l.tasks) for l in lanes)} attempts)"
    ]
    for lane in lanes:
        row = ["."] * width
        for index, task in enumerate(lane.tasks):
            attrs = task.attrs
            if attrs.get("failed"):
                char = "x"
            elif attrs.get("killed"):
                char = "k"
            elif attrs.get("speculative"):
                char = "s"
            else:
                char = "#" if index % 2 == 0 else "="
            lo = int(task.sim_start / t_max * (width - 1))
            hi = int(task.sim_end / t_max * (width - 1))
            for i in range(lo, max(hi, lo + 1)):
                row[i] = char
        cells = "".join(
            pal.red(c) if c == "x"
            else pal.yellow(c) if c in ("s", "k")
            else c
            for c in row
        )
        lines.append(f"  {lane.key.ljust(label_width)} |{cells}|")
    lines.append(
        "  legend: #/= attempts, x failed, s speculative, k killed, . idle"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# stragglers and skew


@dataclass
class Straggler:
    """A task attempt notably slower than its siblings."""

    node: SpanNode
    duration: float
    median: float
    factor: float
    dominant_cost: str
    detail: str

    def render(self) -> str:
        return (
            f"{self.node.label()}: {self.duration:.6f} s = "
            f"{self.factor:.2f}x the sibling median ({self.median:.6f} s); "
            f"dominant cost: {self.dominant_cost} ({self.detail})"
        )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _dominant_cost(task: SpanNode, group: List[SpanNode]) -> Tuple[str, str]:
    """Name the cost axis that makes ``task`` slower than its siblings."""
    span = task.span
    io_excess = (span.get("sim_io") or 0.0) - _median(
        [t.span.get("sim_io") or 0.0 for t in group]
    )
    cpu_excess = (span.get("sim_cpu") or 0.0) - _median(
        [t.span.get("sim_cpu") or 0.0 for t in group]
    )
    if cpu_excess > io_excess:
        return (
            "cpu",
            f"+{cpu_excess:.6f} s deserialization/decompression over median",
        )
    attrs = task.attrs

    def excess(key: str) -> float:
        med = _median([t.attrs.get(key, 0) for t in group])
        return attrs.get(key, 0) - med

    net = excess("net_bytes")
    disk = excess("disk_bytes")
    seeks = excess("seeks")
    if net > 0 and net >= disk:
        where = " (remote read)" if not attrs.get("data_local", True) else ""
        return "net bytes", f"+{int(net):,} B over the network{where}"
    if seeks > 0 and disk <= 0:
        return "seeks", f"+{int(seeks)} disk seeks over median"
    if disk > 0:
        return "disk transfer", f"+{int(disk):,} B from disk"
    return "io", f"+{io_excess:.6f} s of I/O time over median"


def detect_stragglers(report, threshold: float = 1.5) -> List[Straggler]:
    """Task attempts slower than ``threshold`` times the sibling median.

    Siblings are task spans of the same name (``map_task`` vs.
    ``reduce_task``); groups smaller than four have no meaningful
    baseline and are skipped, as are attempts killed in a
    speculative race (their duration was truncated, not earned).
    """
    groups: Dict[str, List[SpanNode]] = {}
    for lane in timeline(report):
        for task in lane.tasks:
            if task.attrs.get("killed"):
                continue
            groups.setdefault(task.name, []).append(task)
    out: List[Straggler] = []
    for name in sorted(groups):
        group = groups[name]
        if len(group) < _MIN_STRAGGLER_GROUP:
            continue
        median = _median([t.sim_duration for t in group])
        if median <= 0:
            continue
        for task in group:
            factor = task.sim_duration / median
            if factor <= threshold:
                continue
            cost, detail = _dominant_cost(task, group)
            out.append(Straggler(
                node=task,
                duration=task.sim_duration,
                median=median,
                factor=factor,
                dominant_cost=cost,
                detail=detail,
            ))
    out.sort(key=lambda s: s.factor, reverse=True)
    return out


@dataclass
class SkewGroup:
    """Duration/record imbalance across one sibling-task group."""

    name: str
    count: int
    min_duration: float
    median_duration: float
    max_duration: float
    records_min: int
    records_max: int

    @property
    def skew(self) -> float:
        """max/median duration — 1.0 means perfectly balanced."""
        if self.median_duration <= 0:
            return 1.0
        return self.max_duration / self.median_duration


def partition_skew(report) -> List[SkewGroup]:
    """Per-group imbalance stats for map splits and reduce partitions."""
    groups: Dict[str, List[SpanNode]] = {}
    for lane in timeline(report):
        for task in lane.tasks:
            if task.attrs.get("killed") or task.attrs.get("failed"):
                continue
            groups.setdefault(task.name, []).append(task)
    out = []
    for name in sorted(groups):
        group = groups[name]
        durations = [t.sim_duration for t in group]
        records = [t.attrs.get("records", 0) for t in group]
        out.append(SkewGroup(
            name=name,
            count=len(group),
            min_duration=min(durations),
            median_duration=_median(durations),
            max_duration=max(durations),
            records_min=min(records),
            records_max=max(records),
        ))
    return out


def render_stragglers(report, threshold: float = 1.5) -> str:
    stragglers = detect_stragglers(report, threshold=threshold)
    skews = partition_skew(report)
    lines = []
    if skews:
        lines.append("Task balance (surviving attempts)")
        for group in skews:
            lines.append(
                f"  {group.name}: n={group.count} "
                f"min={group.min_duration:.6f}s "
                f"med={group.median_duration:.6f}s "
                f"max={group.max_duration:.6f}s "
                f"skew={group.skew:.2f}x "
                f"records={group.records_min}..{group.records_max}"
            )
    if stragglers:
        lines.append(f"Stragglers (> {threshold:.2f}x sibling median)")
        for straggler in stragglers:
            lines.append("  " + straggler.render())
    elif skews:
        lines.append(f"No stragglers beyond {threshold:.2f}x the median.")
    if not lines:
        lines.append("(no task spans to analyze)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# per-format / per-column I/O breakdown


@dataclass
class BreakdownRow:
    """Byte/seek attribution for one (format, column) stream family."""

    format: str
    column: str
    requested: int = 0
    disk: int = 0
    net: int = 0
    seeks: int = 0
    fetches: int = 0

    @property
    def fetched(self) -> int:
        return self.disk + self.net

    @property
    def waste(self) -> int:
        """Readahead waste: fetched but never requested by the reader."""
        return self.fetched - self.requested


_BREAKDOWN_FIELDS = {
    "hdfs.bytes.requested": "requested",
    "hdfs.bytes.disk": "disk",
    "hdfs.bytes.net": "net",
    "hdfs.seeks": "seeks",
    "hdfs.fetches": "fetches",
}


def io_breakdown(report) -> List[BreakdownRow]:
    """Stream-probe counters folded into per-(format, column) rows."""
    rows: Dict[Tuple[str, str], BreakdownRow] = {}
    for name, attr in _BREAKDOWN_FIELDS.items():
        for labels, metric in report.registry.find(name):
            if metric.kind != "counter":
                continue
            labels = dict(labels)
            key = (labels.get("format", "?"), labels.get("column", "-"))
            row = rows.get(key)
            if row is None:
                row = rows[key] = BreakdownRow(format=key[0], column=key[1])
            setattr(row, attr, getattr(row, attr) + int(metric.value))
    return [rows[key] for key in sorted(rows)]


def render_breakdown(report) -> str:
    rows = io_breakdown(report)
    if not rows:
        return "(no stream-probe counters in this report)"
    headers = ("requested", "disk", "net", "waste", "seeks", "fetches")
    name_width = max(
        [len(f"{r.format}/{r.column}") for r in rows] + [len("TOTAL")]
    )
    lines = ["Per-format/column I/O breakdown (bytes)"]
    lines.append(
        "  " + "stream".ljust(name_width)
        + "".join(h.rjust(12) for h in headers)
    )
    total = BreakdownRow(format="", column="")
    for row in rows:
        for attr in ("requested", "disk", "net", "seeks", "fetches"):
            setattr(total, attr, getattr(total, attr) + getattr(row, attr))
        lines.append(
            f"  {(row.format + '/' + row.column).ljust(name_width)}"
            f"{row.requested:>12,}{row.disk:>12,}{row.net:>12,}"
            f"{row.waste:>12,}{row.seeks:>12,}{row.fetches:>12,}"
        )
    lines.append(
        f"  {'TOTAL'.ljust(name_width)}"
        f"{total.requested:>12,}{total.disk:>12,}{total.net:>12,}"
        f"{total.waste:>12,}{total.seeks:>12,}{total.fetches:>12,}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run diffing


def diff_runs(a, b, rel_tol: float = 0.01) -> Diff:
    """Compare two ``RunReport``\\ s metric-by-metric and span-by-span.

    Each run folds to ``metrics <field>``, ``counter <name>{labels}``,
    ``gauge <name>{labels}``, ``span <name>.count`` and ``span
    <name>.sim_time`` keys; a series one run lacks reads 0 there.  Wall
    clocks vary run to run by nature and are never compared.  Cost
    series (bytes, seeks, io/cpu/simulated time, cost counters) are
    lower-is-better, so their growth beyond ``rel_tol`` (and 1e-9) is a
    regression; everything else (record counts, logical counters, span
    counts) is drift, worth eyeballing but not a perf verdict.
    """
    series_a, series_b, cost = {}, {}, set()

    def add(key: str, x: float, y: float, is_cost: bool) -> None:
        series_a[key], series_b[key] = x, y
        if is_cost:
            cost.add(key)

    for name in _COST_METRICS + _DRIFT_METRICS:
        add(f"metrics {name}", a.metrics_total(name), b.metrics_total(name),
            name in _COST_METRICS)
    registry_a, registry_b = (
        {
            (metric.kind, name, json.dumps(dict(labels), sort_keys=True)):
            metric.value
            for name, labels, metric in report.registry
            if metric.kind != "histogram"
        }
        for report in (a, b)
    )
    for series in sorted(registry_a.keys() | registry_b.keys()):
        kind, name, labels = series
        add(
            f"{kind} {name}" + ("" if labels == "{}" else labels),
            registry_a.get(series, 0.0), registry_b.get(series, 0.0),
            kind == "counter" and any(
                marker in name for marker in _COST_COUNTER_MARKERS
            ),
        )
    spans_a, spans_b = a.span_totals(), b.span_totals()
    for name in sorted(spans_a.keys() | spans_b.keys()):
        count_a, time_a = spans_a.get(name, (0, 0.0))
        count_b, time_b = spans_b.get(name, (0, 0.0))
        add(f"span {name}.count", count_a, count_b, False)
        add(f"span {name}.sim_time", time_a, time_b, True)
    return compare(
        series_a, series_b,
        lambda key: "lower" if key in cost else "drift", rel_tol, _ABS_TOL,
    )


def render_run_diff(diff: Diff, rel_tol: float = 0.01) -> str:
    """``repro perf diff``: regressions, improvements, then drifts."""
    lines = [
        f"Run diff (rel_tol={rel_tol:g}, abs_tol={_ABS_TOL:g}): "
        f"{len(diff.regressions)} regression(s), "
        f"{len(diff.improvements)} improvement(s), "
        f"{len(diff.drifts)} drift(s)"
    ]
    for severity in ("regression", "improvement", "drift"):
        for entry in diff.of(severity):
            rel = f"{entry.rel * 100:+.2f}%" if entry.a else "new"
            lines.append(
                f"  [{severity}] {entry.key}: "
                f"{entry.a:g} -> {entry.b:g} ({rel})"
            )
    if len(lines) == 1:
        lines.append("  runs are equivalent within tolerance")
    return "\n".join(lines)
