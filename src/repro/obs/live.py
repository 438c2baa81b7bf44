"""The live job monitor behind ``repro top``.

A :class:`LiveMonitor` is just another event-bus subscriber: attach it
to a :class:`~repro.obs.recorder.FlightRecorder`'s bus before running a
job and it maintains a rolling picture of the run — per-node slot
occupancy, map/reduce phase progress bars, active fault injections,
replica failovers — and emits ASCII frames at a wall-clock ``refresh``
interval (clock injectable, so tests drive frames deterministically).

On a TTY each frame repaints in place (ANSI home+clear); on anything
else (CI logs, pipes) frames append, separated by a rule.  With
``quiet`` only the final summary frame is emitted.  The same monitor
replays recorded runs: ``EventBus.replay(report.events)`` feeds it a
saved artifact's events, with frames forced every ``frame_every``
events instead of by wall time (``repro top --replay run.jsonl``).

The per-tenant job tallies are not counted here: every event is folded
into a :class:`~repro.obs.tsdb.TimeSeriesStore` the monitor owns, and
the tenant table and job totals are ``counter_total`` queries on it —
the same counters :func:`~repro.obs.tsdb.reconcile_tsdb` proves equal
to the cluster report.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.obs.events import Event, EventBus
from repro.obs.tsdb import TENANT_COUNTERS, TimeSeriesStore
from repro.util.term import PLAIN, Palette

_CLEAR = "\x1b[H\x1b[2J"


def _bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "[" + " " * width + "]    -/-"
    filled = min(width, int(width * done / total))
    return (
        "[" + "#" * filled + "." * (width - filled) + f"] {done:>4}/{total}"
    )


class LiveMonitor:
    """Streaming cluster/job view fed by bus events."""

    def __init__(
        self,
        out: Callable[[str], None],
        refresh: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        pal: Optional[Palette] = None,
        tty: bool = False,
        quiet: bool = False,
        frame_every: Optional[int] = None,
    ) -> None:
        self._out = out
        self.refresh = refresh
        self._clock = clock
        self.pal = pal if pal is not None else PLAIN
        self.tty = tty
        self.quiet = quiet
        #: in replay mode, force a frame every N events (wall time is
        #: meaningless for a recorded run)
        self.frame_every = frame_every
        self._last_frame: Optional[float] = None
        self.frames = 0

        # -- run state, folded from events ----------------------------
        self.job: Optional[str] = None
        self.finished = False
        self.total_time: Optional[float] = None
        self.phase = "-"
        self.map_total = 0
        self.map_done = 0
        self.map_failed = 0
        self.reduce_total = 0
        self.reduce_done = 0
        self.running: Dict[Tuple[int, int], str] = {}  # (node, slot) -> split
        self.dead_nodes: Set[int] = set()
        self.blacklisted: Set[int] = set()
        self.active_faults: List[str] = []
        self.failovers = 0
        self.speculative = 0
        self.events_seen = 0
        self.by_kind: Dict[str, int] = {}
        self.sim_now = 0.0

        # -- multi-job (cluster manager) state -------------------------
        self.cluster_mode = False
        self.cluster_policy: Optional[str] = None
        self.jobs_total = 0
        self.utilization: Optional[float] = None
        #: every event folded on the simulated clock: the tenant tallies
        self.store = TimeSeriesStore()
        #: tenant -> queue, from the first event naming both
        self.queues: Dict[str, str] = {}
        #: alert name -> lifecycle state (pending | firing), from
        #: alert.* events emitted by the AlertEngine on the same bus
        self.alert_states: Dict[str, str] = {}
        #: slo name -> last slo.status payload seen
        self.slo_statuses: Dict[str, Dict[str, object]] = {}

    # -- bus plumbing --------------------------------------------------

    def attach(self, bus: EventBus) -> "LiveMonitor":
        bus.subscribe(self)
        return self

    def __call__(self, event: Event) -> None:
        self._fold(event)
        self.events_seen += 1
        if self.quiet:
            return
        if self.frame_every is not None:
            if self.events_seen % self.frame_every == 0:
                self.emit_frame()
            return
        now = self._clock()
        if self._last_frame is None or now - self._last_frame >= self.refresh:
            self._last_frame = now
            self.emit_frame()

    # -- event folding -------------------------------------------------

    def _fold(self, event: Event) -> None:
        kind = event.kind
        attrs = event.attrs
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.store.fold_event(event)
        tenant = attrs.get("tenant")
        if tenant is not None and "queue" in attrs:
            self.queues.setdefault(tenant, attrs["queue"])
        if event.sim_time is not None:
            self.sim_now = max(self.sim_now, event.sim_time)
        if kind == "job.start":
            self.job = attrs.get("job")
        elif kind == "cluster.start":
            self.cluster_mode = True
            self.cluster_policy = attrs.get("policy")
            self.jobs_total = attrs.get("jobs", 0)
        elif kind == "cluster.finish":
            self.finished = True
            self.total_time = attrs.get("makespan")
            self.utilization = attrs.get("utilization")
        elif kind == "admission.accept":
            # The manager reports split counts at admission; map totals
            # accumulate across jobs instead of being per-phase.
            self.map_total += attrs.get("splits", 0)
        elif kind == "job.finish" and tenant is None:
            # a single job's end; a tenant's job is a tally in the store
            self.finished = True
            self.total_time = attrs.get("total_time")
        elif kind in ("alert.pending", "alert.firing", "alert.resolved"):
            name = attrs.get("alert", "?")
            if kind == "alert.resolved":
                self.alert_states.pop(name, None)
            else:
                self.alert_states[name] = kind.split(".", 1)[1]
        elif kind == "slo.status":
            name = attrs.get("slo")
            if name is not None:
                self.slo_statuses[name] = dict(attrs)
        elif kind == "phase.start":
            self.phase = attrs.get("phase", "?")
            if self.phase == "map":
                self.map_total = attrs.get("splits", 0)
            elif self.phase == "reduce":
                if self.cluster_mode:
                    self.reduce_total += attrs.get("reducers", 0)
                else:
                    self.reduce_total = attrs.get("reducers", 0)
        elif kind == "phase.finish":
            self.phase = f"{attrs.get('phase', '?')} done"
        elif kind == "task.start":
            node, slot = attrs.get("node"), attrs.get("slot")
            if node is not None:
                self.running[(node, slot)] = attrs.get("split", "?")
        elif kind == "task.finish":
            node, slot = attrs.get("node"), attrs.get("slot")
            self.running.pop((node, slot), None)
            if attrs.get("kind") == "reduce":
                self.reduce_done += 1
            elif attrs.get("outcome") == "ok":
                self.map_done += 1
            elif attrs.get("outcome") not in ("preempted", "killed"):
                # an eviction or a speculative race's loser is not a
                # failure; an attempt lost with its node is
                self.map_failed += 1
        elif kind == "task.speculative":
            self.speculative += 1
        elif kind == "fault.injected":
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(attrs.items()) if k != "fault"
            )
            label = attrs.get("fault", "?")
            self.active_faults.append(
                f"{label}({detail})" if detail else label
            )
        elif kind == "node.lost":
            node = attrs.get("node")
            if node is not None:
                self.dead_nodes.add(node)
        elif kind == "node.blacklisted":
            node = attrs.get("node")
            if node is not None:
                self.blacklisted.add(node)
        elif kind == "replica.failover":
            self.failovers += 1

    # -- rendering ------------------------------------------------------

    def tenant_rows(self) -> Dict[str, Dict[str, int]]:
        """``tenant -> {store counter: total}`` for every tenant with a
        tally, the counters of the tenant table's columns."""
        rows = {
            tenant: {
                series: int(self.store.counter_total(series, tenant=tenant))
                for series, *_ in TENANT_COUNTERS
            }
            for tenant in sorted(self.queues)
        }
        return {
            tenant: row for tenant, row in rows.items() if any(row.values())
        }

    def render_frame(self) -> str:
        pal = self.pal
        rows = self.tenant_rows()
        total = {
            header: sum(row[series] for row in rows.values())
            for series, _, header, _ in TENANT_COUNTERS
        }
        status = "FINISHED" if self.finished else f"phase: {self.phase}"
        if self.finished and self.total_time is not None:
            status += f" in {self.total_time:.3f}s (simulated)"
        if self.cluster_mode:
            head = pal.bold(
                f"repro top — cluster policy={self.cluster_policy or '?'}"
            ) + (
                f"  [{status}]"
                f"  jobs {total['done']}/{self.jobs_total}"
            )
            if total["rej"]:
                head += f"  rejected={total['rej']}"
            if total["shed"]:
                head += f"  shed={total['shed']}"
            if total["miss"]:
                head += pal.yellow(f"  misses={total['miss']}")
            if total["fail"]:
                head += pal.red(f"  failed={total['fail']}")
            if self.utilization is not None:
                head += f"  utilization={self.utilization:.1%}"
        else:
            head = pal.bold(
                f"repro top — job: {self.job or '-'}"
            ) + f"  [{status}]"
        lines = [
            head
            + f"  sim t={self.sim_now:.3f}s"
            + f"  events={self.events_seen}",
            "  map    " + _bar(self.map_done, self.map_total)
            + (
                pal.red(f"  failed={self.map_failed}")
                if self.map_failed else ""
            )
            + (
                pal.yellow(f"  preempted={total['preempt']}")
                if total["preempt"] else ""
            ),
            "  reduce " + _bar(self.reduce_done, self.reduce_total),
        ]
        if rows:
            headers = "".join(
                f"{header:>{width}}" for _, _, header, width in TENANT_COUNTERS
            )
            lines.append(f"  {'tenant':<12}{'queue':<14}{headers}")
            for name, row in rows.items():
                cells = "".join(
                    f"{row[series]:>{width}}"
                    for series, _, _, width in TENANT_COUNTERS
                )
                lines.append(f"  {name:<12}{self.queues[name]:<14}{cells}")
        if self.slo_statuses:
            lines.append(
                f"  {'slo':<22}{'tenant':<12}{'compliance':>11}"
                f"{'burn':>7}{'budget':>8}  state"
            )
            for name in sorted(self.slo_statuses):
                s = self.slo_statuses[name]
                healthy = bool(s.get("healthy", True))
                state = pal.green("OK") if healthy else pal.red("BREACH")
                lines.append(
                    f"  {name:<22}{str(s.get('tenant', '?')):<12}"
                    f"{float(s.get('compliance', 1.0)):>11.4f}"
                    f"{float(s.get('burn_rate', 0.0)):>7.2f}"
                    f"{float(s.get('budget_remaining', 1.0)):>8.2f}"
                    f"  {state}"
                )
        if self.alert_states:
            firing = sorted(
                n for n, s in self.alert_states.items() if s == "firing"
            )
            pending = sorted(
                n for n, s in self.alert_states.items() if s == "pending"
            )
            parts = []
            if firing:
                parts.append(pal.red("firing: " + ", ".join(firing)))
            if pending:
                parts.append(pal.yellow("pending: " + ", ".join(pending)))
            lines.append("  alerts " + "; ".join(parts))

        if self.running:
            per_node: Dict[int, List[str]] = {}
            for (node, _slot), split in sorted(self.running.items()):
                per_node.setdefault(node, []).append(split)
            lines.append("  busy slots:")
            for node in sorted(per_node):
                splits = per_node[node]
                lines.append(
                    f"    node {node:>3}  "
                    + "".join("▣" for _ in splits)
                    + "  " + ", ".join(splits[:3])
                    + (" …" if len(splits) > 3 else "")
                )
        if self.dead_nodes or self.blacklisted:
            parts = []
            if self.dead_nodes:
                parts.append(
                    "dead: " + ",".join(map(str, sorted(self.dead_nodes)))
                )
            if self.blacklisted:
                parts.append(
                    "blacklisted: "
                    + ",".join(map(str, sorted(self.blacklisted)))
                )
            lines.append("  " + pal.red("nodes " + "; ".join(parts)))
        if self.active_faults:
            lines.append(
                "  " + pal.yellow(
                    "faults injected: " + "; ".join(self.active_faults)
                )
            )
        extras = []
        if self.failovers:
            extras.append(f"replica failovers={self.failovers}")
        if self.speculative:
            extras.append(f"speculative launches={self.speculative}")
        if extras:
            lines.append("  " + ", ".join(extras))
        return "\n".join(lines)

    def emit_frame(self) -> None:
        self.frames += 1
        if self.tty:
            self._out(_CLEAR + self.render_frame())
        else:
            if self.frames > 1:
                self._out("-" * 64)
            self._out(self.render_frame())

    def final(self) -> None:
        """Emit the closing frame (always, even with ``quiet``)."""
        self.frames += 1
        if self.tty:
            self._out(_CLEAR + self.render_frame())
        else:
            if self.frames > 1 and not self.quiet:
                self._out("-" * 64)
            self._out(self.render_frame())
        summary = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.by_kind.items())
        )
        self._out(f"event totals: {summary or '(none)'}")
