"""The alert-rule engine: thresholds, absence, multi-window burn rate.

Rules are declarative and JSON-serializable (they ride in the traffic
profile next to the SLO declarations) and the engine is evaluated on
the **simulated clock**: every time the time-series store's watermark
crosses an evaluation boundary the engine re-checks every rule, walks
each alert's ``inactive → pending → firing → resolved`` lifecycle, and
emits ``alert.pending`` / ``alert.firing`` / ``alert.resolved`` events
back onto the event bus — so the live monitor, the flight recording and
the ``.tsdb`` sidecar's alert timeline all see the same deterministic
sequence.

Three rule kinds:

- ``static`` — reduce one series over a lookback window (``sum``,
  ``last``, ``count`` or ``max``) and compare against a threshold.
- ``absence`` — fire when a series has produced **no** sample for
  ``window`` simulated seconds (a dead tenant, a stuck queue).
- ``burn_rate`` — the Google-SRE multi-window form: fire when an SLO's
  error-budget burn rate exceeds ``factor`` over BOTH a long and a
  short window.  The long window proves the burn is sustained, the
  short window proves it is still happening (and lets the alert
  resolve quickly once the burn stops).

``for_seconds`` arms a pending period: the condition must hold that
long (simulated) before the alert escalates from pending to firing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.events import EventBus
from repro.obs.slo import (
    SloConfig,
    burn_rate,
    evaluate_slo,
    evaluate_slos,
)
from repro.obs.tsdb import TimeSeriesStore

RULE_KINDS = ("static", "absence", "burn_rate")
_REDUCERS = ("sum", "last", "count", "max")
_OPS = (">", ">=", "<", "<=")


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting rule (see module docstring)."""

    name: str
    kind: str                       # static | absence | burn_rate
    # static + absence:
    series: str = ""
    labels: Dict[str, str] = field(default_factory=dict)
    window: float = 0.25            # lookback, simulated seconds
    # static only:
    reduce: str = "sum"
    op: str = ">"
    threshold: float = 0.0
    # burn_rate only:
    slo: str = ""                   # name of the SLO it watches
    factor: float = 2.0             # burn-rate threshold
    short_window: float = 0.0       # 0 = window / 12
    # lifecycle:
    for_seconds: float = 0.0        # pending dwell before firing

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alert rule needs a name")
        if self.kind not in RULE_KINDS:
            raise ValueError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(known: {', '.join(RULE_KINDS)})"
            )
        if self.window <= 0:
            raise ValueError(f"rule {self.name!r}: window must be > 0")
        if self.kind in ("static", "absence") and not self.series:
            raise ValueError(f"rule {self.name!r}: needs a series")
        if self.kind == "static":
            if self.reduce not in _REDUCERS:
                raise ValueError(
                    f"rule {self.name!r}: unknown reduce {self.reduce!r}"
                )
            if self.op not in _OPS:
                raise ValueError(
                    f"rule {self.name!r}: unknown op {self.op!r}"
                )
        if self.kind == "burn_rate":
            if not self.slo:
                raise ValueError(f"rule {self.name!r}: needs an slo")
            if self.factor <= 0:
                raise ValueError(f"rule {self.name!r}: factor must be > 0")
        if self.for_seconds < 0:
            raise ValueError(f"rule {self.name!r}: for_seconds must be >= 0")

    def to_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind, "window": self.window}
        if self.kind in ("static", "absence"):
            out["series"] = self.series
            if self.labels:
                out["labels"] = dict(self.labels)
        if self.kind == "static":
            out["reduce"] = self.reduce
            out["op"] = self.op
            out["threshold"] = self.threshold
        if self.kind == "burn_rate":
            out["slo"] = self.slo
            out["factor"] = self.factor
            if self.short_window:
                out["short_window"] = self.short_window
        if self.for_seconds:
            out["for_seconds"] = self.for_seconds
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "AlertRule":
        return cls(
            name=data["name"],
            kind=data["kind"],
            series=data.get("series", ""),
            labels={
                str(k): str(v)
                for k, v in (data.get("labels") or {}).items()
            },
            window=float(data.get("window", 0.25)),
            reduce=data.get("reduce", "sum"),
            op=data.get("op", ">"),
            threshold=float(data.get("threshold", 0.0)),
            slo=data.get("slo", ""),
            factor=float(data.get("factor", 2.0)),
            short_window=float(data.get("short_window", 0.0)),
            for_seconds=float(data.get("for_seconds", 0.0)),
        )


def burn_rate_rules(slo: SloConfig, step: float = 0.05) -> List[AlertRule]:
    """The default multi-window burn-rate pair for one SLO.

    A *page*-severity fast-burn rule (high factor, short windows — the
    budget is disappearing now) and a *ticket*-severity slow-burn rule
    (low factor, long windows — a sustained leak).  Windows are floored
    at a few store steps so they stay meaningful at simulation scale.
    """
    fast_long = max(4 * step, slo.window / 8)
    slow_long = max(8 * step, slo.window / 2)
    return [
        AlertRule(
            name=f"{slo.name}-fast-burn", kind="burn_rate", slo=slo.name,
            factor=8.0, window=fast_long,
            short_window=max(2 * step, fast_long / 4),
        ),
        AlertRule(
            name=f"{slo.name}-slow-burn", kind="burn_rate", slo=slo.name,
            factor=2.0, window=slow_long,
            short_window=max(2 * step, slow_long / 4),
            for_seconds=2 * step,
        ),
    ]


class AlertState:
    """One rule's live lifecycle state."""

    __slots__ = ("rule", "state", "pending_since", "value")

    def __init__(self, rule: AlertRule) -> None:
        self.rule = rule
        self.state = "inactive"      # inactive | pending | firing
        self.pending_since: Optional[float] = None
        self.value: float = 0.0


class AlertEngine:
    """Evaluates rules on the simulated clock, emits lifecycle events.

    Attach it downstream of a :class:`TimeSeriesStore` that is folding
    the same event stream; call :meth:`observe_watermark` with each
    event's sim time (the :class:`ClusterMonitor` does this) and the
    engine evaluates at every crossed store-step boundary.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        rules: Sequence[AlertRule],
        slos: Sequence[SloConfig] = (),
        bus: Optional[EventBus] = None,
    ) -> None:
        self.store = store
        self.rules = list(rules)
        self.slos = {slo.name: slo for slo in slos}
        self.bus = bus
        self.states = {rule.name: AlertState(rule) for rule in self.rules}
        self._last_eval_bucket = -1
        #: healthy-bit per SLO, to emit slo.status only on transitions
        self._slo_health: Dict[str, bool] = {}
        for rule in self.rules:
            if rule.kind == "burn_rate" and rule.slo not in self.slos:
                raise ValueError(
                    f"rule {rule.name!r} watches unknown slo {rule.slo!r}"
                )

    # -- clock plumbing ------------------------------------------------

    def observe_watermark(self, now: float) -> None:
        """Evaluate every store-step boundary crossed up to ``now``."""
        step = self.store.step
        bucket = self.store.bucket_of(now)
        if bucket <= self._last_eval_bucket:
            return
        start = self._last_eval_bucket + 1
        if self._last_eval_bucket < 0:
            start = bucket  # jump straight to the first live boundary
        for crossed in range(start, bucket + 1):
            self.evaluate(crossed * step)
        self._last_eval_bucket = bucket

    # -- evaluation ----------------------------------------------------

    def _condition(self, rule: AlertRule, now: float) -> Tuple[bool, float]:
        if rule.kind == "burn_rate":
            slo = self.slos[rule.slo]
            short = rule.short_window or rule.window / 12
            long_burn = burn_rate(self.store, slo, rule.window, now)
            short_burn = burn_rate(self.store, slo, short, now)
            # report the long-window burn; both must exceed the factor
            return (
                long_burn >= rule.factor and short_burn >= rule.factor,
                long_burn,
            )
        if rule.kind == "absence":
            last = max(
                (
                    s.last_t
                    for _, s in self.store.find(rule.series, **rule.labels)
                    if s.last_t is not None
                ),
                default=None,
            )
            if last is None:
                # Nothing ever arrived: only meaningful once the run is
                # older than the window.
                gap = now
            else:
                gap = now - last
            return gap > rule.window, gap
        # static
        query = {
            "sum": self.store.counter_total, "last": self.store.gauge_last,
            "count": self.store.samples, "max": self.store.points,
        }[rule.reduce]
        found = query(
            rule.series, since=max(0.0, now - rule.window), until=now,
            **rule.labels,
        )
        if rule.reduce == "count":
            value = float(len(found))
        elif rule.reduce == "max":
            value = max((v for _, v in found), default=0.0)
        else:
            value = 0.0 if found is None else found
        met = {
            ">": value > rule.threshold,
            ">=": value >= rule.threshold,
            "<": value < rule.threshold,
            "<=": value <= rule.threshold,
        }[rule.op]
        return met, value

    def evaluate(self, now: float) -> None:
        """One evaluation pass over every rule at simulated ``now``."""
        for rule in self.rules:
            state = self.states[rule.name]
            met, value = self._condition(rule, now)
            state.value = value
            if met:
                if state.state == "inactive":
                    state.pending_since = now
                    if now - state.pending_since >= rule.for_seconds:
                        state.state = "firing"
                        self._transition(rule, "firing", now, value)
                    else:
                        state.state = "pending"
                        self._transition(rule, "pending", now, value)
                elif state.state == "pending":
                    if now - state.pending_since >= rule.for_seconds:
                        state.state = "firing"
                        self._transition(rule, "firing", now, value)
            elif state.state != "inactive":
                # a firing alert resolves, and so does a pending one
                # that clears (it never fired: SRE counts no incident)
                state.state = "inactive"
                state.pending_since = None
                self._transition(rule, "resolved", now, value)
        self._emit_slo_transitions(now)

    def _transition(
        self, rule: AlertRule, transition: str, now: float, value: float
    ) -> None:
        entry = {
            "t": now,
            "alert": rule.name,
            "transition": transition,
            "kind": rule.kind,
            "value": value,
        }
        if rule.kind == "burn_rate":
            entry["slo"] = rule.slo
            entry["factor"] = rule.factor
        elif rule.kind == "static":
            entry["threshold"] = rule.threshold
        self.store.alerts.append(entry)
        if self.bus is not None:
            self.bus.emit(
                f"alert.{transition}", sim_time=now,
                **{k: v for k, v in entry.items() if k != "transition"},
            )

    def _emit_slo_transitions(self, now: float) -> None:
        if self.bus is None:
            return
        for name, slo in self.slos.items():
            status = evaluate_slo(self.store, slo, at=now)
            previous = self._slo_health.get(name)
            if previous is None or previous != status.healthy:
                self._slo_health[name] = status.healthy
                self.bus.emit(
                    "slo.status", sim_time=now, **status.to_dict()
                )

    # -- reporting -----------------------------------------------------

    def firing(self) -> List[str]:
        return sorted(
            name for name, s in self.states.items() if s.state == "firing"
        )

    def pending(self) -> List[str]:
        return sorted(
            name for name, s in self.states.items() if s.state == "pending"
        )


def render_alert_timeline(
    alerts: Sequence[dict], pal=None, runs: int = 1
) -> str:
    """Fixed-width alert-transition table for the CLI."""
    from repro.util.term import PLAIN

    pal = pal or PLAIN
    if not alerts:
        return "(no alert transitions recorded)"
    lines = [
        f"{'t(s)':>10}  {'alert':<26}{'transition':<12}"
        f"{'value':>10}  detail"
    ]
    paint = {
        "firing": pal.red, "pending": pal.yellow, "resolved": pal.green,
    }
    for entry in alerts:
        transition = entry.get("transition", "?")
        detail = ""
        if entry.get("kind") == "burn_rate":
            detail = (
                f"slo={entry.get('slo')} burn>={entry.get('factor')}"
            )
        elif entry.get("kind") == "static":
            detail = f"threshold={entry.get('threshold')}"
        if runs > 1:
            detail = (f"run={entry.get('run', 0)} " + detail).strip()
        lines.append(
            f"{entry.get('t', 0.0):>10.4f}  {entry.get('alert', '?'):<26}"
            f"{paint.get(transition, str)(f'{transition:<12}')}"
            f"{entry.get('value', 0.0):>10.3f}  {detail}"
        )
    return "\n".join(lines)


class ClusterMonitor:
    """tsdb + SLOs + alerting bound to one cluster run's event bus.

    The continuous-monitoring front door: build one from the declared
    SLOs (and optional extra rules), :meth:`attach` it to the bus the
    :class:`~repro.cluster.manager.ClusterManager` emits on, run the
    traffic, then :meth:`save` the ``.tsdb`` sidecar.  Monitoring is
    strictly an observer — it never touches the manager's state, so the
    simulated timeline is bit-identical with or without it (the
    ``cluster_slo`` bench gates exactly that).
    """

    def __init__(
        self,
        slos: Sequence[SloConfig] = (),
        rules: Optional[Sequence[AlertRule]] = None,
        step: float = 0.05,
    ) -> None:
        self.slos = list(slos)
        if rules is None:
            rules = [
                rule for slo in self.slos
                for rule in burn_rate_rules(slo, step=step)
            ]
        self.rules = list(rules)
        self.store = TimeSeriesStore(
            step=step,
            meta={
                "slos": [slo.to_dict() for slo in self.slos],
                "rules": [rule.to_dict() for rule in self.rules],
            },
        )
        self.engine = AlertEngine(
            self.store, self.rules, self.slos, bus=None,
        )
        self.finished = False

    @classmethod
    def for_policy(cls, policy, step: float = 0.05) -> "ClusterMonitor":
        """Monitor for a :class:`ClusterPolicy`-shaped object.

        Expands each declared SLO into its default burn-rate pair and
        appends the policy's extra rules.
        """
        slos = list(getattr(policy, "slos", ()) or ())
        rules = [
            rule for slo in slos for rule in burn_rate_rules(slo, step=step)
        ]
        rules.extend(getattr(policy, "alerts", ()) or ())
        return cls(slos=slos, rules=rules, step=step)

    def attach(self, bus: EventBus) -> "ClusterMonitor":
        self.engine.bus = bus
        bus.subscribe(self)
        return self

    def __call__(self, event) -> None:
        kind = event.kind
        if kind.startswith("alert.") or kind.startswith("slo."):
            return
        self.store.fold_event(event)
        if event.sim_time is not None:
            self.engine.observe_watermark(event.sim_time)
        if kind == "cluster.finish":
            self.finish(event.sim_time or self.store.watermark)

    def finish(self, now: float) -> None:
        """Final evaluation at the horizon + frozen SLO statuses."""
        if self.finished:
            return
        self.finished = True
        self.engine.evaluate(now)
        statuses = evaluate_slos(self.store, self.slos, at=now)
        self.store.statuses = [status.to_dict() for status in statuses]
        if self.engine.bus is not None:
            for status in statuses:
                self.engine.bus.emit(
                    "slo.status", sim_time=now, final=True,
                    **status.to_dict(),
                )

    def statuses(self, at: Optional[float] = None):
        return evaluate_slos(self.store, self.slos, at=at)

    def save(self, path: str) -> TimeSeriesStore:
        if not self.finished:
            self.finish(self.store.watermark)
        return self.store.save(path)
