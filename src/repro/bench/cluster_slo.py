"""Monitoring-overhead benchmark: the observer must not perturb.

The acceptance experiment for the continuous-monitoring layer: draw
one seeded traffic trace (the same 3-tenant mix as
:mod:`repro.bench.cluster_load`, whose sample profile declares
per-tenant SLOs) and run it twice under the fair-share policy — once
bare, once with the full :class:`~repro.obs.alerts.ClusterMonitor`
attached (time-series store folding every event, SLO evaluation and
burn-rate alerting on every watermark step).

Because the monitor is strictly an event-bus observer, the simulated
timeline must be **identical** in both runs: the headline
``ratio.monitoring_efficiency`` (bare makespan over monitored
makespan) is gated at exactly 1.0, and the folded store must reconcile
exactly — zero tolerance — against the monitored run's
:class:`~repro.cluster.report.ClusterReport` per-tenant percentiles.
The alert-transition and series counts pin the rule engine's output so
a change in alerting behaviour shows up as a bench diff, not a silent
drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench import harness
from repro.cluster.traffic import TrafficProfile, run_traffic
from repro.obs import EventBus, MetricRegistry, NULL_TRACER, Observability
from repro.obs.alerts import ClusterMonitor
from repro.obs.slo import SloStatus
from repro.obs.tsdb import TimeSeriesStore, reconcile_tsdb

VARIANTS = ("bare", "monitored")


@dataclass
class ClusterSloResult(harness.TrafficResult):
    """Bare vs monitored runs of one seeded SLO-declaring trace."""

    store: Optional[TimeSeriesStore] = None
    statuses: List[SloStatus] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def monitoring_efficiency(self) -> float:
        """Bare makespan over monitored — exactly 1.0 when the monitor
        is the pure observer it claims to be."""
        monitored = self.reports["monitored"].makespan
        if not monitored:
            return 1.0
        return self.reports["bare"].makespan / monitored

    @property
    def alert_transitions(self) -> int:
        return len(self.store.alerts) if self.store is not None else 0

    @property
    def firing_transitions(self) -> int:
        if self.store is None:
            return 0
        return sum(
            1 for a in self.store.alerts if a.get("transition") == "firing"
        )


def run(
    duration: float = 1.0,
    seed: int = 20110401,
    profile: Optional[TrafficProfile] = None,
) -> ClusterSloResult:
    """Run the sample load bare and under the continuous monitor."""
    profile = harness.sample_traffic(duration, seed, profile)
    result = ClusterSloResult(profile=profile)
    result.reports["bare"] = run_traffic(profile, policy="fair")

    policy = profile.cluster_policy("fair")
    bus = EventBus()
    monitor = ClusterMonitor.for_policy(policy).attach(bus)
    obs = Observability(NULL_TRACER, MetricRegistry(), enabled=True, bus=bus)
    result.reports["monitored"] = run_traffic(
        profile, policy="fair", obs=obs,
    )
    result.store = monitor.store
    result.statuses = monitor.statuses()
    result.mismatches = reconcile_tsdb(
        monitor.store, result.reports["monitored"]
    )
    return result


def metrics(result: ClusterSloResult) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for variant, report in result.reports.items():
        out[f"time.makespan.{variant}"] = report.makespan
        out[f"count.completed.{variant}"] = len(report.completed)
    # The monitor is a pure observer: bare/monitored makespan must be
    # exactly 1.0, and the folded store must reconcile exactly against
    # the monitored report (mismatches gate at 0).
    out["ratio.monitoring_efficiency"] = result.monitoring_efficiency
    out["count.reconcile_mismatches"] = len(result.mismatches)
    out["count.series"] = (
        len(result.store) if result.store is not None else 0
    )
    out["count.alert_transitions"] = result.alert_transitions
    out["count.alerts_firing"] = result.firing_transitions
    for status in result.statuses:
        out[f"fraction.compliance.{status.slo.tenant}"] = status.compliance
    return out


def format_table(result: ClusterSloResult) -> str:
    from repro.obs.alerts import render_alert_timeline
    from repro.obs.slo import render_slo_table

    lines = []
    for variant in VARIANTS:
        lines.append(f"== {variant} ==")
        lines.append(result.reports[variant].render())
        lines.append("")
    lines.append(render_slo_table(result.statuses))
    lines.append("")
    lines.append(render_alert_timeline(
        result.store.alerts if result.store is not None else []
    ))
    lines.append("")
    lines.append(
        f"monitoring efficiency (bare/monitored makespan) = "
        f"{result.monitoring_efficiency:.4f}x"
    )
    series = len(result.store) if result.store is not None else 0
    lines.append(
        f"store: {series} series, {result.alert_transitions} alert "
        f"transition(s), {len(result.mismatches)} reconcile mismatch(es)"
    )
    return "\n".join(lines)
