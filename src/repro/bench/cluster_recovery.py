"""Fault-recovery benchmark: kill a node mid-trace, measure the tax.

The acceptance experiment for the cluster's fault-tolerance layer:
draw one seeded traffic trace (the same 3-tenant mix as
:mod:`repro.bench.cluster_load`) and run it twice under the fair-share
policy with speculative execution enabled — once fault-free, once with
a single ``kill_node`` fired mid-run.  Because the trace, the cost
model and the fault plan are all seeded, every delta between the two
reports is attributable to the recovery machinery: map-output loss
re-execution through the shuffle window, retry backoff, straggler
cloning onto the surviving nodes.

The headline numbers are the makespan and interactive-p95 overhead
ratios (faulted over fault-free) plus the exact recovery counters —
``map_output_losses`` must be non-zero or the kill missed the shuffle
window and the scenario is not exercising re-execution at all (the
shape test below and ``repro bench check`` both gate on it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.bench import harness
from repro.cluster.traffic import TrafficProfile, run_traffic
from repro.faults import FaultEvent, FaultPlan

VARIANTS = ("faultfree", "faulted")


@dataclass
class ClusterRecoveryResult(harness.TrafficResult):
    """Fault-free vs faulted reports over one seeded traffic trace."""

    @property
    def makespan_overhead(self) -> float:
        """Faulted makespan over fault-free — 1.0 = free recovery."""
        base = self.reports["faultfree"].makespan
        return self.reports["faulted"].makespan / base if base else 1.0

    @property
    def interactive_p95_overhead(self) -> float:
        base = self.interactive_p95("faultfree")
        faulted = self.interactive_p95("faulted")
        return faulted / base if base > 0 else 1.0


def run(
    duration: float = 1.0,
    seed: int = 20110401,
    kill_time: float = 0.35,
    kill_node: int = 1,
    profile: Optional[TrafficProfile] = None,
) -> ClusterRecoveryResult:
    """Run the sample load fault-free and with one mid-run node kill."""
    profile = harness.sample_traffic(duration, seed, profile)
    profile.speculation = replace(profile.speculation, enabled=True)
    plan = FaultPlan(
        [FaultEvent("kill_node", node=kill_node, at_time=kill_time)],
        seed=seed,
    )
    result = ClusterRecoveryResult(profile=profile)
    result.reports["faultfree"] = run_traffic(profile, policy="fair")
    result.reports["faulted"] = run_traffic(
        profile, policy="fair", faults=plan,
    )
    return result


def metrics(result: ClusterRecoveryResult) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for variant, report in result.reports.items():
        out[f"time.makespan.{variant}"] = report.makespan
        out[f"time.interactive_p95.{variant}"] = (
            result.interactive_p95(variant)
        )
        out[f"count.completed.{variant}"] = len(report.completed)
        out[f"count.rejected.{variant}"] = len(report.rejected)
        out[f"count.failed.{variant}"] = len(report.failed)
        out[f"count.speculative_attempts.{variant}"] = (
            report.speculative_attempts
        )
    faulted = result.reports["faulted"]
    out["count.map_output_losses"] = faulted.map_output_losses
    # Oriented so higher = cheaper recovery (1.0 == a free node kill);
    # a drop means the fault-tolerance machinery got more expensive.
    out["ratio.recovery_efficiency"] = 1.0 / result.makespan_overhead
    return out


def format_table(result: ClusterRecoveryResult) -> str:
    lines = []
    for variant in VARIANTS:
        lines.append(f"== {variant} ==")
        lines.append(result.reports[variant].render())
        lines.append("")
    faulted = result.reports["faulted"]
    tenants = ", ".join(result.interactive_tenants) or "(none)"
    lines.append(
        f"makespan overhead (faulted/faultfree) = "
        f"{result.makespan_overhead:.2f}x"
    )
    lines.append(
        f"interactive p95 overhead ({tenants}) = "
        f"{result.interactive_p95_overhead:.2f}x"
    )
    lines.append(
        f"recovery: {faulted.map_output_losses} map output(s) lost and "
        f"re-executed, {faulted.speculative_attempts} speculative "
        f"attempt(s)"
    )
    return "\n".join(lines)
