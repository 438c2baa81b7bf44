"""Multi-tenant load benchmark: fair-share + preemption vs FIFO.

The acceptance experiment for :mod:`repro.cluster`: draw one seeded
open-loop traffic trace (three tenants, mixed crawl / analytics /
point-query jobs) and run the *same* trace through the cluster manager
twice — once under the hierarchical fair-share policy with preemption,
once under the Hadoop-default FIFO baseline.  Because arrivals, job
inputs and the cost model are all seeded, the two runs differ only in
scheduling policy, so per-tenant latency deltas are attributable to the
policy alone.

The headline number is the interactive tenants' pooled p95 job latency
under FIFO divided by the same under fair share: long batch scans park
on every slot under FIFO and point queries wait behind them, while fair
share's ``preempts`` queue evicts scans the moment an interactive job
arrives.  The paper-shaped claim (asserted by ``tests/test_cluster.py``
and gated in CI) is that fair share cuts interactive p95 to at most
half of FIFO's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.bench import harness
from repro.bench.regress import slug
from repro.cluster.traffic import TrafficProfile, run_traffic

POLICIES = ("fair", "fifo")


@dataclass
class ClusterLoadResult(harness.TrafficResult):
    """Both policies' reports over one seeded traffic trace."""

    @property
    def interactive_p95_ratio(self) -> float:
        """FIFO p95 over fair p95 — higher = fair share's advantage."""
        fair = self.interactive_p95("fair")
        fifo = self.interactive_p95("fifo")
        return fifo / fair if fair > 0 else float("inf")


def run(
    duration: float = 1.0,
    seed: int = 20110401,
    profile: Optional[TrafficProfile] = None,
) -> ClusterLoadResult:
    """Run the sample 3-tenant load under both policies."""
    profile = harness.sample_traffic(duration, seed, profile)
    result = ClusterLoadResult(profile=profile)
    for policy in POLICIES:
        result.reports[policy] = run_traffic(profile, policy=policy)
    return result


def metrics(result: ClusterLoadResult) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for policy, report in result.reports.items():
        out[f"time.makespan.{policy}"] = report.makespan
        out[f"fraction.slots_busy.{policy}"] = report.utilization
        out[f"count.completed.{policy}"] = len(report.completed)
        out[f"count.rejected.{policy}"] = len(report.rejected)
        out[f"count.failed.{policy}"] = len(report.failed)
        out[f"count.preemptions.{policy}"] = report.preemptions
        for tenant, summary in report.tenant_summaries().items():
            base = f"time.latency.{policy}.{slug(tenant)}"
            out[f"{base}.p50"] = summary.p50
            out[f"{base}.p95"] = summary.p95
            out[f"{base}.p99"] = summary.p99
    out["ratio.fifo_over_fair_interactive_p95"] = (
        result.interactive_p95_ratio
    )
    return out


def format_table(result: ClusterLoadResult) -> str:
    lines = []
    for policy in POLICIES:
        lines.append(result.reports[policy].render())
        lines.append("")
    ratio = result.interactive_p95_ratio
    tenants = ", ".join(result.interactive_tenants) or "(none)"
    lines.append(
        f"interactive p95 ({tenants}): fifo/fair = {ratio:.1f}x"
    )
    return "\n".join(lines)
