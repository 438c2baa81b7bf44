"""Per-tenant latency/utilization reporting for multi-job runs.

Latency here is *job* latency: submission to last byte of output
(map makespan on the shared timeline + reduce + job overhead), the
number a tenant actually experiences under contention — the HiBench
view of the system rather than the single-job Table 1 view.

Percentiles use the nearest-rank method on the sorted sample, so a
report is a pure function of the outcome list — byte-identical across
runs with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.util.stats import percentile


@dataclass
class JobOutcome:
    """One submitted job's fate on the shared cluster."""

    request_id: int
    job_name: str
    tenant: str
    queue: str
    kind: str = ""
    arrival: float = 0.0
    status: str = "completed"   # completed | rejected | failed | shed
    start: float = 0.0          # first task launch
    finish: float = 0.0         # output committed
    map_makespan: float = 0.0
    reduce_time: float = 0.0
    attempts: int = 0
    preemptions: int = 0        # attempts this job lost to preemption
    deadline: Optional[float] = None  # requested latency bound, if any
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Submission-to-completion, the tenant-visible number."""
        if self.status != "completed":
            return 0.0
        return self.finish - self.arrival

    @property
    def deadline_missed(self) -> bool:
        """Completed, but slower than the deadline it asked for."""
        return (
            self.status == "completed"
            and self.deadline is not None
            and self.latency > self.deadline
        )

    @property
    def wait(self) -> float:
        """Submission-to-first-task (queueing delay)."""
        return max(0.0, self.start - self.arrival)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "job": self.job_name,
            "tenant": self.tenant,
            "queue": self.queue,
            "kind": self.kind,
            "arrival": self.arrival,
            "status": self.status,
            "start": self.start,
            "finish": self.finish,
            "latency": self.latency,
            "wait": self.wait,
            "map_makespan": self.map_makespan,
            "reduce_time": self.reduce_time,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "deadline": self.deadline,
            "deadline_missed": self.deadline_missed,
            "error": self.error,
        }


@dataclass
class TenantSummary:
    """Latency distribution for one tenant's completed jobs."""

    tenant: str
    queue: str
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    shed: int = 0               # declined at admission: deadline at risk
    deadline_misses: int = 0    # completed, but past the asked deadline
    preemptions: int = 0
    latencies: List[float] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 50)

    @property
    def p95(self) -> float:
        return percentile(self.latencies, 95)

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 99)

    @property
    def mean_wait(self) -> float:
        return sum(self.waits) / len(self.waits) if self.waits else 0.0

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "queue": self.queue,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "shed": self.shed,
            "deadline_misses": self.deadline_misses,
            "preemptions": self.preemptions,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "mean_wait": self.mean_wait,
        }


@dataclass
class ClusterReport:
    """Everything one multi-job run produced."""

    policy: str
    outcomes: List[JobOutcome]
    makespan: float
    total_slots: int
    busy_slot_seconds: float
    preemptions: int = 0
    map_output_losses: int = 0  # committed outputs lost to node deaths
    speculative_attempts: int = 0

    @property
    def utilization(self) -> float:
        """Busy-slot-seconds over the run's total slot-seconds.

        Counts *all* executed attempt time — including preempted and
        failed attempts, whose work the cluster really performed —
        against the initial slot pool for the full makespan.
        """
        if self.makespan <= 0 or self.total_slots <= 0:
            return 0.0
        return self.busy_slot_seconds / (self.total_slots * self.makespan)

    @property
    def completed(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.status == "completed"]

    @property
    def rejected(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.status == "rejected"]

    @property
    def failed(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def shed(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.status == "shed"]

    def tenant_summaries(self) -> Dict[str, TenantSummary]:
        summaries: Dict[str, TenantSummary] = {}
        for outcome in self.outcomes:
            summary = summaries.setdefault(
                outcome.tenant,
                TenantSummary(tenant=outcome.tenant, queue=outcome.queue),
            )
            summary.submitted += 1
            summary.preemptions += outcome.preemptions
            if outcome.status == "completed":
                summary.completed += 1
                summary.latencies.append(outcome.latency)
                summary.waits.append(outcome.wait)
                if outcome.deadline_missed:
                    summary.deadline_misses += 1
            elif outcome.status == "rejected":
                summary.rejected += 1
            elif outcome.status == "shed":
                summary.shed += 1
            else:
                summary.failed += 1
        return dict(sorted(summaries.items()))

    def summary(self, tenant: str) -> TenantSummary:
        return self.tenant_summaries()[tenant]

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "makespan": self.makespan,
            "total_slots": self.total_slots,
            "busy_slot_seconds": self.busy_slot_seconds,
            "utilization": self.utilization,
            "preemptions": self.preemptions,
            "map_output_losses": self.map_output_losses,
            "speculative_attempts": self.speculative_attempts,
            "tenants": {
                name: s.to_dict()
                for name, s in self.tenant_summaries().items()
            },
            "jobs": [o.to_dict() for o in self.outcomes],
        }

    def render(self) -> str:
        """Fixed-width report for the CLI."""
        lines = [
            f"cluster run — policy={self.policy}  "
            f"makespan={self.makespan:.3f}s  "
            f"slots={self.total_slots}  "
            f"utilization={self.utilization:.1%}  "
            f"preemptions={self.preemptions}",
            "",
            f"{'tenant':<12}{'queue':<12}{'sub':>5}{'done':>6}"
            f"{'rej':>5}{'shed':>5}{'miss':>5}{'fail':>5}"
            f"{'p50(s)':>10}{'p95(s)':>10}"
            f"{'p99(s)':>10}{'wait(s)':>10}",
        ]
        for name, s in self.tenant_summaries().items():
            lines.append(
                f"{name:<12}{s.queue:<12}{s.submitted:>5}{s.completed:>6}"
                f"{s.rejected:>5}{s.shed:>5}{s.deadline_misses:>5}"
                f"{s.failed:>5}"
                f"{s.p50:>10.3f}{s.p95:>10.3f}"
                f"{s.p99:>10.3f}{s.mean_wait:>10.3f}"
            )
        if self.map_output_losses or self.speculative_attempts:
            lines.append("")
            lines.append(
                f"recovery: map outputs lost={self.map_output_losses}  "
                f"speculative attempts={self.speculative_attempts}"
            )
        return "\n".join(lines)
