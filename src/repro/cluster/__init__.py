"""The scheduler, and multi-tenant job management on top of it.

:func:`repro.mapreduce.runner.run_job` gives one job every slot; it
does so by handing its map phase to this package's event loop
(:func:`repro.cluster.manager.run_alone`), the one scheduler in the
repo.  The production-shaped layer above the loop:

- :mod:`repro.cluster.config` — queues with guaranteed capacities,
  tenants with fair-share weights, admission bounds and slot quotas,
- :mod:`repro.cluster.manager` — the event-driven resource manager:
  locality-aware placement, task attempts with re-placement, backoff
  and blacklisting, speculative execution and map-output loss
  re-execution for any work on the slot pool; and, arbitrating the
  pool between concurrent jobs, admission control (including
  deadline-aware shedding), hierarchical fair share, preemption and a
  FIFO baseline,
- :mod:`repro.cluster.speculate` — progress-based straggler-cloning
  policy knobs,
- :mod:`repro.cluster.wal` — the write-ahead journal and crash-resume
  replay (:func:`~repro.cluster.wal.resume_from_wal`),
- :mod:`repro.cluster.traffic` — seeded open-loop Poisson traffic of
  mixed crawl/analytics/point-query jobs,
- :mod:`repro.cluster.report` — per-tenant p50/p95/p99 job latency and
  slot-utilization reporting.
"""

from repro.cluster.config import (
    ClusterPolicy,
    QueueConfig,
    TenantConfig,
    fifo_variant,
)
from repro.cluster.manager import ClusterManager, JobRequest
from repro.cluster.report import (
    ClusterReport,
    JobOutcome,
    TenantSummary,
    percentile,
)
from repro.cluster.speculate import SpeculationConfig
from repro.cluster.traffic import (
    TrafficProfile,
    TrafficTenant,
    build_filesystem,
    generate_requests,
    make_job,
    run_traffic,
    sample_profile,
)
from repro.cluster.wal import (
    ClusterWAL,
    SimulatedCrash,
    WalDivergence,
    resume_from_wal,
)

__all__ = [
    "ClusterManager",
    "ClusterPolicy",
    "ClusterReport",
    "ClusterWAL",
    "JobOutcome",
    "JobRequest",
    "QueueConfig",
    "SimulatedCrash",
    "SpeculationConfig",
    "TenantConfig",
    "TenantSummary",
    "TrafficProfile",
    "TrafficTenant",
    "WalDivergence",
    "build_filesystem",
    "fifo_variant",
    "generate_requests",
    "make_job",
    "percentile",
    "resume_from_wal",
    "run_traffic",
    "sample_profile",
]
