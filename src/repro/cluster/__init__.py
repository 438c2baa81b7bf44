"""Multi-tenant job management on top of the scheduler.

The scheduler itself, one event loop over one slot pool, lives beneath
this package in :mod:`repro.mapreduce.eventloop`, where
:func:`repro.mapreduce.runner.run_job` gives one job every slot.  This
package is the production-shaped layer above the loop (nothing below
imports it; ``tests/test_layering.py``):

- :mod:`repro.cluster.config`: queues with guaranteed capacities,
  tenants with fair-share weights, admission bounds and slot quotas,
- :mod:`repro.cluster.manager`: the loop with a request envelope
  around it: admission control (including deadline-aware shedding),
  every request's outcome, the run's report,
- :mod:`repro.cluster.fairshare`: the scheduling policies the manager
  installs on the loop's three hooks: hierarchical fair share with
  preemption and quotas, and a FIFO baseline,
- :mod:`repro.cluster.wal`: the write-ahead journal and crash-resume
  replay (:func:`~repro.cluster.wal.resume_from_wal`),
- :mod:`repro.cluster.traffic`: seeded open-loop Poisson traffic of
  mixed crawl/analytics/point-query jobs,
- :mod:`repro.cluster.report`: per-tenant p50/p95/p99 job latency and
  slot-utilization reporting.
"""

from repro.cluster.config import ClusterPolicy, QueueConfig, TenantConfig
from repro.cluster.manager import ClusterManager, JobRequest
from repro.cluster.report import (
    ClusterReport,
    JobOutcome,
    TenantSummary,
    percentile,
)
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
from repro.mapreduce.speculation import SpeculationConfig

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
    "generate_requests",
    "make_job",
    "percentile",
    "resume_from_wal",
    "run_traffic",
    "sample_profile",
]
