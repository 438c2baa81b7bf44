"""Scheduling policy configuration: queues, tenants, quotas.

Mirrors the shape of Hadoop's capacity/fair schedulers, scaled down to
what the paper's workloads need: a flat list of named queues, each with
a guaranteed *capacity* fraction of the cluster's map slots, and a list
of tenants submitting into those queues.  Queues marked ``preempts``
may evict running work from ``preemptible`` queues when they are under
their guaranteed share; tenants carry fair-share ``weight``, a bounded
admission queue (``max_queued``) and an optional hard slot quota
(``max_running_slots``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.mapreduce.backoff import BackoffConfig
from repro.mapreduce.speculation import SpeculationConfig
from repro.obs.alerts import AlertRule
from repro.obs.slo import SloConfig


@dataclass(frozen=True)
class QueueConfig:
    """One scheduling queue.

    ``capacity`` is the queue's guaranteed fraction of live map slots —
    its preemption floor and its fair-share target.  Capacities should
    sum to ~1.0 across queues; they are normalized at validation.
    """

    name: str
    capacity: float
    preemptible: bool = False  # running work may be evicted
    preempts: bool = False     # may evict work when under its share

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "preemptible": self.preemptible,
            "preempts": self.preempts,
        }


@dataclass(frozen=True)
class TenantConfig:
    """One tenant submitting jobs into a queue.

    ``weight`` is the tenant's fair-share weight within its queue.
    ``max_queued`` bounds jobs admitted but not yet started (admission
    control: further submissions are rejected, not buffered).
    ``max_running_slots`` caps the tenant's concurrently-running map
    attempts (0 = no quota).
    """

    name: str
    queue: str
    weight: float = 1.0
    max_queued: int = 8
    max_running_slots: int = 0


@dataclass
class ClusterPolicy:
    """Everything the multi-job manager needs to arbitrate slots.

    ``policy`` selects the scheduler: ``"fair"`` (hierarchical
    queue/tenant fair share with preemption) or ``"fifo"`` (strict
    arrival order, queues and quotas ignored — Hadoop's default
    scheduler, the paper-era baseline).
    """

    queues: List[QueueConfig] = field(default_factory=list)
    tenants: List[TenantConfig] = field(default_factory=list)
    policy: str = "fair"
    #: cluster-level straggler cloning (disabled unless opted in)
    speculation: SpeculationConfig = field(default_factory=SpeculationConfig)
    #: seeded exponential retry backoff for failed attempts; seed 0
    #: defers to the cluster's own seed at run time
    backoff: BackoffConfig = field(default_factory=BackoffConfig)
    #: per-tenant latency SLOs the continuous monitor evaluates
    #: (declarative only — the scheduler never reads them)
    slos: List[SloConfig] = field(default_factory=list)
    #: extra alert rules on top of the SLOs' default burn-rate pairs
    alerts: List[AlertRule] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.policy not in ("fair", "fifo"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if not self.queues:
            self.queues = [QueueConfig("default", 1.0)]
        names = [q.name for q in self.queues]
        if len(set(names)) != len(names):
            raise ValueError("duplicate queue names")
        total = sum(q.capacity for q in self.queues)
        if total <= 0:
            raise ValueError("queue capacities must sum to > 0")
        if abs(total - 1.0) > 1e-9:
            self.queues = [
                QueueConfig(
                    q.name, q.capacity / total, q.preemptible, q.preempts
                )
                for q in self.queues
            ]
        by_name = {q.name: q for q in self.queues}
        tenant_names = [t.name for t in self.tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ValueError("duplicate tenant names")
        for tenant in self.tenants:
            if tenant.queue not in by_name:
                raise ValueError(
                    f"tenant {tenant.name!r} submits to unknown queue "
                    f"{tenant.queue!r}"
                )
            if tenant.weight <= 0:
                raise ValueError(f"tenant {tenant.name!r} needs weight > 0")
            if tenant.max_queued < 1:
                raise ValueError(
                    f"tenant {tenant.name!r} needs max_queued >= 1"
                )
        tenant_set = set(tenant_names)
        slo_names = [s.name for s in self.slos]
        if len(set(slo_names)) != len(slo_names):
            raise ValueError("duplicate slo names")
        for slo in self.slos:
            if slo.tenant not in tenant_set:
                raise ValueError(
                    f"slo {slo.name!r} watches unknown tenant "
                    f"{slo.tenant!r}"
                )
        slo_set = set(slo_names)
        for rule in self.alerts:
            if rule.kind == "burn_rate" and rule.slo not in slo_set:
                raise ValueError(
                    f"alert rule {rule.name!r} watches unknown slo "
                    f"{rule.slo!r}"
                )

    def queue(self, name: str) -> QueueConfig:
        return next(q for q in self.queues if q.name == name)

    def tenant(self, name: str) -> TenantConfig:
        return next(t for t in self.tenants if t.name == name)
