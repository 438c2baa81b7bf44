"""Seeded open-loop traffic: Poisson arrivals of mixed workloads.

The HiBench-style load profile the acceptance experiment runs: three
tenants share one cluster —

- **etl** submits long crawl scans (Figure 1's distinct-content-types
  job over a row-oriented SequenceFile, so every map task drags the
  bulky ``content`` column through the disk — the paper's slow
  baseline),
- **analytics** submits medium aggregations (Appendix B.4's
  selectivity job over a CIF-stored microbenchmark dataset),
- **dashboard** submits interactive point queries (tiny map-only
  projection scans over a small CIF dataset) into a ``preempts``
  queue.

Arrivals are *open loop*: each tenant draws inter-arrival gaps from an
exponential distribution with its configured rate, independent of how
backed up the cluster is — so pressure builds exactly when scheduling
policy matters.  Each tenant's arrival process is seeded as
``f"{seed}:{tenant}"``: the trace is byte-reproducible and adding a
tenant never perturbs another tenant's arrivals.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench import harness
from repro.core import ColumnInputFormat, write_dataset
from repro.formats.sequence_file import (
    SequenceFileInputFormat,
    write_sequence_file,
)
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce.job import Job
from repro.obs import Observability
from repro.obs.alerts import AlertRule
from repro.obs.slo import SloConfig
from repro.workloads.crawl import crawl_records, crawl_schema
from repro.workloads.jobs import (
    distinct_content_types_job,
    projection_scan_job,
    selectivity_aggregation_job,
)
from repro.workloads.micro import micro_records, micro_schema

from repro.cluster.config import ClusterPolicy, QueueConfig, TenantConfig
from repro.cluster.manager import ClusterManager, JobRequest
from repro.cluster.report import ClusterReport
from repro.cluster.wal import WAL_VERSION, ClusterWAL
from repro.mapreduce.backoff import BackoffConfig
from repro.mapreduce.speculation import SpeculationConfig

CRAWL_SEQ = "/cluster/crawl-seq"
MICRO_CIF = "/cluster/micro-cif"
POINT_CIF = "/cluster/point-cif"

JOB_KINDS = ("crawl_scan", "analytics", "point_query")

#: every top-level key :meth:`TrafficProfile.to_dict` can emit
_PROFILE_FIELDS = frozenset({
    "seed", "duration", "nodes", "map_slots_per_node", "block_kb", "policy",
    "datasets", "queues", "tenants", "speculation", "backoff", "alerts",
})


@dataclass
class TrafficTenant:
    """One tenant's identity plus its arrival process."""

    name: str
    queue: str
    rate: float                      # jobs per simulated second
    jobs: Dict[str, float] = field(
        default_factory=lambda: {"crawl_scan": 1.0}
    )
    weight: float = 1.0
    max_queued: int = 8
    max_running_slots: int = 0
    #: per-job completion deadline in seconds after arrival; jobs the
    #: cost model predicts will miss it are shed at admission
    deadline: Optional[float] = None
    #: declared latency objective + error budget window; evaluated by
    #: the continuous monitor, never read by the scheduler
    slo: Optional[SloConfig] = None

    def __post_init__(self) -> None:
        # A tenant's SLO always names that tenant, whatever the
        # declaration said (profiles omit the redundant field).
        if self.slo is not None and self.slo.tenant != self.name:
            self.slo = SloConfig(
                name=self.slo.name, tenant=self.name,
                objective=self.slo.objective, latency=self.slo.latency,
                window=self.slo.window,
            )

    def tenant_config(self) -> TenantConfig:
        return TenantConfig(
            name=self.name,
            queue=self.queue,
            weight=self.weight,
            max_queued=self.max_queued,
            max_running_slots=self.max_running_slots,
        )


@dataclass
class TrafficProfile:
    """Everything one seeded load test needs, JSON-serializable."""

    seed: int = 20110401
    duration: float = 1.0            # simulated seconds of arrivals
    nodes: int = 4
    map_slots_per_node: int = 2
    block_kb: int = 256
    policy: str = "fair"
    datasets: Dict[str, int] = field(default_factory=lambda: {
        "crawl_records": 160,
        "content_bytes": 16384,
        "micro_records": 600,
        "point_records": 40,
    })
    queues: List[QueueConfig] = field(default_factory=list)
    tenants: List[TrafficTenant] = field(default_factory=list)
    speculation: SpeculationConfig = field(
        default_factory=SpeculationConfig
    )
    backoff: BackoffConfig = field(default_factory=BackoffConfig)
    #: extra alert rules on top of the tenants' SLO burn-rate defaults
    alerts: List[AlertRule] = field(default_factory=list)

    def slos(self) -> List[SloConfig]:
        return [t.slo for t in self.tenants if t.slo is not None]

    def cluster_policy(self, policy: Optional[str] = None) -> ClusterPolicy:
        return ClusterPolicy(
            queues=list(self.queues),
            tenants=[t.tenant_config() for t in self.tenants],
            policy=policy or self.policy,
            speculation=self.speculation,
            backoff=self.backoff,
            slos=self.slos(),
            alerts=list(self.alerts),
        )

    # -- (de)serialization ---------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "duration": self.duration,
            "nodes": self.nodes,
            "map_slots_per_node": self.map_slots_per_node,
            "block_kb": self.block_kb,
            "policy": self.policy,
            "datasets": dict(self.datasets),
            "queues": [q.to_dict() for q in self.queues],
            "tenants": [
                {
                    "name": t.name,
                    "queue": t.queue,
                    "rate": t.rate,
                    "jobs": dict(t.jobs),
                    "weight": t.weight,
                    "max_queued": t.max_queued,
                    "max_running_slots": t.max_running_slots,
                    **(
                        {"deadline": t.deadline}
                        if t.deadline is not None
                        else {}
                    ),
                    **(
                        {"slo": t.slo.to_dict()}
                        if t.slo is not None
                        else {}
                    ),
                }
                for t in self.tenants
            ],
            "speculation": self.speculation.to_dict(),
            "backoff": self.backoff.to_dict(),
            # Emitted only when declared, so pre-monitoring WAL headers
            # still verify on resume.
            **(
                {"alerts": [r.to_dict() for r in self.alerts]}
                if self.alerts
                else {}
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficProfile":
        # Every field is optional (a profile overlays the sample), so a
        # document of another kind is told apart by what it adds.
        if not isinstance(data, dict):
            raise ValueError("a traffic profile must be a JSON object")
        unknown = sorted(set(data) - _PROFILE_FIELDS)
        if unknown:
            raise ValueError(
                f"not a traffic profile: unknown field(s) {', '.join(unknown)}"
            )
        base = sample_profile()
        queues = [
            QueueConfig(
                name=q["name"],
                capacity=float(q["capacity"]),
                preemptible=bool(q.get("preemptible", False)),
                preempts=bool(q.get("preempts", False)),
            )
            for q in data.get("queues", [])
        ] or base.queues
        tenants = [
            TrafficTenant(
                name=t["name"],
                queue=t["queue"],
                rate=float(t["rate"]),
                jobs={
                    k: float(v)
                    for k, v in t.get("jobs", {"crawl_scan": 1.0}).items()
                },
                weight=float(t.get("weight", 1.0)),
                max_queued=int(t.get("max_queued", 8)),
                max_running_slots=int(t.get("max_running_slots", 0)),
                deadline=(
                    float(t["deadline"])
                    if t.get("deadline") is not None
                    else None
                ),
                slo=(
                    SloConfig.from_dict(t["slo"], tenant=t["name"])
                    if t.get("slo") is not None
                    else None
                ),
            )
            for t in data.get("tenants", [])
        ] or base.tenants
        for tenant in tenants:
            for kind in tenant.jobs:
                if kind not in JOB_KINDS:
                    raise ValueError(
                        f"tenant {tenant.name!r} submits unknown job kind "
                        f"{kind!r} (known: {', '.join(JOB_KINDS)})"
                    )
        datasets = dict(base.datasets)
        datasets.update(data.get("datasets", {}))
        return cls(
            seed=int(data.get("seed", base.seed)),
            duration=float(data.get("duration", base.duration)),
            nodes=int(data.get("nodes", base.nodes)),
            map_slots_per_node=int(
                data.get("map_slots_per_node", base.map_slots_per_node)
            ),
            block_kb=int(data.get("block_kb", base.block_kb)),
            policy=data.get("policy", base.policy),
            datasets=datasets,
            queues=queues,
            tenants=tenants,
            speculation=SpeculationConfig.from_dict(
                data.get("speculation", {})
            ),
            backoff=BackoffConfig.from_dict(data.get("backoff", {})),
            alerts=[
                AlertRule.from_dict(r) for r in data.get("alerts", [])
            ],
        )

    @classmethod
    def load(cls, path: str) -> "TrafficProfile":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def sample_profile() -> TrafficProfile:
    """The canonical 3-tenant mixed workload of the acceptance test.

    Each tenant declares a latency SLO sized against the fair-policy
    baseline: the etl objective is deliberately tight (long crawl scans
    routinely overrun 150ms under contention, so its error budget burns
    and the default burn-rate alerts exercise their full lifecycle),
    while analytics and dashboard are comfortably within budget.  One
    static rule watches admission rejects cluster-wide.
    """
    return TrafficProfile(
        queues=[
            QueueConfig("batch", capacity=0.7, preemptible=True),
            QueueConfig("interactive", capacity=0.3, preempts=True),
        ],
        tenants=[
            TrafficTenant(
                name="etl", queue="batch", rate=25.0,
                jobs={"crawl_scan": 1.0}, weight=1.0, max_queued=6,
                slo=SloConfig(
                    name="etl-latency", tenant="etl",
                    objective=0.95, latency=0.15, window=0.5,
                ),
            ),
            TrafficTenant(
                name="analytics", queue="batch", rate=40.0,
                jobs={"analytics": 0.8, "crawl_scan": 0.2},
                weight=1.0, max_queued=6,
                slo=SloConfig(
                    name="analytics-latency", tenant="analytics",
                    objective=0.9, latency=0.25, window=0.5,
                ),
            ),
            TrafficTenant(
                name="dashboard", queue="interactive", rate=120.0,
                jobs={"point_query": 1.0}, weight=2.0, max_queued=12,
                slo=SloConfig(
                    name="dashboard-latency", tenant="dashboard",
                    objective=0.95, latency=0.05, window=0.25,
                ),
            ),
        ],
        alerts=[
            AlertRule(
                name="admission-rejects", kind="static",
                series="cluster.events",
                labels={"kind": "admission.reject"},
                window=0.25, reduce="sum", op=">=", threshold=1.0,
            ),
        ],
    )


# -- cluster + datasets ----------------------------------------------------


def build_filesystem(profile: TrafficProfile) -> FileSystem:
    """A small contended cluster loaded with the three datasets."""
    fs = FileSystem(ClusterConfig(
        num_nodes=profile.nodes,
        map_slots_per_node=profile.map_slots_per_node,
        reduce_slots_per_node=1,
        block_size=profile.block_kb * 1024,
        io_buffer_size=harness.MICRO_IO_BUFFER,
        disk=harness.scaled_disk(),
        network=harness.scaled_network(),
        seed=profile.seed,
    ))
    sizes = profile.datasets
    crawl = list(crawl_records(
        sizes["crawl_records"],
        content_bytes=sizes["content_bytes"],
        seed=profile.seed,
    ))
    write_sequence_file(fs, CRAWL_SEQ, crawl_schema(), crawl)
    write_dataset(
        fs, MICRO_CIF, micro_schema(),
        micro_records(sizes["micro_records"], seed=profile.seed),
        split_bytes=16 * 1024,
    )
    write_dataset(
        fs, POINT_CIF, micro_schema(),
        micro_records(sizes["point_records"], seed=profile.seed + 1),
        split_bytes=64 * 1024,
    )
    return fs


def make_job(kind: str, tenant: str, index: int) -> Job:
    """One job instance of the given workload class."""
    name = f"{kind}:{tenant}:{index}"
    if kind == "crawl_scan":
        return distinct_content_types_job(
            SequenceFileInputFormat(CRAWL_SEQ),
            num_reducers=2,
            name=name,
        )
    if kind == "analytics":
        return selectivity_aggregation_job(
            ColumnInputFormat(MICRO_CIF, columns=["str0", "attrs"]),
            string_column="str0",
            map_column="attrs",
            map_key="k0",
            pattern="e",
            name=name,
        )
    if kind == "point_query":
        return projection_scan_job(
            ColumnInputFormat(POINT_CIF, columns=["int0"]),
            columns=["int0"],
            name=name,
        )
    raise ValueError(f"unknown job kind {kind!r}")


# -- the arrival process ---------------------------------------------------


def generate_requests(profile: TrafficProfile) -> List[JobRequest]:
    """Draw every tenant's Poisson arrival trace for the run window."""
    drawn = []
    for tenant in sorted(profile.tenants, key=lambda t: t.name):
        rng = random.Random(f"{profile.seed}:{tenant.name}")
        kinds = sorted(tenant.jobs)
        weights = [tenant.jobs[k] for k in kinds]
        t = 0.0
        index = 0
        while True:
            t += rng.expovariate(tenant.rate)
            if t > profile.duration:
                break
            kind = rng.choices(kinds, weights=weights, k=1)[0]
            drawn.append((t, tenant.name, kind, index))
            index += 1
    drawn.sort(key=lambda item: (item[0], item[1], item[3]))
    deadlines = {t.name: t.deadline for t in profile.tenants}
    return [
        JobRequest(
            job=make_job(kind, tenant, index),
            tenant=tenant,
            arrival=arrival,
            request_id=request_id,
            kind=kind,
            deadline=deadlines.get(tenant),
        )
        for request_id, (arrival, tenant, kind, index) in enumerate(drawn)
    ]


def run_traffic(
    profile: TrafficProfile,
    policy: Optional[str] = None,
    obs: Optional[Observability] = None,
    faults=None,
    wal: Optional[ClusterWAL] = None,
) -> ClusterReport:
    """Build the cluster, draw the trace, run it; returns the report.

    With ``wal`` set, record 0 journals the complete run recipe (the
    profile, resolved policy and fault plan) so a crashed run can be
    replayed from the file alone; ``faults`` must then be a declarative
    :class:`~repro.faults.FaultPlan` (or None), never a live injector —
    an injector's consumed state cannot be serialized into the header.
    """
    if wal is not None:
        from repro.faults import FaultPlan

        if faults is not None and not isinstance(faults, FaultPlan):
            raise ValueError(
                "run_traffic(wal=...) needs a serializable FaultPlan, "
                "not a live injector"
            )
        wal.append(
            "meta",
            v=WAL_VERSION,
            profile=profile.to_dict(),
            policy=policy or profile.policy,
            faults=faults.to_dict() if faults is not None else None,
        )
    fs = build_filesystem(profile)
    manager = ClusterManager(
        fs, profile.cluster_policy(policy), obs=obs, faults=faults,
        wal=wal,
    )
    try:
        return manager.run(generate_requests(profile))
    finally:
        if wal is not None:
            wal.close()
