"""Who gets the next slot: the multi-tenant scheduling policies.

Both are :class:`~repro.mapreduce.scheduler.SchedulingPolicy` objects
over the event loop's three hooks, built from a :class:`~repro.cluster.
config.ClusterPolicy`:

- :class:`TenantPolicy` is ``policy="fifo"``: the kernel's own arrival
  order, queues and quotas ignored when slots are handed out (the
  Hadoop-default baseline the fair policy is measured against),
- :class:`FairShare` is ``policy="fair"``: **hierarchical fair share**
  (slots go to the most-underserved queue by running/capacity, then
  the most-underserved tenant within it by running/weight, respecting
  slot quotas, then the oldest job) and **preemption** (a queue marked
  ``preempts`` that is under its guaranteed share evicts the
  longest-remaining attempt from a ``preemptible`` queue; the evicted
  split re-queues *without* consuming a fault attempt, and speculative
  duplicates are the preferred victims: killing a clone costs nothing).

Under either, a speculative clone is charged to its tenant's slot
quota.  A policy only decides: it holds its :class:`ClusterPolicy` and
nothing of the manager that installs it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional

from repro.mapreduce.scheduler import (
    SchedulingPolicy,
    _Execution,
    _Running,
)

from repro.cluster.config import ClusterPolicy, TenantConfig


class TenantPolicy(SchedulingPolicy):
    """Arrival order between tenants that have slot quotas."""

    def __init__(self, config: ClusterPolicy) -> None:
        self.config = config

    @staticmethod
    def under_quota(tenant: TenantConfig, in_use: int) -> bool:
        return (
            tenant.max_running_slots <= 0
            or in_use < tenant.max_running_slots
        )

    def may_take_slot(self, scheduler, execution: _Execution) -> bool:
        return self.under_quota(
            self.config.tenant(execution.tenant),
            sum(
                1 for r in scheduler.running.values()
                if r.execution.tenant == execution.tenant
            ),
        )

    def expected_slots(self, queue: str, live: int) -> int:
        """How many of ``live`` slots a job in ``queue`` can count on
        (admission's latency estimate): under FIFO, the whole pool."""
        return live


class FairShare(TenantPolicy):
    """Hierarchical fair share with preemption."""

    def expected_slots(self, queue: str, live: int) -> int:
        return max(1, math.floor(self.config.queue(queue).capacity * live))

    # -- preemption -----------------------------------------------------

    @staticmethod
    def _running_in_queue(scheduler, queue: str) -> int:
        return sum(
            1 for r in scheduler.running.values()
            if r.execution.queue == queue
        )

    def before_assign(self, scheduler, now: float) -> None:
        live = scheduler.live_slots()
        if live <= 0:
            return
        for queue in self.config.queues:
            if not queue.preempts:
                continue
            demand = sum(
                len(e.ready(now)) for e in scheduler.executions
                if e.queue == queue.name
            )
            if demand == 0:
                continue
            deserved = max(1, math.floor(queue.capacity * live))
            shortfall = (
                min(demand, deserved)
                - self._running_in_queue(scheduler, queue.name)
                - len(scheduler.free)
            )
            while shortfall > 0:
                victim = self._pick_victim(scheduler, queue.name)
                if victim is None:
                    break
                scheduler.preempt(victim, now, queue.name)
                shortfall -= 1

    def _pick_victim(self, scheduler, for_queue: str) -> Optional[_Running]:
        preemptible = {
            q.name for q in self.config.queues
            if q.preemptible and q.name != for_queue
        }
        candidates = [
            r for r in scheduler.running.values()
            if r.execution.queue in preemptible
        ]
        if not candidates:
            return None
        # Speculative duplicates first: killing a clone reclaims a slot
        # at zero cost (the original keeps running).  Then the attempt
        # with the most remaining work: least sunk cost per reclaimed
        # second; ties break on placement for determinism.
        return max(
            candidates,
            key=lambda r: (r.speculative, r.end, -r.node, -r.slot),
        )

    # -- selection ------------------------------------------------------

    def select(self, scheduler, now: float):
        """Most-underserved queue, then most-underserved tenant under
        quota, then oldest job."""
        skipped_queues: set = set()
        while True:
            queues: Dict[str, List[_Execution]] = {}
            for execution in scheduler.executions:
                if execution.queue in skipped_queues:
                    continue
                if execution.ready(now):
                    queues.setdefault(execution.queue, []).append(execution)
            if not queues:
                return None
            queue_name = min(
                queues,
                key=lambda name: (
                    self._running_in_queue(scheduler, name)
                    / self.config.queue(name).capacity,
                    name,
                ),
            )
            placed = self._select_in_queue(
                scheduler, queues[queue_name], now
            )
            if placed is not None:
                return placed
            skipped_queues.add(queue_name)

    def _select_in_queue(
        self, scheduler, executions: List[_Execution], now: float
    ):
        running_by_tenant = Counter(
            r.execution.tenant for r in scheduler.running.values()
        )
        by_tenant: Dict[str, List[_Execution]] = {}
        for execution in executions:
            by_tenant.setdefault(execution.tenant, []).append(execution)
        skipped: set = set()
        while True:
            candidates = [
                name for name in by_tenant if name not in skipped
            ]
            if not candidates:
                return None
            name = min(
                candidates,
                key=lambda n: (
                    running_by_tenant[n] / self.config.tenant(n).weight, n
                ),
            )
            skipped.add(name)
            if not self.under_quota(
                self.config.tenant(name), running_by_tenant[name]
            ):
                continue
            placed = self.oldest_first(scheduler, by_tenant[name], now)
            if placed is not None:
                return placed
