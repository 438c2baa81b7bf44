"""Node loss: the event loop's half of the fault-tolerance contract.

A :class:`~repro.faults.FaultInjector` decides *when* a node dies or is
retired; :class:`NodeLoss`, the base of :class:`~repro.mapreduce.
eventloop.SlotScheduler`, is what the scheduler does about it.  A
completed map attempt's spilled output lives on the node that ran it,
and stays vulnerable until the shuffle window closes.  A node death
before then takes its live attempts (re-queued away from the node) and
invalidates every committed output it held: the affected splits re-run
(Hadoop semantics: output loss is the scheduler's problem, not the
task's, so no retry budget is consumed) and an in-flight shuffle aborts
and restarts when the re-run maps finish.  A node that keeps failing
attempts is blacklisted and takes no more work.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults import FaultInjector, FaultPlan, current_fault_plan
from repro.hdfs.filesystem import FileSystem
from repro.mapreduce.scheduler import _Pending
from repro.obs import Observability, current_obs

#: failed attempts on one node before the scheduler stops using it
BLACKLIST_AFTER = 3


class NodeLoss:
    """Fault firing, node death, map-output invalidation, blacklisting,
    over the scheduler's ``free``, ``running`` and ``executions`` and
    through its attempt lifecycle (``_truncate`` / ``_resolve`` /
    ``_cover`` / ``_requeue``) and its ``tell``.

    ``faults`` is a :class:`~repro.faults.FaultPlan` or a pre-built
    injector; None falls back to the ambient plan installed by
    ``FaultPlan.activate()`` (CLI ``--faults``).
    """

    def __init__(
        self, fs: FileSystem, obs: Optional[Observability], faults
    ) -> None:
        self.fs = fs
        self.obs = obs if obs is not None else current_obs()
        if faults is None:
            faults = current_fault_plan()
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(fs, faults, self.obs)
        self.faults: Optional[FaultInjector] = faults
        #: nodes that take no more work: died, retired or blacklisted
        self.dead_nodes: set = set()
        self.node_failures: Dict[int, int] = {}
        self.map_output_losses = 0

    def _fire_faults(self, now: float) -> None:
        if self.faults is None:
            return
        self.faults.advance_time(now)
        self._handle_faults()

    def _handle_faults(self) -> None:
        for node, died_at in self.faults.drain_dead():
            self._node_lost(node, died_at)
        for node in self.faults.drain_retired():
            self._retire_node(node)

    def _flush_faults(self) -> None:
        """End of run: fire every fault due inside the job timeline
        (node deaths during the last reduce still make the record) and
        report the truly out-of-range leftovers instead of dropping
        them silently."""
        if self.faults is None:
            return
        self.faults.advance_time(self.horizon)
        self._handle_faults()
        for event in self.faults.pending_events():
            attrs = {"fault": event.kind}
            if event.at_time is not None:
                attrs["at_time"] = event.at_time
                attrs["reason"] = "scheduled beyond the end of the run"
            else:
                attrs["at_task"] = event.at_task
                attrs["reason"] = "beyond the last task boundary"
            self.tell("fault.ignored", self.horizon, **attrs)

    def _retire_node(self, node: int) -> None:
        self.dead_nodes.add(node)
        self.free = [(n, s) for n, s in self.free if n != node]

    def _node_lost(self, node: int, died_at: float) -> None:
        self._retire_node(node)
        self.tell("node.lost", died_at, node=node)
        for running in [
            r for r in self.running.values() if r.node == node
        ]:
            self._truncate(running, died_at, "node died")
            self._resolve(
                running, died_at, "lost", counted="node_lost",
                error="node died",
            )
            self._cover(running, died_at, "node died")
        self._invalidate_outputs(node, died_at)

    def _invalidate_outputs(self, node: int, died_at: float) -> None:
        """Durable-output bookkeeping: a dead node takes every spilled
        map output it held.  Executions whose shuffle has not completed
        lose those splits and re-run them (no retry budget consumed:
        output loss is not the task's failure); an in-flight shuffle
        aborts."""
        for execution in self.executions:
            if not execution.unfinished():
                continue
            lost = sorted(
                index
                for index, holder in execution.payload_nodes.items()
                if holder == node and index in execution.payloads
            )
            if not lost:
                continue
            if execution.state == "shuffling":
                execution.state = "mapping"
                execution.shuffle_gen += 1
                self.tell(
                    "shuffle.abort", died_at,
                    job=execution.name, tenant=execution.tenant,
                    node=node, lost_splits=len(lost),
                )
            for index in lost:
                del execution.payloads[index]
                del execution.payload_nodes[index]
                for task in execution.tasks:
                    if task.split_index == index and task.produced_output:
                        task.failed = True
                        task.error = "map output lost"
                execution.map_output_losses += 1
                self.map_output_losses += 1
                split_label = execution.splits[index].label
                self.obs.registry.counter(
                    "cluster.mapoutput.lost"
                ).inc()
                self.tell(
                    "mapoutput.lost", died_at,
                    split=split_label, node=node,
                    job=execution.name, tenant=execution.tenant,
                )
                self._requeue(
                    execution,
                    _Pending(
                        index, execution.attempts_used[index], died_at,
                    ),
                    died_at, frozenset({node}), "map output lost",
                    consume_attempt=False,
                )

    def _note_failure(self, node: int, now: float) -> None:
        """Count a failed attempt against ``node``; one that keeps
        failing them is blacklisted and takes no more work."""
        failures = self.node_failures.get(node, 0) + 1
        self.node_failures[node] = failures
        if failures < BLACKLIST_AFTER or node in self.dead_nodes:
            return
        self.obs.registry.counter("scheduler.blacklisted", node=node).inc()
        self.tell("node.blacklisted", now, node=node, failures=failures)
        self._retire_node(node)
