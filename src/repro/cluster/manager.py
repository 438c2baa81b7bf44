"""The resource manager: one slot pool, one event loop, any number of jobs.

:class:`ClusterManager` owns every map slot and is the only scheduler
in the repo.  Its event loop places :class:`~repro.mapreduce.scheduler.
MapWork` — splits plus the callable that runs one attempt — on slots,
data-local first, on a shared simulated timeline, and carries Hadoop's
fault-tolerance contract for it: task attempts re-placed away from the
node that failed them, seeded backoff, node blacklisting, node-loss
re-queue, durable map outputs, speculation.  ``run_job`` and
``parallel_load`` hand it one unit of work through :func:`run_alone`;
:meth:`ClusterManager.run` is the multi-request entry point, which
turns each admitted :class:`JobRequest` into the same kind of work —
map attempts run for real via ``JobRunner.execute_map_attempt`` and
each finished job's sort/reduce via ``JobRunner.run_reduce_phase`` — so
a job computes byte-identical output whether it runs alone or under
contention.

On top of the loop sits the multi-tenancy layer:

- **admission control** — each tenant has a bounded queue of admitted-
  but-not-started jobs; submissions beyond it are rejected immediately
  (backpressure, surfaced as ``admission.reject`` events), and jobs
  with a deadline the calibrated cost model predicts they will miss are
  *shed* at the door (``admission.shed``) instead of wasting slots,
- **hierarchical fair share** — slots go to the most-underserved queue
  (running/capacity), then the most-underserved tenant within it
  (running/weight, respecting slot quotas), then the oldest job,
- **preemption** — a queue marked ``preempts`` that is under its
  guaranteed share evicts the longest-remaining attempt from a
  ``preemptible`` queue; the evicted split re-queues through the retry
  machinery *without* consuming a fault attempt.  Speculative
  duplicates are the preferred victims — killing a clone costs nothing,
- **speculative execution** — progress-based straggler cloning against
  per-queue completion quantiles (:mod:`repro.cluster.speculate`);
  first finisher wins, the loser is killed, duplicates never touch the
  original's retry budget,
- **a FIFO mode** — strict arrival order, quotas and queues ignored:
  the Hadoop-default baseline the fair policy is measured against.

Fault tolerance runs through the *entire* job timeline.  A completed
map attempt's spilled output lives on the node that ran it; the job is
vulnerable until its shuffle window closes (the time the largest reduce
partition takes to cross the network — a lower bound on the reduce
makespan, so fault-free finish times are unchanged).  A node death
before then invalidates every committed output it held: the affected
splits re-queue through the retry machinery (Hadoop semantics: output
loss is the scheduler's problem, not the task's, so no retry budget is
consumed) and an in-flight shuffle aborts and restarts when the re-run
maps finish.  Failed attempts themselves relaunch after a seeded
exponential backoff with jitter (``retry.backoff``), and every
scheduling decision can be journaled to a :class:`~repro.cluster.wal.
ClusterWAL` for crash recovery by verified deterministic replay.

Everything flows through the ambient EventBus, so ``repro top`` and the
trace exporters render multi-job runs with no extra plumbing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hdfs.errors import FaultError
from repro.hdfs.filesystem import FileSystem
from repro.mapreduce.backoff import ExponentialBackoff
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Job
from repro.mapreduce.output import CollectOutputFormat
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.scheduler import (
    JobFailedError,
    MapWork,
    ScheduledTask,
    _Pending,
)
from repro.obs import Observability, current_obs
from repro.sim.metrics import Metrics

from repro.cluster.config import ClusterPolicy, TenantConfig
from repro.cluster.report import ClusterReport, JobOutcome, percentile
from repro.cluster.speculate import SpeculationConfig
from repro.cluster.wal import ClusterWAL

#: failed attempts on one node before the scheduler stops using it
BLACKLIST_AFTER = 3


@dataclass(frozen=True)
class JobRequest:
    """One job submission: who wants what, and when.

    ``deadline`` (seconds after arrival, None = none) arms deadline-
    aware admission: the manager sheds the job up front if the cost
    model predicts it cannot finish in time.
    """

    job: Job
    tenant: str
    arrival: float
    request_id: int = 0
    kind: str = ""  # workload class label (crawl_scan / analytics / ...)
    deadline: Optional[float] = None


@dataclass
class _Running:
    """One in-flight map attempt on a slot."""

    execution: "_Execution"
    pending: _Pending
    task: ScheduledTask
    node: int
    slot: int
    end: float
    seq: int = 0
    payload: object = None
    alive: bool = True      # False once preempted / node died / killed
    faulted: bool = False   # attempt failed mid-read (FaultError)
    speculative: bool = False
    partner_seq: Optional[int] = None  # the other attempt in a race


def _ignore(*_args) -> None:
    pass


class _Execution:
    """Mutable state of one unit of work while it is on the cluster.

    ``state`` walks ``mapping -> shuffling -> finished``; a node death
    that destroys committed map output reverts ``shuffling`` back to
    ``mapping`` (the shuffle aborts) until the lost splits re-run.
    """

    def __init__(
        self,
        work: MapWork,
        tenant: str,
        queue: str,
        eid: int,
        arrival: float,
        request_id: int,
    ) -> None:
        self.work = work
        self.name = work.name
        self.tenant = tenant
        self.queue = queue
        self.splits = work.splits
        self.eid = eid
        self.arrival = arrival
        self.request_id = request_id
        #: the multi-request entry point hangs its job envelope here
        #: (dispatch/failure events, the JobOutcome); work submitted
        #: directly has none
        self.on_dispatch = _ignore
        self.on_fail = _ignore
        self.pending: List[_Pending] = [
            _Pending(i, 0) for i in range(len(self.splits))
        ]
        self.attempts_used = [0] * len(self.splits)
        self.payloads: Dict[int, object] = {}
        #: which node holds each committed split's spilled map output
        self.payload_nodes: Dict[int, int] = {}
        self.tasks: List[ScheduledTask] = []
        self.running = 0
        self.started = False
        self.start = 0.0
        self.preemptions = 0
        self.failed: Optional[str] = None
        self.state = "mapping"
        self.map_end = 0.0
        self.shuffle_end = 0.0
        self.shuffle_gen = 0  # bumped on every start/abort; stales heap entries
        self.map_output_losses = 0
        #: split indices that already have (or had) a speculative clone
        self.speculated: Set[int] = set()

    def done(self) -> bool:
        return (
            self.failed is None
            and not self.pending
            and self.running == 0
            and len(self.payloads) == len(self.splits)
        )

    def unfinished(self) -> bool:
        return self.failed is None and self.state != "finished"

    def ready(self, now: float) -> List[_Pending]:
        if self.failed is not None:
            return []
        return [p for p in self.pending if p.ready <= now]


class ClusterManager:
    """Schedules map work on one cluster's slots; arbitrates between jobs."""

    def __init__(
        self,
        fs: FileSystem,
        policy: ClusterPolicy,
        obs: Optional[Observability] = None,
        faults=None,
        max_attempts: Optional[int] = None,
        wal: Optional[ClusterWAL] = None,
    ) -> None:
        self.fs = fs
        self.policy = policy
        self.obs = obs if obs is not None else current_obs()
        self.runner = JobRunner(fs, self.obs, faults)
        self.faults = self.runner._injector()
        #: overrides every job's own max_attempts when set
        self.max_attempts = max_attempts
        self.wal = wal
        backoff = policy.backoff
        if backoff.seed == 0:
            backoff = replace(backoff, seed=fs.cluster.seed)
        self.retry_backoff = ExponentialBackoff(backoff)

        cluster = fs.cluster
        self.free: List[Tuple[int, int]] = [
            (node, slot)
            for node in range(cluster.num_nodes)
            if fs.is_node_live(node)
            for slot in range(cluster.map_slots_per_node)
        ]
        self.total_slots = len(self.free)
        #: nodes that take no more work: died, retired or blacklisted
        self.dead_nodes: set = set()
        self.node_failures: Dict[int, int] = {}
        self.running: Dict[int, _Running] = {}
        self._completions: List[Tuple[float, int]] = []
        self._shuffles: List[Tuple[float, int, int]] = []  # (end, eid, gen)
        self._attempt_seq = 0
        self.executions: List[_Execution] = []
        self.outcomes: List[JobOutcome] = []
        #: per-queue successful attempt durations (speculation samples)
        self._durations: Dict[str, List[float]] = {}
        #: committed job results, keyed by request_id (tests, repro.check)
        self.job_counters: Dict[int, Counters] = {}
        self.job_outputs: Dict[int, List[Tuple[object, object]]] = {}
        self.busy_slot_seconds = 0.0
        self.preemptions = 0
        self.map_output_losses = 0
        self.speculative_attempts = 0
        self.horizon = 0.0
        self.now = 0.0

    def _wal_append(self, kind: str, /, **fields) -> None:
        if self.wal is not None:
            self.wal.append(kind, **fields)

    # -- public entry points -------------------------------------------

    def run(self, requests: List[JobRequest]) -> ClusterReport:
        """Run every request to completion; returns the latency report."""
        queue = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        self.obs.emit(
            "cluster.start", sim_time=0.0,
            policy=self.policy.policy,
            nodes=self.fs.cluster.num_nodes,
            slots=self.total_slots,
            queues=len(self.policy.queues),
            tenants=len(self.policy.tenants),
            jobs=len(queue),
        )
        self.drive(queue)
        report = ClusterReport(
            policy=self.policy.policy,
            outcomes=sorted(
                self.outcomes, key=lambda o: o.request_id
            ),
            makespan=self.horizon,
            total_slots=self.total_slots,
            busy_slot_seconds=self.busy_slot_seconds,
            preemptions=self.preemptions,
            map_output_losses=self.map_output_losses,
            speculative_attempts=self.speculative_attempts,
        )
        self.obs.emit(
            "cluster.finish", sim_time=self.horizon,
            policy=self.policy.policy,
            completed=len(report.completed),
            rejected=len(report.rejected),
            failed=len(report.failed),
            shed=len(report.shed),
            makespan=self.horizon,
            utilization=report.utilization,
            preemptions=self.preemptions,
            map_output_losses=self.map_output_losses,
            speculative_attempts=self.speculative_attempts,
        )
        self._wal_append(
            "cluster_finish", t=self.horizon, makespan=self.horizon,
            completed=len(report.completed),
            rejected=len(report.rejected),
            failed=len(report.failed), shed=len(report.shed),
            preemptions=self.preemptions,
            map_output_losses=self.map_output_losses,
        )
        return report

    def submit(
        self,
        work: MapWork,
        tenant: str,
        arrival: float = 0.0,
        request_id: int = 0,
    ) -> _Execution:
        """Put one unit of work on the cluster, beneath admission
        control; :meth:`drive` runs it."""
        execution = _Execution(
            work, tenant, self.policy.tenant(tenant).queue,
            len(self.executions), arrival, request_id,
        )
        self.executions.append(execution)
        if not execution.splits:  # nothing to place: straight to commit
            execution.started, execution.start = True, arrival
            self._start_shuffle(execution, arrival)
        return execution

    def drive(self, queue: Sequence[JobRequest] = ()) -> None:
        """The event loop: admit ``queue`` (sorted by arrival) as it
        comes due and run everything submitted to completion."""
        next_req = 0
        while True:
            # Everything due at the current instant, in causal order:
            # completed shuffles commit (their data is safely across the
            # network), faults fire, finished attempts release their
            # slots, new jobs pass admission, under-served queues evict,
            # then the freed/idle slots are assigned.
            self._drain_shuffles(self.now)
            self._fire_faults(self.now)
            self._drain_completions(self.now)
            while (
                next_req < len(queue)
                and queue[next_req].arrival <= self.now
            ):
                self._admit(queue[next_req])
                next_req += 1
            if self.policy.policy == "fair":
                self._preempt(self.now)
            self._assign(self.now)

            # Advance to the next event.  Assignment executes attempts
            # eagerly, so completions scheduled for this same instant
            # (zero-length attempts) re-run the loop without moving.
            self._prune_completions()
            self._prune_shuffles()
            future = []
            if next_req < len(queue):
                future.append(queue[next_req].arrival)
            if self._completions:
                future.append(self._completions[0][0])
            if self._shuffles:
                future.append(self._shuffles[0][0])
            for execution in self.executions:
                if execution.failed is not None:
                    continue
                for p in execution.pending:
                    if p.ready > self.now:
                        future.append(p.ready)
            if self.policy.speculation.enabled and self.free:
                wake = self._next_speculation_time()
                if wake is not None and wake > self.now:
                    future.append(wake)
            if self.faults is not None and (
                next_req < len(queue)
                or any(e.unfinished() for e in self.executions)
            ):
                # While work is outstanding, faults are timeline events
                # of their own: they must land at their exact instants —
                # through the shuffle and reduce phases included — not
                # at whatever scheduling boundary follows.
                next_fault = self.faults.next_time()
                if next_fault is not None:
                    future.append(next_fault)
            if not future:
                if any(
                    e.failed is None and not e.done()
                    for e in self.executions
                ):
                    # Ready work with nowhere to run and no event that
                    # could change that: every slot died under it.
                    self._strand()
                break
            self.now = max(self.now, min(future))
            self.horizon = max(self.horizon, self.now)
        self._flush_faults()

    # -- admission ------------------------------------------------------

    def _admit(self, request: JobRequest) -> None:
        tenant = self.policy.tenant(request.tenant)
        queue = tenant.queue
        self.obs.emit(
            "job.submitted", sim_time=request.arrival,
            job=request.job.name, tenant=request.tenant, queue=queue,
            kind=request.kind,
        )
        waiting = sum(
            1 for e in self.executions
            if e.tenant == request.tenant
            and not e.started
            and e.failed is None
        )
        if waiting >= tenant.max_queued:
            self.obs.emit(
                "admission.reject", sim_time=request.arrival,
                job=request.job.name, tenant=request.tenant, queue=queue,
                queued=waiting, limit=tenant.max_queued,
            )
            self._wal_append(
                "reject", t=request.arrival, job=request.job.name,
                tenant=request.tenant, queued=waiting,
            )
            self._outcome(
                request, "rejected",
                error=f"tenant queue full ({waiting}/{tenant.max_queued})",
            )
            return
        splits = request.job.input_format.get_splits(
            self.fs, self.fs.cluster
        )
        if request.deadline is not None:
            predicted = self._predict_latency(request, splits)
            if predicted > request.deadline:
                self.obs.emit(
                    "admission.shed", sim_time=request.arrival,
                    job=request.job.name, tenant=request.tenant,
                    queue=queue, predicted=predicted,
                    deadline=request.deadline,
                )
                self._wal_append(
                    "shed", t=request.arrival, job=request.job.name,
                    tenant=request.tenant, predicted=predicted,
                    deadline=request.deadline,
                )
                self._outcome(
                    request, "shed",
                    error=(
                        f"predicted latency {predicted:.3f}s exceeds "
                        f"deadline {request.deadline:.3f}s"
                    ),
                )
                return
        self.obs.emit(
            "admission.accept", sim_time=request.arrival,
            job=request.job.name, tenant=request.tenant, queue=queue,
            queued=waiting + 1, splits=len(splits),
        )
        self._wal_append(
            "admit", t=request.arrival, job=request.job.name,
            tenant=request.tenant, queue=queue, splits=len(splits),
        )
        work = self.runner.map_work(request.job, splits)
        execution = self.submit(
            replace(work, commit=partial(self._finalize, request)),
            request.tenant, request.arrival, request.request_id,
        )
        execution.on_dispatch = self._job_dispatched
        execution.on_fail = partial(self._job_failed, request)

    def _outcome(
        self, request: JobRequest, status: str, **fields
    ) -> JobOutcome:
        outcome = JobOutcome(
            request_id=request.request_id,
            job_name=request.job.name,
            tenant=request.tenant,
            queue=self.policy.tenant(request.tenant).queue,
            kind=request.kind,
            arrival=request.arrival,
            status=status,
            deadline=request.deadline,
            **fields,
        )
        self.outcomes.append(outcome)
        return outcome

    def _predict_latency(self, request: JobRequest, splits: List) -> float:
        """Cost-model estimate of the job's completion latency.

        Map work is charged at the disk's sequential rate plus one seek
        per split, spread over the slots the tenant's queue can expect
        (its capacity share under fair scheduling, the whole pool under
        FIFO), behind the queue's current pending backlog.  Deliberately
        conservative-simple: shedding must be cheap, deterministic and
        explainable — not a second scheduler.
        """
        cluster = self.fs.cluster
        disk = cluster.disk

        def cost(split) -> float:
            return split.length / disk.bytes_per_sec + disk.seek_seconds

        work = sum(cost(split) for split in splits)
        queue = self.policy.tenant(request.tenant).queue
        live = max(1, self._live_slots())
        if self.policy.policy == "fair":
            share = self.policy.queue(queue).capacity
            slots = max(1, math.floor(share * live))
        else:
            slots = live
        backlog = 0.0
        for execution in self.executions:
            if not execution.unfinished() or execution.queue != queue:
                continue
            for pending in execution.pending:
                backlog += cost(execution.splits[pending.index])
        return (backlog + work) / slots + cluster.job_overhead_seconds

    # -- faults / node loss --------------------------------------------

    def _fire_faults(self, now: float) -> None:
        if self.faults is None:
            return
        self.faults.advance_time(now)
        self._handle_faults()

    def _handle_faults(self) -> None:
        if self.faults is None:
            return
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
            self.obs.emit(
                "fault.ignored", sim_time=self.horizon, **attrs
            )

    def _retire_node(self, node: int) -> None:
        self.dead_nodes.add(node)
        self.free = [(n, s) for n, s in self.free if n != node]

    def _node_lost(self, node: int, died_at: float) -> None:
        self._retire_node(node)
        self.obs.emit("node.lost", sim_time=died_at, node=node)
        self._wal_append("node_lost", t=died_at, node=node)
        for running in list(self.running.values()):
            if not running.alive or running.node != node:
                continue
            self._truncate(running, died_at, "node died")
            self._resolve(
                running, died_at, "lost", counted="node_lost",
                error="node died",
            )
            execution = running.execution
            if self._live_partner(running) is not None:
                # The racing attempt on another node still covers this
                # split; losing one contender costs nothing further.
                if running.speculative:
                    execution.speculated.discard(running.pending.index)
                continue
            self._requeue(
                execution, running.pending, died_at,
                frozenset({node}), "node died",
                consume_attempt=not running.speculative,
            )
        self._invalidate_outputs(node, died_at)

    def _invalidate_outputs(self, node: int, died_at: float) -> None:
        """Durable-output bookkeeping: a dead node takes every spilled
        map output it held.  Jobs whose shuffle has not completed lose
        those splits and re-run them (no retry budget consumed — output
        loss is not the task's failure); an in-flight shuffle aborts."""
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
                self.obs.emit(
                    "shuffle.abort", sim_time=died_at,
                    job=execution.name, tenant=execution.tenant,
                    node=node, lost_splits=len(lost),
                )
                self._wal_append(
                    "shuffle_abort", t=died_at, job=execution.name,
                    node=node,
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
                self.obs.emit(
                    "mapoutput.lost", sim_time=died_at,
                    split=split_label, node=node,
                    job=execution.name, tenant=execution.tenant,
                )
                self._wal_append(
                    "output_lost", t=died_at, job=execution.name,
                    split=split_label, node=node,
                )
                self._requeue(
                    execution,
                    _Pending(
                        index, execution.attempts_used[index], died_at,
                    ),
                    died_at, frozenset({node}), "map output lost",
                    consume_attempt=False,
                )

    # -- attempt lifecycle ---------------------------------------------

    def _truncate(
        self, running: _Running, at: float, error: str
    ) -> None:
        """Stop a live attempt at ``at``; its work so far is wasted."""
        task = running.task
        task.failed = True
        task.error = error
        task.duration = max(0.0, at - task.start)

    def _resolve(
        self,
        running: _Running,
        at: float,
        outcome: str,
        counted: Optional[str] = None,
        **attrs,
    ) -> None:
        """An attempt left its slot at ``at``, one way or another:
        settle the slot-time and slot-pool books, publish the outcome."""
        running.alive = False
        execution = running.execution
        execution.running -= 1
        task = running.task
        self.busy_slot_seconds += task.duration
        if running.node not in self.dead_nodes:
            self.free.append((running.node, running.slot))
        self.obs.registry.counter(
            "task.attempts", outcome=counted or outcome
        ).inc()
        self.obs.emit(
            "task.finish", sim_time=at, kind="map",
            split=task.split.label, node=running.node, slot=running.slot,
            attempt=task.attempt, outcome=outcome,
            duration=task.duration, job=execution.name,
            tenant=execution.tenant, speculative=running.speculative,
            **attrs,
        )
        self._wal_append(
            "complete", t=at, job=execution.name, split=task.split.label,
            node=running.node, slot=running.slot, outcome=outcome,
        )

    def _live_partner(self, running: _Running) -> Optional[_Running]:
        """The other attempt racing this one, if it is still alive."""
        if running.partner_seq is None:
            return None
        partner = self.running.get(running.partner_seq)
        if partner is not None and partner.alive:
            return partner
        return None

    def _requeue(
        self,
        execution: _Execution,
        pending: _Pending,
        now: float,
        banned: frozenset,
        error: str,
        consume_attempt: bool,
    ) -> None:
        index = pending.index
        if not consume_attempt:
            # A preempted attempt (or a lost map output) is the
            # scheduler's fault, not the task's: give the attempt back
            # so eviction can never starve a job into failed-job
            # territory.
            execution.attempts_used[index] -= 1
        limit = max(
            1,
            self.max_attempts
            if self.max_attempts is not None
            else execution.work.max_attempts,
        )
        if execution.attempts_used[index] >= limit:
            self._fail_job(
                execution,
                f"split {execution.splits[index].label or index} failed "
                f"{execution.attempts_used[index]} of {limit} "
                f"allowed attempts (last error: {error})",
                now,
            )
            return
        delay = 0.0
        if consume_attempt:
            # A genuine failure backs off before relaunching — seeded
            # exponential delay with jitter so simultaneous failures
            # spread out instead of re-colliding.
            label = (
                f"{execution.name}:"
                f"{execution.splits[index].label or index}"
            )
            delay = self.retry_backoff.delay(
                label, max(0, execution.attempts_used[index] - 1)
            )
            if delay > 0:
                self.obs.emit(
                    "retry.backoff", sim_time=now,
                    job=execution.name,
                    split=execution.splits[index].label or str(index),
                    attempt=execution.attempts_used[index],
                    delay=delay, ready=now + delay,
                )
        execution.pending.append(_Pending(
            index,
            execution.attempts_used[index],
            now + delay,
            pending.banned | banned,
        ))
        self._wal_append(
            "requeue", t=now, job=execution.name,
            split=execution.splits[index].label or str(index),
            ready=now + delay, attempt=execution.attempts_used[index],
        )

    def _fail_job(
        self, execution: _Execution, error: str, now: float
    ) -> None:
        execution.failed = error
        execution.pending.clear()
        execution.on_fail(execution, error, now)

    def _job_failed(
        self,
        request: JobRequest,
        execution: _Execution,
        error: str,
        now: float,
    ) -> None:
        self.obs.emit(
            "job.finish", sim_time=now,
            job=execution.name, tenant=execution.tenant,
            queue=execution.queue, outcome="failed", error=error,
        )
        self._wal_append(
            "job_failed", t=now, job=execution.name, error=error,
        )
        self._outcome(
            request, "failed",
            start=execution.start,
            attempts=len(execution.tasks),
            preemptions=execution.preemptions,
            error=error,
        )

    def _strand(self) -> None:
        for execution in self.executions:
            if execution.failed is None and not execution.done():
                self._fail_job(
                    execution, "no live map slots remain", self.now
                )

    # -- completions ----------------------------------------------------

    def _prune_completions(self) -> None:
        """Drop stale heap tops (attempts preempted / killed with
        their node) so they never masquerade as future events."""
        while self._completions:
            _, seq = self._completions[0]
            running = self.running.get(seq)
            if running is not None and running.alive:
                return
            heapq.heappop(self._completions)
            self.running.pop(seq, None)

    def _drain_completions(self, upto: float) -> None:
        while self._completions and self._completions[0][0] <= upto:
            end, seq = heapq.heappop(self._completions)
            running = self.running.pop(seq, None)
            if running is None or not running.alive:
                continue  # preempted or killed with the node
            execution = running.execution
            partner = self._live_partner(running)
            if running.faulted:
                self._resolve(
                    running, end, "failed", error=running.task.error
                )
                self._note_failure(running.node, end)
                if running.speculative:
                    self.obs.registry.counter(
                        "scheduler.speculation", outcome="failed"
                    ).inc()
                if partner is not None:
                    # The other attempt still covers the split; this
                    # failure costs nothing further.
                    if running.speculative:
                        execution.speculated.discard(running.pending.index)
                    continue
                self._requeue(
                    execution, running.pending, end,
                    frozenset({running.node}),
                    running.task.error or "fault",
                    consume_attempt=not running.speculative,
                )
            else:
                self._resolve(running, end, "ok")
                execution.payloads[running.pending.index] = running.payload
                execution.payload_nodes[running.pending.index] = running.node
                self._durations.setdefault(
                    execution.queue, []
                ).append(running.task.duration)
                if partner is not None:
                    self._lose_race(partner, end, winner=running)
            if execution.done():
                self._start_shuffle(execution, end)

    def _note_failure(self, node: int, now: float) -> None:
        """Count a failed attempt against ``node``; one that keeps
        failing them is blacklisted and takes no more work."""
        failures = self.node_failures.get(node, 0) + 1
        self.node_failures[node] = failures
        if failures < BLACKLIST_AFTER or node in self.dead_nodes:
            return
        self.obs.registry.counter("scheduler.blacklisted", node=node).inc()
        self.obs.emit(
            "node.blacklisted", sim_time=now, node=node, failures=failures
        )
        self._wal_append("node_blacklisted", t=now, node=node)
        self._retire_node(node)

    def _lose_race(
        self, loser: _Running, end: float, winner: _Running
    ) -> None:
        """First finisher wins: the moment the winner's payload commits,
        the racing attempt is killed (not failed — no budget, no
        requeue) and its slot returns to the pool."""
        task = loser.task
        task.killed = True
        task.duration = max(0.0, end - task.start)
        self._resolve(loser, end, "killed")
        execution = loser.execution
        outcome = "won" if winner.speculative else "lost"
        self.obs.registry.counter(
            "scheduler.speculation", outcome=outcome
        ).inc()
        self.obs.emit(
            "scheduler.speculation", sim_time=end,
            split=task.split.label, job=execution.name,
            tenant=execution.tenant, outcome=outcome,
            winner_node=winner.node, loser_node=loser.node,
            saved=max(0.0, loser.end - end),
        )

    # -- shuffle window -------------------------------------------------

    def _start_shuffle(self, execution: _Execution, map_end: float) -> None:
        """All splits committed: open the shuffle window.  The job's
        output is durable only once the window closes; until then a node
        death can claw back this job's map outputs."""
        execution.map_end = map_end
        window = execution.work.shuffle_window(execution.payloads)
        if window <= 0.0:
            self._commit(execution, map_end)
            return
        execution.state = "shuffling"
        execution.shuffle_gen += 1
        execution.shuffle_end = map_end + window
        heapq.heappush(
            self._shuffles,
            (execution.shuffle_end, execution.eid, execution.shuffle_gen),
        )
        self.obs.emit(
            "shuffle.start", sim_time=map_end,
            job=execution.name, tenant=execution.tenant,
            window=window, end=execution.shuffle_end,
        )
        self._wal_append(
            "shuffle_start", t=map_end, job=execution.name,
            end=execution.shuffle_end,
        )

    def _prune_shuffles(self) -> None:
        while self._shuffles:
            _end, eid, gen = self._shuffles[0]
            execution = self.executions[eid]
            if (
                execution.failed is None
                and execution.state == "shuffling"
                and execution.shuffle_gen == gen
            ):
                return
            heapq.heappop(self._shuffles)

    def _drain_shuffles(self, upto: float) -> None:
        while self._shuffles and self._shuffles[0][0] <= upto:
            end, eid, gen = heapq.heappop(self._shuffles)
            execution = self.executions[eid]
            if (
                execution.failed is not None
                or execution.state != "shuffling"
                or execution.shuffle_gen != gen
            ):
                continue  # aborted (and possibly restarted) since
            self.obs.emit(
                "shuffle.finish", sim_time=end,
                job=execution.name, tenant=execution.tenant,
            )
            self._commit(execution, execution.map_end)

    def _commit(self, execution: _Execution, map_end: float) -> None:
        """Shuffle complete: the work finishes itself (a job runs its
        sort/reduce).  From here it is immune to node deaths — its
        inputs are across the network."""
        execution.state = "finished"
        finish = execution.work.commit(execution, map_end)
        self.horizon = max(self.horizon, finish)

    def _finalize(
        self, request: JobRequest, execution: _Execution, map_end: float
    ) -> float:
        """A request's commit: sort/reduce, then the job's outcome."""
        job = request.job
        counters = Counters()
        map_outputs = []
        for index in range(len(execution.splits)):
            partitions, task_counters = execution.payloads[index]
            map_outputs.append(partitions)
            counters.merge(task_counters)
        output_format = job.output_format
        collect = None
        if output_format is None:
            collect = CollectOutputFormat()
            output_format = collect
        reduce_makespan, _ = self.runner.run_reduce_phase(
            job, map_outputs, output_format, counters, map_end
        )
        finish = (
            map_end + reduce_makespan
            + self.fs.cluster.job_overhead_seconds
        )
        self.job_counters[request.request_id] = counters
        if collect is not None:
            self.job_outputs[request.request_id] = collect.collected
        outcome = self._outcome(
            request, "completed",
            start=execution.start,
            finish=finish,
            map_makespan=map_end - execution.start,
            reduce_time=reduce_makespan,
            attempts=len(execution.tasks),
            preemptions=execution.preemptions,
        )
        finish_attrs = {}
        if outcome.deadline is not None:
            finish_attrs["deadline"] = outcome.deadline
            finish_attrs["deadline_miss"] = outcome.deadline_missed
        self.obs.emit(
            "job.finish", sim_time=finish,
            job=job.name, tenant=execution.tenant, queue=execution.queue,
            outcome="completed", latency=outcome.latency,
            wait=outcome.wait, preemptions=execution.preemptions,
            attempts=len(execution.tasks), **finish_attrs,
        )
        self._wal_append(
            "job_complete", t=finish, job=job.name, finish=finish,
        )
        return finish

    # -- preemption -----------------------------------------------------

    def _live_slots(self) -> int:
        return len(self.free) + sum(
            1 for r in self.running.values() if r.alive
        )

    def _running_in_queue(self, queue: str) -> int:
        return sum(
            1 for r in self.running.values()
            if r.alive and r.execution.queue == queue
        )

    def _preempt(self, now: float) -> None:
        live = self._live_slots()
        if live <= 0:
            return
        for queue in self.policy.queues:
            if not queue.preempts:
                continue
            demand = sum(
                len(e.ready(now)) for e in self.executions
                if e.queue == queue.name
            )
            if demand == 0:
                continue
            deserved = max(1, math.floor(queue.capacity * live))
            shortfall = min(demand, deserved) \
                - self._running_in_queue(queue.name) - len(self.free)
            while shortfall > 0:
                victim = self._pick_victim(queue.name)
                if victim is None:
                    break
                self._preempt_one(victim, now, queue.name)
                shortfall -= 1

    def _pick_victim(self, for_queue: str) -> Optional[_Running]:
        preemptible = {
            q.name for q in self.policy.queues
            if q.preemptible and q.name != for_queue
        }
        candidates = [
            r for r in self.running.values()
            if r.alive and r.execution.queue in preemptible
        ]
        if not candidates:
            return None
        # Speculative duplicates first: killing a clone reclaims a slot
        # at zero cost (the original keeps running).  Then the attempt
        # with the most remaining work — least sunk cost per reclaimed
        # second; ties break on placement for determinism.
        return max(
            candidates,
            key=lambda r: (r.speculative, r.end, -r.node, -r.slot),
        )

    def _preempt_one(
        self, running: _Running, now: float, by_queue: str
    ) -> None:
        self._truncate(running, now, "preempted")
        running.task.preempted = True
        self._resolve(running, now, "preempted")
        execution = running.execution
        execution.preemptions += 1
        self.preemptions += 1
        self.obs.registry.counter(
            "cluster.preemptions", queue=execution.queue
        ).inc()
        self.obs.emit(
            "task.preempted", sim_time=now,
            split=running.task.split.label,
            node=running.node, slot=running.slot,
            job=execution.name, tenant=execution.tenant,
            queue=execution.queue, by_queue=by_queue,
            ran=running.task.duration, speculative=running.speculative,
        )
        if running.speculative:
            # Evicting a clone must not touch the original attempt's
            # retry budget — the original is still running; the split
            # may be re-cloned later if it keeps straggling.
            execution.speculated.discard(running.pending.index)
            self.obs.registry.counter(
                "scheduler.speculation", outcome="preempted"
            ).inc()
            return
        self._requeue(
            execution, running.pending, now, frozenset(),
            "preempted", consume_attempt=False,
        )

    # -- assignment -----------------------------------------------------

    def _assign(self, now: float) -> bool:
        """Place ready work on free slots; True if anything launched."""
        launched = False
        while self.free:
            placement = self._select(now)
            if placement is None:
                break
            execution, pending, node, slot, local = placement
            self._launch(now, execution, pending, node, slot, local)
            launched = True
        if self.policy.speculation.enabled and self.free:
            self._speculate(now)
        return launched

    def _select(self, now: float):
        if self.policy.policy == "fifo":
            ordered = sorted(
                (e for e in self.executions if e.ready(now)),
                key=lambda e: (
                    e.arrival, e.request_id
                ),
            )
            for execution in ordered:
                placed = self._place(execution, now)
                if placed is not None:
                    return placed
            return None
        # Hierarchical fair share: most-underserved queue, then
        # most-underserved tenant under quota, then oldest job.
        skipped_queues: set = set()
        while True:
            queues = {}
            for execution in self.executions:
                if execution.queue in skipped_queues:
                    continue
                if execution.ready(now):
                    queues.setdefault(execution.queue, []).append(execution)
            if not queues:
                return None
            queue_name = min(
                queues,
                key=lambda name: (
                    self._running_in_queue(name)
                    / self.policy.queue(name).capacity,
                    name,
                ),
            )
            placed = self._select_in_queue(queues[queue_name], now)
            if placed is not None:
                return placed
            skipped_queues.add(queue_name)

    def _select_in_queue(self, executions: List[_Execution], now: float):
        running_by_tenant: Dict[str, int] = {}
        for r in self.running.values():
            if r.alive:
                running_by_tenant[r.execution.tenant] = (
                    running_by_tenant.get(r.execution.tenant, 0) + 1
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
                    running_by_tenant.get(n, 0)
                    / self.policy.tenant(n).weight,
                    n,
                ),
            )
            tenant = self.policy.tenant(name)
            if (
                tenant.max_running_slots > 0
                and running_by_tenant.get(name, 0)
                >= tenant.max_running_slots
            ):
                skipped.add(name)
                continue
            for execution in sorted(
                by_tenant[name],
                key=lambda e: (e.arrival, e.request_id),
            ):
                placed = self._place(execution, now)
                if placed is not None:
                    return placed
            skipped.add(name)

    def _place(self, execution: _Execution, now: float):
        """Match one of the job's ready splits to a free slot,
        data-local first."""
        free = sorted(self.free)
        ready = execution.ready(now)
        for pending in ready:
            locations = execution.splits[pending.index].locations
            for node, slot in free:
                if node in pending.banned:
                    continue
                if node in locations:
                    return execution, pending, node, slot, True
        for pending in ready:
            for node, slot in free:
                if node in pending.banned:
                    continue
                return execution, pending, node, slot, False
        # Every free slot is banned for every ready attempt.  A ban
        # steers a retry towards another node; when no live node is
        # left outside it — none free, none running that could free
        # up — a banned node beats a stranded job.
        live = {node for node, _slot in free}
        live.update(r.node for r in self.running.values() if r.alive)
        for pending in ready:
            if live <= pending.banned:
                node, slot = free[0]
                locations = execution.splits[pending.index].locations
                return execution, pending, node, slot, node in locations
        return None

    def _launch(
        self,
        now: float,
        execution: _Execution,
        pending: _Pending,
        node: int,
        slot: int,
        local: bool,
    ) -> None:
        self.free.remove((node, slot))
        execution.pending.remove(pending)
        if self.faults is not None:
            self.faults.on_task_start()
            self._handle_faults()
            if node in self.dead_nodes or self.faults.is_dead(node):
                # A task-boundary fault took the node out before the
                # attempt started; the slot died with it.
                execution.pending.append(pending)
                return
        execution.attempts_used[pending.index] += 1
        if not execution.started:
            execution.started = True
            execution.start = now
            execution.on_dispatch(execution, now)
        self._execute_attempt(now, execution, pending, node, slot, local)

    def _job_dispatched(self, execution: _Execution, now: float) -> None:
        self.obs.emit(
            "job.dispatch", sim_time=now,
            job=execution.name, tenant=execution.tenant,
            queue=execution.queue, splits=len(execution.splits),
            wait=now - execution.arrival,
        )

    def _execute_attempt(
        self,
        now: float,
        execution: _Execution,
        pending: _Pending,
        node: int,
        slot: int,
        local: bool,
        speculative: bool = False,
        partner_seq: Optional[int] = None,
    ) -> _Running:
        """Run one attempt eagerly and register its completion event."""
        split = execution.splits[pending.index]
        placement = "local" if local else "remote"
        self.obs.registry.counter(
            "scheduler.assignments", placement=placement
        ).inc()
        self.obs.emit(
            "task.start", sim_time=now, kind="map",
            split=split.label, node=node, slot=slot,
            attempt=pending.attempt, placement=placement,
            speculative=speculative, job=execution.name,
            tenant=execution.tenant, queue=execution.queue,
        )
        self._wal_append(
            "launch", t=now, job=execution.name, split=split.label,
            node=node, slot=slot, attempt=pending.attempt,
            speculative=speculative,
        )
        faulted = False
        payload = None
        try:
            metrics, payload = execution.work.attempt(split, node)
            error = None
        except FaultError as exc:
            metrics = getattr(exc, "metrics", None) or Metrics()
            error = str(exc) or type(exc).__name__
            faulted = True
        duration = metrics.task_time
        task = ScheduledTask(
            split, node, now, duration, metrics, local,
            attempt=pending.attempt, failed=faulted, error=error,
            split_index=pending.index, slot=slot,
            speculative=speculative,
        )
        execution.tasks.append(task)
        execution.running += 1
        # task.finish is deferred until the attempt actually resolves
        # (drain / preemption / node loss): an attempt launched now may
        # never reach its computed end.
        self._attempt_seq += 1
        running = _Running(
            execution=execution,
            pending=pending,
            task=task,
            node=node,
            slot=slot,
            end=now + duration,
            seq=self._attempt_seq,
            payload=payload,
            faulted=faulted,
            speculative=speculative,
            partner_seq=partner_seq,
        )
        self.running[self._attempt_seq] = running
        heapq.heappush(
            self._completions, (now + duration, self._attempt_seq)
        )
        return running

    # -- speculation ----------------------------------------------------

    def _straggler_candidates(self):
        """``(attempt, patience)`` for every running original that may
        still be cloned, oldest first.

        An attempt is a straggler once it has been running for its
        ``patience``: ``slowdown`` times its queue's ``quantile``
        completion duration (progress-based detection — the manager
        never peeks at an attempt's predetermined end)."""
        cfg = self.policy.speculation
        for seq in sorted(self.running):
            running = self.running[seq]
            execution = running.execution
            if (
                not running.alive
                or running.speculative
                or self._live_partner(running) is not None
                or execution.failed is not None
                or running.pending.index in execution.speculated
            ):
                continue
            samples = self._durations.get(execution.queue, ())
            if len(samples) < cfg.min_samples:
                continue
            typical = percentile(samples, cfg.quantile * 100)
            if typical > 0:
                yield running, cfg.slowdown * typical

    def _next_speculation_time(self) -> Optional[float]:
        """Earliest instant a running attempt crosses the straggler
        threshold.  Without this the event loop would only notice a
        straggler at the next natural event — which in a quiet cluster
        is the straggler's own completion, too late to help."""
        return min(
            (
                running.task.start + patience
                for running, patience in self._straggler_candidates()
            ),
            default=None,
        )

    def _speculate(self, now: float) -> None:
        """Clone stragglers onto otherwise-idle slots, worst straggler
        first; each clone is charged to the owning tenant's fair share
        and quota, and never consumes the original's retry budget."""
        for original, patience in list(self._straggler_candidates()):
            if not self.free:
                break
            # not < so the threshold-crossing wake-up itself qualifies
            if now - original.task.start < patience or not original.alive:
                continue
            tenant = self.policy.tenant(original.execution.tenant)
            if tenant.max_running_slots > 0:
                in_use = sum(
                    1 for r in self.running.values()
                    if r.alive and r.execution.tenant == tenant.name
                )
                if in_use >= tenant.max_running_slots:
                    continue
            banned = original.pending.banned | {original.node}
            free = [f for f in sorted(self.free) if f[0] not in banned]
            if not free:
                continue
            locations = original.task.split.locations
            node, slot = next(
                (f for f in free if f[0] in locations), free[0]
            )
            self._launch_speculative(
                now, original, node, slot, node in locations
            )

    def _launch_speculative(
        self,
        now: float,
        original: _Running,
        node: int,
        slot: int,
        local: bool,
    ) -> None:
        execution = original.execution
        index = original.pending.index
        split = execution.splits[index]
        self.free.remove((node, slot))
        execution.speculated.add(index)
        if self.faults is not None:
            self.faults.on_task_start()
            self._handle_faults()
            if node in self.dead_nodes or self.faults.is_dead(node):
                # The boundary fault took the chosen node; the slot
                # died with it and the clone never starts.
                execution.speculated.discard(index)
                return
            if (
                not original.alive
                or execution.failed is not None
                or index in execution.payloads
            ):
                # The same fault resolved the original (or the job);
                # nothing left to race.
                execution.speculated.discard(index)
                self.free.append((node, slot))
                return
        pending = _Pending(
            index, original.pending.attempt, now,
            original.pending.banned | frozenset({original.node}),
        )
        self.speculative_attempts += 1
        self.obs.registry.counter(
            "scheduler.speculation", outcome="launched"
        ).inc()
        self.obs.emit(
            "task.speculative", sim_time=now, split=split.label,
            node=node, slot=slot, victim_node=original.node,
            elapsed=now - original.task.start,
            job=execution.name, tenant=execution.tenant,
            queue=execution.queue,
        )
        duplicate = self._execute_attempt(
            now, execution, pending, node, slot, local,
            speculative=True, partner_seq=original.seq,
        )
        original.partner_seq = duplicate.seq


def run_alone(
    fs: FileSystem,
    work: MapWork,
    obs: Optional[Observability] = None,
    faults=None,
    speculative: bool = False,
) -> _Execution:
    """Give one unit of work the whole cluster: what ``run_job`` and
    ``parallel_load`` do.

    The work goes straight onto the event loop of a one-tenant FIFO
    manager — no admission, no ``cluster.*`` envelope.  ``speculative``
    turns on progress-based straggler cloning.  Raises
    :class:`JobFailedError`, carrying the failed-attempt history, if a
    split exhausts its attempts or no live slot remains.
    """
    policy = ClusterPolicy(
        tenants=[TenantConfig("default", "default")],
        policy="fifo",
        speculation=SpeculationConfig(enabled=speculative),
    )
    manager = ClusterManager(fs, policy, obs, faults)
    execution = manager.submit(work, "default")
    manager.drive()
    if execution.failed is not None:
        raise JobFailedError(
            execution.failed,
            [
                {
                    "split": task.split.label,
                    "node": task.node,
                    "attempt": task.attempt,
                    "start": task.start,
                    "error": task.error,
                }
                for task in execution.tasks
                if task.failed
            ],
        )
    return execution
