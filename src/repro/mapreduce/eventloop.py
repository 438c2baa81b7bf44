"""The event loop: one slot pool, one timeline, any number of executions.

:class:`SlotScheduler` is the only scheduler in the repo, and it sits
beneath everything that runs on it: ``run_job`` hands it one unit of
work through :func:`run_alone`, and
:class:`repro.cluster.ClusterManager` is the same loop under a
multi-tenant policy.  It places :class:`~repro.mapreduce.scheduler.
MapWork` on slots, data-local first, and carries Hadoop's
fault-tolerance contract for it.

What the kernel owns is mechanism: the simulated timeline and its event
heaps, the slot pool, the attempt lifecycle (launch, resolve, re-queue
away from the node that failed the attempt after a seeded backoff),
node loss (:mod:`repro.mapreduce.nodeloss`), the shuffle window that
bounds how long committed map outputs stay exposed, speculative races
(:mod:`repro.mapreduce.speculation` detects and launches; the race is
settled here) and ``tell``, through which every fact reaches the bus
and the journal.  Tenant and queue are opaque labels
on an execution.  Every *decision* goes through the three hooks of
:class:`~repro.mapreduce.scheduler.SchedulingPolicy`: who gets the next
free slot, what to evict first, and whether an execution may take one
more slot.  An execution starting or failing decides nothing; it is
told to the work's owner through :meth:`SlotScheduler.on_execution`.

Everything flows through the ambient EventBus, so ``repro top`` and the
trace exporters render any run with no extra plumbing.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hdfs.errors import FaultError
from repro.hdfs.filesystem import FileSystem
from repro.mapreduce.backoff import BackoffConfig, ExponentialBackoff
from repro.mapreduce.nodeloss import NodeLoss
from repro.mapreduce.scheduler import (
    JobFailedError,
    MapWork,
    ScheduledTask,
    SchedulingPolicy,
    _Execution,
    _Pending,
    _Running,
)
from repro.mapreduce.speculation import SpeculationConfig, Speculator
from repro.obs import Observability
from repro.sim.metrics import Metrics


class SlotScheduler(NodeLoss):
    """Places map work on one cluster's slots, on one simulated timeline.

    ``policy`` (kept as ``hooks``) defaults to arrival order;
    ``max_attempts`` overrides every unit of work's own; ``journal`` is
    anything with a ``note(kind, sim_time, attrs)``: it is offered every
    fact the scheduler states and keeps the ones it has a record for.
    """

    def __init__(
        self,
        fs: FileSystem,
        obs: Optional[Observability] = None,
        faults=None,
        policy: Optional[SchedulingPolicy] = None,
        speculation: SpeculationConfig = SpeculationConfig(),
        backoff: BackoffConfig = BackoffConfig(),
        max_attempts: Optional[int] = None,
        journal=None,
    ) -> None:
        super().__init__(fs, obs, faults)
        self.hooks = policy if policy is not None else SchedulingPolicy()
        self.speculator = (
            Speculator(speculation) if speculation.enabled else None
        )
        if backoff.seed == 0:
            backoff = replace(backoff, seed=fs.cluster.seed)
        self.retry_backoff = ExponentialBackoff(backoff)
        self.max_attempts = max_attempts
        self.journal = journal

        cluster = fs.cluster
        self.free: List[Tuple[int, int]] = [
            (node, slot)
            for node in range(cluster.num_nodes)
            if fs.is_node_live(node)
            for slot in range(cluster.map_slots_per_node)
        ]
        self.total_slots = len(self.free)
        self.running: Dict[int, _Running] = {}
        self._completions: List[Tuple[float, int]] = []
        self._shuffles: List[Tuple[float, int, int]] = []  # (end, eid, gen)
        self._attempt_seq = 0
        self.executions: List[_Execution] = []
        self.busy_slot_seconds = 0.0
        self.preemptions = 0
        self.speculative_attempts = 0
        self.horizon = 0.0
        self.now = 0.0

    def tell(self, kind: str, sim_time: float, /, **attrs) -> None:
        """State one scheduling fact, once: an event on the bus, and
        the same fact offered to the journal."""
        self.obs.emit(kind, sim_time=sim_time, **attrs)
        self._note(kind, sim_time, attrs)

    def _note(self, kind: str, sim_time: float, attrs: dict) -> None:
        if self.journal is not None:
            self.journal.note(kind, sim_time, attrs)

    def on_execution(
        self, execution: _Execution, now: float,
        error: Optional[str] = None,
    ) -> None:
        """``execution`` launched its first attempt (``error`` None) or
        failed for good with ``error``.  It decides nothing: an owner
        with something to report (the cluster's request envelope)
        overrides it."""

    # -- entry points ---------------------------------------------------

    def submit(
        self,
        work: MapWork,
        tenant: str = "default",
        arrival: float = 0.0,
        request_id: int = 0,
        queue: str = "default",
    ) -> _Execution:
        """Put one unit of work on the cluster; :meth:`drive` runs it."""
        execution = _Execution(
            work, tenant, queue, len(self.executions), arrival, request_id
        )
        self.executions.append(execution)
        if not execution.splits:  # nothing to place: straight to commit
            execution.started, execution.start = True, arrival
            self._start_shuffle(execution, arrival)
        return execution

    def drive(
        self,
        arrivals: Sequence = (),
        admit: Optional[Callable[[object], None]] = None,
    ) -> None:
        """The event loop: run everything submitted to completion.

        ``arrivals`` (anything with an ``arrival`` time, sorted by it)
        are handed to ``admit`` as they come due; ``admit`` submits
        what it lets in."""
        next_arrival = 0
        while True:
            # Everything due at the current instant, in causal order:
            # completed shuffles commit (their data is safely across the
            # network), faults fire, finished attempts release their
            # slots, new arrivals are admitted, the policy acts (evicts),
            # then the freed/idle slots are assigned.
            self._drain_shuffles(self.now)
            self._fire_faults(self.now)
            self._drain_completions(self.now)
            while (
                next_arrival < len(arrivals)
                and arrivals[next_arrival].arrival <= self.now
            ):
                admit(arrivals[next_arrival])
                next_arrival += 1
            self.hooks.before_assign(self, self.now)
            self._assign(self.now)

            # Advance to the next event.  Assignment executes attempts
            # eagerly, so completions scheduled for this same instant
            # (zero-length attempts) re-run the loop without moving.
            self._prune_completions()
            self._prune_shuffles()
            future = []
            if next_arrival < len(arrivals):
                future.append(arrivals[next_arrival].arrival)
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
            if self.speculator is not None and self.free:
                wake = self.speculator.next_time(self)
                if wake is not None and wake > self.now:
                    future.append(wake)
            if self.faults is not None and (
                next_arrival < len(arrivals)
                or any(e.unfinished() for e in self.executions)
            ):
                # While work is outstanding, faults are timeline events
                # of their own: they must land at their exact instants
                # (through the shuffle and reduce phases included), not
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
        del self.running[running.seq]
        execution = running.execution
        execution.running -= 1
        task = running.task
        self.busy_slot_seconds += task.duration
        if running.node not in self.dead_nodes:
            self.free.append((running.node, running.slot))
        self.obs.registry.counter(
            "task.attempts", outcome=counted or outcome
        ).inc()
        self.tell(
            "task.finish", at, kind="map",
            split=task.split.label, node=running.node, slot=running.slot,
            attempt=task.attempt, outcome=outcome,
            duration=task.duration, job=execution.name,
            tenant=execution.tenant, speculative=running.speculative,
            **attrs,
        )

    def live_partner(self, running: _Running) -> Optional[_Running]:
        """The other attempt racing this one, if it is still running."""
        return self.running.get(running.partner_seq)

    def _cover(self, running: _Running, at: float, error: str) -> None:
        """A resolved attempt produced nothing (fault, node death): see
        that its split still gets run.  While the racing attempt on
        another node lives, it covers the split and losing one
        contender costs nothing further; otherwise the split re-queues
        away from the node, on the original's retry budget only."""
        execution = running.execution
        if self.live_partner(running) is not None:
            if running.speculative:
                execution.speculated.discard(running.pending.index)
            return
        self._requeue(
            execution, running.pending, at, frozenset({running.node}),
            error, consume_attempt=not running.speculative,
        )

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
        split_label = execution.splits[index].label or str(index)
        if not consume_attempt:
            # A preempted attempt (or a lost map output) is the
            # scheduler's fault, not the task's: give the attempt back
            # so eviction can never starve a job into failed-job
            # territory.
            execution.attempts_used[index] -= 1
        attempts = execution.attempts_used[index]
        limit = max(
            1,
            self.max_attempts
            if self.max_attempts is not None
            else execution.work.max_attempts,
        )
        if attempts >= limit:
            self._fail(
                execution,
                f"split {split_label} failed {attempts} of {limit} "
                f"allowed attempts (last error: {error})",
                now,
            )
            return
        delay = 0.0
        if consume_attempt:
            # A genuine failure backs off before relaunching: seeded
            # exponential delay with jitter so simultaneous failures
            # spread out instead of re-colliding.
            delay = self.retry_backoff.delay(
                f"{execution.name}:{split_label}", max(0, attempts - 1)
            )
            if delay > 0:
                self.tell(
                    "retry.backoff", now,
                    job=execution.name, split=split_label,
                    attempt=attempts, delay=delay, ready=now + delay,
                )
        execution.pending.append(_Pending(
            index, attempts, now + delay, pending.banned | banned,
        ))
        # Offered to the journal only: every re-queue is a decision a
        # replay must reproduce, but the bus hears of one (above) only
        # when it backs off.
        self._note("task.requeue", now, dict(
            job=execution.name, split=split_label,
            ready=now + delay, attempt=attempts,
        ))

    def _fail(self, execution: _Execution, error: str, now: float) -> None:
        execution.failed = error
        execution.pending.clear()
        self.on_execution(execution, now, error)

    def _strand(self) -> None:
        for execution in self.executions:
            if execution.failed is None and not execution.done():
                self._fail(execution, "no live map slots remain", self.now)

    def preempt(self, running: _Running, now: float, by_queue: str) -> None:
        """Evict one live attempt on behalf of ``by_queue``.  Its split
        re-queues without consuming a retry attempt; a speculative
        clone is simply dropped (the original is still running, and the
        split may be re-cloned later if it keeps straggling)."""
        self._truncate(running, now, "preempted")
        running.task.preempted = True
        self._resolve(running, now, "preempted")
        execution = running.execution
        execution.preemptions += 1
        self.preemptions += 1
        self.obs.registry.counter(
            "cluster.preemptions", queue=execution.queue
        ).inc()
        self.tell(
            "task.preempted", now,
            split=running.task.split.label,
            node=running.node, slot=running.slot,
            job=execution.name, tenant=execution.tenant,
            queue=execution.queue, by_queue=by_queue,
            ran=running.task.duration, speculative=running.speculative,
        )
        if running.speculative:
            execution.speculated.discard(running.pending.index)
            self.obs.registry.counter(
                "scheduler.speculation", outcome="preempted"
            ).inc()
            return
        self._requeue(
            execution, running.pending, now, frozenset(),
            "preempted", consume_attempt=False,
        )

    # -- completions ----------------------------------------------------

    def _prune_completions(self) -> None:
        """Drop stale heap tops (attempts preempted / killed with
        their node) so they never masquerade as future events."""
        completions = self._completions
        while completions and completions[0][1] not in self.running:
            heapq.heappop(completions)

    def _drain_completions(self, upto: float) -> None:
        while self._completions and self._completions[0][0] <= upto:
            end, seq = heapq.heappop(self._completions)
            running = self.running.get(seq)
            if running is None:
                continue  # preempted or killed with the node
            execution = running.execution
            if running.faulted:
                self._resolve(
                    running, end, "failed", error=running.task.error
                )
                self._note_failure(running.node, end)
                if running.speculative:
                    self.obs.registry.counter(
                        "scheduler.speculation", outcome="failed"
                    ).inc()
                self._cover(running, end, running.task.error or "fault")
            else:
                self._resolve(running, end, "ok")
                execution.payloads[running.pending.index] = running.payload
                execution.payload_nodes[running.pending.index] = running.node
                if self.speculator is not None:
                    self.speculator.observe(
                        execution.queue, running.task.duration
                    )
                partner = self.live_partner(running)
                if partner is not None:
                    self._lose_race(partner, end, winner=running)
            if execution.done():
                self._start_shuffle(execution, end)

    def _lose_race(
        self, loser: _Running, end: float, winner: _Running
    ) -> None:
        """First finisher wins: the moment the winner's payload commits,
        the racing attempt is killed (not failed: no budget, no
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
        self.tell(
            "scheduler.speculation", end,
            split=task.split.label, job=execution.name,
            tenant=execution.tenant, outcome=outcome,
            winner_node=winner.node, loser_node=loser.node,
            saved=max(0.0, loser.end - end),
        )

    # -- shuffle window -------------------------------------------------

    def _start_shuffle(self, execution: _Execution, map_end: float) -> None:
        """All splits committed: open the shuffle window.  The output
        is durable only once the window closes; until then a node death
        can claw back this execution's map outputs."""
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
        self.tell(
            "shuffle.start", map_end,
            job=execution.name, tenant=execution.tenant,
            window=window, end=execution.shuffle_end,
        )

    def _shuffling(self, eid: int, gen: int) -> Optional[_Execution]:
        """The execution a shuffle-heap entry still stands for, or None
        once it was aborted (and possibly restarted) since."""
        execution = self.executions[eid]
        if (
            execution.failed is None
            and execution.state == "shuffling"
            and execution.shuffle_gen == gen
        ):
            return execution
        return None

    def _prune_shuffles(self) -> None:
        while self._shuffles:
            _end, eid, gen = self._shuffles[0]
            if self._shuffling(eid, gen) is not None:
                return
            heapq.heappop(self._shuffles)

    def _drain_shuffles(self, upto: float) -> None:
        while self._shuffles and self._shuffles[0][0] <= upto:
            end, eid, gen = heapq.heappop(self._shuffles)
            execution = self._shuffling(eid, gen)
            if execution is None:
                continue
            self.tell(
                "shuffle.finish", end,
                job=execution.name, tenant=execution.tenant,
            )
            self._commit(execution, execution.map_end)

    def _commit(self, execution: _Execution, map_end: float) -> None:
        """Shuffle complete: the work finishes itself (a job runs its
        sort/reduce).  From here it is immune to node deaths: its
        inputs are across the network."""
        execution.state = "finished"
        finish = execution.work.commit(execution, map_end)
        self.horizon = max(self.horizon, finish)

    # -- assignment -----------------------------------------------------

    def live_slots(self) -> int:
        return len(self.free) + len(self.running)

    def _assign(self, now: float) -> None:
        """Place ready work on free slots, then clone stragglers onto
        whatever stays idle."""
        while self.free:
            placement = self.hooks.select(self, now)
            if placement is None:
                break
            self._launch(now, *placement)
        if self.speculator is not None and self.free:
            self.speculator.speculate(self, now)

    def place(self, execution: _Execution, now: float):
        """Match one of the execution's ready splits to a free slot,
        data-local first: ``(execution, pending, node, slot, local)``
        or None."""
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
        # left outside it (none free, none running that could free
        # up) a banned node beats a stranded job.
        live = {node for node, _slot in free}
        live.update(r.node for r in self.running.values())
        for pending in ready:
            if live <= pending.banned:
                node, slot = free[0]
                locations = execution.splits[pending.index].locations
                return execution, pending, node, slot, node in locations
        return None

    def occupy(self, node: int, slot: int) -> bool:
        """Take ``(node, slot)`` out of the pool for an attempt about
        to start, which is a task boundary for the fault plan.  False
        when a fault due at that boundary took the node out: the slot
        died with it and the attempt must not start."""
        self.free.remove((node, slot))
        if self.faults is None:
            return True
        self.faults.on_task_start()
        self._handle_faults()
        return not (node in self.dead_nodes or self.faults.is_dead(node))

    def _launch(
        self,
        now: float,
        execution: _Execution,
        pending: _Pending,
        node: int,
        slot: int,
        local: bool,
    ) -> None:
        execution.pending.remove(pending)
        if not self.occupy(node, slot):
            execution.pending.append(pending)
            return
        execution.attempts_used[pending.index] += 1
        if not execution.started:
            execution.started = True
            execution.start = now
            self.on_execution(execution, now)
        self.execute_attempt(now, execution, pending, node, slot, local)

    def execute_attempt(
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
        self.tell(
            "task.start", now, kind="map",
            split=split.label, node=node, slot=slot,
            attempt=pending.attempt, placement=placement,
            speculative=speculative, job=execution.name,
            tenant=execution.tenant, queue=execution.queue,
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


def run_alone(
    fs: FileSystem,
    work: MapWork,
    obs: Optional[Observability] = None,
    faults=None,
    speculative: bool = False,
) -> _Execution:
    """Give one unit of work the whole cluster: what ``run_job`` does.

    The work goes straight onto the event loop under the default
    arrival-order policy.  ``speculative`` turns on progress-based
    straggler cloning.  Raises :class:`JobFailedError`, carrying the
    failed-attempt history, if a split exhausts its attempts or no live
    slot remains.
    """
    scheduler = SlotScheduler(
        fs, obs, faults, speculation=SpeculationConfig(enabled=speculative)
    )
    execution = scheduler.submit(work)
    scheduler.drive()
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
