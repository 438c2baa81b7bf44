"""What the scheduler is made of: units of work, attempts, the policy seam.

The paper's co-location argument (Section 4.1) depends on one thing the
scheduler does: when a map slot frees up it prefers a split whose data
is local to that node; if none exists the task runs anyway and pays
remote-read costs.  That loop, together with Hadoop's fault-tolerance
contract, lives once, in :class:`repro.mapreduce.eventloop.
SlotScheduler`.  This module holds what its callers, its results and
its policies are made of:

- :class:`MapWork`: what ``run_job`` and the cluster manager hand the
  event loop: splits plus the callable that runs one attempt,
- :class:`ScheduledTask`: one executed attempt, as it appears in
  ``JobResult.tasks``,
- :class:`JobFailedError`: a split exhausted its attempts (or the
  cluster died), with the failed-attempt history,
- :class:`SchedulingPolicy`: the three hooks through which every
  scheduling *decision* is taken, and their arrival-order default;
  the state they read is ``_Execution`` (one unit of work while it is
  on the cluster) and ``_Running`` (one attempt on a slot),
- :func:`simulate_wave_makespan`: the reduce phase's slot packing,
  where there is no locality to schedule for.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.mapreduce.types import InputSplit
from repro.sim.metrics import Metrics

if TYPE_CHECKING:  # the loop builds on this module
    from repro.mapreduce.eventloop import SlotScheduler


@dataclass
class MapWork:
    """One unit of work for the event loop: splits and how to run one.

    ``attempt(split, node)`` performs one task attempt's real work on
    ``node`` and returns ``(metrics, payload)``; the attempt's simulated
    duration is ``metrics.task_time`` — not known in advance, because
    placement decides how much of the split is read remotely.  An
    ``attempt`` that raises a :class:`~repro.hdfs.errors.FaultError`
    marks the attempt failed (the error's ``metrics``, if any, still
    occupy the slot) and the split is retried on another node, up to
    ``max_attempts`` attempts in total.

    Once every split has a committed payload the outputs stay
    vulnerable to node loss for ``shuffle_window(payloads)`` seconds
    (``payloads`` maps split index to payload); then
    ``commit(execution, map_end)`` finishes the work — for a job, its
    reduce phase — and returns the simulated time it is done.
    """

    name: str
    splits: Sequence[InputSplit]
    attempt: Callable[[InputSplit, int], Tuple[Metrics, object]]
    max_attempts: int = 1
    shuffle_window: Callable[[Dict[int, object]], float] = (
        lambda payloads: 0.0
    )
    commit: Callable[[object, float], float] = (
        lambda execution, map_end: map_end
    )


@dataclass
class ScheduledTask:
    """One executed map-task attempt (or speculative duplicate)."""

    split: InputSplit
    node: int
    start: float
    duration: float
    metrics: Metrics
    data_local: bool
    speculative: bool = False
    killed: bool = False  # lost the race against its duplicate/original
    attempt: int = 0      # 0-based attempt number for this split
    failed: bool = False  # attempt died (fault or node loss); was retried
    error: Optional[str] = None
    split_index: int = -1
    slot: int = -1        # which of the node's map slots ran the attempt
    preempted: bool = False  # evicted by a higher-priority queue; requeued

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def produced_output(self) -> bool:
        """Did this attempt's output make it into the job's result?"""
        return not self.killed and not self.failed


class JobFailedError(RuntimeError):
    """A split exhausted its task attempts (or the cluster died).

    ``attempts`` is the failed-attempt history: one dict per failed
    attempt with ``split``, ``node``, ``attempt``, ``start``, ``error``.
    """

    def __init__(self, message: str, attempts: Optional[List[dict]] = None):
        super().__init__(message)
        self.attempts: List[dict] = list(attempts or [])


@dataclass
class _Pending:
    """A split waiting to run (first time or retry)."""

    index: int
    attempt: int
    ready: float = 0.0
    banned: FrozenSet[int] = field(default_factory=frozenset)


def makespan(tasks: Sequence[ScheduledTask]) -> float:
    """Wall-clock end of the last task (0 for an empty task list)."""
    return max((t.end for t in tasks), default=0.0)


def simulate_wave_makespan(durations: Sequence[float], total_slots: int) -> float:
    """Makespan of independent tasks on ``total_slots`` identical slots.

    Used for the reduce phase, where there is no data locality: a simple
    longest-processing-time-first packing over a slot heap.
    """
    if not durations or total_slots < 1:
        return 0.0
    slots = [0.0] * min(total_slots, len(durations))
    heapq.heapify(slots)
    for duration in sorted(durations, reverse=True):
        free = heapq.heappop(slots)
        heapq.heappush(slots, free + duration)
    return max(slots)


@dataclass
class _Running:
    """One in-flight map attempt: in ``scheduler.running`` under its
    ``seq`` exactly while it holds its slot."""

    execution: "_Execution"
    pending: _Pending
    task: ScheduledTask
    node: int
    slot: int
    end: float
    seq: int = 0
    payload: object = None
    faulted: bool = False   # attempt failed mid-read (FaultError)
    speculative: bool = False
    partner_seq: Optional[int] = None  # the other attempt in a race


class _Execution:
    """Mutable state of one unit of work while it is on the cluster.

    ``state`` walks ``mapping -> shuffling -> finished``; a node death
    that destroys committed map output reverts ``shuffling`` back to
    ``mapping`` (the shuffle aborts) until the lost splits re-run.
    ``tenant`` and ``queue`` are labels the scheduler only ever copies
    into events; a policy may give them meaning.
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
        if self.failed is not None or not self.pending:
            return []  # most executions, most of the time
        return [p for p in self.pending if p.ready <= now]


class SchedulingPolicy:
    """The seam between the event loop and whoever arbitrates its slots.

    Three hooks (``docs/cluster.md`` gives their call order inside one
    loop iteration), each handed the :class:`SlotScheduler` to read its
    ``executions``, ``free`` and ``running``.  This class is the default
    policy, arrival order, which is all a job running alone needs.
    """

    def before_assign(self, scheduler: SlotScheduler, now: float) -> None:
        """Act on the cluster before this instant's free slots are
        handed out, once per loop iteration (preemption lives here:
        :meth:`SlotScheduler.preempt` evicts one attempt)."""

    def select(self, scheduler: SlotScheduler, now: float):
        """The next attempt for a free slot, as :meth:`SlotScheduler.
        place` returns it, or None when nothing ready can run; asked
        again until it says None or no slot is free."""
        return self.oldest_first(
            scheduler, (e for e in scheduler.executions if e.ready(now)), now
        )

    @staticmethod
    def oldest_first(scheduler: SlotScheduler, executions, now: float):
        """The first placement any of ``executions`` has to offer,
        trying them in arrival order."""
        for execution in sorted(
            executions, key=lambda e: (e.arrival, e.request_id)
        ):
            placed = scheduler.place(execution, now)
            if placed is not None:
                return placed
        return None

    def may_take_slot(
        self, scheduler: SlotScheduler, execution: _Execution
    ) -> bool:
        """May ``execution`` hold one more slot than it does?  Asked
        before a speculative clone launches; a policy with quotas asks
        itself the same thing inside :meth:`select`."""
        return True
