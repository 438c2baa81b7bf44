"""The scheduling vocabulary: units of work, attempts, wave packing.

The paper's co-location argument (Section 4.1) depends on one thing the
scheduler does: when a map slot frees up it prefers a split whose data
is local to that node; if none exists the task runs anyway and pays
remote-read costs.  That loop — together with Hadoop's fault-tolerance
contract (task attempts, re-placement away from the failing node,
backoff, node blacklisting, node-loss re-queue, speculation) — lives
once, in :class:`repro.cluster.manager.ClusterManager`.  This module
holds what its callers and its results are made of:

- :class:`MapWork` — what ``run_job`` and ``parallel_load`` hand the
  event loop: splits plus the callable that runs one attempt,
- :class:`ScheduledTask` — one executed attempt, as it appears in
  ``JobResult.tasks`` and the loader's report,
- :class:`JobFailedError` — a split exhausted its attempts (or the
  cluster died), with the failed-attempt history,
- :func:`simulate_wave_makespan` — the reduce phase's slot packing,
  where there is no locality to schedule for.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.mapreduce.types import InputSplit
from repro.sim.metrics import Metrics


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
