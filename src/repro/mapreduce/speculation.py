"""Speculative execution: the scheduler's one algorithm.

Slots freed by one tenant must not silently subsidize another, and the
scheduler must not peek at an attempt's predetermined end, so straggler
cloning is *progress-based*, the way Hadoop's JobTracker does it
(``Job.speculative`` turns it on for a ``run_job``, the policy's
``speculation`` field for a shared cluster):

- every completed map attempt's duration feeds a per-queue sample,
- a running attempt becomes a straggler candidate once it has been
  running longer than ``slowdown`` times the queue's ``quantile``
  duration (nearest-rank, so detection is deterministic),
- a duplicate launches only on an otherwise-idle slot, is charged to
  the owning tenant's fair share and slot quota (the scheduling
  policy's ``may_take_slot``), and never consumes the original
  attempt's retry budget,
- whichever attempt commits first wins; the loser is killed
  (``outcome="killed"``, not failed) the instant the winner's payload
  lands.

``min_samples`` guards the cold start: with fewer completed attempts
than this in a queue there is no trustworthy notion of "slow" yet, so
nothing speculates.

:class:`Speculator` is the detection and launch side, which
:class:`~repro.mapreduce.eventloop.SlotScheduler` consults once its
ordinary assignment leaves slots idle; the race itself (first finisher
wins, a lost contender costs nothing) is settled where attempts
resolve, in the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.util.stats import percentile


@dataclass(frozen=True)
class SpeculationConfig:
    """When and how aggressively the scheduler clones stragglers."""

    enabled: bool = False
    slowdown: float = 1.5    # straggler = elapsed > slowdown * typical
    quantile: float = 0.5    # "typical" = this quantile of completions
    min_samples: int = 3     # per-queue completions before speculating

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError("speculation slowdown must be >= 1.0")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("speculation quantile must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("speculation min_samples must be >= 1")

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "slowdown": self.slowdown,
            "quantile": self.quantile,
            "min_samples": self.min_samples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpeculationConfig":
        return cls(
            enabled=bool(data.get("enabled", False)),
            slowdown=float(data.get("slowdown", 1.5)),
            quantile=float(data.get("quantile", 0.5)),
            min_samples=int(data.get("min_samples", 3)),
        )


class Speculator:
    """Straggler detection and clone launch for one scheduler."""

    def __init__(self, config: SpeculationConfig) -> None:
        self.config = config
        #: per-queue successful attempt durations
        self.durations: Dict[str, List[float]] = {}

    def observe(self, queue: str, duration: float) -> None:
        """A map attempt in ``queue`` committed after ``duration``."""
        self.durations.setdefault(queue, []).append(duration)

    def candidates(self, scheduler):
        """``(attempt, patience)`` for every running original that may
        still be cloned, oldest first.

        An attempt is a straggler once it has been running for its
        ``patience``: ``slowdown`` times its queue's ``quantile``
        completion duration (progress-based detection: the scheduler
        never peeks at an attempt's predetermined end)."""
        cfg = self.config
        # ``running`` is keyed by launch seq, inserted in launch order
        for running in scheduler.running.values():
            execution = running.execution
            if (
                running.speculative
                or scheduler.live_partner(running) is not None
                or execution.failed is not None
                or running.pending.index in execution.speculated
            ):
                continue
            samples = self.durations.get(execution.queue, ())
            if len(samples) < cfg.min_samples:
                continue
            typical = percentile(samples, cfg.quantile * 100)
            if typical > 0:
                yield running, cfg.slowdown * typical

    def next_time(self, scheduler) -> Optional[float]:
        """Earliest instant a running attempt crosses the straggler
        threshold.  Without this the event loop would only notice a
        straggler at the next natural event, which in a quiet cluster
        is the straggler's own completion: too late to help."""
        return min(
            (
                running.task.start + patience
                for running, patience in self.candidates(scheduler)
            ),
            default=None,
        )

    def speculate(self, scheduler, now: float) -> None:
        """Clone stragglers onto otherwise-idle slots, worst straggler
        first; a clone never consumes the original's retry budget."""
        for original, patience in list(self.candidates(scheduler)):
            if not scheduler.free:
                break
            # not < so the threshold-crossing wake-up itself qualifies;
            # an earlier clone's task boundary may have resolved it
            if (
                now - original.task.start < patience
                or original.seq not in scheduler.running
            ):
                continue
            if not scheduler.hooks.may_take_slot(
                scheduler, original.execution
            ):
                continue
            banned = original.pending.banned | {original.node}
            free = [f for f in sorted(scheduler.free) if f[0] not in banned]
            if not free:
                continue
            locations = original.task.split.locations
            node, slot = next(
                (f for f in free if f[0] in locations), free[0]
            )
            self._launch(
                scheduler, now, original, node, slot, node in locations
            )

    def _launch(
        self, scheduler, now: float, original, node: int, slot: int,
        local: bool,
    ) -> None:
        execution = original.execution
        index = original.pending.index
        execution.speculated.add(index)
        if not scheduler.occupy(node, slot):
            execution.speculated.discard(index)
            return
        if (
            original.seq not in scheduler.running
            or execution.failed is not None
            or index in execution.payloads
        ):
            # The task-boundary fault resolved the original (or the
            # job); nothing left to race.
            execution.speculated.discard(index)
            scheduler.free.append((node, slot))
            return
        pending = replace(
            original.pending, ready=now,
            banned=original.pending.banned | frozenset({original.node}),
        )
        scheduler.speculative_attempts += 1
        scheduler.obs.registry.counter(
            "scheduler.speculation", outcome="launched"
        ).inc()
        scheduler.tell(
            "task.speculative", now,
            split=original.task.split.label,
            node=node, slot=slot, victim_node=original.node,
            elapsed=now - original.task.start,
            job=execution.name, tenant=execution.tenant,
            queue=execution.queue,
        )
        duplicate = scheduler.execute_attempt(
            now, execution, pending, node, slot, local,
            speculative=True, partner_seq=original.seq,
        )
        original.partner_seq = duplicate.seq
