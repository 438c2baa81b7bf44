"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is a list of :class:`FaultEvent`\\ s, each fired
either at a simulated time (``at_time``) or at a task boundary
(``at_task`` — fired when the Nth map-task attempt of a job starts,
0-based).  Plans serialize to/from JSON so chaos scenarios are
shareable artifacts (``repro experiment ... --faults PLAN.json``), and
:meth:`FaultPlan.random` generates bounded *survivable* plans for the
chaos test matrix: given 3-way replication, the events it picks (one
node kill, transient read errors, slow nodes, a single corrupt replica)
can always be ridden out by replica failover plus task retry.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import List, Optional, Union

#: event kinds understood by the injector
KINDS = (
    "kill_node",
    "decommission_node",
    "slow_node",
    "corrupt_replica",
    "corrupt_block",
    "transient_read_error",
)

#: sentinel node value resolved to a seeded random live node at fire time
RANDOM = "random"


@dataclass
class FaultEvent:
    """One scheduled fault.

    ``node`` may be an int, or ``"random"`` to pick a live node with the
    plan's seeded RNG at fire time.  ``path``/``block_index`` target
    corruption events (``path=None`` picks a random file).  ``factor``
    is the slow-node degradation multiplier; ``count`` the number of
    transient read errors to arm; ``repair=False`` suppresses the
    automatic re-replication pass after a kill (leaving the cluster
    degraded, e.g. to measure locality loss).
    """

    kind: str
    node: Union[int, str, None] = None
    at_time: Optional[float] = None
    at_task: Optional[int] = None
    path: Optional[str] = None
    block_index: int = 0
    factor: float = 2.0
    count: int = 1
    repair: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if (self.at_time is None) == (self.at_task is None):
            raise ValueError(
                f"{self.kind}: exactly one of at_time/at_task must be set"
            )

    def to_dict(self) -> dict:
        data = asdict(self)
        return {k: v for k, v in data.items() if v is not None}


class FaultPlan:
    """An ordered, seeded set of fault events for one run."""

    def __init__(
        self, events: Optional[List[FaultEvent]] = None, seed: int = 0
    ) -> None:
        self.events = list(events or [])
        self.seed = seed

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        unknown = sorted(set(data) - {"events", "seed"})
        if unknown:
            raise ValueError(
                f"not a fault plan: unknown field(s) {', '.join(unknown)}"
            )
        events = [
            FaultEvent(**event) for event in data.get("events", [])
        ]
        return cls(events, seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    # -- ambient activation (CLI plumbing) -----------------------------

    def activate(self):
        """``with plan.activate(): ...`` — job runners constructed inside
        apply this plan to their filesystem (``experiment --faults``)."""
        from repro import faults as _faults_pkg

        return _faults_pkg._ambient_activation(self)

    # -- chaos generation ----------------------------------------------

    @classmethod
    def random(cls, seed: int, num_nodes: int) -> "FaultPlan":
        """A bounded random plan the retry machinery can always survive.

        At most one node is killed (so 3-way-replicated data never loses
        its last copy), corruption hits a single replica, and transient
        errors are few enough that ``max_attempts`` >= 4 outlasts them.
        One to three events fire, each at one of the first six task
        boundaries, so the same plan is meaningful for any input format
        or job length.
        """
        rng = random.Random(seed)
        plan = cls(seed=seed)
        kinds = ["kill_node", "transient_read_error", "slow_node",
                 "corrupt_replica"]
        rng.shuffle(kinds)
        for kind in kinds[: rng.randint(1, 3)]:
            at_task = rng.randrange(6)
            if kind == "kill_node":
                plan.add(FaultEvent("kill_node", node=RANDOM,
                                    at_task=at_task))
            elif kind == "transient_read_error":
                plan.add(FaultEvent(
                    "transient_read_error", node=RANDOM,
                    count=rng.randint(1, 2), at_task=at_task,
                ))
            elif kind == "slow_node":
                plan.add(FaultEvent(
                    "slow_node", node=RANDOM,
                    factor=rng.choice([2.0, 4.0, 8.0]), at_task=at_task,
                ))
            else:
                plan.add(FaultEvent(
                    "corrupt_replica", node=RANDOM, at_task=at_task,
                ))
        return plan
