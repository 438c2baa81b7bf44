"""Speculative execution policy: the scheduler's one algorithm.

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
  the owning tenant's fair share and slot quota, and never consumes the
  original attempt's retry budget,
- whichever attempt commits first wins; the loser is killed
  (``outcome="killed"``, not failed) the instant the winner's payload
  lands.

``min_samples`` guards the cold start: with fewer completed attempts
than this in a queue there is no trustworthy notion of "slow" yet, so
nothing speculates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SpeculationConfig:
    """When and how aggressively the manager clones stragglers."""

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
