"""Seeded exponential retry backoff with deterministic jitter.

Hadoop never relaunches a failed task attempt on the very next
heartbeat: retries back off so a transiently-sick cluster (a wedged
datanode, a full spill disk) isn't hammered by the very work it just
failed.  A failed attempt's relaunch is delayed by
``base * factor**attempt`` seconds, capped at ``cap``, then spread by a
±``jitter/2`` proportional offset so simultaneous failures don't
re-collide on the same instant (the classic thundering-herd fix).

Everything is deterministic: the jitter for one retry is drawn from an
RNG seeded with ``(seed, key, attempt)``, so the same run replays to
the same timeline — the property the cluster WAL's crash-resume and
every committed baseline depend on — while different seeds genuinely
decorrelate the retry schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class BackoffConfig:
    """Retry-delay shape: ``min(cap, base * factor**attempt)`` ± jitter.

    ``jitter`` is the total proportional spread: a delay ``d`` lands
    uniformly in ``[d * (1 - jitter/2), d * (1 + jitter/2)]``.  A
    ``base`` of 0 disables backoff entirely (retries stay immediate).
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("backoff base must be >= 0")
        if self.factor < 1:
            raise ValueError("backoff factor must be >= 1")
        if self.cap < 0:
            raise ValueError("backoff cap must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError("backoff jitter must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "factor": self.factor,
            "cap": self.cap,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BackoffConfig":
        return cls(
            base=float(data.get("base", 0.05)),
            factor=float(data.get("factor", 2.0)),
            cap=float(data.get("cap", 2.0)),
            jitter=float(data.get("jitter", 0.5)),
            seed=int(data.get("seed", 0)),
        )


class ExponentialBackoff:
    """One run's retry-delay oracle; a pure function of its config.

    ``delay(key, attempt)`` is the seconds to wait before relaunching
    ``key``'s retry number ``attempt`` (0-based: the delay before the
    *second* attempt uses ``attempt=0``).  ``key`` is any stable task
    identity — the scheduler uses ``job:split`` — so two tasks failing
    at the same instant draw *different* jitter and spread out.
    """

    def __init__(self, config: BackoffConfig = BackoffConfig()) -> None:
        self.config = config

    def delay(self, key: str, attempt: int) -> float:
        cfg = self.config
        if cfg.base <= 0:
            return 0.0
        raw = min(cfg.cap, cfg.base * (cfg.factor ** max(0, attempt)))
        if cfg.jitter <= 0:
            return raw
        rng = random.Random(f"{cfg.seed}:{key}:{attempt}")
        spread = cfg.jitter * (rng.random() - 0.5)
        return max(0.0, raw * (1.0 + spread))
