"""Order statistics every layer shares.

Percentiles use the nearest-rank method on the sorted sample, so any
figure built from them is a pure function of its inputs:
byte-identical across runs with the same seed.  The scheduler's
straggler detection, the cluster report, the time-series store and the
bench harness all take their quantiles here, which is what lets the
tsdb reconcile with the report bit for bit.
"""

from __future__ import annotations

from typing import Sequence


def percentile(sample: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]) of an unsorted sample."""
    if not sample:
        return 0.0
    ordered = sorted(sample)
    if p <= 0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[min(len(ordered), int(rank)) - 1]
