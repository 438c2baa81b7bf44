"""Meta-scenario: the reproduction's ratios are scale-stable.

The experiments run at MB scale while the paper ran at TB scale; the
harness's claim (DESIGN.md §6, docs/cost-model.md) is that because the
storage granularities and fixed latencies shrink together, *ratios* are
stable in dataset size.  This scenario measures the Figure 7 headline
ratios at two dataset sizes 4x apart, so a drift of either shows up as
a bench diff.
"""

from __future__ import annotations

from typing import Dict

from repro.bench import fig7_microbenchmark as fig7


def run(small: int = 4000, large: int = 16000) -> Dict[str, fig7.Fig7Result]:
    return {"small": fig7.run(records=small), "large": fig7.run(records=large)}


def metrics(result: Dict[str, fig7.Fig7Result]) -> Dict[str, float]:
    return {
        f"{key}.{size}": value
        for size, res in result.items()
        for key, value in fig7.headline_ratios(res).items()
    }
