"""Wall-clock benchmark for the vectorized scan hot path (Fig 10).

Every other benchmark in this package reports *simulated* cost — the
deterministic arithmetic of :mod:`repro.sim.cost`.  This one is
different: it times the **real Python wall clock** of the Fig-10
selectivity scan under both execution engines, because the vectorized
batch layer exists precisely to make the reproduction itself faster
without changing a single simulated charge.

Four legs, all computing the identical aggregate over the identical
data:

- ``scalar_eager``    — record-at-a-time over plain CIF (the classic
  reference scan, the paper's "CIF" line in Figure 10),
- ``vectorized_eager`` — batched frames over the same plain CIF files,
- ``scalar_lazy``     — record-at-a-time over skip-list CIF-SL,
- ``vectorized_lazy`` — batched frames + selection vectors + late
  materialization over CIF-SL (the full scan hot path this engine
  was built for; the paper's "CIF-SL" line, vectorized).

The **headline speedup** pairs the two ends of that spectrum —
``scalar_eager / vectorized_lazy`` — mirroring the paper's own Fig-10
framing (CIF vs CIF-SL on the same low-selectivity query), amplified
by batch execution.  The same-layout ratios are reported too, and the
differential layer separately proves each pairing charge-identical.

Wall time is machine-dependent, so raw milliseconds are exported under
the ``wall.*`` metric prefix, which the regression checker records but
never gates.  What *is* gated are deterministic facts about the run:

- ``count.speedup_floor_met`` — headline speedup >= 5x,
- ``count.same_layout_floor_met`` — vectorized beats scalar by >= 1.5x
  on both the eager and the lazy layout,
- ``count.reconcile_mismatches`` — zero-tolerance metric reconcile
  between the scalar and vectorized engines on both layouts,
- ``count.answer`` / ``count.matches`` — the query's logical result,
- ``time.simulated.*`` — the simulated task time of each leg (the
  scalar/vectorized pairs are byte-identical by construction).

Timing uses min-of-reps: the minimum over ``reps`` repetitions is the
least noisy estimator of the true cost on a shared machine (first-rep
import and allocator warm-up never pollute it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench import harness
from repro.bench.fig10_selectivity import _dataset, aggregate_metrics
from repro.core import ColumnSpec, write_dataset
from repro.core.vector import reconcile_metrics
from repro.obs import OperatorProfiler, reconcile_profiles
from repro.workloads.micro import micro_schema

#: headline floor: vectorized CIF-SL must beat the scalar eager CIF
#: reference scan by at least this factor on the low-selectivity query.
SPEEDUP_FLOOR = 5.0

#: same-layout floor: on each layout, vectorized must beat scalar by
#: at least this factor (measured ~3x; the slack absorbs CI noise).
SAME_LAYOUT_FLOOR = 1.5

_LEGS = (
    ("scalar_eager", "/vs/cif", False, "scalar"),
    ("vectorized_eager", "/vs/cif", False, "vectorized"),
    ("scalar_lazy", "/vs/sl", True, "scalar"),
    ("vectorized_lazy", "/vs/sl", True, "vectorized"),
)


@dataclass
class VectorScanResult:
    records: int
    selectivity: float
    reps: int
    #: leg -> min-of-reps wall milliseconds
    wall_ms: Dict[str, float] = field(default_factory=dict)
    #: leg -> simulated task seconds (deterministic)
    simulated: Dict[str, float] = field(default_factory=dict)
    #: metric reconcile failures across both layouts (must be empty)
    mismatches: List[str] = field(default_factory=list)
    #: operator-profile reconcile failures across both layouts
    profile_mismatches: List[str] = field(default_factory=list)
    #: leg -> {operator -> stats dict} from the profiled rep
    profiles: Dict[str, Dict[str, dict]] = field(default_factory=dict)
    answer: int = 0
    matches: int = 0

    @property
    def speedup(self) -> float:
        """Headline: scalar eager CIF over vectorized lazy CIF-SL."""
        return self.wall_ms["scalar_eager"] / self.wall_ms["vectorized_lazy"]

    @property
    def speedup_eager(self) -> float:
        return self.wall_ms["scalar_eager"] / self.wall_ms["vectorized_eager"]

    @property
    def speedup_lazy(self) -> float:
        return self.wall_ms["scalar_lazy"] / self.wall_ms["vectorized_lazy"]


def run(
    records: int = 3000, selectivity: float = 0.05, reps: int = 3,
    seed: int = 10,
) -> VectorScanResult:
    result = VectorScanResult(
        records=records, selectivity=selectivity, reps=reps
    )
    fs = harness.single_node_fs()
    data = _dataset(records, selectivity, seed=seed)
    schema = micro_schema()
    write_dataset(
        fs, "/vs/cif", schema, data, split_bytes=harness.MICRO_SPLIT_BYTES,
    )
    write_dataset(
        fs, "/vs/sl", schema, data,
        default_spec=ColumnSpec("skiplist"),
        split_bytes=harness.MICRO_SPLIT_BYTES,
    )
    answers = {}
    metrics_by_leg = {}
    profiler_by_leg = {}
    for leg, dataset, lazy, execution in _LEGS:
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            metrics, total, matches = aggregate_metrics(
                fs, dataset, lazy, execution
            )
            best = min(best, time.perf_counter() - start)
        result.wall_ms[leg] = best * 1000.0
        result.simulated[leg] = metrics.task_time
        answers[leg] = (total, matches)
        metrics_by_leg[leg] = metrics
        # One extra *profiled* rep per leg, outside the timed loop so
        # the operator hooks never pollute the wall numbers.
        profiler = OperatorProfiler(execution, meta={"leg": leg})
        aggregate_metrics(fs, dataset, lazy, execution, profiler=profiler)
        profiler_by_leg[leg] = profiler
        result.profiles[leg] = {
            op: stats.as_dict() for op, stats in profiler.stats.items()
        }
    if len(set(answers.values())) != 1:
        raise AssertionError(f"legs disagree on the answer: {answers}")
    result.answer, result.matches = answers["scalar_eager"]
    for layout in ("eager", "lazy"):
        for line in reconcile_metrics(
            metrics_by_leg[f"scalar_{layout}"],
            metrics_by_leg[f"vectorized_{layout}"],
        ):
            result.mismatches.append(f"{layout}: {line}")
        for line in reconcile_profiles(
            profiler_by_leg[f"scalar_{layout}"],
            profiler_by_leg[f"vectorized_{layout}"],
        ):
            result.profile_mismatches.append(f"{layout}: {line}")
    return result


def format_table(result: VectorScanResult) -> str:
    headers = ["wall ms", "simulated s"]
    rows = [
        harness.Row(leg, {
            "wall ms": round(result.wall_ms[leg], 2),
            "simulated s": round(result.simulated[leg], 6),
        })
        for leg, _, _, _ in _LEGS
    ]
    table = harness.format_table(
        f"Vectorized scan wall clock ({result.records} records, "
        f"{result.selectivity:.0%} selectivity, min of {result.reps})",
        headers,
        rows,
    )
    return (
        f"{table}\n"
        f"headline speedup (scalar eager / vectorized lazy): "
        f"{result.speedup:.2f}x  "
        f"[eager {result.speedup_eager:.2f}x, "
        f"lazy {result.speedup_lazy:.2f}x]"
    )
