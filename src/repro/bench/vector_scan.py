"""Charge identity of the two CIF engines on the Fig-10 query.

The vectorized batch reader exists to make the reproduction itself
faster without changing a single simulated charge.  How much faster is
a wall-clock question, and ``wallbench``'s layer suite answers it (its
``core.cif.{eager,lazy,vectorized_eager,vectorized_lazy}_records_per_s``
rows time these same four legs).  This scenario gates the other half of
the contract, the deterministic one: the engines must agree on the
answer and on every simulated charge.

Four legs, all computing the identical aggregate over the identical
data:

- ``scalar_eager``    — record-at-a-time over plain CIF (the classic
  reference scan, the paper's "CIF" line in Figure 10),
- ``vectorized_eager`` — batched frames over the same plain CIF files,
- ``scalar_lazy``     — record-at-a-time over skip-list CIF-SL,
- ``vectorized_lazy`` — batched frames + selection vectors + late
  materialization over CIF-SL (the full scan hot path this engine
  was built for; the paper's "CIF-SL" line, vectorized).

Gated, all exact or simulated:

- ``count.reconcile_mismatches`` — zero-tolerance metric reconcile
  between the scalar and vectorized engines on both layouts,
- ``count.profile_reconcile_mismatches`` — the same for the operator
  profiles each leg records,
- ``count.answer`` / ``count.matches`` — the query's logical result,
- ``time.simulated.*`` — the simulated task time of each leg (the
  scalar/vectorized pairs are byte-identical by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench import harness
from repro.bench.fig10_selectivity import _dataset, aggregate_metrics
from repro.core.vector import reconcile_metrics
from repro.obs import OperatorProfiler, reconcile_profiles
from repro.workloads.micro import micro_schema

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
    #: leg -> simulated task seconds (deterministic)
    simulated: Dict[str, float] = field(default_factory=dict)
    #: metric reconcile failures across both layouts (must be empty)
    mismatches: List[str] = field(default_factory=list)
    #: operator-profile reconcile failures across both layouts
    profile_mismatches: List[str] = field(default_factory=list)
    #: leg -> {operator -> stats dict}
    profiles: Dict[str, Dict[str, dict]] = field(default_factory=dict)
    answer: int = 0
    matches: int = 0


def run(
    records: int = 3000, selectivity: float = 0.05, seed: int = 10,
) -> VectorScanResult:
    result = VectorScanResult(records=records, selectivity=selectivity)
    fs = harness.single_node_fs()
    data = _dataset(records, selectivity, seed=seed)
    schema = micro_schema()
    harness.write_micro(fs, "/vs/cif", schema, data)
    harness.write_micro(fs, "/vs/sl", schema, data, "cif-sl")
    answers = {}
    metrics_by_leg = {}
    profiler_by_leg = {}
    for leg, dataset, lazy, execution in _LEGS:
        profiler = OperatorProfiler(execution, meta={"leg": leg})
        metrics, total, matches = aggregate_metrics(
            fs, dataset, lazy, execution, profiler=profiler
        )
        result.simulated[leg] = metrics.task_time
        answers[leg] = (total, matches)
        metrics_by_leg[leg] = metrics
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


def metrics(result: VectorScanResult) -> Dict[str, float]:
    out: Dict[str, float] = {
        "count.reconcile_mismatches": len(result.mismatches),
        "count.profile_reconcile_mismatches": len(result.profile_mismatches),
        "count.answer": result.answer,
        "count.matches": result.matches,
    }
    for leg, seconds in result.simulated.items():
        out[f"time.simulated.{leg}"] = seconds
    return out


def format_table(result: VectorScanResult) -> str:
    table = harness.format_table(
        f"Vectorized scan charge identity ({result.records} records, "
        f"{result.selectivity:.0%} selectivity)",
        ["simulated ms"],
        [
            (leg, [round(result.simulated[leg] * 1e3, 3)])
            for leg, _, _, _ in _LEGS
        ],
    )
    return (
        f"{table}\n"
        f"answer {result.answer} over {result.matches} match(es); "
        f"{len(result.mismatches)} metric and "
        f"{len(result.profile_mismatches)} operator-profile reconcile "
        f"mismatch(es) between the engines"
    )
