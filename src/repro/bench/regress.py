"""Benchmark regression pipeline: canonical ``BENCH_*.json`` + checks.

Every benchmark scenario (one per ``benchmarks/bench_*.py`` module)
gets an entry in :data:`SCENARIOS` pairing a runner at **smoke size**
with an extractor that flattens its result dataclass into a canonical
metric dict.  ``repro bench run`` serializes those as
``BENCH_<name>.json``; ``repro bench check`` re-runs (or loads) fresh
results and compares them against committed baselines with noise
tolerances, failing on any regression.

Because every cost in the reproduction is *simulated* (seeks, transfer,
CPU are arithmetic over the cost model, not wall time), the numbers are
deterministic across machines and Python versions — which is what makes
committing baselines and comparing in CI sound.

Metric-key conventions (direction is encoded in the key prefix):

- ``time.*``, ``bytes.*``, ``seeks.*`` — simulated seconds / bytes
  moved; **lower is better**, growth beyond tolerance is a regression.
- ``ratio.*``, ``bandwidth.*``, ``fraction.*`` — paper-headline ratios
  (oriented so higher = the column-store advantage the paper claims),
  scan bandwidth, locality fractions; **higher is better**.
- ``count.*`` — logical results (records scanned, query answers);
  compared **exactly**, any change is a regression (it means the
  reproduction's *answers* changed, not just its speed).
- ``wall.*`` — real wall-clock milliseconds/ratios (the one exception
  to "everything is simulated": the vectorized-engine benchmark times
  actual Python execution).  Machine-dependent, so these are
  **recorded but never gated**; the deterministic gate for wall-time
  scenarios is a ``count.*_floor_met`` flag computed at run time.

File schema (``BENCH_<name>.json``)::

    {"benchmark": "<name>", "schema_version": 1,
     "params": {...smoke-size kwargs...},
     "metrics": {"<key>": <number>, ...}}

See ``docs/benchmarking.md`` for the baseline-update workflow.
"""

from __future__ import annotations

import importlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

SCHEMA_VERSION = 1

#: default relative noise tolerance for directional (float) metrics
DEFAULT_REL_TOL = 0.02

_LOWER_BETTER = ("time.", "bytes.", "seeks.")
_HIGHER_BETTER = ("ratio.", "bandwidth.", "fraction.")
_EXACT = ("count.",)
_INFO = ("wall.",)


def direction_of(key: str) -> str:
    """``lower`` | ``higher`` | ``exact`` | ``info`` from the prefix."""
    if key.startswith(_LOWER_BETTER):
        return "lower"
    if key.startswith(_HIGHER_BETTER):
        return "higher"
    if key.startswith(_INFO):
        return "info"
    if key.startswith(_EXACT):
        return "exact"
    return "exact"


def _slug(value) -> str:
    """Canonical metric-key segment: lowercase, ``_``-separated."""
    text = str(value).strip().lower().replace("%", "pct")
    text = re.sub(r"[^a-z0-9]+", "_", text)
    return text.strip("_")


def _fraction_slug(fraction: float) -> str:
    return f"{int(round(fraction * 100))}pct"


# ---------------------------------------------------------------------------
# scenario registry


@dataclass
class Scenario:
    """One benchmark scenario: a smoke-size runner plus an extractor.

    ``source`` is the ``repro.bench`` module whose ``run()`` the
    scenario calls (imported on first use, so listing scenarios imports
    none of them) or, for a scenario that is not one module's ``run()``,
    the callable itself.  The twelve paper experiments also carry the
    ``title`` that ``repro list`` prints and the ``run()`` keyword that
    ``repro experiment --records/--size`` maps onto, which makes this
    the one table the CLI reads.
    """

    name: str
    source: Union[str, Callable[..., object]]
    params: Dict[str, object]
    extract: Callable[[object], Dict[str, float]]
    description: str = ""
    title: str = ""
    size_arg: Optional[str] = None

    @property
    def module(self):
        return importlib.import_module(f"repro.bench.{self.source}")

    def run(self):
        runner = self.source if callable(self.source) else self.module.run
        return runner(**self.params)


def _extract_fig7(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for fmt, by_proj in sorted(result.times.items()):
        for proj, seconds in sorted(by_proj.items()):
            out[f"time.{_slug(fmt)}.{_slug(proj)}"] = seconds
            out[f"bytes.{_slug(fmt)}.{_slug(proj)}"] = (
                result.bytes_read[fmt][proj]
            )
    out["ratio.txt_over_seq"] = (
        result.time("TXT") / result.time("SEQ")
    )
    out["ratio.seq_over_cif_1int"] = (
        result.time("SEQ") / result.time("CIF", "1 Integer")
    )
    out["ratio.rcfile_over_cif_1int_bytes"] = (
        result.bytes_read["RCFile"]["1 Integer"]
        / result.bytes_read["CIF"]["1 Integer"]
    )
    return out


def _extract_fig8(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for profile, by_type in sorted(result.bandwidth.items()):
        for typed, series in sorted(by_type.items()):
            for fraction, mbps in sorted(series.items()):
                key = (
                    f"bandwidth.{_slug(profile)}.{_slug(typed)}"
                    f".{_fraction_slug(fraction)}"
                )
                out[key] = mbps
    out["ratio.native_over_managed_integers"] = (
        result.bandwidth["native"]["integers"][1.0]
        / result.bandwidth["managed"]["integers"][1.0]
    )
    return out


def _extract_fig9(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for fmt, by_proj in sorted(result.times.items()):
        for proj, seconds in sorted(by_proj.items()):
            out[f"time.{_slug(fmt)}.{_slug(proj)}"] = seconds
            out[f"bytes.{_slug(fmt)}.{_slug(proj)}"] = (
                result.bytes_read[fmt][proj]
            )
    out["ratio.rc4m_over_cif_1int"] = (
        result.times["4M RCFile"]["1 Integer"]
        / result.times["CIF"]["1 Integer"]
    )
    return out


def _extract_fig10(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for layout, by_sel in sorted(result.times.items()):
        for selectivity, seconds in sorted(by_sel.items()):
            key = f"time.{_slug(layout)}.{_fraction_slug(selectivity)}"
            out[key] = seconds
    for selectivity, answer in sorted(result.sums.items()):
        out[f"count.answer.{_fraction_slug(selectivity)}"] = answer
    out["ratio.cif_over_sl_low_selectivity"] = (
        result.times["CIF"][0.05] / result.times["CIF-SL"][0.05]
    )
    return out


def _extract_fig11(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for series, by_width in sorted(result.bandwidth.items()):
        for width, mbps in sorted(by_width.items()):
            out[f"bandwidth.{_slug(series)}.w{width}"] = mbps
    out["ratio.cif1_over_seq_w80"] = (
        result.bandwidth["CIF_1"][80] / result.bandwidth["SEQ"][80]
    )
    return out


def _extract_table1(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in result.rows:
        layout = _slug(row.layout)
        out[f"bytes.read_mb.{layout}"] = row.data_read_mb
        out[f"time.map.{layout}"] = row.map_time
        out[f"time.total.{layout}"] = row.total_time
    out["ratio.seq_over_cif_map"] = (
        result.row("SEQ-uncomp").map_time / result.row("CIF").map_time
    )
    return out


def _extract_table2(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for layout, seconds in sorted(result.load_times.items()):
        out[f"time.load.{_slug(layout)}"] = seconds
        out[f"bytes.written.{_slug(layout)}"] = (
            result.bytes_written[layout]
        )
    return out


def _extract_colocation(result) -> Dict[str, float]:
    return {
        "time.map.cpp": result.map_time_cpp,
        "time.map.default": result.map_time_default,
        "fraction.local.cpp": result.local_fraction_cpp,
        "fraction.local.default": result.local_fraction_default,
        "ratio.colocation_speedup": result.speedup,
    }


def _extract_addcolumn(result) -> Dict[str, float]:
    return {
        "bytes.cif": result.cif_bytes,
        "bytes.rcfile": result.rcfile_bytes,
        "time.cif": result.cif_time,
        "time.rcfile": result.rcfile_time,
        "ratio.rcfile_over_cif_bytes": result.io_ratio,
    }


def _extract_buffers(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for buffer_label, by_fmt in sorted(result.single_int.items()):
        for fmt, seconds in sorted(by_fmt.items()):
            out[f"time.1int.{_slug(buffer_label)}.{_slug(fmt)}"] = seconds
    for buffer_label, by_fmt in sorted(result.all_columns.items()):
        for fmt, seconds in sorted(by_fmt.items()):
            out[f"time.all.{_slug(buffer_label)}.{_slug(fmt)}"] = seconds
    for buffer_label, nbytes in sorted(
        result.rcfile_bytes_single_int.items()
    ):
        out[f"bytes.rcfile_1int.{_slug(buffer_label)}"] = nbytes
    return out


def _extract_encodings(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in result.rows:
        key = f"{_slug(row.column)}.{_slug(row.layout)}"
        out[f"bytes.{key}"] = row.file_bytes
        out[f"time.full.{key}"] = row.full_scan
        out[f"time.selective.{key}"] = row.selective_scan
    return out


def _extract_pruning(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for layout, by_fraction in sorted(result.bytes_read.items()):
        for fraction, nbytes in sorted(by_fraction.items()):
            out[f"bytes.{_slug(layout)}.{_fraction_slug(fraction)}"] = nbytes
    for layout, by_fraction in sorted(result.records_scanned.items()):
        for fraction, n in sorted(by_fraction.items()):
            key = f"count.scanned.{_slug(layout)}.{_fraction_slug(fraction)}"
            out[key] = n
    for fraction, answer in sorted(result.answers.items()):
        out[f"count.answer.{_fraction_slug(fraction)}"] = answer
    return out


def _run_scale_stability(small: int = 1000, large: int = 4000):
    from repro.bench import fig7_microbenchmark as fig7

    return {"small": fig7.run(records=small), "large": fig7.run(records=large)}


def _extract_scale_stability(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for size, res in sorted(result.items()):
        out[f"ratio.txt_over_seq.{size}"] = (
            res.time("TXT") / res.time("SEQ")
        )
        out[f"ratio.seq_over_cif_1int.{size}"] = (
            res.time("SEQ") / res.time("CIF", "1 Integer")
        )
        out[f"ratio.rcfile_over_cif_1int_bytes.{size}"] = (
            res.bytes_read["RCFile"]["1 Integer"]
            / res.bytes_read["CIF"]["1 Integer"]
        )
    return out


def _extract_cluster_load(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for policy, report in sorted(result.reports.items()):
        out[f"time.makespan.{policy}"] = report.makespan
        out[f"fraction.slots_busy.{policy}"] = report.utilization
        out[f"count.completed.{policy}"] = len(report.completed)
        out[f"count.rejected.{policy}"] = len(report.rejected)
        out[f"count.failed.{policy}"] = len(report.failed)
        out[f"count.preemptions.{policy}"] = report.preemptions
        for tenant, summary in report.tenant_summaries().items():
            base = f"time.latency.{policy}.{_slug(tenant)}"
            out[f"{base}.p50"] = summary.p50
            out[f"{base}.p95"] = summary.p95
            out[f"{base}.p99"] = summary.p99
    out["ratio.fifo_over_fair_interactive_p95"] = (
        result.interactive_p95_ratio
    )
    return out


def _extract_cluster_recovery(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for variant, report in sorted(result.reports.items()):
        out[f"time.makespan.{variant}"] = report.makespan
        out[f"time.interactive_p95.{variant}"] = (
            result.interactive_p95(variant)
        )
        out[f"count.completed.{variant}"] = len(report.completed)
        out[f"count.rejected.{variant}"] = len(report.rejected)
        out[f"count.failed.{variant}"] = len(report.failed)
        out[f"count.speculative_attempts.{variant}"] = (
            report.speculative_attempts
        )
    faulted = result.reports["faulted"]
    out["count.map_output_losses"] = faulted.map_output_losses
    # Oriented so higher = cheaper recovery (1.0 == a free node kill);
    # a drop means the fault-tolerance machinery got more expensive.
    out["ratio.recovery_efficiency"] = 1.0 / result.makespan_overhead
    return out


def _extract_cluster_slo(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for variant, report in sorted(result.reports.items()):
        out[f"time.makespan.{variant}"] = report.makespan
        out[f"count.completed.{variant}"] = len(report.completed)
    # The monitor is a pure observer: bare/monitored makespan must be
    # exactly 1.0, and the folded store must reconcile exactly against
    # the monitored report (mismatches gate at 0).
    out["ratio.monitoring_efficiency"] = result.monitoring_efficiency
    out["count.reconcile_mismatches"] = len(result.mismatches)
    out["count.series"] = (
        len(result.store) if result.store is not None else 0
    )
    out["count.alert_transitions"] = result.alert_transitions
    out["count.alerts_firing"] = result.firing_transitions
    for status in result.statuses:
        out[f"fraction.compliance.{status.slo.tenant}"] = status.compliance
    return out


def _extract_vector_scan(result) -> Dict[str, float]:
    from repro.bench.vector_scan import SAME_LAYOUT_FLOOR, SPEEDUP_FLOOR

    out: Dict[str, float] = {}
    for leg, ms in sorted(result.wall_ms.items()):
        out[f"wall.{leg}_ms"] = ms
    out["wall.speedup"] = result.speedup
    out["wall.speedup_eager"] = result.speedup_eager
    out["wall.speedup_lazy"] = result.speedup_lazy
    # The deterministic gates: floors met, answers, zero reconcile
    # mismatches between the scalar and vectorized engines.
    out["count.speedup_floor_met"] = int(result.speedup >= SPEEDUP_FLOOR)
    out["count.same_layout_floor_met"] = int(
        result.speedup_eager >= SAME_LAYOUT_FLOOR
        and result.speedup_lazy >= SAME_LAYOUT_FLOOR
    )
    out["count.reconcile_mismatches"] = len(result.mismatches)
    out["count.profile_reconcile_mismatches"] = len(result.profile_mismatches)
    out["count.answer"] = result.answer
    out["count.matches"] = result.matches
    for leg, seconds in sorted(result.simulated.items()):
        out[f"time.simulated.{leg}"] = seconds
    return out


SCENARIOS: Dict[str, Scenario] = {}


def _register(name, *fields):
    SCENARIOS[name] = Scenario(name, *fields)


_register(
    "fig7", "fig7_microbenchmark", {"records": 600}, _extract_fig7,
    "single-node scan times/bytes per format and projection",
    "Figure 7: scan microbenchmark (TXT/SEQ/CIF/RCFile)", "records",
)
_register(
    "fig8", "fig8_deserialization", {"records": 40, "seed": 8}, _extract_fig8,
    "deserialization bandwidth by type mix and runtime profile",
    "Figure 8: deserialization cost vs typed fraction", "records",
)
_register(
    "fig9", "fig9_rowgroups", {"records": 600}, _extract_fig9,
    "RCFile row-group size sweep vs CIF",
    "Figure 9: RCFile row-group size tuning", "records",
)
_register(
    "fig10", "fig10_selectivity", {"records": 500}, _extract_fig10,
    "lazy record construction / skip-list selectivity sweep",
    "Figure 10: CIF vs CIF-SL vs predicate selectivity", "records",
)
_register(
    "fig11", "fig11_wide_records", {"total_bytes": 400_000}, _extract_fig11,
    "scan bandwidth vs record width",
    "Figure 11: bandwidth vs number of columns", "total_bytes",
)
_register(
    "table1", "table1_crawl",
    {"records": 120, "content_bytes": 2048, "num_nodes": 8}, _extract_table1,
    "crawl workload: data read, map and total times per layout",
    "Table 1: the 11-layout crawl comparison", "records",
)
_register(
    "table2", "table2_load_times", {"records": 500}, _extract_table2,
    "load times and bytes written per target layout",
    "Table 2: load times (SEQ -> CIF/CIF-SL/RCFile)", "records",
)
_register(
    "colocation", "colocation", {"records": 60, "content_bytes": 1024},
    _extract_colocation,
    "column placement policy: locality fraction and map-time speedup",
    "Section 6.4: co-location (CPP on/off)", "records",
)
_register(
    "addcolumn", "addcolumn_ablation", {"records": 400}, _extract_addcolumn,
    "adding a column after the fact: CIF vs RCFile rewrite cost",
    "Section 4.3: adding a column, CIF vs RCFile", "records",
)
_register(
    "buffers", "buffer_ablation", {"records": 400}, _extract_buffers,
    "io-buffer size ablation per format",
    "Ablation: io.file.buffer.size sensitivity sweep", "records",
)
_register(
    "encodings", "encodings_ablation", {"records": 400}, _extract_encodings,
    "column encoding sweep: file bytes, full and selective scans",
    "Ablation: per-column lightweight encodings (rle/delta/dcsl)", "records",
)
_register(
    "pruning", "pruning_ablation", {"records": 500}, _extract_pruning,
    "range-predicate pruning on sorted vs shuffled data",
    "Ablation: zone-map split pruning, clustered vs shuffled", "records",
)
_register(
    "scale_stability", _run_scale_stability, {"small": 1000, "large": 4000},
    _extract_scale_stability,
    "fig7 headline ratios measured at two sizes 4x apart",
)
_register(
    "cluster_load", "cluster_load", {"duration": 1.0, "seed": 20110401},
    _extract_cluster_load,
    "multi-tenant traffic: fair-share+preemption vs FIFO job latency",
)
_register(
    "cluster_recovery", "cluster_recovery",
    {"duration": 1.0, "seed": 20110401, "kill_time": 0.35, "kill_node": 1},
    _extract_cluster_recovery,
    "mid-run node kill: map-output re-execution + speculation overhead",
)
_register(
    "vector_scan", "vector_scan",
    {"records": 3000, "selectivity": 0.05, "reps": 3},
    _extract_vector_scan,
    "vectorized vs scalar scan wall clock on the Fig-10 query",
)
_register(
    "cluster_slo", "cluster_slo",
    {"duration": 1.0, "seed": 20110401},
    _extract_cluster_slo,
    "continuous monitoring overhead: tsdb + SLO/alerting as pure observer",
)


# ---------------------------------------------------------------------------
# running and serializing


def result_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def canonical(name: str, result, params: Dict[str, object]) -> dict:
    """The canonical JSON payload for one scenario result."""
    metrics = SCENARIOS[name].extract(result)
    return {
        "benchmark": name,
        "schema_version": SCHEMA_VERSION,
        "params": dict(params),
        "metrics": {
            key: (
                round(value, 10) if isinstance(value, float) else value
            )
            for key, value in sorted(metrics.items())
        },
    }


def run_scenario(name: str, trace_dir: Optional[str] = None) -> dict:
    """Run one scenario at smoke size and return its canonical payload.

    With ``trace_dir``, the run happens under a
    :class:`~repro.obs.recorder.FlightRecorder` and the JSONL trace is
    written alongside (``BENCH_<name>.trace.jsonl``) — the artifact CI
    uploads when a check fails, so the regression can be diagnosed with
    ``repro perf`` without re-running anything.
    """
    scenario = SCENARIOS[name]
    if trace_dir is None:
        result = scenario.run()
    else:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(meta={"benchmark": name})
        with recorder.activate():
            with recorder.tracer.span("bench", kind="bench", benchmark=name):
                result = scenario.run()
        os.makedirs(trace_dir, exist_ok=True)
        recorder.report().write_jsonl(
            os.path.join(trace_dir, f"BENCH_{name}.trace.jsonl")
        )
    return canonical(name, result, scenario.params)


def write_result(payload: dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, result_filename(payload["benchmark"]))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_result(path: str) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    for key in ("benchmark", "metrics"):
        if key not in payload:
            raise ValueError(f"{path} is not a BENCH result: missing {key!r}")
    return payload


def run_all(
    out_dir: str,
    names: Optional[List[str]] = None,
    trace_dir: Optional[str] = None,
    log: Callable[[str], None] = lambda line: None,
) -> List[str]:
    """Run scenarios at smoke size, writing ``BENCH_*.json`` to
    ``out_dir``; returns the written paths."""
    paths = []
    for name in names or sorted(SCENARIOS):
        if name not in SCENARIOS:
            raise KeyError(
                f"unknown scenario {name!r} "
                f"(have: {', '.join(sorted(SCENARIOS))})"
            )
        log(f"bench {name}: running at smoke size {SCENARIOS[name].params}")
        payload = run_scenario(name, trace_dir=trace_dir)
        path = write_result(payload, out_dir)
        log(f"bench {name}: wrote {path} ({len(payload['metrics'])} metrics)")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# comparison


@dataclass
class RegressEntry:
    """One compared metric between baseline and fresh."""

    key: str
    direction: str
    baseline: Optional[float]
    fresh: Optional[float]
    severity: str  # "regression" | "improvement" | "new" | "ok"

    def render(self) -> str:
        if self.baseline is None:
            return f"[new] {self.key}: (no baseline) -> {self.fresh:g}"
        if self.fresh is None:
            return f"[regression] {self.key}: metric disappeared"
        delta = self.fresh - self.baseline
        rel = delta / abs(self.baseline) if self.baseline else float("inf")
        return (
            f"[{self.severity}] {self.key} ({self.direction}-is-better): "
            f"{self.baseline:g} -> {self.fresh:g} ({rel * 100:+.2f}%)"
        )


@dataclass
class ScenarioDiff:
    """Baseline-vs-fresh comparison for one scenario."""

    name: str
    entries: List[RegressEntry] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def regressions(self) -> List[RegressEntry]:
        return [e for e in self.entries if e.severity == "regression"]

    @property
    def ok(self) -> bool:
        return self.error is None and not self.regressions

    def render(self, pal=None) -> str:
        from repro.util.term import PLAIN

        pal = pal if pal is not None else PLAIN
        if self.error:
            return pal.red(f"{self.name}: ERROR — {self.error}")
        compared = len(self.entries)
        notable = [e for e in self.entries if e.severity != "ok"]
        verdict = (
            pal.green("OK") if self.ok else pal.red("REGRESSED")
        )
        header = (
            f"{self.name}: {verdict} "
            f"({compared} metrics, {len(self.regressions)} regression(s))"
        )
        lines = [header]
        for entry in notable:
            lines.append("  " + entry.render())
        return "\n".join(lines)


def compare(
    baseline: dict, fresh: dict, rel_tol: float = DEFAULT_REL_TOL
) -> ScenarioDiff:
    """Compare one fresh payload against its committed baseline.

    ``exact`` metrics must match bit-for-bit; directional metrics may
    drift within ``rel_tol`` of the baseline, and moves *in the good
    direction* beyond tolerance are reported as improvements (worth a
    baseline refresh), never failures.
    """
    name = baseline.get("benchmark", "?")
    diff = ScenarioDiff(name=name)
    if fresh.get("benchmark") != name:
        diff.error = (
            f"comparing different scenarios: baseline={name!r} "
            f"fresh={fresh.get('benchmark')!r}"
        )
        return diff
    if baseline.get("params") != fresh.get("params"):
        diff.error = (
            "smoke-size params changed "
            f"(baseline {baseline.get('params')} vs fresh "
            f"{fresh.get('params')}); re-record the baseline"
        )
        return diff
    base_metrics = baseline.get("metrics", {})
    fresh_metrics = fresh.get("metrics", {})
    for key in sorted(set(base_metrics) | set(fresh_metrics)):
        direction = direction_of(key)
        base = base_metrics.get(key)
        new = fresh_metrics.get(key)
        if base is None:
            severity = "new"
        elif direction == "info":
            # wall-clock numbers vary by machine; record, never gate
            severity = "ok"
        elif new is None:
            severity = "regression"
        elif direction == "exact":
            severity = "ok" if new == base else "regression"
        else:
            band = rel_tol * abs(base)
            if abs(new - base) <= band:
                severity = "ok"
            elif (new > base) == (direction == "lower"):
                severity = "regression"
            else:
                severity = "improvement"
        diff.entries.append(RegressEntry(key, direction, base, new, severity))
    return diff


@dataclass
class CheckReport:
    """Every scenario's diff, plus the overall verdict."""

    diffs: List[ScenarioDiff] = field(default_factory=list)
    rel_tol: float = DEFAULT_REL_TOL

    @property
    def ok(self) -> bool:
        return all(diff.ok for diff in self.diffs)

    def render(self, pal=None, quiet: bool = False) -> str:
        """``pal`` colors the verdicts; ``quiet`` keeps only scenarios
        that have something to say (errors or non-ok metrics)."""
        from repro.util.term import PLAIN

        pal = pal if pal is not None else PLAIN
        lines = [
            f"Benchmark regression check (rel_tol={self.rel_tol:g}, "
            f"{len(self.diffs)} scenario(s))"
        ]
        for diff in self.diffs:
            if quiet and diff.ok and not diff.error and not any(
                entry.severity != "ok" for entry in diff.entries
            ):
                continue
            lines.append(diff.render(pal=pal))
        lines.append(
            "RESULT: " + (
                pal.green("PASS") if self.ok
                else pal.red("FAIL — see regressions above")
            )
        )
        return "\n".join(lines)


def check(
    baseline_dir: str,
    names: Optional[List[str]] = None,
    fresh_dir: Optional[str] = None,
    rel_tol: float = DEFAULT_REL_TOL,
    log: Callable[[str], None] = lambda line: None,
) -> CheckReport:
    """Compare fresh results against the committed baselines.

    Scenarios default to every ``BENCH_*.json`` present in
    ``baseline_dir``.  With ``fresh_dir``, fresh payloads are loaded
    from files written by an earlier ``repro bench run`` (the CI flow:
    run once, check the same files); otherwise each scenario is re-run
    now at smoke size.
    """
    report = CheckReport(rel_tol=rel_tol)
    if names is None:
        names = sorted(
            match.group(1)
            for filename in os.listdir(baseline_dir)
            for match in [re.match(r"BENCH_(\w+)\.json$", filename)]
            if match
        )
        if not names:
            report.diffs.append(ScenarioDiff(
                name="(none)",
                error=f"no BENCH_*.json baselines in {baseline_dir}",
            ))
            return report
    for name in names:
        baseline_path = os.path.join(baseline_dir, result_filename(name))
        try:
            baseline = load_result(baseline_path)
        except (OSError, ValueError) as exc:
            report.diffs.append(ScenarioDiff(name=name, error=str(exc)))
            continue
        try:
            if fresh_dir is not None:
                fresh = load_result(
                    os.path.join(fresh_dir, result_filename(name))
                )
            else:
                log(f"bench {name}: re-running at smoke size")
                fresh = run_scenario(name)
        except (OSError, ValueError, KeyError) as exc:
            report.diffs.append(ScenarioDiff(name=name, error=str(exc)))
            continue
        report.diffs.append(compare(baseline, fresh, rel_tol=rel_tol))
    return report
