"""Benchmark regression pipeline: canonical ``BENCH_*.json`` + checks.

Every benchmark scenario is one ``repro.bench`` module (``run()`` at a
given size, ``metrics(result)`` flattening its result into a canonical
metric dict) plus one row of :data:`SCENARIOS` naming its **smoke
size**.  ``repro bench run`` serializes the metrics as
``BENCH_<name>.json``; ``repro bench check`` re-runs (or loads) fresh
results and compares them against committed baselines through
:mod:`repro.util.compare`, failing on any regression.

Every cost in the reproduction is *simulated* (seeks, transfer, CPU are
arithmetic over the cost model, not wall time), so the numbers are
deterministic across machines, runs and Python versions: two runs write
byte-identical files, which is what makes committing baselines and
comparing in CI sound.  Nothing here reads a wall clock; how fast the
Python itself runs is ``wallbench``'s question.

A metric key's prefix is its direction (:func:`direction_of`):
``time.``, ``bytes.``, ``seeks.`` are lower-is-better; ``ratio.``
(oriented so higher = the column-store advantage the paper claims),
``bandwidth.``, ``fraction.`` higher-is-better; ``count.`` (the
reproduction's *answers*) exact.

File schema (``BENCH_<name>.json``)::

    {"benchmark": "<name>", "schema_version": 1,
     "params": {...smoke-size kwargs...},
     "metrics": {"<key>": <number>, ...}}

See ``docs/benchmarking.md`` for the baseline-update workflow.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.util.compare import Diff, compare as compare_metrics

SCHEMA_VERSION = 1

#: default relative tolerance for directional (float) metrics: none.
#: Every key is deterministic and :func:`canonical` rounds floats to 10
#: places, so drift of any size is a change someone made; a band is only
#: for comparing across cost models (``--rel-tol``).
DEFAULT_REL_TOL = 0.0

_LOWER_BETTER = ("time.", "bytes.", "seeks.")
_HIGHER_BETTER = ("ratio.", "bandwidth.", "fraction.")


def direction_of(key: str) -> str:
    """``lower`` | ``higher`` | ``exact`` from the prefix."""
    if key.startswith(_LOWER_BETTER):
        return "lower"
    if key.startswith(_HIGHER_BETTER):
        return "higher"
    return "exact"


def slug(value) -> str:
    """Canonical metric-key segment: lowercase, ``_``-separated."""
    text = str(value).strip().lower().replace("%", "pct")
    text = re.sub(r"[^a-z0-9]+", "_", text)
    return text.strip("_")


def fraction_slug(fraction: float) -> str:
    return f"{int(round(fraction * 100))}pct"


def flatten(
    grid: Dict[object, Dict[object, float]],
    template: str,
    x: Callable[[object], str] = slug,
) -> Dict[str, float]:
    """``grid[series][point]`` as flat metrics: one
    ``template.format(slug(series), x(point))`` key per cell."""
    return {
        template.format(slug(series), x(point)): value
        for series, by_point in grid.items()
        for point, value in by_point.items()
    }


# ---------------------------------------------------------------------------
# scenario registry


@dataclass
class Scenario:
    """One benchmark scenario: a ``repro.bench`` module at smoke size.

    ``source`` names the module whose ``run(**params)`` the scenario
    calls and whose ``metrics(result)`` flattens the result (imported on
    first use, so listing scenarios imports none of them).  The twelve
    paper experiments also carry the ``title`` that ``repro list``
    prints and the ``run()`` keyword that ``repro experiment
    --records/--size`` maps onto, which makes this the one table the
    CLI reads.
    """

    name: str
    source: str
    params: Dict[str, object]
    description: str = ""
    title: str = ""
    size_arg: Optional[str] = None

    @property
    def module(self):
        return importlib.import_module(f"repro.bench.{self.source}")

    def run(self):
        return self.module.run(**self.params)


SCENARIOS: Dict[str, Scenario] = {}


def _register(name, *fields):
    SCENARIOS[name] = Scenario(name, *fields)


_register(
    "fig7", "fig7_microbenchmark", {"records": 600},
    "single-node scan times/bytes per format and projection",
    "Figure 7: scan microbenchmark (TXT/SEQ/CIF/RCFile)", "records",
)
_register(
    "fig8", "fig8_deserialization", {"records": 40, "seed": 8},
    "deserialization bandwidth by type mix and runtime profile",
    "Figure 8: deserialization cost vs typed fraction", "records",
)
_register(
    "fig9", "fig9_rowgroups", {"records": 600},
    "RCFile row-group size sweep vs CIF",
    "Figure 9: RCFile row-group size tuning", "records",
)
_register(
    "fig10", "fig10_selectivity", {"records": 500},
    "lazy record construction / skip-list selectivity sweep",
    "Figure 10: CIF vs CIF-SL vs predicate selectivity", "records",
)
_register(
    "fig11", "fig11_wide_records", {"total_bytes": 400_000},
    "scan bandwidth vs record width",
    "Figure 11: bandwidth vs number of columns", "total_bytes",
)
_register(
    "table1", "table1_crawl",
    {"records": 120, "content_bytes": 2048, "num_nodes": 8},
    "crawl workload: data read, map and total times per layout",
    "Table 1: the 11-layout crawl comparison", "records",
)
_register(
    "table2", "table2_load_times", {"records": 500},
    "load times and bytes written per target layout",
    "Table 2: load times (SEQ -> CIF/CIF-SL/RCFile)", "records",
)
_register(
    "colocation", "colocation", {"records": 60, "content_bytes": 1024},
    "column placement policy: locality fraction and map-time speedup",
    "Section 6.4: co-location (CPP on/off)", "records",
)
_register(
    "addcolumn", "addcolumn_ablation", {"records": 400},
    "adding a column after the fact: CIF vs RCFile rewrite cost",
    "Section 4.3: adding a column, CIF vs RCFile", "records",
)
_register(
    "buffers", "buffer_ablation", {"records": 400},
    "io-buffer size ablation per format",
    "Ablation: io.file.buffer.size sensitivity sweep", "records",
)
_register(
    "encodings", "encodings_ablation", {"records": 400},
    "column encoding sweep: file bytes, full and selective scans",
    "Ablation: per-column lightweight encodings (rle/delta/dcsl)", "records",
)
_register(
    "pruning", "pruning_ablation", {"records": 500},
    "range-predicate pruning on sorted vs shuffled data",
    "Ablation: zone-map split pruning, clustered vs shuffled", "records",
)
_register(
    "scale_stability", "scale_stability", {"small": 1000, "large": 4000},
    "fig7 headline ratios measured at two sizes 4x apart",
)
_register(
    "cluster_load", "cluster_load", {"duration": 1.0, "seed": 20110401},
    "multi-tenant traffic: fair-share+preemption vs FIFO job latency",
)
_register(
    "cluster_recovery", "cluster_recovery",
    {"duration": 1.0, "seed": 20110401, "kill_time": 0.35, "kill_node": 1},
    "mid-run node kill: map-output re-execution + speculation overhead",
)
_register(
    "vector_scan", "vector_scan", {"records": 3000, "selectivity": 0.05},
    "vectorized vs scalar scan charge identity on the Fig-10 query",
)
_register(
    "cluster_slo", "cluster_slo", {"duration": 1.0, "seed": 20110401},
    "continuous monitoring overhead: tsdb + SLO/alerting as pure observer",
)


# ---------------------------------------------------------------------------
# running and serializing


def result_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def canonical(scenario: Scenario, result) -> dict:
    """The canonical JSON payload for one scenario result."""
    metrics = scenario.module.metrics(result)
    return {
        "benchmark": scenario.name,
        "schema_version": SCHEMA_VERSION,
        "params": dict(scenario.params),
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
    return canonical(scenario, result)


def write_result(payload: dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, result_filename(payload["benchmark"]))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_result(path: str) -> dict:
    """A ``BENCH_*.json`` payload; ``ValueError`` unless it is an object
    with a ``benchmark`` and a ``metrics`` object of finite numbers."""
    with open(path) as handle:
        payload = json.load(handle)
    metrics = payload.get("metrics") if isinstance(payload, dict) else None
    if not isinstance(metrics, dict) or "benchmark" not in payload:
        raise ValueError(f"{path} is not a BENCH result: it needs "
                         "'benchmark' and a 'metrics' object")
    for key, value in metrics.items():
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ValueError(f"{path} is not a BENCH result: metric "
                             f"{key!r} is {value!r}, not a finite number")
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
class ScenarioDiff(Diff):
    """One scenario's moved metrics in key order, or the ``error`` that
    stopped its comparison."""

    name: str = "?"
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.regressions

    def render(self, pal=None) -> str:
        from repro.util.term import PLAIN

        pal = pal if pal is not None else PLAIN
        if self.error:
            return pal.red(f"{self.name}: ERROR — {self.error}")
        verdict = pal.green("OK") if self.ok else pal.red("REGRESSED")
        lines = [
            f"{self.name}: {verdict} "
            f"({self.compared} metrics, {len(self.regressions)} regression(s))"
        ]
        for entry in self.entries:
            if entry.a is None:
                line = f"[new] {entry.key}: (no baseline) -> {entry.b:g}"
            elif entry.b is None:
                line = f"[regression] {entry.key}: metric disappeared"
            else:
                line = (
                    f"[{entry.severity}] {entry.key} "
                    f"({direction_of(entry.key)}-is-better): "
                    f"{entry.a:g} -> {entry.b:g} ({entry.rel * 100:+.2f}%)"
                )
            lines.append("  " + line)
        return "\n".join(lines)


def compare(
    baseline: dict, fresh: dict, rel_tol: float = DEFAULT_REL_TOL
) -> ScenarioDiff:
    """Compare one fresh payload against its committed baseline.

    ``exact`` metrics must match bit-for-bit; directional metrics may
    drift within ``rel_tol`` of the baseline (by default not at all),
    and moves *in the good direction* beyond tolerance are reported as
    improvements (worth a baseline refresh), never failures.  A metric
    the fresh run lacks is a regression; one only it has is ``new``.
    """
    name = baseline.get("benchmark", "?")
    if fresh.get("benchmark") != name:
        return ScenarioDiff(name=name, error=(
            f"comparing different scenarios: baseline={name!r} "
            f"fresh={fresh.get('benchmark')!r}"
        ))
    if baseline.get("params") != fresh.get("params"):
        return ScenarioDiff(name=name, error=(
            "smoke-size params changed "
            f"(baseline {baseline.get('params')} vs fresh "
            f"{fresh.get('params')}); re-record the baseline"
        ))
    diff = compare_metrics(
        baseline["metrics"], fresh["metrics"], direction_of, rel_tol
    )
    entries = [
        e._replace(severity="regression") if e.severity == "gone" else e
        for e in diff.entries
    ]
    entries.sort(key=lambda entry: entry.key)
    return ScenarioDiff(entries, diff.compared, name)


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
            if quiet and diff.ok and not diff.entries:
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
        try:
            baseline = load_result(
                os.path.join(baseline_dir, result_filename(name))
            )
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
