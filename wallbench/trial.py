"""One trial: a fresh process that sets up, warms up and measures.

The parent (``driver``) starts this with ``PYTHONHASHSEED=0`` and reads
one JSON object from the last line of its standard output.  Outputs are
checked after every pass, outside the timed window.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Dict, List

from wallbench import reference, spec
from wallbench.trace import NO_SPANS, Spans, build_ladder, replay_round

#: layers that can own part of a pass; each has a ``<layer>.self_s``
SELF_LAYERS = (
    "hdfs.stream_read", "hdfs.write", "core.columnio", "core.cif", "core.cof",
    "formats", "mapreduce", "query", "cluster", "cli.python_floor",
    "cli.import", "cli",
)


def workload_class(name: str):
    from wallbench.workloads.cif_scan import CifScan
    from wallbench.workloads.cli_cold import CliCold
    from wallbench.workloads.cluster_load import ClusterLoad
    from wallbench.workloads.load import Load
    from wallbench.workloads.seq_scan import SeqScan

    return {
        cls.name: cls for cls in (CifScan, SeqScan, Load, ClusterLoad, CliCold)
    }[name]


class _Passes:
    """Runs passes of one workload, timing each and checking it after."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed: List[str] = []
        self.sim: Dict[str, float] = {}
        self.sim_repeats = True
        self.answers = None

    def run(self, spans=NO_SPANS) -> float:
        gc.collect()
        start = time.perf_counter()
        answers = self.workload.run_pass(spans)
        took = time.perf_counter() - start
        workload = self.workload
        failed = workload.check(answers)
        self.attempted += len(workload.op_names)
        self.failed += failed
        if not failed:
            sim = workload.sim_counts(answers)
            self.sim_repeats = self.sim_repeats and self.sim in ({}, sim)
            self.sim = sim
        self.answers = answers
        return took


def peak_rss_kb() -> int:
    """This process and, for ``cli_cold``, the largest child it waited
    for (Linux reports KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def run_trial(
    name: str, seed: int, seconds: float, trial: int, spawned_at: float,
    traced: bool, suite: bool, smoke: bool,
) -> dict:
    started = time.perf_counter()
    workload = workload_class(name)(spec.sizes(name, smoke), seed)
    import_s = time.perf_counter() - started
    workload.generate()
    generate_s = time.perf_counter() - started - import_s
    workload.load()
    load_s = time.perf_counter() - started - import_s - generate_s
    gc.collect()
    gc.freeze()

    passes = _Passes(workload)
    warm_start = time.perf_counter()
    warm_answers = workload.run_pass()
    warmup_s = time.perf_counter() - warm_start
    ready_at = time.time()
    # the warm-up's outputs are checked too, but it is not an attempt
    warm_failed = workload.check(warm_answers)
    del warm_answers

    result = {
        "workload": name, "seed": seed, "trial": trial, "traced": traced,
        "inputs_sha256": workload.inputs_sha256,
        "setup_s": ready_at - spawned_at,
        "setup_phases": {
            "import_s": import_s, "generate_s": generate_s, "load_s": load_s,
            "warmup_s": warmup_s,
        },
    }
    if traced:
        result.update(_traced(workload, passes, warmup_s, seed, suite, smoke, trial))
    else:
        pass_s: List[float] = []
        reference_s = [reference.seconds()]
        while (
            len(pass_s) < spec.config()["min_passes"] or sum(pass_s) < seconds
        ):
            pass_s.append(passes.run())
            reference_s.append(reference.seconds())
        result["pass_s"] = pass_s
        result["reference_s"] = reference_s
    result.update({
        "attempted": passes.attempted,
        "failed": len(passes.failed),
        "failed_ops": sorted(set(passes.failed + warm_failed)),
        "sim": passes.sim,
        "sim_repeats": passes.sim_repeats,
        "peak_rss_kb": peak_rss_kb(),
    })
    return result


def _traced(workload, passes, warmup_s, seed, suite, smoke, trial) -> dict:
    """Rounds of an untraced pass, a traced pass and one replay of every
    lower rung; then the layer suite."""
    spans = Spans(trial)
    untraced, traced_s, tops, reference_s = [], [], [], []
    units, samples = None, {}
    for rep in range(spec.config()["traced_rounds"]):
        reference_s.append(reference.seconds())
        untraced.append(passes.run())
        first = len(spans.rows)
        traced_s.append(passes.run(spans))
        tops.append({
            row["name"]: (row["end"] - row["start"], row["id"])
            for row in spans.rows[first:]
        })
        if units is None:
            units = workload.units(passes.answers)
        replay_round(
            units, {unit: span for unit, (_, span) in tops[-1].items()},
            spans, rep, samples,
        )
    untraced_p50 = statistics.median(untraced)
    ladder = build_ladder(units, samples, {
        unit: statistics.median(top[unit][0] for top in tops) for unit in tops[0]
    })

    selfs = ladder.self_by_layer()
    unknown = set(selfs) - set(SELF_LAYERS)
    if unknown:
        raise AssertionError(f"ladder layers without a metric: {sorted(unknown)}")
    metrics = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in SELF_LAYERS}
    metrics["ladder.unaccounted_share"] = (
        abs(ladder.top_s - untraced_p50) / untraced_p50
    )
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / untraced_p50
    metrics["warmup.first_pass_ratio"] = warmup_s / untraced_p50
    metrics.update(passes.sim)
    suite_metrics = None
    if suite:
        from wallbench.layers import LayerSuite

        suite_metrics = LayerSuite(seed, smoke).run()
    return {
        "pass_s": untraced,
        "reference_s": reference_s,
        "traced_pass_s": traced_s,
        "per_layer": metrics,
        "suite": suite_metrics,
        "ladder": {
            "top_s": ladder.top_s,
            "rungs": {
                unit: [[layer, seconds] for layer, seconds in rungs]
                for unit, rungs in ladder.durations.items()
            },
        },
        "spans": spans.rows,
    }
