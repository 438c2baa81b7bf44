"""The parent of a run: starts trials, pools their passes, reports.

A *run* of a workload is ``trials`` fresh processes, one at a time; the
measured passes of all of them are pooled.  With several workloads the
trials are interleaved so that machine drift lands on all of them.
Nothing here imports the program: the parent stays small, so a trial's
peak RSS is its own.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from wallbench import spec

E2E = ("pass_p50_s", "ops_per_s", "setup_s", "peak_rss_mb")


def start_trial(
    name: str, seed: int, seconds: float, trial: int, traced: bool,
    suite: bool, smoke: bool,
) -> dict:
    """Run one trial process to its end and return what it printed."""
    args = [
        sys.executable, "-m", "wallbench", "trial", "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds), "--trial", str(trial),
        "--spawned-at", repr(time.time()),
    ]
    args += ["--traced"] if traced else []
    args += ["--suite"] if suite else []
    args += ["--smoke"] if smoke else []
    done = subprocess.run(
        args, env=spec.child_env(), cwd=spec.ROOT, stdout=subprocess.PIPE,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"wallbench: trial {trial} of {name} exited {done.returncode}"
        )
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def summarize(trials: List[dict]) -> dict:
    """End-to-end metrics of one workload from its untraced trials."""
    passes = [s for t in trials for s in t["pass_s"]]
    nominal = spec.config()["reference_nominal_s"]
    # < 1 while the machine is slower than the one the sizes were tuned on
    speed = nominal / statistics.median(
        s for t in trials for s in t["reference_s"]
    )
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    quartiles = statistics.quantiles(passes, n=4)
    digests = {t["inputs_sha256"] for t in trials}
    sims = {json.dumps(t["sim"], sort_keys=True) for t in trials}
    return {
        "inputs_sha256": trials[0]["inputs_sha256"],
        "end_to_end": {
            "pass_p50_s": statistics.median(passes) * speed,
            "ops_per_s": (attempted - failed) / (sum(passes) * speed),
            "setup_s": statistics.median(
                t["setup_s"] * nominal / statistics.median(t["reference_s"])
                for t in trials
            ),
            "peak_rss_mb": max(t["peak_rss_kb"] for t in trials) / 1024,
        },
        # wall seconds as the clock read them, before the yardstick
        "pass": {
            "n": len(passes), "p50": statistics.median(passes),
            "min": min(passes), "q1": quartiles[0], "q3": quartiles[2],
        },
        "machine_speed": speed,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted,
        "failed_ops": sorted({op for t in trials for op in t["failed_ops"]}),
        "sim": trials[0]["sim"],
        # same seed, same inputs, same counts: across trials too
        "repeats": (
            len(digests) == 1 and len(sims) == 1
            and all(t["sim_repeats"] for t in trials)
        ),
    }


def correct(summary: dict) -> bool:
    return (
        summary["failed"] == 0 and not summary["failed_ops"]
        and summary["repeats"]
    )


def write_spans(name: str, trial: dict) -> str:
    os.makedirs(spec.OUT_DIR, exist_ok=True)
    path = os.path.join(spec.OUT_DIR, f"trace-{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": name, "seed": trial["seed"],
                "ladder": trial["ladder"], "spans": trial["spans"],
            },
            handle,
        )
    return path


def run(
    names: List[str], seed: int, seconds: float, traced: bool, smoke: bool,
    untraced: bool = True,
) -> Dict[str, dict]:
    """Measure ``names``; returns workload -> summary (with
    ``per_layer`` when traced)."""
    trials = spec.config()["trials"]
    by_workload: Dict[str, List[dict]] = {name: [] for name in names}
    if untraced:
        for trial in range(trials):
            for name in names:
                by_workload[name].append(start_trial(
                    name, seed, seconds / trials, trial, False, False, smoke,
                ))
    results = {}
    suite_metrics = None
    for name in names:
        summary = summarize(by_workload[name]) if untraced else None
        if traced:
            # the layer suite does not depend on the workload: once is enough
            extra = start_trial(
                name, seed, seconds, trials, True, suite_metrics is None, smoke,
            )
            suite_metrics = suite_metrics or extra["suite"]
            if summary is None:
                summary = summarize([extra])
            summary["per_layer"] = dict(suite_metrics, **extra["per_layer"])
            summary["traced_failed"] = extra["failed"]
            summary["traced_attempted"] = extra["attempted"]
            summary["trace_file"] = write_spans(name, extra)
        results[name] = summary
    return results


# -- printing ----------------------------------------------------------------


def render(results: Dict[str, dict], seed: int) -> str:
    unit_of = spec.units()
    lines = [f"wallbench  seed={seed}"]
    for name, summary in results.items():
        lines.append("")
        lines.append(f"{name}  inputs_sha256={summary['inputs_sha256']}")
        e2e, stats = summary["end_to_end"], summary["pass"]
        for metric in E2E:
            line = f"  {metric:<28}{e2e[metric]:>14.6g} {unit_of[metric]}"
            if metric == "pass_p50_s":
                line += (
                    f"   (wall: n={stats['n']} p50={stats['p50']:.4g} "
                    f"q1={stats['q1']:.4g} q3={stats['q3']:.4g} "
                    f"min={stats['min']:.4g}; "
                    f"machine speed {summary['machine_speed']:.3f})"
                )
            lines.append(line)
        lines.append(
            f"  {'failed_ops_share':<28}{summary['failed_ops_share']:>14.6g} ratio"
            f"   ({summary['failed']} of {summary['attempted']} ops)"
        )
        if not summary["repeats"]:
            lines.append("  !! inputs or exact counts did not repeat across trials")
        for metric, value in sorted(summary.get("per_layer", {}).items()):
            lines.append(f"  {metric:<52}{value:>14.6g} {unit_of[metric]}")
    return "\n".join(lines)


def contract_line(summary: dict, traced: bool) -> str:
    """The last line the driver of the benchmark reads."""
    bench = spec.benchmark()
    if traced:
        names = [m["name"] for m in bench["per_layer"]]
        values = summary["per_layer"]
        attempted, failed = summary["traced_attempted"], summary["traced_failed"]
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        values = summary["end_to_end"]
        attempted, failed = summary["attempted"], summary["failed"]
    return json.dumps({
        "correct": correct(summary) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": spec.with_units(values, names),
    })
