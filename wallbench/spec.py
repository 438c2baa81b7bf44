"""Where the benchmark's files live and what ``BENCHMARK.json`` fixes.

``BENCHMARK.json`` is the single list of workload and metric names,
units, directions and bounds; sizes and cluster constants are pinned in
``config.json``.  Nothing here imports ``repro``: the parent process of
a run stays small so a trial's peak RSS is its own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import Dict, List

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PACKAGE_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(PACKAGE_DIR, "out")
DEFAULT_SEED = 20110401


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@functools.lru_cache(maxsize=None)
def benchmark() -> dict:
    return _load(os.path.join(ROOT, "BENCHMARK.json"))


@functools.lru_cache(maxsize=None)
def config() -> dict:
    return _load(os.path.join(PACKAGE_DIR, "config.json"))


def sizes(workload: str, smoke: bool = False) -> dict:
    return config()["sizes"]["smoke" if smoke else "full"][workload]


def workload_names() -> List[str]:
    return [w["name"] for w in benchmark()["workloads"]]


def units() -> Dict[str, str]:
    """Metric name -> unit, for both metric lists."""
    spec = benchmark()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def with_units(values: Dict[str, float], names: List[str]) -> dict:
    """The contract's ``metrics`` object: exactly ``names``, each with
    its unit.  A missing value is a bug in the benchmark, not a zero."""
    unit_of = units()
    return {
        name: {"value": values[name], "unit": unit_of[name]} for name in names
    }


def child_env() -> Dict[str, str]:
    """Environment of a trial process and of every ``python -m repro``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def require_program() -> None:
    """Fail before measuring anything when the program is not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"wallbench: no program to measure: {SRC}/repro is missing"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
