"""Section 6.4: the impact of co-location (CPP vs default placement).

Re-runs the Table 1 job over CIF twice: once with the
ColumnPlacementPolicy installed before loading (every split-directory
fully co-located) and once with HDFS's default random placement (column
files scattered, so map tasks must read most columns remotely).

Paper shape target: map time with CPP ~5.1x better than without.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.bench import harness
from repro.core import ColumnInputFormat, write_dataset
from repro.mapreduce.runner import run_job
from repro.workloads.crawl import crawl_records, crawl_schema
from repro.workloads.jobs import distinct_content_types_job


@dataclass
class ColocationResult:
    records: int
    map_time_cpp: float
    map_time_default: float
    local_fraction_cpp: float
    local_fraction_default: float

    @property
    def speedup(self) -> float:
        return self.map_time_default / self.map_time_cpp


def _run_one(use_cpp: bool, records: int, content_bytes: int) -> "tuple[float, float]":
    fs = harness.cluster_fs(num_nodes=40, block_size=harness.MICRO_BLOCK)
    if use_cpp:
        fs.use_column_placement()
    data = crawl_records(records, content_bytes=content_bytes)
    write_dataset(
        fs, "/colo/cif", crawl_schema(), data,
        split_bytes=harness.MICRO_BLOCK // 2,
    )
    fmt = ColumnInputFormat("/colo/cif", columns=["url", "metadata"], lazy=False)
    result = run_job(
        fs, distinct_content_types_job(fmt, num_reducers=40, name="colo")
    )
    return result.map_time, result.data_local_fraction


def run(records: int = 800, content_bytes: int = 32768) -> ColocationResult:
    cpp_time, cpp_local = _run_one(True, records, content_bytes)
    default_time, default_local = _run_one(False, records, content_bytes)
    return ColocationResult(
        records=records,
        map_time_cpp=cpp_time,
        map_time_default=default_time,
        local_fraction_cpp=cpp_local,
        local_fraction_default=default_local,
    )


def metrics(result: ColocationResult) -> Dict[str, float]:
    return {
        "time.map.cpp": result.map_time_cpp,
        "time.map.default": result.map_time_default,
        "fraction.local.cpp": result.local_fraction_cpp,
        "fraction.local.default": result.local_fraction_default,
        "ratio.colocation_speedup": result.speedup,
    }


def format_table(result: ColocationResult) -> str:
    table = harness.format_table(
        "Section 6.4 - impact of co-location",
        ["Map time (ms)", "Data-local tasks"],
        [
            ("CIF with CPP", [
                round(result.map_time_cpp * 1e3, 3),
                f"{result.local_fraction_cpp:.0%}",
            ]),
            ("CIF default placement", [
                round(result.map_time_default * 1e3, 3),
                f"{result.local_fraction_default:.0%}",
            ]),
        ],
    )
    return table + f"\nCPP speedup: {result.speedup:.1f}x (paper: 5.1x)"
