"""The parallel COF loader (Section 4.2).

"Data may arrive into Hadoop in any format.  Once it is in HDFS, a
parallel loader is used to load the data using COF."  This module is
that loader: one load task per input split, scheduled across the
cluster's map slots with the usual locality preference, each task
writing its own disjoint range of split-directories so the result is
byte-identical in content to a sequential load (record order is
preserved because ranges follow input-split order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.cof import ColumnOutputFormat
from repro.core.columnio import ColumnSpec
from repro.mapreduce.eventloop import run_alone
from repro.mapreduce.scheduler import MapWork, ScheduledTask, makespan
from repro.mapreduce.types import InputFormat, InputSplit, TaskContext
from repro.obs import NULL_OBS
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics

#: Split-directory indices reserved per loader task.  A single input
#: split never produces more directories than this (it would need to be
#: ~6 TB at default sizes).
INDEX_STRIDE = 100_000


@dataclass
class ParallelLoadReport:
    """What a parallel load did and cost."""

    records: int
    split_dirs: int
    load_time: float       # sum of task times / total map slots
    makespan: float        # wall clock across the cluster
    metrics: Metrics
    tasks: List[ScheduledTask] = field(default_factory=list)


def parallel_load(
    fs,
    input_format: InputFormat,
    dataset: str,
    schema: Schema,
    specs: Optional[Dict[str, ColumnSpec]] = None,
    default_spec: Optional[ColumnSpec] = None,
    split_bytes: int = 64 * 1024 * 1024,
    cost: Optional[CpuCostModel] = None,
) -> ParallelLoadReport:
    """Convert ``input_format``'s data into a CIF dataset, in parallel."""
    cluster = fs.cluster
    cost = cost if cost is not None else CpuCostModel()
    splits = input_format.get_splits(fs, cluster)
    ordinal_of = {id(split): i for i, split in enumerate(splits)}
    counters = {"records": 0, "dirs": 0}

    def attempt(split: InputSplit, node: int):
        ctx = TaskContext(
            node=node, cost=cost, io_buffer_size=cluster.io_buffer_size
        )
        records = []
        reader = input_format.open_reader(fs, split, ctx)
        try:
            for _, record in reader:
                records.append(record.materialize())
        finally:
            reader.close()
        cof = ColumnOutputFormat(
            schema, specs=specs, default_spec=default_spec,
            split_bytes=split_bytes,
        )
        written = cof.write(
            fs, dataset, records,
            metrics=ctx.metrics,
            first_split_index=ordinal_of[id(split)] * INDEX_STRIDE,
        )
        counters["records"] += len(records)
        counters["dirs"] += written
        return ctx.metrics, None

    tasks = run_alone(
        fs, MapWork("parallel_load", splits, attempt), NULL_OBS
    ).tasks
    total = Metrics()
    for task in tasks:
        total.add(task.metrics)
    return ParallelLoadReport(
        records=counters["records"],
        split_dirs=counters["dirs"],
        load_time=sum(t.duration for t in tasks) / cluster.total_map_slots,
        makespan=makespan(tasks),
        metrics=total,
        tasks=tasks,
    )
