"""Dataset sorting: clustering a CIF dataset to make zone maps bite.

Zone maps (``repro.core.stats``) can only prune split-directories whose
value ranges are narrow — which they are when the dataset is clustered
on the predicate column.  This tool is Hadoop's classic
sample-partition-sort recipe:

1. sample the sort key to build range boundaries
   (TotalOrderPartitioner-style),
2. run a MapReduce job whose mapper emits (key, record) and whose
   partitioner routes by range, so each reducer receives one sorted
   key range,
3. write each reducer's output as consecutive CIF split-directories.

The result is a dataset whose per-directory min/max are tight and
disjoint, so range predicates prune most of it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.cof import ColumnOutputFormat
from repro.core.columnio import ColumnSpec
from repro.mapreduce.types import InputFormat, TaskContext
from repro.serde.schema import Schema, SchemaError
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics

#: split-directory index stride reserved per output partition
PARTITION_STRIDE = 100_000


@dataclass
class SortReport:
    """What a sort produced and cost."""

    records: int
    partitions: int
    boundaries: List[object]
    metrics: Metrics


def _read_all(fs, input_format: InputFormat, ctx: TaskContext) -> List:
    records = []
    for split in input_format.get_splits(fs, fs.cluster):
        reader = input_format.open_reader(fs, split, ctx)
        try:
            for _, record in reader:
                records.append(record.materialize())
        finally:
            reader.close()
    return records


def sample_boundaries(values: List, partitions: int) -> List:
    """Range boundaries splitting ``values`` into ``partitions`` parts.

    Returns ``partitions - 1`` cut points; partition *i* holds keys in
    ``(boundary[i-1], boundary[i]]`` (ends open).
    """
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    if partitions == 1 or not values:
        return []
    ordered = sorted(values)
    return [
        ordered[(len(ordered) * i) // partitions]
        for i in range(1, partitions)
    ]


def partition_of(boundaries: List, key) -> int:
    """Which range partition ``key`` falls into."""
    return bisect.bisect_left(boundaries, key)


def sort_dataset(
    fs,
    input_format: InputFormat,
    schema: Schema,
    by: str,
    output_dataset: str,
    partitions: int = 4,
    specs: Optional[Dict[str, ColumnSpec]] = None,
    split_bytes: int = 64 * 1024 * 1024,
    sample_fraction: float = 0.1,
) -> SortReport:
    """Write ``output_dataset`` as a CIF dataset clustered on ``by``."""
    field = schema.field(by)
    if not field.schema.is_primitive:
        raise SchemaError(f"cannot sort by non-primitive column {by!r}")
    ctx = TaskContext(
        node=None, cost=CpuCostModel(), io_buffer_size=fs.cluster.io_buffer_size
    )
    records = _read_all(fs, input_format, ctx)

    # 1. sample the key space (deterministic striding, no RNG needed).
    stride = max(1, int(1 / sample_fraction)) if sample_fraction < 1 else 1
    sample = [r.get(by) for r in records[::stride]]
    boundaries = sample_boundaries(sample, partitions)

    # 2. range-partition, 3. per-partition sort + write.
    buckets: List[List] = [[] for _ in range(partitions)]
    for record in records:
        buckets[partition_of(boundaries, record.get(by))].append(record)
    cof = ColumnOutputFormat(schema, specs=specs, split_bytes=split_bytes)
    for index, bucket in enumerate(buckets):
        bucket.sort(key=lambda r: r.get(by))
        if bucket:
            cof.write(
                fs, output_dataset, bucket,
                metrics=ctx.metrics,
                first_split_index=index * PARTITION_STRIDE,
            )
    return SortReport(
        records=len(records),
        partitions=partitions,
        boundaries=boundaries,
        metrics=ctx.metrics,
    )
