"""Format conversion: read through any InputFormat, write any layout.

Section 4.2: "Data may arrive into Hadoop in any format.  Once it is in
HDFS, a parallel loader is used to load the data using COF."  This is
that loader, generalized to every format in the repository, with the
read and write costs accounted the way Table 2 reports load times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.cof import write_dataset
from repro.core.columnio import ColumnSpec
from repro.formats.rcfile import write_rcfile
from repro.formats.sequence_file import write_sequence_file
from repro.formats.text import write_text
from repro.mapreduce.types import InputFormat, TaskContext
from repro.serde.record import Record
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel

TARGETS = ("cif", "rcfile", "seq", "text")


@dataclass
class ConversionReport:
    """What a conversion read, wrote, and (simulatedly) cost."""

    records: int
    bytes_read: int
    bytes_written: int
    load_time: float


def convert_dataset(
    fs,
    input_format: InputFormat,
    schema: Schema,
    target: str,
    output_path: str,
    specs: Optional[Dict[str, ColumnSpec]] = None,
    default_spec: Optional[ColumnSpec] = None,
    split_bytes: int = 64 * 1024 * 1024,
    row_group_bytes: int = 4 * 1024 * 1024,
    compression: str = "none",
    codec: Optional[str] = None,
) -> ConversionReport:
    """Convert a dataset to ``target`` ('cif', 'rcfile', 'seq', 'text').

    Reads every record through ``input_format`` (charging read I/O and
    deserialization), writes ``output_path`` in the target layout
    (charging write I/O), and returns a :class:`ConversionReport`.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; one of {TARGETS}")
    ctx = TaskContext(
        node=None, cost=CpuCostModel(), io_buffer_size=fs.cluster.io_buffer_size
    )
    metrics = ctx.metrics
    records = []
    for split in input_format.get_splits(fs, fs.cluster):
        reader = input_format.open_reader(fs, split, ctx)
        try:
            for _, record in reader:
                # Lazy records are reused between rows; take a stable copy.
                if not isinstance(record, Record):
                    record = record.materialize()
                records.append(record)
        finally:
            reader.close()
    read_bytes = metrics.total_bytes_read
    disk_before_write = metrics.disk_bytes

    if target == "cif":
        write_dataset(
            fs, output_path, schema, records,
            specs=specs, default_spec=default_spec,
            split_bytes=split_bytes, metrics=metrics,
        )
    elif target == "rcfile":
        write_rcfile(
            fs, output_path, schema, records,
            row_group_bytes=row_group_bytes, codec=codec, metrics=metrics,
        )
    elif target == "seq":
        write_sequence_file(
            fs, output_path, schema, records,
            compression=compression, metrics=metrics,
        )
    else:
        write_text(fs, output_path, schema, records, metrics=metrics)

    return ConversionReport(
        records=len(records),
        bytes_read=read_bytes,
        bytes_written=metrics.disk_bytes - disk_before_write,
        load_time=metrics.task_time,
    )
