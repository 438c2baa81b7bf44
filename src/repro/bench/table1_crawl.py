"""Table 1 / Section 6.3: the full-cluster crawl comparison.

Runs Figure 1's job — find the distinct content-types reported by pages
whose URL contains ``ibm.com/jp`` (~6% selectivity) — over a synthetic
intranet crawl (Figure 2's URLInfo schema) stored in each of the
paper's eleven layouts, on the 40-node / 6-map-slot cluster.

Reported per layout, exactly as in Table 1: data read (MB here, GB in
the paper), map time, map-time speedup vs SEQ-custom, total time, and
total-time speedup.

Paper shape targets (speedups vs SEQ-custom):
- SEQ-uncomp slowest; record/block compression ~1.7x better than
  uncompressed; SEQ-custom the fastest SEQ variant,
- RCFile ~1.1x, RCFile-comp ~3.7x,
- CIF ~60x, driven by ~30x less data read,
- CIF-ZLIB / CIF-LZO no better than plain CIF (decompression CPU eats
  the I/O saving),
- CIF-SL better than CIF-LZO despite reading more data (lazy records),
- CIF-DCSL best overall (~108x map time, ~12.8x total time),
- total-time speedups compressed by the format-independent
  shuffle/sort/reduce phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench import harness
from repro.bench.regress import slug
from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.formats.rcfile import RCFileInputFormat, write_rcfile
from repro.formats.sequence_file import SequenceFileInputFormat, write_sequence_file
from repro.mapreduce.runner import JobResult, run_job
from repro.sim import calibration
from repro.workloads.crawl import (
    compress_content_column,
    crawl_records,
    crawl_schema,
)
from repro.workloads.jobs import distinct_content_types_job

PROJECTED = ["url", "metadata"]

#: layout name -> (kind, options)
LAYOUTS = [
    "SEQ-uncomp",
    "SEQ-record",
    "SEQ-block",
    "SEQ-custom",
    "RCFile",
    "RCFile-comp",
    "CIF-ZLIB",
    "CIF",
    "CIF-LZO",
    "CIF-SL",
    "CIF-DCSL",
]


@dataclass
class Table1Row:
    layout: str
    data_read_mb: float
    map_time: float
    total_time: float
    map_ratio: float = 0.0
    total_ratio: float = 0.0


@dataclass
class Table1Result:
    records: int
    rows: List[Table1Row] = field(default_factory=list)
    results: Dict[str, JobResult] = field(default_factory=dict)

    def row(self, layout: str) -> Table1Row:
        return next(r for r in self.rows if r.layout == layout)


def _load_all(fs, records, row_group: int, split_bytes: int) -> None:
    schema = crawl_schema()
    write_sequence_file(fs, "/t1/SEQ-uncomp", schema, records)
    write_sequence_file(fs, "/t1/SEQ-record", schema, records, compression="record")
    write_sequence_file(fs, "/t1/SEQ-block", schema, records, compression="block")
    write_sequence_file(
        fs, "/t1/SEQ-custom", schema, list(compress_content_column(records))
    )
    write_rcfile(fs, "/t1/RCFile", schema, records, row_group_bytes=row_group)
    write_rcfile(
        fs, "/t1/RCFile-comp", schema, records,
        row_group_bytes=row_group, codec="zlib",
    )
    # CIF variants: the metadata column's layout varies; everything else
    # is a plain column file (Section 6.3).
    cif_variants = {
        "CIF": None,
        "CIF-ZLIB": ColumnSpec("cblock", codec="zlib", block_bytes=4 * 1024),
        "CIF-LZO": ColumnSpec("cblock", codec="lzo", block_bytes=4 * 1024),
        "CIF-SL": ColumnSpec("skiplist"),
        "CIF-DCSL": ColumnSpec("dcsl"),
    }
    for name, metadata_spec in cif_variants.items():
        specs = {"metadata": metadata_spec} if metadata_spec else None
        write_dataset(
            fs, f"/t1/{name}", schema, records,
            specs=specs, split_bytes=split_bytes,
        )


def _input_format(layout: str):
    if layout.startswith("SEQ"):
        return SequenceFileInputFormat(f"/t1/{layout}")
    if layout.startswith("RCFile"):
        return RCFileInputFormat(f"/t1/{layout}", columns=PROJECTED)
    # Lazy record construction for the skip-list variants, eager for the
    # rest — matching how the paper pairs the techniques.
    lazy = layout in ("CIF-SL", "CIF-DCSL")
    return ColumnInputFormat(f"/t1/{layout}", columns=PROJECTED, lazy=lazy)


def run(
    records: int = 800,
    content_bytes: int = 32768,
    selectivity: float = 0.06,
    use_cpp: bool = True,
    num_nodes: int = 40,
    layouts: Optional[List[str]] = None,
) -> Table1Result:
    fs = harness.cluster_fs(num_nodes=num_nodes, block_size=harness.MICRO_BLOCK)
    if use_cpp:
        fs.use_column_placement()
    data = list(
        crawl_records(records, selectivity=selectivity, content_bytes=content_bytes)
    )
    # Split-directories hold roughly half an HDFS block of data here
    # (the paper's are "typically 64 MB", i.e. one block).
    _load_all(
        fs, data,
        row_group=harness.MICRO_ROW_GROUP,
        split_bytes=harness.MICRO_BLOCK // 2,
    )

    result = Table1Result(records=records)
    for layout in layouts if layouts is not None else LAYOUTS:
        job = distinct_content_types_job(
            _input_format(layout), num_reducers=num_nodes, name=layout
        )
        job_result = run_job(fs, job)
        result.results[layout] = job_result
        # Total time is composed the way the paper's fully-loaded
        # cluster behaves: the map phase's wall clock equals its
        # slot-normalized time (tasks >> slots there, unlike in this
        # scaled-down run where a single fat task would dominate the
        # literal makespan), plus the format-independent reduce phase.
        result.rows.append(
            Table1Row(
                layout=layout,
                data_read_mb=job_result.bytes_read / 1e6,
                map_time=job_result.map_time,
                total_time=job_result.map_time + job_result.reduce_time,
            )
        )
    if "SEQ-custom" in result.results:
        base = result.row("SEQ-custom")
        # The remaining non-map phases (job setup, scheduling, sort)
        # cost the same regardless of storage format; Table 1 shows them
        # as a near-constant total-minus-map gap of ~66 s against a
        # 754 s SEQ-custom map phase.  We add the same *relative*
        # constant, so total-time speedups compress as in the paper.
        overhead = (
            calibration.JOB_OVERHEAD_SECONDS / 754.0
        ) * result.row("SEQ-custom").map_time
        for row in result.rows:
            row.total_time += overhead
        for row in result.rows:
            row.map_ratio = base.map_time / row.map_time if row.map_time else 0
            row.total_ratio = (
                base.total_time / row.total_time if row.total_time else 0
            )
    return result


def metrics(result: Table1Result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in result.rows:
        layout = slug(row.layout)
        out[f"bytes.read_mb.{layout}"] = row.data_read_mb
        out[f"time.map.{layout}"] = row.map_time
        out[f"time.total.{layout}"] = row.total_time
    out["ratio.seq_over_cif_map"] = (
        result.row("SEQ-uncomp").map_time / result.row("CIF").map_time
    )
    return out


def format_table(result: Table1Result) -> str:
    return harness.format_table(
        f"Table 1 - crawl job, {result.records} URLInfo records "
        f"(speedups vs SEQ-custom)",
        ["Data Read (MB)", "Map Time (ms)", "Map Ratio",
         "Total Time (s)", "Total Ratio"],
        [
            (r.layout, [
                round(r.data_read_mb, 2),
                round(r.map_time * 1e3, 3),
                f"{r.map_ratio:.1f}x",
                round(r.total_time, 3),
                f"{r.total_ratio:.1f}x",
            ])
            for r in result.rows
        ],
    )
