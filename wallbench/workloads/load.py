"""load: Table 2, the write side of the same layers.

Eight writes of records held in memory onto a fresh ``FileSystem``.  A
read-side gain bought with write-time work (indexes, checksum state,
richer headers) or with space shows here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.core.cif import column_record_count
from repro.core.cof import SCHEMA_FILE, read_dataset_schema, split_dirs_of
from repro.core.stats import STATS_FILE
from repro.core.columnio import encode_column_file
from repro.formats import (
    RCFileInputFormat, SequenceFileInputFormat, write_rcfile,
    write_sequence_file,
)
from repro.sim.metrics import Metrics
from repro.workloads.crawl import crawl_schema
from repro.workloads.micro import micro_schema

from wallbench import inputs
from wallbench.trace import NO_SPANS, Part, Rung, Unit
from wallbench.rungs import task_context
from wallbench.workloads.base import Workload, new_filesystem
from wallbench.workloads.cif_scan import LAYOUTS


def files_under(fs, path: str) -> List[str]:
    if not fs.is_dir(path):
        return [path]
    out: List[str] = []
    for child in fs.listdir(path):
        out += files_under(fs, f"{path.rstrip('/')}/{child}")
    return out


def read_back(fs, fmt) -> List[dict]:
    """Every record of a written dataset, through its own reader."""
    rows = []
    for split in fmt.get_splits(fs, fs.cluster):
        reader = fmt.open_reader(fs, split, task_context(fs, None))
        try:
            for _, record in reader:
                rows.append({
                    name: record.get(name)
                    for name in record.schema.field_names
                })
        finally:
            reader.close()
    return rows


@dataclass
class WriteOp:
    path: str
    records: list
    write: Callable          # (fs, metrics) -> None
    reader: object           # the input format that reads ``path`` back
    #: ``write_dataset``'s layout arguments; None for SEQ and RCFile
    cif: Optional[dict] = None


def _cif_op(path, schema, records, split_bytes, layout: dict) -> WriteOp:
    return WriteOp(
        path, records,
        lambda fs, metrics: write_dataset(
            fs, path, schema, records, split_bytes=split_bytes,
            metrics=metrics, **layout,
        ),
        ColumnInputFormat(path, lazy=False), layout,
    )


def _seq_op(path, schema, records, compression: str) -> WriteOp:
    return WriteOp(
        path, records,
        lambda fs, metrics: write_sequence_file(
            fs, path, schema, records, compression=compression, metrics=metrics,
        ),
        SequenceFileInputFormat(path),
    )


def _rcfile_op(path, schema, records, codec: str) -> WriteOp:
    return WriteOp(
        path, records,
        lambda fs, metrics: write_rcfile(
            fs, path, schema, records, codec=codec, metrics=metrics,
        ),
        RCFileInputFormat(path),
    )


class Load(Workload):
    name = "load"

    def generate(self) -> None:
        sizes = self.sizes
        self.micro = inputs.micro(sizes["micro_records"], self.seed)
        self.crawl = inputs.crawl(
            sizes["crawl_records"], self.seed, sizes["content_bytes"]
        )
        self.inputs_sha256 = inputs.records_sha256(self.micro, self.crawl)

    def load(self) -> None:
        split_bytes = self.sizes["split_bytes"]
        m_schema, c_schema = micro_schema(), crawl_schema()
        self.ops: Dict[str, WriteOp] = {
            f"cif:{layout}": _cif_op(
                f"/load/cif-{layout}", m_schema, self.micro, split_bytes, args,
            )
            for layout, args in LAYOUTS.items()
        }
        self.ops["seq:none"] = _seq_op("/load/seq-none", c_schema, self.crawl, "none")
        self.ops["seq:block"] = _seq_op("/load/seq-block", c_schema, self.crawl, "block")
        self.ops["rcfile:zlib"] = _rcfile_op(
            "/load/rcfile-zlib", c_schema, self.crawl, "zlib"
        )
        self.ops["cif:crawl_dcsl"] = _cif_op(
            "/load/crawl-dcsl", c_schema, self.crawl, split_bytes * 8,
            {"specs": {"metadata": ColumnSpec("dcsl")}},
        )
        #: stored bytes of each op, fixed by the first pass (the warm-up)
        self.expected = {}
        self._read_back_ok: Dict[str, bool] = {}

    @property
    def op_names(self) -> List[str]:
        return list(self.ops)

    def run_pass(self, spans=NO_SPANS) -> list:
        fs = new_filesystem()
        metrics = {name: Metrics() for name in self.ops}
        answers = self._run_ops(
            [
                (name, lambda op=op, m=metrics[name]: op.write(fs, m))
                for name, op in self.ops.items()
            ],
            spans,
        )
        return [
            a if isinstance(a, Exception) else (fs, metrics[name])
            for name, a in zip(self.ops, answers)
        ]

    def stored_sha256(self, fs, path: str) -> str:
        return inputs.sha256_of(
            p.encode("utf-8") + b"\0" + fs.read_file(p)
            for p in sorted(files_under(fs, path))
        )

    def check(self, answers: list) -> List[str]:
        """Stored bytes repeat across passes; the pass that fixes them
        is read back record for record."""
        failed = []
        for name, answer in zip(self.op_names, answers):
            if isinstance(answer, Exception):
                failed.append(name)
                continue
            fs, op = answer[0], self.ops[name]
            stored = self.stored_sha256(fs, op.path)
            if name not in self._read_back_ok:
                self.expected.setdefault(name, stored)
                self._read_back_ok[name] = read_back(fs, op.reader) == [
                    r.to_dict() for r in op.records
                ]
            if not self._read_back_ok[name] or stored != self.expected[name]:
                failed.append(name)
        return failed

    def sim_counts(self, answers: list) -> Dict[str, float]:
        fs = answers[0][0]
        return {
            "sim.task_seconds": sum(m.task_time for _, m in answers),
            "sim.disk_bytes": fs.blockstore.total_bytes,
            "sim.records": sum(len(op.records) for op in self.ops.values()),
        }

    # -- ladder ------------------------------------------------------------

    def units(self, answers: list) -> List[Unit]:
        """Below each write: the same files' bytes through
        ``fs.write_file`` alone, and for CIF the column encoders."""
        written = answers[0][0]
        units = []
        for name, op in self.ops.items():
            payloads = {
                p: written.read_file(p) for p in sorted(files_under(written, op.path))
            }
            rungs = [Rung("hdfs.write", [Part(
                "write_file", lambda f=payloads: _write_files(f),
            )])]
            if op.cif is not None:
                rungs.append(Rung("core.columnio", [Part(
                    "encode",
                    lambda op=op, f=payloads: _encode_columns(written, op, f),
                )]))
            units.append(Unit(
                name, "formats" if op.cif is None else "core.cof", rungs,
            ))
        return units


def _write_files(payloads: Dict[str, bytes]) -> None:
    fs = new_filesystem()
    for path, data in payloads.items():
        fs.write_file(path, data, metrics=Metrics())


def _encode_columns(written, op: WriteOp, payloads: Dict[str, bytes]) -> None:
    """``encode_column_file`` per column of each split-directory, then
    the same ``write_file`` calls as the rung below."""
    schema = read_dataset_schema(written, op.path)
    default = op.cif.get("default_spec", ColumnSpec())
    specs = op.cif.get("specs", {})
    fs = new_filesystem()
    offset = 0
    for split_dir in split_dirs_of(written, op.path):
        count = column_record_count(
            written, f"{split_dir}/{schema.fields[0].name}"
        )
        chunk = op.records[offset:offset + count]
        offset += count
        for side in (SCHEMA_FILE, STATS_FILE):
            path = f"{split_dir}/{side}"
            fs.write_file(path, payloads[path], metrics=Metrics())
        for field in schema.fields:
            data = encode_column_file(
                field.schema, [r.get(field.name) for r in chunk],
                specs.get(field.name, default),
            )
            fs.write_file(f"{split_dir}/{field.name}", data, metrics=Metrics())
