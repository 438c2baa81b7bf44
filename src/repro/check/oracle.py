"""The differential oracle: one case, every storage path, equal answers.

Each generated :class:`~repro.check.generators.Case` is written through
every applicable storage configuration — TXT, SequenceFile (none /
record-ZLIB / block-ZLIB / block-LZO), RCFile with and without ZLIB,
and the CIF column layouts (plain, skip list, LZO/ZLIB compressed
blocks, RLE/delta light encodings, DCSL) — then checked cell by cell:

``scan``        eager full scan returns exactly the ground-truth rows
``scan-lazy``   (CIF) lazy records materialize to the same rows
``job``         the case's MapReduce job matches the reference output
                computed from the ground truth, and logical counters
                (``map.records``, ``reduce.groups``) agree
``lazy-bytes``  (CIF) under projection, a lazy job requests no more
                bytes than the same job run eagerly, with equal output
``metrics``     (CIF batch reader) the job's map ``Metrics``, eager and
                lazy, equal field for field the same job's through the
                per-datum reference reader over the same bytes
``chaos``       (full matrix) the job under a survivable seeded
                FaultPlan is byte-identical — output and counters —
                to the fault-free run

With ``plant_corruption=True`` the oracle instead proves the *negative*
path: a ``corrupt_block`` fault (every replica corrupted, via the
existing fault injector) must be detected — either a
:class:`~repro.hdfs.CorruptBlockError`/job failure or a divergence from
ground truth.  A corruption that reads back clean is the failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.check.generators import (
    DEFAULT_IO_BUFFER,
    Case,
    expected_output,
    freeze,
    normalize,
)
from repro.check.generators import to_records
from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.core.vector import reconcile_metrics
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.formats.rcfile import RCFileInputFormat, write_rcfile
from repro.formats.sequence_file import (
    SequenceFileInputFormat,
    write_sequence_file,
)
from repro.formats.text import TextInputFormat, write_text
from repro.hdfs import ClusterConfig, FaultError, FileSystem
from repro.mapreduce import Job, JobFailedError, run_job
from repro.mapreduce.types import TaskContext
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel

__all__ = [
    "CellResult",
    "OracleReport",
    "StorageConfig",
    "matrix_configs",
    "run_matrix",
    "scan_records",
]

#: cluster shape shared by every cell, sized like the chaos tests:
#: small blocks so even tiny datasets span block boundaries, and
#: 3-way replication so survivable fault plans stay survivable
NUM_NODES = 6
REPLICATION = 3
BLOCK_SIZE = 16 * 1024

#: deliberately small layout granularities so skip lists, compressed
#: blocks and row groups all get multiple units even on tiny cases
SPLIT_BYTES = 8 * 1024
ROW_GROUP_BYTES = 4 * 1024
CBLOCK_BYTES = 512
SKIP_SIZES = (16, 4)


@dataclass
class CellResult:
    """One (config, check) outcome of a matrix run."""

    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False

    def line(self) -> str:
        mark = "SKIP" if self.skipped else ("ok" if self.ok else "FAIL")
        suffix = f"  {self.detail}" if self.detail else ""
        return f"  [{mark:>4}] {self.name}{suffix}"


@dataclass
class OracleReport:
    """Everything a matrix run learned about one case."""

    case: Case
    matrix: str
    cells: List[CellResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CellResult]:
        return [c for c in self.cells if not c.ok and not c.skipped]

    @property
    def ok(self) -> bool:
        return not self.failures

    def first_failure(self) -> Optional[CellResult]:
        return self.failures[0] if self.failures else None

    def render(self) -> str:
        ran = [c for c in self.cells if not c.skipped]
        lines = [
            f"{self.case.describe()}  matrix={self.matrix}",
            f"cells: {len(ran)} ran, {len(self.cells) - len(ran)} skipped, "
            f"{len(self.failures)} failed",
        ]
        lines.extend(c.line() for c in self.cells)
        return "\n".join(lines)


@dataclass
class StorageConfig:
    """One leg of the matrix: how to write and how to read it back."""

    name: str
    kind: str  # txt | seq | rcfile | cif
    write: Callable  # (fs, path, schema, records) -> None
    #: (path, columns, lazy) -> InputFormat; columns/lazy honored where
    #: the format supports them
    make_input: Callable
    #: relative path (under the dataset path) of one data-bearing file
    #: to target with corrupt_block; None means the dataset path itself
    corrupt_suffix: Optional[Callable] = None
    lazy_capable: bool = False
    #: a batch-reader leg's per-datum twin, as a ``make_input``
    reference: Optional[Callable] = None
    #: returns a skip reason, or None when the config applies
    skip_reason: Callable[[Case], Optional[str]] = lambda case: None


def _all_primitive(case: Case) -> Optional[str]:
    bad = [
        f.name for f in case.schema.fields if not f.schema.is_primitive
    ]
    return f"txt cannot round-trip complex fields ({'+'.join(bad)})" \
        if bad else None


def _has_map(case: Case) -> Optional[str]:
    if any(f.schema.kind == "map" for f in case.schema.fields):
        return None
    return "dcsl requires a map-typed column"


def _seq_config(name: str, compression: str, codec: str) -> StorageConfig:
    def write(fs, path, schema, records):
        write_sequence_file(
            fs, path, schema, records,
            compression=compression, codec=codec, sync_interval=10,
            block_records=8,
        )

    return StorageConfig(
        name=name, kind="seq", write=write,
        make_input=lambda path, columns, lazy: SequenceFileInputFormat(path),
    )


def _rcfile_config(name: str, codec: Optional[str]) -> StorageConfig:
    def write(fs, path, schema, records):
        write_rcfile(
            fs, path, schema, records,
            row_group_bytes=ROW_GROUP_BYTES, codec=codec,
        )

    return StorageConfig(
        name=name, kind="rcfile", write=write,
        make_input=lambda path, columns, lazy: RCFileInputFormat(
            path, columns=columns
        ),
    )


def _cif_config(
    name: str,
    spec_fn: Callable[[Schema], Tuple[dict, Optional[ColumnSpec]]],
    skip_reason,
    execution: str,
) -> StorageConfig:
    def write(fs, path, schema, records):
        specs, default_spec = spec_fn(schema)
        write_dataset(
            fs, path, schema, records,
            specs=specs, default_spec=default_spec, split_bytes=SPLIT_BYTES,
        )

    def corrupt_suffix(schema):
        # target a real column file, not the split's .schema sidecar
        return f"s0/{schema.fields[0].name}"

    # Small batches so even tiny cases cross frame boundaries.
    return StorageConfig(
        name=name, kind="cif", write=write,
        make_input=lambda path, columns, lazy: ColumnInputFormat(
            path, columns=columns, lazy=lazy,
            execution=execution, batch_rows=7,
        ),
        corrupt_suffix=corrupt_suffix,
        lazy_capable=True,
        skip_reason=skip_reason,
    )


def _cif_legs(layout: str, spec_fn, skip_reason=lambda case: None):
    """One CIF layout's ``(reference leg, batch-reader leg)``."""
    scalar = _cif_config(f"cif-{layout}", spec_fn, skip_reason, "scalar")
    vec = _cif_config(f"cif-{layout}-vec", spec_fn, skip_reason, "vectorized")
    return scalar, replace(vec, reference=scalar.make_input)


def _light_specs(schema: Schema) -> Tuple[dict, Optional[ColumnSpec]]:
    """RLE for booleans/strings, delta for integer kinds."""
    specs = {}
    for f in schema.fields:
        if f.schema.kind in ("int", "long", "time"):
            specs[f.name] = ColumnSpec("delta")
        elif f.schema.kind in ("boolean", "string"):
            specs[f.name] = ColumnSpec("rle")
    return specs, None


def _dcsl_specs(schema: Schema) -> Tuple[dict, Optional[ColumnSpec]]:
    specs = {
        f.name: ColumnSpec("dcsl", skip_sizes=SKIP_SIZES)
        for f in schema.fields
        if f.schema.kind == "map"
    }
    return specs, None


def matrix_configs(matrix: str) -> List[StorageConfig]:
    """The storage legs of the requested matrix.

    ``full`` is the complete cross-product leg list; ``quick`` is the
    four-config subset the fuzzer's inner loop uses (one row format,
    one PAX format, one compressed CIF, one DCSL CIF).
    """
    txt = StorageConfig(
        name="txt", kind="txt",
        write=lambda fs, path, schema, records: write_text(
            fs, path, schema, records
        ),
        make_input=lambda path, columns, lazy: TextInputFormat(path),
        skip_reason=_all_primitive,
    )
    # Every layout twice: the per-datum reference reader, and (-vec)
    # the batch reader every scan outside this matrix opens.
    plain, plain_vec = _cif_legs(
        "plain", lambda schema: ({}, ColumnSpec("plain"))
    )
    skiplist, skiplist_vec = _cif_legs(
        "skiplist",
        lambda schema: ({}, ColumnSpec("skiplist", skip_sizes=SKIP_SIZES)),
    )
    lzo, lzo_vec = _cif_legs(
        "lzo",
        lambda schema: (
            {}, ColumnSpec("cblock", codec="lzo", block_bytes=CBLOCK_BYTES)
        ),
    )
    zlib, zlib_vec = _cif_legs(
        "zlib",
        lambda schema: (
            {}, ColumnSpec("cblock", codec="zlib", block_bytes=CBLOCK_BYTES)
        ),
    )
    light, light_vec = _cif_legs("light", _light_specs)
    dcsl, dcsl_vec = _cif_legs("dcsl", _dcsl_specs, skip_reason=_has_map)

    if matrix == "quick":
        return [
            _seq_config("seq-none", "none", "zlib"),
            _rcfile_config("rcfile-zlib", "zlib"),
            zlib,
            dcsl,
            skiplist_vec,
        ]
    if matrix == "full":
        return [
            txt,
            _seq_config("seq-none", "none", "zlib"),
            _seq_config("seq-record-zlib", "record", "zlib"),
            _seq_config("seq-block-zlib", "block", "zlib"),
            _seq_config("seq-block-lzo", "block", "lzo"),
            _rcfile_config("rcfile", None),
            _rcfile_config("rcfile-zlib", "zlib"),
            plain,
            skiplist,
            lzo,
            zlib,
            light,
            dcsl,
            plain_vec,
            skiplist_vec,
            lzo_vec,
            zlib_vec,
            light_vec,
            dcsl_vec,
        ]
    raise ValueError(f"unknown matrix {matrix!r} (use 'quick' or 'full')")


# -- plumbing ---------------------------------------------------------------


def _fresh_fs(kind: str, io_buffer: int = DEFAULT_IO_BUFFER) -> FileSystem:
    fs = FileSystem(
        ClusterConfig(
            num_nodes=NUM_NODES, replication=REPLICATION,
            block_size=BLOCK_SIZE, io_buffer_size=io_buffer,
        )
    )
    if kind == "cif":
        fs.use_column_placement()
    return fs


def scan_records(fs: FileSystem, input_format):
    """Scan every split in order; returns (normalized rows, Metrics)."""
    ctx = TaskContext(
        node=0, cost=CpuCostModel(), io_buffer_size=fs.cluster.io_buffer_size
    )
    rows: List[dict] = []
    for split in input_format.get_splits(fs, fs.cluster):
        reader = input_format.open_reader(fs, split, ctx)
        try:
            for _, record in reader:
                rows.append(normalize(record))
        finally:
            reader.close()
    return rows, ctx.metrics


def make_job(case: Case, input_format, name: str) -> Job:
    """The case's query as a MapReduce job.

    Mappers only touch ``value.get(column)``, so the identical closure
    runs against eager records, lazy records, and every row format.
    """
    query = case.query
    if query.kind == "project":
        columns = query.columns

        def mapper(key, value, emit, ctx):
            emit(0, tuple(freeze(normalize(value.get(c))) for c in columns))

        def reducer(key, values, emit, ctx):
            for v in values:
                emit(key, v)

    else:
        key_col = query.columns[0]
        agg = query.agg
        value_col = query.value_col

        def mapper(key, value, emit, ctx):
            if agg == "count":
                emit(value.get(key_col), 1)
            elif agg == "sum":
                emit(value.get(key_col), value.get(value_col))
            else:  # lensum
                emit(value.get(key_col), len(value.get(value_col)))

        def reducer(key, values, emit, ctx):
            emit(key, sum(values))

    return Job(name, mapper, input_format, reducer=reducer, num_reducers=2)


def _sorted_output(pairs) -> List[tuple]:
    return sorted((tuple(p) for p in pairs), key=repr)


def _diff(expected, actual, limit: int = 3) -> str:
    """First few positions where two row/pair lists diverge."""
    notes = []
    if len(expected) != len(actual):
        notes.append(f"len {len(expected)} != {len(actual)}")
    for i, (e, a) in enumerate(zip(expected, actual)):
        if e != a:
            notes.append(f"[{i}] {e!r} != {a!r}")
            if len(notes) >= limit:
                break
    return "; ".join(notes) or "equal"


# -- the matrix -------------------------------------------------------------


def _cell(name: str, check: Callable[[], str]) -> CellResult:
    """One cell: ``check()`` says what diverged ("" for nothing), and an
    exception fails the cell with its type and message."""
    try:
        detail = check()
    except Exception as exc:  # noqa: BLE001 - every cell must report
        return CellResult(name, False, f"{type(exc).__name__}: {exc}")
    return CellResult(name, not detail, detail)


def _run_config(
    case: Case, config: StorageConfig, with_chaos: bool
) -> List[CellResult]:
    path = f"/check/{config.name}"
    records = to_records(case.schema, case.rows)
    truth = [normalize(row) for row in case.rows]
    expected = expected_output(case)

    fs = _fresh_fs(config.kind, case.io_buffer)
    config.write(fs, path, case.schema, records)

    def run(make_input, name, columns=None, lazy=config.lazy_capable):
        fmt = make_input(path, columns, lazy)
        return run_job(fs, make_job(case, fmt, name))

    # scan / scan-lazy: a full scan == ground truth, in row order
    def scan(lazy):
        rows, _ = scan_records(fs, config.make_input(path, None, lazy))
        return "" if rows == truth else _diff(truth, rows)

    # job: query result matches the pure-Python reference
    baseline = None

    def job():
        nonlocal baseline
        baseline = run(config.make_input, f"job-{config.name}")
        got = _sorted_output(baseline.output)
        seen = baseline.counters.get("map.records")
        if got != expected:
            return _diff(expected, got)
        return "" if seen == len(case.rows) else (
            f"map.records={seen} != {len(case.rows)} rows"
        )

    # metrics: eager and lazy, the batch reader charges exactly what the
    # reference reader does
    def metrics():
        return "; ".join(
            f"{'lazy' if lazy else 'eager'} {line}"
            for lazy in (False, True)
            for line in reconcile_metrics(
                run(config.reference, "job", lazy=lazy).map_metrics,
                run(config.make_input, "job", lazy=lazy).map_metrics,
            )
        )

    # lazy-bytes: under projection, lazy requests <= eager bytes
    def lazy_bytes():
        columns = list(case.query.columns)
        eager = run(config.make_input, "eager", columns, lazy=False)
        lazy = run(config.make_input, "lazy", columns, lazy=True)
        want, got = _sorted_output(eager.output), _sorted_output(lazy.output)
        if want != got:
            return "lazy/eager outputs diverge: " + _diff(want, got)
        asked, eagerly = (
            lazy.map_metrics.requested_bytes, eager.map_metrics.requested_bytes
        )
        return "" if asked <= eagerly else (
            f"lazy requested {asked}B > eager {eagerly}B"
        )

    # chaos: a survivable fault plan is invisible in output and counters
    def chaos():
        plan = FaultPlan.random(case.chaos_seed, num_nodes=NUM_NODES)
        chaos_fs = _fresh_fs(config.kind, case.io_buffer)
        config.write(chaos_fs, path, case.schema, records)
        fmt = config.make_input(path, None, config.lazy_capable)
        result = run_job(
            chaos_fs, make_job(case, fmt, f"chaos-{config.name}"),
            faults=plan,
        )
        want = _sorted_output(baseline.output)
        got = _sorted_output(result.output)
        if want != got:
            return "chaos output diverged: " + _diff(want, got)
        counters = baseline.counters.as_dict(), result.counters.as_dict()
        return "" if counters[0] == counters[1] else (
            f"chaos counters diverged: {counters[0]} != {counters[1]}"
        )

    cells = [_cell(f"scan:{config.name}", lambda: scan(False))]
    if not cells[0].ok:
        return cells  # a dataset that does not read back: the rest cascade
    if config.lazy_capable:
        cells.append(_cell(f"scan-lazy:{config.name}", lambda: scan(True)))
    cells.append(_cell(f"job:{config.name}", job))
    if config.reference is not None:
        cells.append(_cell(f"metrics:{config.name}", metrics))
    if config.lazy_capable:
        cells.append(_cell(f"lazy-bytes:{config.name}", lazy_bytes))
    if with_chaos and baseline is not None:
        cells.append(_cell(f"chaos:{config.name}", chaos))
    return cells


def _run_corruption_config(
    case: Case, config: StorageConfig
) -> CellResult:
    """Corrupt one data block (all replicas) and require detection."""
    name = f"corrupt:{config.name}"
    path = f"/check/{config.name}"
    records = to_records(case.schema, case.rows)
    truth = [normalize(row) for row in case.rows]
    fs = _fresh_fs(config.kind, case.io_buffer)
    config.write(fs, path, case.schema, records)

    target = path
    if config.corrupt_suffix is not None:
        target = f"{path}/{config.corrupt_suffix(case.schema)}"
    plan = FaultPlan(
        [FaultEvent("corrupt_block", path=target, at_time=0.0)],
        seed=case.seed,
    )
    FaultInjector(fs, plan).fire_all()

    try:
        rows, _ = scan_records(fs, config.make_input(path, None, False))
    except (FaultError, JobFailedError) as exc:
        return CellResult(name, True, f"caught: {type(exc).__name__}")
    except Exception as exc:  # noqa: BLE001 - decode noise also counts
        return CellResult(name, True, f"caught: {type(exc).__name__}: {exc}")
    if rows != truth:
        return CellResult(name, True, "caught: scan diverged from truth")
    return CellResult(
        name, False,
        "corrupted block read back clean: corruption NOT detected",
    )


def run_matrix(
    case: Case,
    matrix: str = "full",
    plant_corruption: bool = False,
) -> OracleReport:
    """Run ``case`` across the matrix; the one oracle entry point."""
    report = OracleReport(case=case, matrix=matrix)
    for config in matrix_configs(matrix):
        reason = config.skip_reason(case)
        if reason:
            report.cells.append(CellResult(
                f"scan:{config.name}", True, reason, skipped=True
            ))
            continue
        if plant_corruption:
            report.cells.append(_run_corruption_config(case, config))
        else:
            report.cells.extend(
                _run_config(case, config, with_chaos=(matrix == "full"))
            )
    if not plant_corruption and matrix == "full":
        from repro.check.metamorphic import run_metamorphic

        report.cells.extend(run_metamorphic(case))
    return report
