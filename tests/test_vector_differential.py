"""Differential proof: the batch reader IS the per-datum reference.

The batch reader every scan opens (`repro.core.vector` + the batched kernels
in `repro.serde.vecdecode`) must be observationally identical to the
record-at-a-time reference path: same records in the same order, same
job outputs and counters, and the same *simulated* cost — integer
metric fields (bytes, seeks, records, cells, objects) exactly, float
times within re-association tolerance.

These tests run generated oracle cases through every CIF layout twice
— once per engine over the *same written dataset* — and reconcile the
two runs directly, which is a sharper check than each engine merely
agreeing with ground truth.  Seeded fault plans ride along: a
survivable plan must be invisible under both engines alike.
"""

from functools import partial

import pytest

import repro.query.query as query_module
from repro.check.generators import generate_case, normalize, to_records
from repro.check.oracle import (
    CBLOCK_BYTES,
    SKIP_SIZES,
    SPLIT_BYTES,
    _dcsl_specs,
    _fresh_fs,
    _light_specs,
    _sorted_output,
    make_job,
    matrix_configs,
    scan_records,
)
from repro.core import (
    ColumnInputFormat,
    ColumnSpec,
    declare_column,
    write_dataset,
)
from repro.core.cof import split_dirs_of
from repro.core.vector import compile_predicate, reconcile_metrics
from repro.faults import FaultPlan
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.obs import FlightRecorder
from repro.query import Expr, Q, col, count, max_, sum_
from repro.serde import vecdecode
from repro.serde.record import Record
from repro.serde.schema import Schema
from repro.workloads.crawl import crawl_records, crawl_schema
from repro.workloads.jobs import distinct_content_types_job, distinct_reducer
from tests.conftest import make_ctx

SEEDS = (3, 7, 11, 23, 42)

#: every CIF layout the reproduction ships, as (name, spec_fn)
LAYOUTS = [
    ("plain", lambda schema: ({}, ColumnSpec("plain"))),
    (
        "skiplist",
        lambda schema: ({}, ColumnSpec("skiplist", skip_sizes=SKIP_SIZES)),
    ),
    (
        "cblock-zlib",
        lambda schema: (
            {}, ColumnSpec("cblock", codec="zlib", block_bytes=CBLOCK_BYTES)
        ),
    ),
    (
        "cblock-lzo",
        lambda schema: (
            {}, ColumnSpec("cblock", codec="lzo", block_bytes=CBLOCK_BYTES)
        ),
    ),
    ("light", _light_specs),
    ("dcsl", _dcsl_specs),
]


def _write(layout_spec, case):
    fs = _fresh_fs("cif")
    specs, default_spec = layout_spec(case.schema)
    write_dataset(
        fs, "/diff", case.schema, to_records(case.schema, case.rows),
        specs=specs, default_spec=default_spec, split_bytes=SPLIT_BYTES,
    )
    return fs


def _fmt(execution, lazy, columns=None):
    # batch_rows=7 forces frame boundaries even on tiny cases
    return ColumnInputFormat(
        "/diff", columns=columns, lazy=lazy,
        execution=execution, batch_rows=7,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layout", [name for name, _ in LAYOUTS])
def test_scan_record_exact_and_cost_reconciled(seed, layout):
    spec_fn = dict(LAYOUTS)[layout]
    case = generate_case(seed)
    truth = [normalize(row) for row in case.rows]
    fs = _write(spec_fn, case)
    for lazy in (False, True):
        scalar_rows, scalar_metrics = scan_records(fs, _fmt("scalar", lazy))
        vec_rows, vec_metrics = scan_records(fs, _fmt("vectorized", lazy))
        assert scalar_rows == truth
        assert vec_rows == truth
        assert vec_rows == scalar_rows
        assert reconcile_metrics(scalar_metrics, vec_metrics) == []


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layout", [name for name, _ in LAYOUTS])
def test_job_output_counters_and_io_identical(seed, layout):
    spec_fn = dict(LAYOUTS)[layout]
    case = generate_case(seed)
    fs = _write(spec_fn, case)
    columns = list(case.query.columns)
    for lazy in (False, True):
        scalar = run_job(
            fs, make_job(case, _fmt("scalar", lazy, columns), "scalar")
        )
        vec = run_job(
            fs, make_job(case, _fmt("vectorized", lazy, columns), "vec")
        )
        assert _sorted_output(vec.output) == _sorted_output(scalar.output)
        assert vec.counters.as_dict() == scalar.counters.as_dict()
        assert reconcile_metrics(scalar.map_metrics, vec.map_metrics) == []


@pytest.mark.parametrize("seed", (7, 23))
def test_seeded_fault_plan_invisible_under_both_engines(seed):
    """A survivable FaultPlan changes nothing, vectorized included."""
    case = generate_case(seed)
    plan = FaultPlan.random(case.chaos_seed, num_nodes=8)
    results = {}
    for execution in ("scalar", "vectorized"):
        fs = _write(dict(LAYOUTS)["skiplist"], case)
        clean = run_job(
            fs, make_job(case, _fmt(execution, True), f"clean-{execution}")
        )
        fs2 = _write(dict(LAYOUTS)["skiplist"], case)
        faulted = run_job(
            fs2, make_job(case, _fmt(execution, True), f"ft-{execution}"),
            faults=plan,
        )
        assert (
            _sorted_output(faulted.output) == _sorted_output(clean.output)
        ), f"fault plan changed {execution} output"
        assert faulted.counters.as_dict() == clean.counters.as_dict()
        results[execution] = _sorted_output(clean.output)
    assert results["scalar"] == results["vectorized"]


#: the four column layouts, as ``write_dataset`` keyword arguments; DCSL
#: applies to map columns, so that leg writes only ``metadata`` with it
CRAWL_LAYOUTS = {
    "plain": dict(default_spec=ColumnSpec("plain")),
    "sl": dict(default_spec=ColumnSpec("skiplist")),
    "cblock": dict(
        default_spec=ColumnSpec("cblock", codec="zlib", block_bytes=4096)
    ),
    "dcsl": dict(specs={"metadata": ColumnSpec("dcsl")}),
}


@pytest.fixture(scope="module")
def crawl_fs():
    """Crawl datasets behind a 512-byte io buffer, so the skip kernels
    walking ``metadata`` (map<string,string>) refill mid-datum.  Each
    also declares a ``rank`` column that no split-directory has a file
    for, so every read of it is the declared default."""
    fs = FileSystem(ClusterConfig(
        num_nodes=4, replication=2, block_size=64 * 1024, io_buffer_size=512,
    ))
    fs.use_column_placement()
    records = list(crawl_records(240, content_bytes=256))
    for name, layout in CRAWL_LAYOUTS.items():
        write_dataset(
            fs, f"/crawl/{name}", crawl_schema(), records,
            split_bytes=32 * 1024, **layout,
        )
        declare_column(fs, f"/crawl/{name}", "rank", Schema.int_(), 0)
    return fs


def _sparse_job(fmt):
    """A hand-written mapper that reads ``metadata`` and the declared
    ``rank`` only on some rows, so whether a directory's final row is
    settled shows in ``lazy.cells.skipped``."""

    def mapper(key, record, emit, ctx):
        url = record.get("url")
        if len(url) % 3 == 0:
            emit(record.get("metadata").get("content-type"), None)
        if len(url) % 4 == 1:
            emit("rank", record.get("rank"))

    return Job(
        "sparse", mapper, fmt, reducer=distinct_reducer, num_reducers=2,
    )


def _registry_series(recorder):
    return {
        (name, labels): metric.value
        for name, labels, metric in recorder.registry
        if name.startswith(("lazy.", "column.rows."))
    }


@pytest.mark.parametrize("lazy", (False, True))
@pytest.mark.parametrize("layout", sorted(CRAWL_LAYOUTS))
def test_hand_written_mapper_over_crawl_reconciles(crawl_fs, layout, lazy):
    """Figure 1's job and a sparse mapper (plain mappers, no BatchOp)
    drain the batch reader row by row, two split-directories a task;
    skipped ``metadata`` runs go through the batched skip kernels.
    Outputs, counters, every Metrics field and the ``lazy.*`` and
    ``column.rows.*`` registry series equal the per-datum reference's."""
    dirs = len(split_dirs_of(crawl_fs, f"/crawl/{layout}"))
    assert dirs > 2
    for job in ("figure1", "sparse"):
        results = {}
        for execution in ("scalar", "vectorized"):
            fmt = ColumnInputFormat(
                f"/crawl/{layout}", lazy=lazy, dirs_per_split=2,
                columns=["url", "metadata"]
                + (["rank"] if job == "sparse" else []),
                execution=execution, batch_rows=50,
            )
            recorder = FlightRecorder(clock=lambda: 0.0)
            with recorder.activate():
                result = run_job(
                    crawl_fs,
                    _sparse_job(fmt) if job == "sparse"
                    else distinct_content_types_job(fmt, num_reducers=2),
                )
            results[execution] = (result, _registry_series(recorder))
        (scalar, scalar_series), (vec, vec_series) = (
            results["scalar"], results["vectorized"]
        )
        assert _sorted_output(vec.output) == _sorted_output(scalar.output)
        assert vec.counters.as_dict() == scalar.counters.as_dict()
        assert reconcile_metrics(scalar.map_metrics, vec.map_metrics) == []
        assert vec_series == scalar_series, job
        assert any(name == "column.rows.read" for name, _ in vec_series)
        if not lazy:
            continue
        # Advancing settles the previous row, so each directory's final
        # row leaves the columns it did not touch unsettled.
        records = vec_series[("lazy.records", ())]
        unsettled = [
            records - value - vec_series[("lazy.cells.skipped", labels)]
            for (name, labels), value in vec_series.items()
            if name == "lazy.cells.materialized"
        ]
        assert all(0 <= n <= dirs for n in unsettled), job
        assert any(n > 0 for n in unsettled), job


@pytest.mark.parametrize("first", ("read_next", "read_batch"))
def test_row_and_batch_iteration_do_not_mix(crawl_fs, first):
    fmt = ColumnInputFormat("/crawl/plain", columns=["url"], batch_rows=50)
    split = fmt.get_splits(crawl_fs, crawl_fs.cluster)[0]
    reader = fmt.open_reader(crawl_fs, split, make_ctx())
    second = "read_batch" if first == "read_next" else "read_next"
    assert getattr(reader, first)() is not None
    with pytest.raises(RuntimeError, match="cannot be mixed"):
        getattr(reader, second)()


def test_vectorized_legs_registered_in_check_matrix():
    """`repro check run|fuzz` exercises the batch reader on every layout."""
    full = [config.name for config in matrix_configs("full")]
    for leg in (
        "cif-plain-vec", "cif-skiplist-vec", "cif-lzo-vec", "cif-zlib-vec",
        "cif-light-vec", "cif-dcsl-vec",
    ):
        assert leg in full
    quick = [config.name for config in matrix_configs("quick")]
    assert "cif-skiplist-vec" in quick


@pytest.mark.parametrize("seed", (7, 11))
def test_full_oracle_matrix_passes_with_vectorized_legs(seed):
    from repro.check.oracle import run_matrix

    report = run_matrix(generate_case(seed), matrix="quick")
    assert report.ok, report.render()


@pytest.fixture(scope="module")
def micro_fs():
    from repro.workloads.micro import micro_records, micro_schema

    fs = FileSystem(ClusterConfig(
        num_nodes=4, block_size=64 * 1024, io_buffer_size=2048,
    ))
    records = list(micro_records(600, seed=9))
    for name, spec in (
        ("plain", ColumnSpec("plain")),
        ("skiplist", ColumnSpec("skiplist", skip_sizes=SKIP_SIZES)),
        ("cblock", ColumnSpec("cblock", codec="zlib", block_bytes=CBLOCK_BYTES)),
    ):
        write_dataset(
            fs, f"/micro/{name}", micro_schema(), records,
            default_spec=spec, split_bytes=48 * 1024,
        )
    return fs


@pytest.mark.parametrize("layout", ("plain", "skiplist", "cblock"))
@pytest.mark.parametrize("where", (
    col("str1").length() > 30,
    col("int2").apply(lambda v: v % 3, "mod3") == 1,
    (col("str0").length() < 28) & (col("int0").apply(abs, "abs") > 2000),
), ids=("length", "apply", "both"))
def test_filters_over_length_and_apply_compile_and_reconcile(
    micro_fs, layout, where
):
    """A filter over ``length()`` / ``apply()`` is a compiled kernel
    now; it must still agree with the per-datum reference on records,
    lazy cell counters and simulated metrics (floats to the
    reconcile tolerance: the compiled filter decodes whole frames)."""
    assert compile_predicate(where).compiled
    q = (
        Q(f"/micro/{layout}").where(where)
        .select("int3", "str5", m=col("attrs").length())
    )
    runs = {}
    for execution in ("scalar", "vectorized"):
        recorder = FlightRecorder(clock=lambda: 0.0)
        with recorder.activate():
            result = q.run(micro_fs, execution=execution)
        lazy = {
            (name, labels): metric.value
            for name, labels, metric in recorder.registry
            if name.startswith("lazy.")
        }
        runs[execution] = (result, lazy)
    (scalar, scalar_lazy), (vec, vec_lazy) = runs["scalar"], runs["vectorized"]
    assert 0 < len(vec.rows) < 600
    assert vec.rows == scalar.rows
    assert vec_lazy == scalar_lazy
    assert reconcile_metrics(scalar.job.map_metrics, vec.job.map_metrics) == []


#: ``Q``'s filters over every column layout: the cif_scan layouts, and
#: rle / delta columns (``_light_specs``) beside plain ones
MICRO_LAYOUTS = {
    "plain": dict(default_spec=ColumnSpec("plain")),
    "skiplist": dict(default_spec=ColumnSpec("skiplist", skip_sizes=SKIP_SIZES)),
    "cblock": dict(default_spec=ColumnSpec(
        "cblock", codec="zlib", block_bytes=CBLOCK_BYTES
    )),
    "dcsl": dict(
        default_spec=ColumnSpec("skiplist", skip_sizes=SKIP_SIZES),
        specs={"attrs": ColumnSpec("dcsl", skip_sizes=SKIP_SIZES)},
    ),
    "rle": dict(default_spec=ColumnSpec("rle")),
    "delta": dict(specs={
        name: ColumnSpec("delta") for name in ("int0", "int1", "int2", "int3")
    }),
}


@pytest.fixture(scope="module")
def micro_windows():
    """The micro records in every ``MICRO_LAYOUTS`` layout, behind each
    I/O buffer: {buffer: fs}."""
    from repro.workloads.micro import micro_records, micro_schema

    records = list(micro_records(600, seed=9))
    out = {}
    for window in (61, 509, 2048):
        fs = FileSystem(ClusterConfig(
            num_nodes=4, block_size=64 * 1024, io_buffer_size=window,
        ))
        for name, layout in MICRO_LAYOUTS.items():
            write_dataset(
                fs, f"/micro/{name}", micro_schema(), records,
                split_bytes=48 * 1024, **layout,
            )
        out[window] = fs
    return out


@pytest.mark.parametrize("window", (61, 509, 2048))
@pytest.mark.parametrize("layout", sorted(MICRO_LAYOUTS))
def test_filtered_q_reconciles_over_every_layout_and_window(
    micro_windows, layout, window
):
    """The three filters of the test above, over dcsl, rle and delta
    columns as well, and at 61 B and 509 B buffers, which cut values,
    skip-list headers and DCSL dictionaries at window edges.  Each
    filter leaves a sparse selection, which the other columns read
    with ``read_selected``."""
    for where in (
        col("str1").length() > 30,
        col("int2").apply(lambda v: v % 3, "mod3") == 1,
        (col("str0").length() < 28) & (col("int0").apply(abs, "abs") > 2000),
    ):
        q = (
            Q(f"/micro/{layout}").where(where)
            .select("int3", "str5", m=col("attrs").length())
        )
        runs = {}
        for execution in ("scalar", "vectorized"):
            recorder = FlightRecorder(clock=lambda: 0.0)
            with recorder.activate():
                result = q.run(micro_windows[window], execution=execution)
            registry = {
                (name, labels): metric.value
                for name, labels, metric in recorder.registry
                if name.startswith(("lazy.", "column."))
            }
            runs[execution] = (result, registry)
        (scalar, scalar_registry), (vec, vec_registry) = (
            runs["scalar"], runs["vectorized"]
        )
        assert 0 < len(vec.rows) < 600
        assert vec.rows == scalar.rows
        assert vec_registry == scalar_registry
        assert reconcile_metrics(
            scalar.job.map_metrics, vec.job.map_metrics
        ) == []
        assert vec.job.map_metrics == scalar.job.map_metrics


# -- length reads ------------------------------------------------------------

#: what a length read must measure as ``len`` does: empty, ASCII and
#: non-ASCII values, and values of 128 bytes or more (a two-byte prefix)
TEXTS = ["", "ascii", "é", "naïve café", "x" * 130, "ü" * 70, "中" * 50 + "!"]
BLOBS = [b"", b"\x00", b"\xff\xfe raw", b"z" * 128, bytes(range(256))]
BAD_ROW = 157  # the row of ``t`` whose bytes are not UTF-8


class _NotUtf8(str):
    """A string that encodes to bytes that are not UTF-8."""

    def encode(self, *args, **kwargs):
        return b"bad \xc3( utf-8"


LENGTH_SCHEMA = Schema.record("lengths", [
    ("i", Schema.int_()), ("s", Schema.string()), ("b", Schema.bytes_()),
    ("t", Schema.string()), ("m", Schema.map(Schema.int_())),
    ("a", Schema.array(Schema.long_())),
])

#: every column layout: plain, skip-list, cblock and DCSL read lengths
#: off the window; rle, delta and a declared default answer whole values
LENGTH_LAYOUTS = {
    "plain": dict(default_spec=ColumnSpec("plain")),
    "skiplist": dict(default_spec=ColumnSpec("skiplist", skip_sizes=SKIP_SIZES)),
    "cblock": dict(default_spec=ColumnSpec(
        "cblock", codec="zlib", block_bytes=CBLOCK_BYTES
    )),
    "dcsl": dict(
        default_spec=ColumnSpec("skiplist", skip_sizes=SKIP_SIZES),
        specs={"m": ColumnSpec("dcsl", skip_sizes=SKIP_SIZES)},
    ),
    "rle": dict(specs={
        name: ColumnSpec("rle") for name in ("i", "s", "b", "t")
    }),
    "delta": dict(specs={"i": ColumnSpec("delta")}),
}


def _length_records():
    records = []
    for i in range(300):
        record = Record(LENGTH_SCHEMA)
        record.put("i", i)
        record.put("s", TEXTS[i % len(TEXTS)] * (1 + i % 3))
        record.put("b", BLOBS[i % len(BLOBS)])
        record.put("t", _NotUtf8(f"bad{i}") if i == BAD_ROW else f"t{i}")
        record.put("m", {f"k{j}": j for j in range(i % 4)})
        record.put("a", list(range(i % 5)))
        records.append(record)
    return records


@pytest.fixture(scope="module")
def length_windows():
    """The records in every ``LENGTH_LAYOUTS`` layout, with a declared
    string column ``d``, behind each I/O buffer: {buffer: fs}."""
    records = _length_records()
    out = {}
    for window in (61, 509, 12288):
        fs = FileSystem(ClusterConfig(
            num_nodes=4, block_size=64 * 1024, io_buffer_size=window,
        ))
        for name, layout in LENGTH_LAYOUTS.items():
            write_dataset(
                fs, f"/len/{name}", LENGTH_SCHEMA, records,
                split_bytes=16 * 1024, **layout,
            )
            declare_column(fs, f"/len/{name}", "d", Schema.string(), "déjà")
        out[window] = fs
    return out


def _length_queries(dataset):
    """``.length()`` in a select, a filter and an aggregate; over ``t``
    where a filter drops its bad row and where none does; over map and
    array columns, which stay whole; and in ops whose rows are evaluated
    whole (a filter that does not compile, a select that is refused),
    which must see the values themselves."""
    q = Q(dataset)
    opaque = Expr(col("i").evaluate, col("i").columns, "opaque i")
    return {
        "select": q.select(
            i=col("i"), s=col("s").length(), b=col("b").length(),
            d=col("d").length(),
        ),
        "filter": q.where(col("s").length() > 20).select(
            b=col("b").length(), i=col("i"),
        ),
        "aggregate": q.where(col("i").apply(lambda v: v % 4, "mod4") != 1).group_by(
            g=col("i").apply(lambda v: v % 3, "mod3"),
        ).aggregate(
            n=count(), s=sum_(col("s").length()),
            b=max_(col("b").length()),
        ),
        "hopped": q.where(col("i") != BAD_ROW).select(t=col("t").length()),
        "bad": q.select(t=col("t").length()),
        "whole": q.where(col("b").length() < 100).aggregate(
            m=sum_(col("m").length()), a=sum_(col("a").length()),
            s=sum_(col("s").length()),
        ),
        "row filter": q.where(
            col("s").length().apply(lambda n: n > 20, "long")
        ).select(b=col("b").length()),
        "refused": q.select(s=col("s").length(), i=opaque),
    }


def _run_recorded(q, fs, execution):
    """``(rows or error type, map metrics, lazy.* and column.rows.*)``."""
    recorder = FlightRecorder(clock=lambda: 0.0)
    with recorder.activate():
        try:
            result = q.run(fs, execution=execution)
        except UnicodeDecodeError as error:
            result = error
    registry = {
        (name, labels): metric.value
        for name, labels, metric in recorder.registry
        if name.startswith(("lazy.", "column.rows."))
    }
    if isinstance(result, Exception):
        return (type(result), str(result)), None, None
    return result.rows, result.job.map_metrics, registry


@pytest.mark.parametrize("window", (61, 509, 12288))
@pytest.mark.parametrize("layout", sorted(LENGTH_LAYOUTS))
def test_length_reads_reconcile_over_every_layout_and_window(
    length_windows, layout, window, monkeypatch
):
    """A string or bytes column read only through ``.length()`` is read
    as lengths, off each length prefix with its payload hopped; a
    non-ASCII value keeps its bytes for ``len`` to decode.  Rows (or the
    error), every ``Metrics`` field, ``lazy.*`` and ``column.rows.*``
    equal the per-datum reference's, for every layout: rle, delta and
    the declared default answer whole values, which the ``length``
    evaluator takes too.  Map and array columns are never read as
    lengths."""
    monkeypatch.setattr(
        query_module, "ColumnInputFormat",
        partial(ColumnInputFormat, batch_rows=64),
    )
    measured = set()  # (kind, read as lengths) of each LENGTHS gather

    class Spy(vecdecode.Gather):
        def __init__(self, reader, schema, cost, metrics, wanted=None,
                     *args):
            super().__init__(reader, schema, cost, metrics, wanted, *args)
            if wanted == vecdecode.LENGTHS:
                measured.add((schema.kind, self.lengths))

    monkeypatch.setattr(vecdecode, "Gather", Spy)
    fs = length_windows[window]
    for kind, q in _length_queries(f"/len/{layout}").items():
        scalar = _run_recorded(q, fs, "scalar")
        vec = _run_recorded(q, fs, "vectorized")
        assert vec[0] == scalar[0], kind
        if kind == "bad":
            assert vec[0][0] is UnicodeDecodeError
            continue
        assert len(vec[0]) > 0, kind
        assert vec[2] == scalar[2], kind
        assert reconcile_metrics(scalar[1], vec[1]) == [], kind
        assert vec[1] == scalar[1], kind
    if layout != "rle":  # rle strings and bytes answer whole values
        assert {("string", True), ("bytes", True)} <= measured, measured
    assert {kind for kind, lengths in measured if lengths} <= {
        "string", "bytes"
    }
    assert ("map", False) in measured and ("array", False) in measured
