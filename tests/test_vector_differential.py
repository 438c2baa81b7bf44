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

import pytest

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
from repro.query import Q, col
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
