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
from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.core.vector import compile_predicate, reconcile_metrics
from repro.faults import FaultPlan
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import run_job
from repro.obs import FlightRecorder
from repro.query import Q, col
from repro.workloads.crawl import crawl_records, crawl_schema
from repro.workloads.jobs import distinct_content_types_job

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


@pytest.fixture(scope="module")
def crawl_fs():
    """Crawl datasets behind a 512-byte io buffer, so the skip kernels
    walking ``metadata`` (map<string,string>) refill mid-datum."""
    fs = FileSystem(ClusterConfig(
        num_nodes=4, replication=2, block_size=64 * 1024, io_buffer_size=512,
    ))
    fs.use_column_placement()
    records = list(crawl_records(240, content_bytes=256))
    for name, kind in (("sl", "skiplist"), ("dcsl", "dcsl")):
        write_dataset(
            fs, f"/crawl/{name}", crawl_schema(), records,
            specs={"metadata": ColumnSpec(kind)}, split_bytes=32 * 1024,
        )
    return fs


@pytest.mark.parametrize("lazy", (False, True))
@pytest.mark.parametrize("layout", ("sl", "dcsl"))
def test_hand_written_mapper_over_crawl_reconciles(crawl_fs, layout, lazy):
    """Figure 1's job (a plain mapper, no BatchOp) drains the batch
    reader row by row; skipped ``metadata`` runs go through the batched
    skip kernels and must charge what the per-datum walk charges."""
    results = {}
    for execution in ("scalar", "vectorized"):
        fmt = ColumnInputFormat(
            f"/crawl/{layout}", columns=["url", "metadata"], lazy=lazy,
            execution=execution, batch_rows=50,
        )
        results[execution] = run_job(
            crawl_fs, distinct_content_types_job(fmt, num_reducers=2)
        )
    scalar, vec = results["scalar"], results["vectorized"]
    assert _sorted_output(vec.output) == _sorted_output(scalar.output)
    assert vec.counters.as_dict() == scalar.counters.as_dict()
    assert reconcile_metrics(scalar.map_metrics, vec.map_metrics) == []


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
