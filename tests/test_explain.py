"""Storage-introspection heatmaps, exact reconciliation, and the advisor.

The acceptance bar from the live-telemetry issue: ``repro explain``'s
heatmap counters must reconcile EXACTLY (zero tolerance) against the
independent stream probes and ``sim.Metrics`` — across the same 5-seed
chaos matrix the fault-tolerance tests use — and every recommendation
must cite the counters that justify it.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.faults import FaultEvent, FaultPlan
from repro.hdfs import ClusterConfig, FileSystem
from repro.obs import FlightRecorder
from repro.obs.advisor import advise, column_layouts, infer_layouts
from repro.obs.heatmap import CellStats, DatasetHeatmap, load_sidecar, reconcile
from tests.conftest import make_ctx, micro_records, micro_schema

SEEDS = [11, 23, 37, 41, 53]
_env_seed = os.environ.get("REPRO_CHAOS_SEED")
if _env_seed and int(_env_seed) not in SEEDS:
    SEEDS.append(int(_env_seed))


def lazy_scan(fs, dataset, columns, touch):
    """A lazy CIF scan of every split (the ``repro explain`` shape)."""
    fmt = ColumnInputFormat(dataset, columns=columns, lazy=True)
    for split in fmt.get_splits(fs, fs.cluster):
        node = split.locations[0] if split.locations else 0
        ctx = make_ctx()
        ctx.node = node
        reader = fmt.open_reader(fs, split, ctx)
        try:
            for _, record in reader:
                for column in touch:
                    record.get(column)
        finally:
            reader.close()
        from repro.obs import current_obs

        current_obs().record_metrics(f"scan:{split.label}", ctx.metrics)


def build_fs(num_nodes=6, seed=20110401):
    fs = FileSystem(ClusterConfig(
        num_nodes=num_nodes, replication=3, block_size=16 * 1024,
        io_buffer_size=2048, seed=seed,
    ))
    fs.use_column_placement()
    return fs


def scan_safe_plan(seed, num_nodes=6):
    """Faults a bare scan (no task retry) always survives: replica
    failover and auto-repair absorb them below the reader."""
    import random

    rng = random.Random(seed)
    return FaultPlan([
        FaultEvent("slow_node", node=rng.randrange(num_nodes),
                   at_time=0.0, factor=1.5 + rng.random()),
        FaultEvent("corrupt_replica", node=rng.randrange(num_nodes),
                   at_time=0.0),
        FaultEvent("kill_node", node=rng.randrange(num_nodes),
                   at_time=0.0, repair=True),
    ], seed=seed)


class TestExactReconciliation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_seeded_scan_reconciles_exactly(self, seed):
        """The 5-seed chaos matrix: heatmap attribution equals the
        probes byte-for-byte even with faults firing underneath."""
        from repro.faults import FaultInjector

        fs = build_fs()
        schema = micro_schema()
        write_dataset(
            fs, "/hx/cif", schema, micro_records(schema, 120),
            split_bytes=12 * 1024,
        )
        recorder = FlightRecorder()
        with recorder.activate():
            FaultInjector(fs, scan_safe_plan(seed)).fire_all()
            lazy_scan(fs, "/hx/cif", ["int0", "str0"], ["int0"])
        report = recorder.report()
        heatmap = DatasetHeatmap.from_registry("/hx/cif", report.registry)
        problems = reconcile(
            heatmap, report, scan_only=True, check_lazy=True
        )
        assert problems == [], "\n".join(problems)
        assert heatmap.total("rows_read") > 0

    def test_reconcile_catches_tampering(self):
        fs = build_fs()
        schema = micro_schema()
        write_dataset(fs, "/ht/cif", schema, micro_records(schema, 60),
                      split_bytes=12 * 1024)
        recorder = FlightRecorder()
        with recorder.activate():
            lazy_scan(fs, "/ht/cif", ["int0"], ["int0"])
        report = recorder.report()
        heatmap = DatasetHeatmap.from_registry("/ht/cif", report.registry)
        heatmap.cell("s0", "int0").bytes_disk += 1  # one byte of drift
        problems = reconcile(heatmap, report, scan_only=True)
        assert problems, "a 1-byte drift must fail reconciliation"

    def test_registry_filtering_ignores_other_datasets(self):
        fs = build_fs()
        schema = micro_schema()
        write_dataset(fs, "/ha/cif", schema, micro_records(schema, 40),
                      split_bytes=12 * 1024)
        write_dataset(fs, "/hb/cif", schema, micro_records(schema, 40),
                      split_bytes=12 * 1024)
        recorder = FlightRecorder()
        with recorder.activate():
            lazy_scan(fs, "/ha/cif", ["int0"], ["int0"])
            lazy_scan(fs, "/hb/cif", ["str0"], ["str0"])
        only_a = DatasetHeatmap.from_registry("/ha/cif", recorder.registry)
        assert all(
            column in ("int0", ".schema") for _, column in only_a.cells
        )


class TestHeatmapSidecar:
    def test_save_merges_across_runs(self):
        fs = build_fs()
        schema = micro_schema()
        write_dataset(fs, "/hs/cif", schema, micro_records(schema, 60),
                      split_bytes=12 * 1024)
        totals = []
        for _ in range(2):
            recorder = FlightRecorder()
            with recorder.activate():
                lazy_scan(fs, "/hs/cif", ["int0"], ["int0"])
            heatmap = DatasetHeatmap.from_registry(
                "/hs/cif", recorder.registry
            )
            totals.append(heatmap.total("rows_read"))
            heatmap.save(fs)
        accumulated = load_sidecar(fs, "/hs/cif")
        assert accumulated.runs == 2
        assert accumulated.total("rows_read") == sum(totals)

    def test_sidecar_is_invisible_to_split_listing(self):
        from repro.core.cof import split_dirs_of

        fs = build_fs()
        schema = micro_schema()
        write_dataset(fs, "/hi/cif", schema, micro_records(schema, 60),
                      split_bytes=12 * 1024)
        before = split_dirs_of(fs, "/hi/cif")
        DatasetHeatmap("/hi/cif").save(fs)
        assert split_dirs_of(fs, "/hi/cif") == before
        # and a re-scan of the dataset still reads records cleanly
        recorder = FlightRecorder()
        with recorder.activate():
            lazy_scan(fs, "/hi/cif", ["int0"], ["int0"])
        assert recorder.report().counter_total("column.rows.read") > 0

    def test_dict_round_trip(self):
        heatmap = DatasetHeatmap("/d")
        heatmap.cell("s0", "url").add(CellStats(rows_read=5, bytes_disk=7))
        heatmap.runs = 3
        clone = DatasetHeatmap.from_dict(heatmap.to_dict())
        assert clone.to_dict() == heatmap.to_dict()

    def test_render_shows_density_and_untouched(self):
        heatmap = DatasetHeatmap("/d")
        heatmap.cell("s0", "url").add(CellStats(rows_read=10))
        heatmap.cell("s1", "url").add(
            CellStats(rows_read=1, rows_skipped=9)
        )
        heatmap.cell("s0", "content").add(CellStats(bytes_disk=100))
        grid = heatmap.render()
        assert "@@@" in grid       # fully-read cell
        assert "·" in grid         # untouched cell
        assert "legend" in grid


class TestAdvisor:
    def test_project_fewer_columns(self):
        heatmap = DatasetHeatmap("/d")
        heatmap.cell("s0", "content").add(CellStats(bytes_disk=4096))
        heatmap.cell("s0", "url").add(
            CellStats(rows_read=10, bytes_disk=100)
        )
        actions = [r.action for r in advise(heatmap)]
        assert actions == ["project-fewer-columns"]
        rec = advise(heatmap)[0]
        assert rec.column == "content"
        assert rec.evidence["hdfs.bytes.disk"] == 4096

    def test_enable_skip_lists_only_for_plain(self):
        heatmap = DatasetHeatmap("/d")
        heatmap.cell("s0", "meta").add(
            CellStats(rows_read=5, rows_skipped=95, bytes_disk=1000)
        )
        plain = advise(heatmap, layouts={"meta": "plain"})
        assert [r.action for r in plain] == ["enable-skip-lists"]
        skiplist = advise(heatmap, layouts={"meta": "skiplist"})
        assert skiplist == []

    def test_switch_codec_on_decompression_amplification(self):
        heatmap = DatasetHeatmap("/d")
        heatmap.cell("s0", "blob").add(CellStats(
            rows_read=5, rows_skipped=95, bytes_disk=1000,
            cblock_bytes_compressed=1000, cblock_bytes_inflated=4000,
            cblock_blocks_skipped=0,
        ))
        recs = advise(heatmap, layouts={"blob": "cblock"})
        assert [r.action for r in recs] == ["switch-codec"]
        assert "amplification" in recs[0].rationale

    def test_switch_codec_zlib_to_lzo(self):
        heatmap = DatasetHeatmap("/d")
        heatmap.cell("s0", "blob").add(CellStats(
            rows_read=5, rows_skipped=95, bytes_disk=1000,
            cblock_bytes_compressed=1000, cblock_bytes_inflated=3000,
            cblock_blocks_skipped=4,
        ))
        recs = advise(
            heatmap, layouts={"blob": "cblock"}, codecs={"blob": "zlib"}
        )
        assert [r.action for r in recs] == ["switch-codec"]
        assert "lzo" in recs[0].title

    def test_rerun_balancer_on_broken_colocation(self):
        heatmap = DatasetHeatmap("/d")
        heatmap.cell("s0", "url").add(CellStats(rows_read=10, bytes_net=50))
        recs = advise(heatmap, colocated_fraction=0.5)
        assert [r.action for r in recs] == ["re-run-balancer"]
        assert recs[0].evidence["colocation.split_dir_fraction"] == 0.5
        assert recs[0].evidence["hdfs.bytes.net"] == 50

    def test_healthy_pattern_yields_no_advice(self):
        heatmap = DatasetHeatmap("/d")
        heatmap.cell("s0", "url").add(
            CellStats(rows_read=100, bytes_disk=1000)
        )
        assert advise(heatmap, colocated_fraction=1.0) == []

    def test_every_recommendation_cites_evidence(self):
        heatmap = DatasetHeatmap("/d")
        heatmap.cell("s0", "a").add(CellStats(bytes_disk=10))
        heatmap.cell("s0", "b").add(
            CellStats(rows_read=1, rows_skipped=9, bytes_net=5)
        )
        for rec in advise(heatmap, colocated_fraction=0.9):
            assert rec.evidence, f"{rec.action} cites no counters"
            assert "evidence:" in rec.render()


class TestLayoutDetection:
    def test_column_layouts_reads_format_bytes(self):
        fs = build_fs()
        schema = micro_schema()
        write_dataset(
            fs, "/hl/cif", schema, micro_records(schema, 60),
            specs={
                "int0": ColumnSpec("skiplist", skip_sizes=(50, 10)),
                "str0": ColumnSpec("cblock"),
            },
            split_bytes=12 * 1024,
        )
        layouts = column_layouts(fs, "/hl/cif")
        assert layouts["int0"] == "skiplist"
        assert layouts["str0"] == "cblock"
        assert layouts["int1"] == "plain"

    def test_infer_layouts_from_counters(self):
        heatmap = DatasetHeatmap("/d")
        heatmap.cell("s0", "a").add(CellStats(cblock_bytes_compressed=10))
        heatmap.cell("s0", "b").add(CellStats(skiplist_jumps=2))
        heatmap.cell("s0", "c").add(CellStats(rows_read=5))
        assert infer_layouts(heatmap) == {
            "a": "cblock", "b": "skiplist", "c": "plain",
        }


def plan_file(tmp_path, seed):
    plan = scan_safe_plan(seed)
    path = tmp_path / f"plan{seed}.json"
    path.write_text(json.dumps(plan.to_dict()))
    return str(path)


class TestExplainCli:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_matrix_reconciles_and_recommends(self, tmp_path, seed):
        lines = []
        code = main(
            ["explain", "/data/chaos", "--records", "120", "--nodes", "6",
             "--faults", plan_file(tmp_path, seed), "--no-color"],
            out=lines.append,
        )
        text = "\n".join(lines)
        assert code == 0, text
        assert "reconciliation OK" in text
        assert "recommendations" in text
        assert "evidence:" in text

    def test_layout_variants_smoke(self, tmp_path):
        for layout in ("plain", "skiplist", "cblock"):
            lines = []
            code = main(
                ["explain", f"/data/{layout}", "--records", "80",
                 "--layout", layout, "--no-color", "--quiet"],
                out=lines.append,
            )
            assert code == 0, "\n".join(lines)
            assert "reconciliation OK" in "\n".join(lines)

    def test_eager_scan_reconciles(self):
        lines = []
        code = main(
            ["explain", "/data/eager", "--records", "80", "--eager",
             "--no-color", "--quiet"],
            out=lines.append,
        )
        assert code == 0, "\n".join(lines)

    def test_require_recommendations_gates_exit_code(self):
        # Project only what gets touched: nothing to recommend.
        argv = ["explain", "/data/tight", "--records", "80",
                "--columns", "url", "--touch", "url", "--no-color",
                "--quiet"]
        lines = []
        assert main(argv, out=lines.append) == 0
        assert "no recommendations" in "\n".join(lines)
        assert main(argv + ["--require-recommendations"],
                    out=lambda s: None) == 1

    def test_trace_out_and_job_reanalysis(self, tmp_path):
        trace = tmp_path / "explain.jsonl.gz"
        code = main(
            ["explain", "/data/again", "--records", "80", "--no-color",
             "--quiet", "--trace-out", str(trace)],
            out=lambda s: None,
        )
        assert code == 0
        assert trace.read_bytes()[:2] == b"\x1f\x8b"
        lines = []
        code = main(
            ["explain", "/data/again", "--job", str(trace), "--no-color"],
            out=lines.append,
        )
        text = "\n".join(lines)
        assert code == 0, text
        assert "reconciliation OK" in text

    def test_analyze_cites_each_operators_measured_cost(self, tmp_path):
        """``--analyze``: the operator tree is printed and every piece
        of advice carries the profiled cost of the operator it blames."""
        from repro.obs import RunReport, operator_profiles

        trace = tmp_path / "analyze.jsonl"
        lines = []
        code = main(
            ["explain", "/data/ciprof", "--records", "120", "--layout",
             "plain", "--touch", "url", "--no-color", "--analyze",
             "--require-recommendations", "--trace-out", str(trace)],
            out=lines.append,
        )
        text = "\n".join(lines)
        assert code == 0, text
        assert "operator profile — engine=scalar" in text
        measured = operator_profiles(RunReport.load(str(trace)))["scalar"]
        assert measured["scan"]["sim_time"] > 0
        advice = [l for l in text.splitlines() if "evidence:" in l]
        assert advice
        for line in advice:
            # every rule here (projection waste, locality) blames the scan
            assert (
                f"op.scan.sim_time={round(measured['scan']['sim_time'], 9):,}"
                in line
            )
            assert (
                f"op.scan.cells_decoded={measured['scan']['cells_decoded']:,}"
                in line
            )

    def test_job_trace_for_wrong_dataset_errors(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = main(
            ["explain", "/data/src", "--records", "60", "--quiet",
             "--no-color", "--trace-out", str(trace)],
            out=lambda s: None,
        )
        assert code == 0
        lines = []
        assert main(
            ["explain", "/data/elsewhere", "--job", str(trace)],
            out=lines.append,
        ) == 1
        assert any("no storage accesses" in l for l in lines)

    def test_no_cpp_scan_recommends_balancer(self):
        lines = []
        code = main(
            ["explain", "/data/nocpp", "--records", "80", "--no-cpp",
             "--no-color", "--quiet"],
            out=lines.append,
        )
        text = "\n".join(lines)
        assert code == 0, text
        assert "re-run-balancer" in text
