"""The differential oracle itself: matrix shape, green seeds, counter
cells, the exact metrics cells, gating, and planted-corruption
detection."""

import pytest

from repro.check.generators import generate_case
from repro.check.oracle import matrix_configs, run_matrix


class TestMatrixShape:
    def test_quick_subset_of_full(self):
        quick = {c.name for c in matrix_configs("quick")}
        full = {c.name for c in matrix_configs("full")}
        assert quick < full

    def test_full_covers_the_paper_formats(self):
        names = {c.name for c in matrix_configs("full")}
        assert "txt" in names
        assert any(n.startswith("seq") for n in names)
        assert any(n.startswith("rcfile") for n in names)
        assert any(n.startswith("cif") for n in names)
        assert "cif-dcsl" in names

    def test_unknown_matrix_rejected(self):
        with pytest.raises(ValueError):
            matrix_configs("bogus")


class TestGreenSeeds:
    @pytest.mark.parametrize("seed", [0, 7, 19, 64])
    def test_quick_matrix_green(self, seed):
        report = run_matrix(generate_case(seed), matrix="quick")
        assert report.ok, report.render()

    def test_full_matrix_green_on_acceptance_seed(self):
        report = run_matrix(generate_case(7), matrix="full")
        assert report.ok, report.render()
        ran = [c for c in report.cells if not c.skipped]
        assert len(ran) >= 30  # scan/job/lazy/chaos cells across configs

    def test_gated_configs_report_skips_not_failures(self):
        # seed 7's schema decides which gates close; whatever is
        # skipped must carry a reason and count as neither ok nor fail
        report = run_matrix(generate_case(7), matrix="full")
        for cell in report.cells:
            if cell.skipped:
                assert cell.detail
                assert cell not in report.failures


class TestCounterCells:
    def test_lazy_never_reads_more_column_bytes(self):
        # the lazy-bytes cell runs (not skipped) whenever a CIF config
        # is in the matrix and the query projects a strict subset
        for seed in range(25):
            case = generate_case(seed)
            if len(case.query.columns) >= len(case.schema.fields):
                continue
            report = run_matrix(case, matrix="quick")
            cells = [c for c in report.cells
                     if c.name.startswith("lazy-bytes")]
            assert cells, report.render()
            assert all(c.ok for c in cells), report.render()
            break
        else:
            pytest.skip("no projecting case in the sweep window")


class TestMetricsCells:
    def test_every_batch_leg_reconciles_with_its_reference(self):
        report = run_matrix(generate_case(7), matrix="full")
        vec = {c.name for c in matrix_configs("full") if c.reference}
        assert vec == {
            c.name for c in matrix_configs("full") if c.name.endswith("-vec")
        }
        cells = {c.name for c in report.cells if c.name.startswith("metrics:")}
        assert cells == {f"metrics:{name}" for name in vec}
        assert report.ok, report.render()

    def test_one_tick_of_divergence_fails_the_cell(self, monkeypatch):
        from repro.sim.cost import CpuCostModel

        prim_cpu = CpuCostModel.prim_cpu  # the batched kernels' charges
        monkeypatch.setattr(
            CpuCostModel, "prim_cpu",
            lambda self, kind, count, payload=0:
                prim_cpu(self, kind, count, payload) + (count > 1),
        )
        report = run_matrix(generate_case(7), matrix="quick")
        (failure,) = report.failures
        assert failure.name == "metrics:cif-skiplist-vec"
        assert "eager cpu_ticks:" in failure.detail


class TestPlantedCorruption:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_every_leg_detects_corruption(self, seed):
        report = run_matrix(
            generate_case(seed), matrix="quick", plant_corruption=True
        )
        ran = [c for c in report.cells if not c.skipped]
        assert ran
        missed = [c for c in ran if not c.ok]
        assert not missed, report.render()

    def test_corruption_cells_name_the_config(self):
        report = run_matrix(
            generate_case(7), matrix="quick", plant_corruption=True
        )
        legs = {
            c.name.split(":", 1)[1]
            for c in report.cells if not c.skipped
        }
        assert legs <= {c.name for c in matrix_configs("quick")}
        assert all(
            c.name.startswith("corrupt:")
            for c in report.cells if not c.skipped
        )
