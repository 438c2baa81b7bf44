"""Tests of the benchmark itself, at ``--smoke`` sizes.

Run with ``python -m pytest wallbench -q`` from the repository root.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from wallbench import compare, driver, spec

spec.require_program()

from wallbench.trial import workload_class  # noqa: E402  (needs the program)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DATA_WORKLOADS = ["cif_scan", "seq_scan", "load", "cluster_load"]


def smoke(name, seed):
    workload = workload_class(name)(spec.sizes(name, smoke=True), seed)
    workload.generate()
    return workload


@pytest.fixture(scope="module")
def traced_trial():
    return driver.start_trial(
        "cif_scan", 7, 1.0, 0, traced=True, suite=True, smoke=True
    )


def test_names_and_units_match_the_contract():
    bench = spec.benchmark()
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + spec.workload_names()
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]) for m in metrics)
    assert [m["name"] for m in bench["end_to_end"]] == list(driver.E2E)
    assert sorted(spec.workload_names()) == sorted(
        ["cif_scan", "seq_scan", "load", "cluster_load", "cli_cold"]
    )
    for name in spec.workload_names():
        assert workload_class(name).name == name
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_traced_trial_emits_exactly_the_per_layer_metrics(traced_trial):
    emitted = dict(traced_trial["suite"], **traced_trial["per_layer"])
    declared = [m["name"] for m in spec.benchmark()["per_layer"]]
    assert sorted(emitted) == sorted(declared)
    assert all(isinstance(v, (int, float)) for v in emitted.values())
    assert traced_trial["failed"] == 0 and not traced_trial["failed_ops"]


def test_ladder_self_times_telescope_to_the_top_rung(traced_trial):
    metrics = traced_trial["per_layer"]
    selfs = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(traced_trial["ladder"]["top_s"], rel=1e-9)
    for rungs in traced_trial["ladder"]["rungs"].values():
        assert rungs[-1][1] > 0
    # every lower-rung span hangs from a span that exists
    ids = {row["id"] for row in traced_trial["spans"]}
    assert all(
        row["parent"] is None or row["parent"] in ids
        for row in traced_trial["spans"]
    )


@pytest.mark.parametrize("name", DATA_WORKLOADS)
def test_same_seed_same_inputs_and_exact_counts(name):
    first, again, other = smoke(name, 5), smoke(name, 5), smoke(name, 6)
    assert first.inputs_sha256 == again.inputs_sha256
    assert first.inputs_sha256 != other.inputs_sha256
    counts = []
    for workload in (first, again):
        workload.load()
        answers = workload.run_pass()
        assert workload.check(answers) == []
        counts.append(workload.sim_counts(answers))
    assert counts[0] == counts[1]


def test_stored_bytes_per_user_byte_repeats():
    from wallbench.layers import LayerSuite

    ratios = []
    for _ in range(2):
        suite = LayerSuite(5, smoke=True)
        suite.workloads()
        suite.cof()
        ratios.append({
            k: v for k, v in suite.metrics.items() if k.endswith("per_user_byte")
        })
    assert len(ratios[0]) == 4 and ratios[0] == ratios[1]


@pytest.mark.parametrize("name", ["cif_scan", "seq_scan"])
def test_a_planted_wrong_answer_counts_as_failed(name):
    workload = smoke(name, 5)
    workload.load()
    answers = workload.run_pass()
    assert workload.check(answers) == []
    planted = workload.op_names[0]
    workload.expected[planted] = ["not the answer"]
    assert workload.check(answers) == [planted]


def test_load_notices_stored_bytes_that_change():
    workload = smoke("load", 5)
    workload.load()
    assert workload.check(workload.run_pass()) == []
    planted = workload.op_names[0]
    workload.expected[planted] = "0" * 64
    assert workload.check(workload.run_pass()) == [planted]


def test_an_op_that_raises_counts_as_failed():
    workload = smoke("seq_scan", 5)
    workload.load()
    workload.fs.delete("/seq/block")
    assert workload.check(workload.run_pass()) == ["seq_block"]


def _result(pass_s):
    return {"seed": 1, "workloads": {"cif_scan": {
        "end_to_end": {
            "pass_p50_s": pass_s, "ops_per_s": 12 / pass_s, "setup_s": 1.0,
            "peak_rss_mb": 30.0,
        },
        "failed_ops_share": 0.0, "inputs_sha256": "x", "sim": {},
    }}}


def test_compare_flags_a_breach_and_passes_agreement():
    bound = spec.benchmark()["end_to_end"][0]["bound"]
    assert compare.compare(_result(1.0), _result(1.0 + bound / 2))[1]
    lines, ok = compare.compare(_result(1.0), _result(1.0 + bound * 1.5))
    assert not ok and any("BREACH" in line for line in lines)


def test_run_prints_the_contract_line_last():
    done = subprocess.run(
        [sys.executable, "-m", "wallbench", "run", "--workload", "cif_scan",
         "--seed", "9", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=spec.ROOT, stdout=subprocess.PIPE, check=True,
    )
    last = json.loads(done.stdout.decode().strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert list(last["metrics"]) == list(driver.E2E)
    units = spec.units()
    for name, metric in last["metrics"].items():
        assert metric["unit"] == units[name] and metric["value"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(spec.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        spec.PACKAGE_DIR, tmp_path / "wallbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "wallbench", "run", "--workload", "cif_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert done.returncode != 0
    assert done.stdout == b""
