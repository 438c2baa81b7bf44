"""The CLI skeleton: lazy imports, the verb table, every parser's help,
and the verbs no other tier-1 test drives (``top``, ``check``).
"""

import argparse
import os
import subprocess
import sys

import pytest

import repro.cli as cli
from repro.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tests", "corpus")


def collect(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


def python(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )


def imported_by(*argv):
    """Every ``repro`` module in ``sys.modules`` when a ``python -m repro
    ...`` run exits: what it loaded through the import statement and
    through ``importlib.import_module`` alike (``-X importtime`` logs
    only the first)."""
    proc = python("-c", (
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
        "print('--modules--', *sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.rsplit("--modules--", 1)[1].split())


class TestImportHygiene:
    def test_building_the_parser_imports_only_the_cli(self):
        proc = python("-c", (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "print('\\n'.join(m for m in sys.modules "
            "if m.split('.')[0] == 'repro'))"
        ))
        assert proc.returncode == 0, proc.stderr
        modules = proc.stdout.split()
        assert "repro.cli.common" in modules
        stray = [
            m for m in modules
            if m != "repro" and not m.startswith("repro.cli")
        ]
        assert stray == []

    @pytest.mark.parametrize("argv", [["--version"], ["bench", "list"]])
    def test_cheap_verbs_import_no_engine(self, argv):
        modules = imported_by(*argv)
        assert "repro.cli" in modules
        # bench list reads the scenario table in repro.bench.regress,
        # which compares through repro.util.compare; --version loads no
        # repro.bench module at all
        bench = ("repro.bench", "repro.bench.regress") if "bench" in argv else ()
        heavy = [
            m for m in modules
            if m.startswith(("repro.hdfs", "repro.core", "repro.obs"))
            or (m.startswith("repro.bench") and m not in bench)
        ]
        assert heavy == []

    def test_an_engine_verb_imports_only_the_engine_it_runs(self):
        modules = imported_by("experiment", "fig10", "--records", "30")
        assert {
            "repro.core.cif", "repro.obs.recorder",
            "repro.bench.fig10_selectivity",  # loaded by its scenario
        } <= modules
        unused = {
            f"repro.obs.{leaf}" for leaf in (
                "tsdb", "alerts", "slo", "analysis", "export", "heatmap",
                "advisor", "live",
            )
        } | {
            "repro.mapreduce.runner", "repro.mapreduce.eventloop",
            "repro.mapreduce.scheduler", "repro.query.query",
        }
        stray = [
            m for m in modules
            if m in unused or m.split(".")[:2] == ["repro", "cluster"]
        ]
        assert stray == []


def walk(parser, path=("repro",)):
    """Yield ``(path, parser)`` for a parser and all its sub-parsers."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from walk(sub, path + (name,))


class TestParser:
    def test_every_verb_and_sub_verb_renders_help(self):
        paths = []
        for path, parser in walk(cli.build_parser()):
            assert parser.format_help().startswith("usage: " + " ".join(path))
            paths.append(" ".join(path[1:]))
        for expected in (
            "experiment", "perf operators", "cluster resume",
            "check corpus", "bench check", "slo", "explain",
        ):
            assert expected in paths

    def test_verb_table_registers_and_dispatches_every_verb(self):
        top_level = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(top_level.choices) == set(cli.VERBS)
        for verb, module in cli.VERBS.items():
            assert callable(module.configure), verb
            assert callable(module.run), verb

    def test_experiment_choices_are_the_titled_scenarios(self):
        from repro.bench import regress

        titled = {n for n, s in regress.SCENARIOS.items() if s.title}
        assert set(cli.EXPERIMENTS) == titled and len(titled) == 12
        args = cli.build_parser().parse_args(["experiment", "all"])
        assert args.name == "all"


@pytest.fixture(scope="module")
def top_trace(tmp_path_factory):
    """One tiny live ``top`` run, recorded."""
    trace = tmp_path_factory.mktemp("top") / "top.jsonl.gz"
    code, text = collect(
        ["top", "--records", "120", "--nodes", "4", "--quiet",
         "--no-color", "--trace-out", str(trace)]
    )
    return code, text, trace


class TestTop:
    def test_live_run_prints_the_final_frame(self, top_trace):
        code, text, trace = top_trace
        assert code == 0
        assert "FINISHED" in text and "event totals:" in text
        assert "job finished:" in text and "8 output row(s)" in text
        assert f"wrote flight recording to {trace}" in text

    def test_replay_reproduces_the_final_frame(self, top_trace):
        _, live, trace = top_trace
        code, text = collect(
            ["top", "--replay", str(trace), "--quiet", "--no-color"]
        )
        assert code == 0
        totals = [l for l in text.splitlines() if l.startswith("event totals:")]
        assert totals and totals[0] in live
        assert "reduce [" in text

    def test_replay_of_an_eventless_recording_says_so(self, tmp_path):
        trace = tmp_path / "fig8.jsonl"
        assert main(
            ["experiment", "fig8", "--records", "10",
             "--trace-out", str(trace)],
            out=lambda line: None,
        ) == 0
        code, text = collect(["top", "--replay", str(trace), "--no-color"])
        assert code == 0
        assert "(recording carries no events" in text


class TestCheck:
    def test_run_passes_a_seeded_case(self):
        code, text = collect(["check", "run", "--seed", "3", "--matrix", "quick"])
        assert code == 0
        assert "0 failed" in text and "[  ok] scan:seq-none" in text

    def test_planted_corruption_is_caught_and_shrunk(self):
        code, text = collect(
            ["check", "run", "--seed", "3", "--matrix", "quick",
             "--plant-corruption"]
        )
        assert code == 0
        assert "corruption caught in every leg" in text
        assert "minimal repro: case(seed=3, rows=1" in text

    def test_shrink_of_a_passing_seed_has_nothing_to_do(self):
        code, text = collect(["check", "shrink", "--seed", "3"])
        assert code == 0
        assert "nothing to shrink" in text

    def test_fuzz_runs_its_budget(self, tmp_path):
        code, text = collect(
            ["check", "fuzz", "--budget", "2", "--corpus", str(tmp_path)]
        )
        assert code == 0
        assert "fuzz: 2 case(s) executed, 0 failure(s)" in text
        assert os.listdir(tmp_path) == []

    def test_corpus_lists_and_replays(self):
        code, text = collect(["check", "corpus", "--dir", CORPUS])
        assert code == 0
        cases = [n for n in os.listdir(CORPUS) if n.endswith(".json")]
        assert cases and text.count("case(seed=") == len(cases)
        code, text = collect(["check", "corpus", "--dir", CORPUS, "--replay"])
        assert code == 0
        assert "0 failure(s)" in text and "[FAIL]" not in text
