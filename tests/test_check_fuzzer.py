"""Fuzz loop, shrinker, and corpus persistence — plus the corpus
replay that keeps every past finding fixed."""

import json
from dataclasses import replace

import pytest

from repro.check.fuzzer import (
    check_case,
    corpus_files,
    fuzz,
    load_case,
    replay_corpus,
    save_case,
    shrink,
)
from repro.check.generators import DEFAULT_IO_BUFFER, generate_case


class TestFuzzLoop:
    def test_small_budget_is_green(self):
        result = fuzz(budget=25, seed=0, corpus_dir=None)
        assert result.ok
        assert result.executed == 25

    def test_fuzz_is_deterministic(self):
        # case i of seed S is generate_case(S + i): the loop adds no
        # hidden entropy of its own
        a = generate_case(5 + 3)
        b = generate_case(8)
        assert a.rows == b.rows

    def test_failure_is_shrunk_and_saved(self, tmp_path):
        # synthetic bug: any case whose schema has >1 field "fails"
        calls = {"n": 0}

        def buggy(case):
            calls["n"] += 1
            return "boom" if len(case.schema.fields) > 1 else None

        seed = next(
            s for s in range(50)
            if len(generate_case(s).schema.fields) > 1
        )
        case = generate_case(seed)
        shrunk, message = shrink(case, buggy, max_evals=150)
        assert message == "boom"
        assert len(shrunk.schema.fields) == 2  # minimal still-failing
        assert len(shrunk.rows) == 1
        assert calls["n"] <= 151

        path = save_case(shrunk, str(tmp_path), error=message)
        back = load_case(path)
        assert back.rows == shrunk.rows
        assert json.load(open(path))["error"] == "boom"

    def test_shrink_tries_the_default_io_buffer_first(self):
        case = replace(generate_case(3), io_buffer=61)
        shrunk, _ = shrink(case, lambda c: "boom", max_evals=40)
        assert shrunk.io_buffer == DEFAULT_IO_BUFFER
        # ... and keeps the odd window when the failure lives on it
        on_edge = lambda c: "edge" if c.io_buffer == 61 else None  # noqa: E731
        shrunk, _ = shrink(case, on_edge, max_evals=40)
        assert shrunk.io_buffer == 61

    def test_shrink_requires_a_failing_case(self):
        with pytest.raises(ValueError):
            shrink(generate_case(0), lambda c: None)

    def test_shrink_respects_eval_budget(self):
        calls = {"n": 0}

        def always_fails(case):
            calls["n"] += 1
            return "fail"

        shrink(generate_case(3), always_fails, max_evals=10)
        assert calls["n"] <= 11  # initial check + budget


class TestPlantedCorruptionEndToEnd:
    def test_corruption_is_caught_and_shrinks(self):
        """The acceptance property: a planted record corruption is
        detected, and the detection survives shrinking down to a
        minimal repro."""
        from repro.check.oracle import run_matrix

        def corruption_missed_or_caught(case):
            if not case.rows:
                return None
            report = run_matrix(case, matrix="quick", plant_corruption=True)
            ran = [c for c in report.cells if not c.skipped]
            if ran and all(c.ok for c in ran):
                return "corruption detected (shrink target)"
            return None

        case = generate_case(7)
        assert corruption_missed_or_caught(case) is not None
        shrunk, message = shrink(
            case, corruption_missed_or_caught, max_evals=60
        )
        assert "detected" in message
        assert len(shrunk.rows) == 1
        # the minimal repro still reproduces from its JSON round-trip
        from repro.check.generators import case_from_obj, case_to_obj

        assert corruption_missed_or_caught(
            case_from_obj(case_to_obj(shrunk))
        ) is not None


class TestCorpus:
    def test_corpus_files_empty_dir(self, tmp_path):
        assert corpus_files(str(tmp_path / "missing")) == []

    def test_replay_corpus(self, tmp_path):
        save_case(generate_case(1), str(tmp_path))
        save_case(generate_case(2), str(tmp_path))
        results = replay_corpus(str(tmp_path))
        assert len(results) == 2
        assert all(failure is None for _, failure in results)

    def test_committed_corpus_stays_fixed(self):
        """tests/corpus/ is the regression suite's memory: every entry
        must pass the quick matrix forever."""
        results = replay_corpus()
        assert results, "the committed seed corpus is missing"
        broken = [(p, f) for p, f in results if f is not None]
        assert not broken, broken


class TestCheckCase:
    def test_green_case_returns_none(self):
        assert check_case(generate_case(7)) is None

    def test_message_carries_cell_name(self):
        # a case whose rows reference fields the schema lost cannot
        # survive any leg; the message must name the failing cell
        from dataclasses import replace

        case = generate_case(7)
        broken = replace(
            case, schema=case.schema.project([case.schema.fields[0].name])
        )
        message = check_case(broken)
        assert message is not None
        assert ":" in message
