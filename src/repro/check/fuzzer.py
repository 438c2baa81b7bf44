"""Deterministic fuzz loop, greedy shrinker, and corpus persistence.

The fuzzer is *structure-aware and seeded*: case ``i`` of a run with
base seed ``S`` is exactly ``generate_case(S + i)``, so any finding
reproduces from its printed seed alone —

    repro check run --seed <N> --matrix quick

A failing case is shrunk before it is reported: the shrinker first
tries the default I/O buffer (so a repro carries an odd window size
only when the failure needs one), then greedily removes rows, drops
fields, and zeroes values while the failure persists, bounded by an
evaluation budget so pathological cases cannot stall the loop.  Shrunk
repros are persisted as JSON under ``tests/corpus/`` — the corpus is
the regression suite's memory, and ``replay_corpus`` (wired into
pytest) keeps every past finding fixed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.check.generators import (
    DEFAULT_IO_BUFFER,
    Case,
    case_from_obj,
    case_to_obj,
    rewrite_query,
    zero_value,
)
from repro.check.oracle import run_matrix

__all__ = [
    "FuzzFailure",
    "FuzzResult",
    "check_case",
    "corpus_files",
    "fuzz",
    "load_case",
    "replay_corpus",
    "save_case",
    "shrink",
]

#: default corpus location, relative to the repo root
DEFAULT_CORPUS_DIR = os.path.join("tests", "corpus")

#: shrinker evaluation budget: each candidate costs one matrix run
DEFAULT_SHRINK_EVALS = 200


def check_case(case: Case, matrix: str = "quick") -> Optional[str]:
    """Run ``case`` through the oracle; the first failure, or None."""
    failure = run_matrix(case, matrix=matrix).first_failure()
    if failure is None:
        return None
    return f"{failure.name}: {failure.detail}" if failure.detail \
        else failure.name


# -- shrinking --------------------------------------------------------------


def shrink(
    case: Case,
    check: Callable[[Case], Optional[str]],
    max_evals: int = DEFAULT_SHRINK_EVALS,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[Case, str]:
    """Greedily minimize ``case`` while ``check`` still fails.

    ``check`` returns a failure message (or None when the case passes);
    the returned case is the smallest failing case found within
    ``max_evals`` oracle evaluations, with its final failure message.
    Deterministic: candidate order is a function of the case alone.
    """
    message = check(case)
    if message is None:
        raise ValueError("shrink() needs a failing case")
    best = case
    evals = 0

    def attempt(candidate: Case) -> bool:
        nonlocal best, message, evals
        if evals >= max_evals:
            return False
        evals += 1
        result = check(candidate)
        if result is not None:
            best = candidate
            message = result
            if log:
                log(
                    f"  shrink: rows={len(best.rows)} "
                    f"fields={len(best.schema.fields)}  {result}"
                )
            return True
        return False

    def smaller(rows: List[dict]) -> Case:
        return replace(best, rows=list(rows),
                       note=f"shrunk from seed {case.seed}")

    # 0. the default window, so what survives below is a data finding
    #    unless the failure really lives on a window edge
    if best.io_buffer != DEFAULT_IO_BUFFER:
        attempt(replace(smaller(best.rows), io_buffer=DEFAULT_IO_BUFFER))

    progress = True
    while progress and evals < max_evals:
        progress = False

        # 1. halve the record batch
        while len(best.rows) > 1 and evals < max_evals:
            half = len(best.rows) // 2
            if attempt(smaller(best.rows[:half])):
                progress = True
            elif attempt(smaller(best.rows[half:])):
                progress = True
            else:
                break

        # 2. drop single records
        index = 0
        while index < len(best.rows) and len(best.rows) > 1 \
                and evals < max_evals:
            if not attempt(
                smaller(best.rows[:index] + best.rows[index + 1:])
            ):
                index += 1
            else:
                progress = True

        # 3. drop whole fields (query rewritten to surviving columns)
        for name in list(case.schema.field_names):
            if evals >= max_evals or len(best.schema.fields) <= 1:
                break
            if not best.schema.has_field(name):
                continue
            remaining = [n for n in best.schema.field_names if n != name]
            projected = best.schema.project(remaining)
            candidate = replace(
                best,
                schema=projected,
                rows=[
                    {k: row[k] for k in remaining} for row in best.rows
                ],
                query=rewrite_query(best.query, projected),
                note=f"shrunk from seed {case.seed}",
            )
            if attempt(candidate):
                progress = True

        # 4. flatten each surviving field to its zero value
        for f in list(best.schema.fields):
            if evals >= max_evals:
                break
            zero = zero_value(f.schema)
            if all(row[f.name] == zero for row in best.rows):
                continue
            candidate = replace(
                best,
                rows=[dict(row, **{f.name: zero}) for row in best.rows],
                note=f"shrunk from seed {case.seed}",
            )
            if attempt(candidate):
                progress = True

    return best, message


# -- corpus persistence -----------------------------------------------------


def save_case(
    case: Case, directory: str, error: str = ""
) -> str:
    """Persist a case as JSON; returns the written path."""
    obj = case_to_obj(case)
    if error:
        obj["error"] = error
    payload = json.dumps(obj, indent=2, sort_keys=True)
    digest = hashlib.sha1(payload.encode("utf-8")).hexdigest()[:8]
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"case-s{case.seed}-{digest}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    return path


def load_case(path: str) -> Case:
    with open(path, "r", encoding="utf-8") as handle:
        return case_from_obj(json.load(handle))


def corpus_files(directory: str = DEFAULT_CORPUS_DIR) -> List[str]:
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".json")
    )


def replay_corpus(
    directory: str = DEFAULT_CORPUS_DIR, matrix: str = "quick"
) -> List[Tuple[str, Optional[str]]]:
    """Re-run every corpus case; ``(path, failure-or-None)`` pairs.

    Corpus entries are *fixed* findings: a non-None failure means a
    regression resurfaced.
    """
    return [
        (path, check_case(load_case(path), matrix=matrix))
        for path in corpus_files(directory)
    ]


# -- the fuzz loop ----------------------------------------------------------


@dataclass
class FuzzFailure:
    seed: int
    message: str
    case: Case
    shrunk: Case
    corpus_path: Optional[str] = None

    def repro_command(self) -> str:
        return f"repro check run --seed {self.seed} --matrix quick"


@dataclass
class FuzzResult:
    base_seed: int
    executed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(
    budget: int,
    seed: int = 0,
    matrix: str = "quick",
    corpus_dir: Optional[str] = DEFAULT_CORPUS_DIR,
    stop_on_failure: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzResult:
    """Run ``budget`` generated cases through the oracle.

    Case ``i`` is ``generate_case(seed + i)``.  On failure the case is
    shrunk to a minimal repro and (when ``corpus_dir`` is set) saved
    there; ``stop_on_failure`` ends the run at the first finding.
    """
    from repro.check.generators import generate_case

    result = FuzzResult(base_seed=seed)
    checker = lambda c: check_case(c, matrix=matrix)  # noqa: E731
    for i in range(budget):
        case_seed = seed + i
        case = generate_case(case_seed)
        result.executed += 1
        message = checker(case)
        if log and (i + 1) % 50 == 0:
            log(f"fuzz: {i + 1}/{budget} cases, "
                f"{len(result.failures)} failures")
        if message is None:
            continue
        if log:
            log(f"fuzz: seed {case_seed} FAILED: {message}")
        shrunk, final_message = shrink(case, checker, log=log)
        corpus_path = None
        if corpus_dir:
            corpus_path = save_case(shrunk, corpus_dir, error=final_message)
            if log:
                log(f"fuzz: minimal repro saved to {corpus_path}")
        result.failures.append(FuzzFailure(
            seed=case_seed, message=final_message, case=case,
            shrunk=shrunk, corpus_path=corpus_path,
        ))
        if stop_on_failure:
            break
    return result
