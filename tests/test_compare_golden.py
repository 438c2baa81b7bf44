"""Golden text of the three comparison views: ``repro bench check``,
``repro perf diff`` and ``repro perf diff --operators``.

Each case runs one CLI invocation and checks its stdout, line for line,
and its exit status against ``compare_golden/expected.json``.

The bench cases read the 17 committed baselines, once against
themselves and once against a copy built here.  The copy changes one
metric per verdict: a lower- and a higher-is-better regression, an
improvement, an improvement from zero, an exact count change (one from
zero), a new and a vanished metric, and two moves small enough to sit
inside a 5 % band.  It also changes one scenario's params and another's
name.

The perf cases read two recordings of the same Fig-10 query, run by the
scalar and the vectorized engine over 150 records, each under a fake
clock that advances 1 ms per read: ``base.jsonl`` on a plain layout at
selectivity 0.1, ``fresh.jsonl`` on a zlib ``cblock`` layout at 0.5.
They differ in metrics, counters, span times, operator times and kernel
calls, and the fresh one has counters the base one lacks.

The expected text was recorded once and is not re-recorded: a failing
case means a change moved a verdict or a line.
"""

import json
import os

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "compare_golden")
BASELINES = "benchmarks/baselines"

#: one row per perturbed metric: (scenario, key, fresh value or None to
#: drop the key)
PERTURBED_METRICS = [
    ("fig7", "time.cif.1_integer", 0.0003),        # lower: regression
    ("fig7", "time.txt.allcolumns", 0.03),         # lower: improvement
    ("fig7", "time.cif.1_map", 0.0037),            # +0.2 %
    ("fig7", "ratio.seq_over_cif_1int", 30.0),     # higher: regression
    ("fig10", "count.answer.20pct", 5234),         # exact: regression
    ("fig10", "count.answer.0pct", 1),             # exact, from zero
    ("fig9", "seeks.added", 7),                    # new
    ("fig9", "time.1m_rcfile.1_map", None),        # gone
    ("colocation", "fraction.local.default", 0.25),  # from zero
    ("colocation", "ratio.colocation_speedup", 4.2),  # +0.4 %
]

CASES = {
    "bench check self": [
        "bench", "check", "--baseline-dir", BASELINES,
        "--fresh-dir", BASELINES, "--no-color",
    ],
    "bench check self --quiet": [
        "bench", "check", "--baseline-dir", BASELINES,
        "--fresh-dir", BASELINES, "--no-color", "--quiet",
    ],
    "bench check perturbed": [
        "bench", "check", "--baseline-dir", BASELINES,
        "--fresh-dir", "{perturbed}", "--no-color",
    ],
    "bench check perturbed --quiet": [
        "bench", "check", "--baseline-dir", BASELINES,
        "--fresh-dir", "{perturbed}", "--no-color", "--quiet",
    ],
    "bench check perturbed --quiet --rel-tol 0.05": [
        "bench", "check", "--baseline-dir", BASELINES,
        "--fresh-dir", "{perturbed}", "--no-color", "--quiet",
        "--rel-tol", "0.05",
    ],
    "perf diff base fresh": [
        "perf", "diff", "{golden}/base.jsonl", "{golden}/fresh.jsonl",
    ],
    "perf diff base fresh --operators": [
        "perf", "diff", "{golden}/base.jsonl", "{golden}/fresh.jsonl",
        "--operators",
    ],
    "perf diff fresh base --operators": [
        "perf", "diff", "{golden}/fresh.jsonl", "{golden}/base.jsonl",
        "--operators",
    ],
    "perf diff base base --operators": [
        "perf", "diff", "{golden}/base.jsonl", "{golden}/base.jsonl",
        "--operators",
    ],
    "perf diff base fresh --operators --rel-tol 0.5": [
        "perf", "diff", "{golden}/base.jsonl", "{golden}/fresh.jsonl",
        "--operators", "--rel-tol", "0.5",
    ],
}


def _write_perturbed(directory) -> None:
    """The baselines with :data:`PERTURBED_METRICS` applied, table2's
    params changed and addcolumn's file claiming to be fig7."""
    payloads = {}
    for filename in os.listdir(BASELINES):
        with open(os.path.join(BASELINES, filename)) as handle:
            payload = json.load(handle)
        payloads[payload["benchmark"]] = payload
    for scenario, key, value in PERTURBED_METRICS:
        metrics = payloads[scenario]["metrics"]
        if value is None:
            del metrics[key]
        else:
            metrics[key] = value
    payloads["table2"]["params"]["records"] += 1
    payloads["addcolumn"]["benchmark"] = "fig7"
    for name, payload in payloads.items():
        with open(os.path.join(directory, f"BENCH_{name}.json"), "w") as out:
            json.dump(payload, out, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def perturbed(tmp_path_factory):
    directory = tmp_path_factory.mktemp("perturbed")
    _write_perturbed(str(directory))
    return str(directory)


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(GOLDEN_DIR, "expected.json")) as handle:
        return json.load(handle)


def run(argv, perturbed):
    lines = []
    code = main(
        [
            arg.replace("{perturbed}", perturbed).replace(
                "{golden}", GOLDEN_DIR
            )
            for arg in argv
        ],
        out=lines.append,
    )
    return {"code": code, "stdout": "\n".join(lines).splitlines()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_view_matches_golden(case, perturbed, golden):
    assert run(CASES[case], perturbed) == golden[case]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
