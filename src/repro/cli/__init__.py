"""Command-line interface: run the paper's experiments.

Usage::

    python -m repro list
    python -m repro experiment fig7
    python -m repro experiment fig7 --trace-out run.jsonl
    python -m repro experiment table1 --records 800
    python -m repro experiment all
    python -m repro report run.jsonl
    python -m repro export chrome run.jsonl --out trace.json
    python -m repro top --records 300
    python -m repro explain /data/crawl-cif --layout plain

Each experiment prints the same rows/series the paper's corresponding
table or figure reports (simulated time; real bytes).  With
``--trace-out`` the run executes under a flight recorder and the
spans/metrics/counters artifact is written as JSONL; ``repro report
<run.jsonl>`` pretty-prints a saved artifact.

Each verb-family module exposes ``configure(subparsers)``, ``run(args,
out)`` and the ``VERBS`` it owns; the plumbing they share is
:mod:`repro.cli.common`.  None imports the engine until its verb runs.
"""

from __future__ import annotations

import argparse
from typing import Callable, List, Optional

from repro import __version__
from repro.cli import cluster, experiment, harness, runners, sidecar, trace
from repro.cli.common import CliError

#: verb -> the module that registers and runs it
VERBS = {
    verb: module
    for module in (experiment, trace, sidecar, runners, cluster, harness)
    for verb in module.VERBS
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Column-Oriented Storage Techniques for "
            "MapReduce' (Floratou et al., PVLDB 2011)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command")
    for module in dict.fromkeys(VERBS.values()):
        module.configure(subparsers)
    return parser


def main(
    argv: Optional[List[str]] = None, out: Callable[[str], None] = print
) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return VERBS[args.command].run(args, out)
    except CliError as exc:
        out(f"error: {exc}")
        return 1


def __getattr__(name: str):
    """``repro.cli.EXPERIMENTS``: the paper experiments, read lazily."""
    if name == "EXPERIMENTS":
        return experiment.experiments()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
