"""The plumbing every verb shares, written once: option groups,
artifact loaders, the recording lifecycle, file-or-stdout emission and
the demo cluster.

Nothing here (or in a verb module) imports the engine at module level;
whatever a function needs it imports itself, so building the parser
stays cheap.  A failure the user can cause raises :class:`CliError`,
which ``main`` turns into one ``error: ...`` line and exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
from typing import Callable, Optional

Out = Callable[[str], None]

#: what a dict-walking parser raises on a document of the wrong shape
_PARSE_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError)


class CliError(Exception):
    """A failure already phrased for the user."""


# -- option groups ---------------------------------------------------------


def _at_least(minimum: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" for non-ints
    return parse


#: argparse types for counts: below the bound is a usage error (exit 2)
positive = _at_least(1)
non_negative = _at_least(0)


def add_color(parser, quiet: Optional[str] = None) -> None:
    """``--no-color``, plus ``--quiet`` when the verb has a terse mode."""
    parser.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI color (also honored: NO_COLOR, TERM=dumb)",
    )
    if quiet:
        parser.add_argument("--quiet", action="store_true", help=quiet)


def add_json(
    parser,
    help: str = "emit the structured report as JSON instead of the table",
) -> None:
    parser.add_argument("--json", action="store_true", help=help)


def add_out(parser, help: str = "write to a file instead of stdout") -> None:
    parser.add_argument("--out", default=None, metavar="PATH", help=help)


def add_trace_out(parser, help: str) -> None:
    """``--trace-out``: see :func:`recording`."""
    parser.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help=help + " (a .gz suffix gzips it)",
    )


def add_faults(parser, help: str) -> None:
    """``--faults``: see :func:`load_plan`."""
    parser.add_argument("--faults", default=None, metavar="PLAN", help=help)


def add_demo(parser, purpose: Optional[str] = None) -> None:
    """The shape of :func:`demo_cluster`: ``--records/--nodes`` and, for
    a verb that names its dataset (to ``purpose``), ``path/--no-cpp``."""
    if purpose:
        parser.add_argument(
            "path", nargs="?", default="/data/crawl-cif",
            help=f"dataset path to {purpose} (default /data/crawl-cif)",
        )
        parser.add_argument(
            "--no-cpp", action="store_true",
            help="load without the ColumnPlacementPolicy (no co-location)",
        )
    parser.add_argument(
        "--records", type=non_negative, default=300,
        help="crawl records to load (default 300)",
    )
    parser.add_argument(
        "--nodes", type=positive, default=8,
        help="datanodes in the simulated cluster (default 8)",
    )


def palette(args):
    from repro.util.term import palette as make

    return make(args.no_color)


# -- artifact loaders ------------------------------------------------------


def attempt(what: str, path: str, load):
    """``load(path)``, or the one ``cannot <what> <path>: ...`` error."""
    try:
        return load(path)
    except _PARSE_ERRORS as exc:
        raise CliError(f"cannot {what} {path}: {exc}") from exc


def load_trace(path: str, out: Optional[Out], pal=None):
    """A flight recording.  Loader warnings go to ``out`` (yellow under
    ``pal``); pass None when the caller's own rendering carries them."""
    from repro.obs import RunReport

    report = attempt("read flight recording", path, RunReport.load)
    for warning in report.warnings if out is not None else ():
        line = f"WARNING: {warning}"
        out(pal.yellow(line) if pal is not None else line)
    return report


def load_tsdb(path: str, out: Out):
    """A ``.tsdb`` monitoring sidecar."""
    from repro.obs.tsdb import TimeSeriesStore

    store, warnings = attempt("read tsdb sidecar", path, TimeSeriesStore.load)
    for warning in warnings:
        out(f"WARNING: {warning}")
    return store


def is_tsdb(path: str) -> bool:
    """Whether ``path``'s meta header says ``.tsdb`` sidecar.  An
    unreadable file is not one: the trace loader then reports why."""
    from repro.util import jsonl

    try:
        return jsonl.peek(path).get("format") == "tsdb"
    except (OSError, ValueError):
        return False


def resume_wal(path: str, wal_out: Optional[str]):
    """Replay a cluster WAL to its finished ``(report, wal)``."""
    from repro.cluster import WalDivergence, resume_from_wal

    try:
        return attempt(
            "resume from", path, lambda p: resume_from_wal(p, wal_out=wal_out)
        )
    except WalDivergence as exc:
        raise CliError(str(exc)) from exc


def load_plan(path: Optional[str]):
    """The ``--faults`` plan, or None when the option was not given."""
    from repro.faults import FaultPlan

    return attempt("load fault plan", path, FaultPlan.load) if path else None


def load_profile(path: Optional[str]):
    """A traffic profile; the built-in 3-tenant sample without a path."""
    from repro.cluster import TrafficProfile, sample_profile

    if not path:
        return sample_profile()
    return attempt("load traffic profile", path, TrafficProfile.load)


def load_case(path: str):
    """A saved ``repro check`` corpus case."""
    from repro.check.fuzzer import load_case as load

    return attempt("load case", path, load)


# -- the recording lifecycle -----------------------------------------------


@contextlib.contextmanager
def recording(args, out: Out, meta: dict, always: bool = False):
    """Run the body under a flight recorder; write it on a clean exit.

    Yields the active :class:`~repro.obs.FlightRecorder` when
    ``--trace-out`` asks for one or the verb ``always`` needs its bus
    or registry, else None (the ambient observability stays the no-op).
    """
    if not (always or args.trace_out):
        yield None
        return
    from repro.obs import FlightRecorder

    recorder = FlightRecorder(meta=meta)
    with recorder.activate():
        yield recorder
    if args.trace_out:
        try:
            recorder.report().write_jsonl(args.trace_out)
        except OSError as exc:
            raise CliError(f"cannot write flight recording: {exc}") from exc
        out(f"wrote flight recording to {args.trace_out}")


def to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def emit(text: str, args, out: Out) -> None:
    """``text`` to ``--out`` when given, else to stdout."""
    if not args.out:
        out(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    out(f"wrote {args.out}")


# -- the demo cluster ------------------------------------------------------


def demo_cluster(
    args, out: Out, path: str, cpp: bool = True, plan=None, **dataset
):
    """A fresh ``--nodes`` cluster with ``--records`` crawl records loaded
    as CIF at ``path`` under a ``load`` span, then hit by all of ``plan``."""
    from repro.bench import harness
    from repro.core import write_dataset
    from repro.faults import FaultInjector
    from repro.obs import current_obs
    from repro.workloads.crawl import crawl_records, crawl_schema

    fs = harness.cluster_fs(num_nodes=args.nodes)
    if cpp:
        fs.use_column_placement()
    with current_obs().tracer.span("load", kind="load", dataset=path):
        write_dataset(
            fs, path, crawl_schema(), crawl_records(args.records),
            split_bytes=harness.MICRO_SPLIT_BYTES, **dataset,
        )
    if plan is not None:
        fired = FaultInjector(fs, plan).fire_all()
        out(f"applied {fired} fault event(s) from {args.faults}")
    return fs
