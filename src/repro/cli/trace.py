"""The trace readers: ``repro report | perf | export`` and ``top
--replay``.  Each loads a saved flight recording through
:func:`repro.cli.common.load_trace` and renders one view of it.
"""

from __future__ import annotations

import json
import sys

from repro.cli import common


def configure(subparsers) -> None:
    report = subparsers.add_parser(
        "report",
        help=(
            "pretty-print a flight-recorder file (repro report run.jsonl), "
            "or with no argument run every experiment and emit a results "
            "document (markdown)"
        ),
    )
    report.add_argument(
        "trace", nargs="?", default=None,
        help="a flight-recorder JSONL file written by --trace-out",
    )
    common.add_out(report)
    common.add_json(report, help=(
        "emit the structured summary as JSON instead of the ASCII "
        "render (requires a trace argument)"
    ))
    common.add_color(
        report, quiet="print only the header, warnings and job counters"
    )

    perf = subparsers.add_parser(
        "perf",
        help=(
            "analyze a flight-recorder artifact: critical path, Gantt "
            "timeline, stragglers, I/O breakdown, run diffing"
        ),
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    cp = perf_sub.add_parser(
        "critical-path",
        help="the span chain that determines the run's simulated time",
    )
    cp.add_argument("trace", help="flight-recorder JSONL (from --trace-out)")
    cp.add_argument(
        "--root", type=int, default=None, metavar="SPAN_ID",
        help="analyze one span subtree instead of the whole run",
    )
    cp.add_argument(
        "--top", type=common.non_negative, default=30,
        help="path steps to print (default 30)",
    )
    tl = perf_sub.add_parser(
        "timeline",
        help="per-(node, slot) Gantt chart of task attempts",
    )
    tl.add_argument("trace", help="flight-recorder JSONL")
    tl.add_argument(
        "--width", type=common.positive, default=64,
        help="chart width in characters",
    )
    common.add_color(tl)
    br = perf_sub.add_parser(
        "breakdown",
        help="per-format/per-column I/O bytes, readahead waste, seeks",
    )
    br.add_argument("trace", help="flight-recorder JSONL")
    st = perf_sub.add_parser(
        "stragglers",
        help="task-duration outliers vs siblings, with the dominant cost",
    )
    st.add_argument("trace", help="flight-recorder JSONL")
    st.add_argument(
        "--threshold", type=float, default=1.5,
        help="flag tasks slower than this multiple of the median",
    )
    po = perf_sub.add_parser(
        "operators",
        help=(
            "per-operator profile tree (rows, selectivity, cells "
            "decoded/skipped, batches, kernel vs fallback calls, "
            "simulated + wall time) for each engine in a recording"
        ),
    )
    po.add_argument("trace", help="flight-recorder JSONL")
    common.add_color(po)
    pd = perf_sub.add_parser(
        "diff",
        help=(
            "compare two recordings metric-by-metric and span-by-span; "
            "exits 1 on regressions beyond tolerance"
        ),
    )
    pd.add_argument("a", help="baseline flight-recorder JSONL")
    pd.add_argument("b", help="candidate flight-recorder JSONL")
    pd.add_argument(
        "--rel-tol", type=common.tolerance, default=0.01,
        help="relative noise tolerance (default 0.01)",
    )
    pd.add_argument(
        "--operators", action="store_true",
        help=(
            "also attribute the time delta to the operator and "
            "vecdecode kernel responsible, per engine"
        ),
    )

    export = subparsers.add_parser(
        "export",
        help=(
            "convert a flight recording to Chrome trace-event JSON "
            "(chrome://tracing, Perfetto) or Prometheus text exposition"
        ),
    )
    export.add_argument(
        "format", choices=["chrome", "prom"],
        help="chrome: trace-event JSON; prom: Prometheus text exposition",
    )
    export.add_argument(
        "trace", help="flight-recorder JSONL (plain or gzipped)"
    )
    common.add_out(export)
    export.add_argument(
        "--check", action="store_true",
        help=(
            "validate the export (chrome: balanced begin/end pairs, "
            "monotonic timestamps; prom: re-parse the exposition); "
            "exit 1 on problems"
        ),
    )
    for flag, bound in (("--since", ">="), ("--until", "<=")):
        export.add_argument(
            flag, type=float, default=None, metavar="T",
            help=(
                "with a .tsdb sidecar, export only samples at simulated "
                f"time {bound} T"
            ),
        )


def _report(args, out: common.Out) -> int:
    if args.trace is None:
        if args.json:
            out("error: --json requires a trace argument")
            return 2
        from repro.cli.experiment import document

        return document(args, out)
    # Both renderings carry the loader warnings themselves.
    report = common.load_trace(args.trace, out=None)
    if args.json:
        rendered = common.to_json(report.summary())
    else:
        from repro.util.term import palette

        # Color goes to the terminal, never into --out files.
        pal = palette(args.no_color or bool(args.out))
        rendered = report.render(pal=pal, quiet=args.quiet)
    common.emit(rendered, args, out)
    return 0


def _perf_views():
    """``perf`` sub-verb -> its rendering of one loaded trace."""
    from repro.obs import analysis, render_operators

    return {
        "critical-path": lambda report, args: analysis.critical_path(
            report, root_id=args.root
        ).render(top=args.top),
        "timeline": lambda report, args: analysis.render_timeline(
            report, width=args.width, pal=common.palette(args)
        ),
        "breakdown": lambda report, args: analysis.render_breakdown(report),
        "stragglers": lambda report, args: analysis.render_stragglers(
            report, threshold=args.threshold
        ),
        "operators": lambda report, args: render_operators(
            report, pal=common.palette(args)
        ),
    }


def _perf(args, out: common.Out) -> int:
    from repro.obs import analysis, diff_operators, render_operator_diff

    if args.perf_command != "diff":
        report = common.load_trace(args.trace, out)
        out(_perf_views()[args.perf_command](report, args))
        return 0
    base = common.load_trace(args.a, out)
    cand = common.load_trace(args.b, out)
    diff = analysis.diff_runs(base, cand, rel_tol=args.rel_tol)
    out(analysis.render_run_diff(diff, args.rel_tol))
    if args.operators:
        out("")
        out(render_operator_diff(
            *diff_operators(base, cand, rel_tol=args.rel_tol)
        ))
    return 0 if diff.ok else 1


def _export(args, out: common.Out) -> int:
    """Recordings -> Chrome trace / Prometheus text; a ``.tsdb``
    sidecar exports directly (prom only), with ``--since/--until``."""
    from repro.obs.export import (
        chrome_trace,
        parse_prometheus_text,
        prometheus_text,
        validate_chrome_trace,
    )

    problems = []
    if common.is_tsdb(args.trace):
        if args.format != "prom":
            raise common.CliError(".tsdb sidecars export as 'prom' only")
        payload = prometheus_text(
            common.load_tsdb(args.trace, out),
            since=args.since, until=args.until,
        )
    elif args.since is not None or args.until is not None:
        raise common.CliError(
            "--since/--until apply to .tsdb sidecars only"
        )
    else:
        report = common.load_trace(args.trace, out)
        if args.format == "chrome":
            trace = chrome_trace(report)
            if args.check:
                problems = validate_chrome_trace(trace)
            payload = json.dumps(trace, sort_keys=True)
        else:
            payload = prometheus_text(report)
    if args.check and args.format == "prom":
        try:
            parse_prometheus_text(payload)
        except ValueError as exc:
            problems = [str(exc)]
    common.emit(payload, args, out)
    for problem in problems:
        out(f"INVALID: {problem}")
    return 1 if problems else 0


def replay(args, out: common.Out) -> int:
    """``repro top --replay``: a recording's events through the monitor."""
    from repro.obs import EventBus
    from repro.obs.live import LiveMonitor

    pal = common.palette(args)
    report = common.load_trace(args.replay, out, pal)
    monitor = LiveMonitor(
        out, pal=pal, tty=sys.stdout.isatty(), quiet=args.quiet,
        frame_every=max(1, args.frame_every),
    )
    bus = EventBus()
    monitor.attach(bus)
    delivered = bus.replay(report.events)
    monitor.final()
    if not delivered:
        out("(recording carries no events — re-record it with this "
            "version to monitor it)")
    return 0


VERBS = {"report": _report, "perf": _perf, "export": _export}


def run(args, out: common.Out) -> int:
    return VERBS[args.command](args, out)
