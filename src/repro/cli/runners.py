"""The demo runners: ``repro fsck | top | explain``.  Each builds the
same small crawl cluster (:func:`repro.cli.common.demo_cluster`),
optionally under a fault plan and a flight recorder, and reports on it.
"""

from __future__ import annotations

import sys

from repro.cli import common


def configure(subparsers) -> None:
    fsck = subparsers.add_parser(
        "fsck",
        help=(
            "build a demo CIF dataset, optionally apply a fault plan, "
            "and print the filesystem check report"
        ),
    )
    common.add_demo(fsck, "create and check")
    common.add_faults(
        fsck, help="apply every event of this fault plan before checking"
    )
    fsck.add_argument(
        "--repair", action="store_true",
        help=(
            "after applying faults, run the block scanner (evict corrupt "
            "replicas) and a re-replication pass before reporting"
        ),
    )
    common.add_trace_out(fsck, help=(
        "run under a flight recorder so the load/fault/repair spans "
        "(replica.failover, colocation.restored, ...) land in a "
        "RunReport, like experiment runs"
    ))

    top = subparsers.add_parser(
        "top",
        help=(
            "live job monitor: run the Section 6.3 crawl job (or replay "
            "a recording) with streaming progress frames from the event "
            "bus — per-node slot occupancy, phase bars, faults"
        ),
    )
    common.add_demo(top)
    top.add_argument(
        "--refresh", type=float, default=1.0,
        help="seconds of wall time between frames (default 1.0)",
    )
    top.add_argument(
        "--frame-every", type=common.positive, default=40, metavar="N",
        help="with --replay, emit a frame every N events (default 40)",
    )
    common.add_faults(
        top, help="run the job under this fault plan (injections show live)"
    )
    top.add_argument(
        "--replay", default=None, metavar="TRACE",
        help=(
            "replay a recorded run's events through the monitor instead "
            "of running a job"
        ),
    )
    common.add_trace_out(
        top, help="also write the run's flight recording here"
    )
    common.add_color(top, quiet="emit only the final summary frame")

    explain = subparsers.add_parser(
        "explain",
        help=(
            "storage-introspection advisor: scan a freshly built dataset "
            "(or analyze a recorded trace), render the per-split/"
            "per-column access heatmap, reconcile it exactly against the "
            "I/O probes, and emit counter-backed recommendations"
        ),
    )
    common.add_demo(explain, "build and explain")
    explain.add_argument(
        "--layout", choices=["plain", "skiplist", "cblock"],
        default="plain",
        help="column layout for every column (default plain)",
    )
    explain.add_argument(
        "--codec", choices=["lzo", "zlib"], default="lzo",
        help="cblock compression codec (default lzo)",
    )
    explain.add_argument(
        "--columns", default=None, metavar="A,B,...",
        help="projection pushed down to the scan (default: all columns)",
    )
    explain.add_argument(
        "--touch", default="url,metadata", metavar="A,B,...",
        help=(
            "columns the scan deserializes per record, like a map "
            "function would (default url,metadata)"
        ),
    )
    explain.add_argument(
        "--eager", action="store_true",
        help="materialize whole records instead of lazy per-column reads",
    )
    common.add_faults(
        explain, help="apply every event of this fault plan before scanning"
    )
    explain.add_argument(
        "--job", default=None, metavar="TRACE",
        help=(
            "analyze a recorded flight recording's storage counters "
            "instead of running a scan (layouts inferred from counters)"
        ),
    )
    common.add_trace_out(
        explain, help="also write the scan's flight recording here"
    )
    common.add_color(
        explain,
        quiet="suppress the heatmap grid; only reconciliation and advice",
    )
    explain.add_argument(
        "--require-recommendations", action="store_true",
        help="exit 1 when the advisor finds nothing to recommend",
    )
    explain.add_argument(
        "--analyze", action="store_true",
        help=(
            "profile the scan per operator (EXPLAIN ANALYZE): render "
            "the measured operator tree and cite per-operator cost in "
            "each recommendation's evidence"
        ),
    )


def _fsck(args, out: common.Out) -> int:
    """Exercise fault injection + repair, report health.

    The simulator has no persistent namespace, so the command builds a
    fresh CPP-placed CIF dataset at ``path``, fires the fault plan (if
    given) against it — letting auto-repair and re-replication react —
    and renders the resulting :class:`~repro.hdfs.FsckReport`.  Exit
    status 0 means healthy (every block fully replicated with at least
    one clean copy of every replica).
    """
    from repro.obs import current_obs

    plan = common.load_plan(args.faults)
    meta = {"command": "fsck", "path": args.path, "nodes": args.nodes}
    with common.recording(args, out, meta) as recorder:
        tracer = current_obs().tracer
        with tracer.span("fsck", kind="fsck", path=args.path):
            fs = common.demo_cluster(
                args, out, args.path, cpp=not args.no_cpp, plan=plan
            )
            if plan is not None:
                out("")
            if args.repair:
                with tracer.span("repair", kind="repair"):
                    evicted = fs.scrub()
                    created = fs.repair()
                out(f"repair: evicted {evicted} corrupt replica(s), "
                    f"created {created} new replica(s)")
                out("")
            report = fs.fsck_report()
        out(report.render())
        if recorder is not None:
            recorder.meta["healthy"] = report.healthy
    return 0 if report.healthy else 1


def _top(args, out: common.Out) -> int:
    """Live (or replayed) event-bus job monitoring."""
    if args.replay:
        from repro.cli.trace import replay

        return replay(args, out)
    from repro.core.cif import ColumnInputFormat
    from repro.mapreduce.runner import run_job
    from repro.obs.live import LiveMonitor
    from repro.workloads.jobs import distinct_content_types_job

    plan = common.load_plan(args.faults)
    dataset = "/data/top-cif"
    meta = {"command": "top", "records": args.records, "nodes": args.nodes}
    with common.recording(args, out, meta, always=True) as recorder:
        monitor = LiveMonitor(
            out, refresh=args.refresh, pal=common.palette(args),
            tty=sys.stdout.isatty(), quiet=args.quiet,
        )
        monitor.attach(recorder.bus)
        fs = common.demo_cluster(args, out, dataset)
        job = distinct_content_types_job(
            ColumnInputFormat(dataset, columns=["url", "metadata"]),
            num_reducers=min(4, args.nodes),
        )
        result = run_job(fs, job, faults=plan)
        monitor.final()
        out(f"job finished: {result.total_time:.3f}s simulated, "
            f"{len(result.output)} output row(s)")
    return 0


def _explain_scan(fs, input_format, touch_columns, profile=False) -> None:
    """Scan every split on a node that hosts it, as map tasks would.

    ``harness.scan`` reads the whole dataset from one node, which makes
    every co-located split look remote; the advisor's co-location rule
    needs locality-faithful accounting, so each split gets its own
    context pinned to one of the split's location nodes.  With
    ``profile`` each split scan runs under an operator profiler, so
    the recording carries per-operator spans for ``--analyze``.
    """
    from repro.bench import harness
    from repro.obs import NULL_PROFILER, OperatorProfiler, current_obs

    obs = current_obs()
    with obs.tracer.span(
        "scan", kind="scan", format=type(input_format).__name__,
        dataset=input_format.dataset,
    ):
        for split in input_format.get_splits(fs, fs.cluster):
            node = split.locations[0] if split.locations else 0
            ctx = harness.make_context(fs, node=node)
            profiler = NULL_PROFILER
            if profile:
                profiler = OperatorProfiler(
                    "scalar", ctx.metrics,
                    meta={"split": split.label},
                    clock=obs.tracer._clock,
                ).install()
                ctx.profiler = profiler
            reader = input_format.open_reader(fs, split, ctx)
            try:
                with obs.tracer.span(
                    "split_scan", kind="split", split=split.label,
                    node=node, metrics=ctx.metrics,
                ):
                    for _, record in reader:
                        profiler.switch("materialize")
                        profiler.add_rows("materialize", 1, 1)
                        for column in touch_columns:
                            record.get(column)
                        profiler.switch("scan")
            finally:
                reader.close()
                profiler.finish(obs)
            obs.record_metrics(f"scan:{split.label}", ctx.metrics)


def _emit_explain(
    args, out, pal, report, heatmap, layouts, problems, recommendations
) -> int:
    """Shared tail of ``repro explain``: operator tree, heatmap,
    verdict, advice."""
    if args.analyze:
        from repro.obs import operator_profiles, render_operators
        from repro.obs.advisor import annotate_with_profiles

        annotate_with_profiles(recommendations, operator_profiles(report))
        out(render_operators(report, pal=pal))
        out("")
    summary = ", ".join(
        f"{column}={layouts[column]}" for column in sorted(layouts)
    )
    out(pal.bold(f"dataset {heatmap.dataset}")
        + f"  ({len(heatmap.split_dirs)} split dir(s), "
        + f"{heatmap.runs} run(s) accumulated)"
        + (f"  layouts: {summary}" if summary else ""))
    if not args.quiet:
        out("")
        out(heatmap.render())
    out("")
    if problems:
        out(pal.red(
            f"RECONCILIATION FAILED: {len(problems)} counter mismatch(es) "
            "between the heatmap and the independent I/O probes"
        ))
        for problem in problems:
            out(f"  {problem}")
        return 1
    out(pal.green(
        "reconciliation OK: heatmap totals match the stream probes and "
        "sim.Metrics exactly"
    ))
    out("")
    if not recommendations:
        out("no recommendations — this access pattern uses the layout well")
        return 1 if args.require_recommendations else 0
    out(pal.bold(f"recommendations ({len(recommendations)}):"))
    for recommendation in recommendations:
        out("  * " + recommendation.render().replace("\n", "\n  "))
    return 0


def _explain_job(args, out: common.Out, pal) -> int:
    """``explain --job``: advise from a recording's storage counters."""
    from repro.obs.advisor import advise, infer_layouts
    from repro.obs.heatmap import DatasetHeatmap, reconcile

    report = common.load_trace(args.job, out, pal)
    heatmap = DatasetHeatmap.from_registry(args.path, report.registry)
    if not heatmap.cells:
        raise common.CliError(
            f"{args.job} records no storage accesses under "
            f"{args.path} — pass the dataset path the job scanned"
        )
    layouts = infer_layouts(heatmap)
    # Arbitrary job traces may mix eager and lazy scans, so the
    # lazy-materialization cross-check is not applicable.
    problems = reconcile(heatmap, report, scan_only=False, check_lazy=False)
    return _emit_explain(
        args, out, pal, report, heatmap, layouts, problems,
        advise(heatmap, layouts=layouts),
    )


def _explain(args, out: common.Out) -> int:
    """The storage-introspection advisor."""
    pal = common.palette(args)
    if args.job:
        return _explain_job(args, out, pal)
    from repro.core.cif import ColumnInputFormat
    from repro.core.columnio import ColumnSpec
    from repro.core.cof import split_dirs_of
    from repro.obs.advisor import advise, column_layouts
    from repro.obs.heatmap import DatasetHeatmap, reconcile

    plan = common.load_plan(args.faults)
    touch = [c.strip() for c in args.touch.split(",") if c.strip()]
    columns = None
    if args.columns:
        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    meta = {
        "command": "explain", "dataset": args.path,
        "layout": args.layout, "records": args.records,
    }
    with common.recording(args, out, meta, always=True) as recorder:
        fs = common.demo_cluster(
            args, out, args.path, cpp=not args.no_cpp, plan=plan,
            default_spec=ColumnSpec(format=args.layout, codec=args.codec),
        )
        try:
            _explain_scan(
                fs,
                ColumnInputFormat(
                    args.path, columns=columns, lazy=not args.eager
                ),
                touch,
                profile=args.analyze,
            )
            layouts = column_layouts(fs, args.path)
        except (KeyError, ValueError, OSError) as exc:
            raise common.CliError(f"scan failed: {exc}") from exc
        # CPP colocation health gauges, straight off the namenode.
        split_dirs = split_dirs_of(fs, args.path)
        colocated = sum(
            1 for d in split_dirs if fs.split_dir_colocated(d)
        )
        fraction = colocated / len(split_dirs) if split_dirs else 1.0
        gauge = recorder.registry.gauge
        gauge("colocation.split_dirs").set(len(split_dirs))
        gauge("colocation.split_dirs_colocated").set(colocated)
        gauge("colocation.split_dir_fraction").set(fraction)
        # Everything below reads the frozen report; the sidecar I/O is
        # whole-file and unobserved, so the artifact written on exit
        # holds exactly the scan.
        report = recorder.report()
        heatmap = DatasetHeatmap.from_registry(args.path, report.registry)
        accumulated = heatmap.save(fs)  # merge into the .heatmap sidecar
        codecs = {
            name: args.codec
            for name, layout in layouts.items() if layout == "cblock"
        }
        # Reconciliation is against THIS run's probes; advice looks at
        # the accumulated sidecar picture (identical on a fresh
        # filesystem).
        problems = reconcile(
            heatmap, report, scan_only=True, check_lazy=True
        )
        recommendations = advise(
            accumulated, layouts=layouts, codecs=codecs,
            colocated_fraction=fraction,
        )
        return _emit_explain(
            args, out, pal, report, accumulated, layouts, problems,
            recommendations,
        )


VERBS = {"fsck": _fsck, "top": _top, "explain": _explain}


def run(args, out: common.Out) -> int:
    return VERBS[args.command](args, out)
