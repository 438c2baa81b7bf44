"""``repro cluster run | resume | sample-profile``: seeded multi-tenant
load through the resource manager, with its journal, monitoring
sidecar and event stream.
"""

from __future__ import annotations

import contextlib

from repro.cli import common


def configure(subparsers) -> None:
    cluster = subparsers.add_parser(
        "cluster",
        help=(
            "multi-tenant load testing: run seeded open-loop traffic "
            "(Poisson arrivals of crawl/analytics/point-query jobs) "
            "through the fair-share/FIFO resource manager and report "
            "per-tenant latency percentiles and slot utilization"
        ),
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    run_ = cluster_sub.add_parser(
        "run",
        help=(
            "run a traffic profile (JSON; default: the canonical "
            "3-tenant mixed workload) and print the latency report"
        ),
    )
    run_.add_argument(
        "profile", nargs="?", default=None,
        help=(
            "traffic-profile JSON (see docs/cluster.md; default: the "
            "built-in 3-tenant sample)"
        ),
    )
    run_.add_argument(
        "--policy", choices=["fair", "fifo"], default=None,
        help="override the profile's scheduling policy",
    )
    run_.add_argument(
        "--compare", action="store_true",
        help=(
            "run the same trace under both fair and fifo and print the "
            "per-tenant p95 ratios"
        ),
    )
    common.add_json(run_)
    common.add_faults(
        run_, help="run the load under this fault plan (node kills mid-load)"
    )
    common.add_trace_out(run_, help=(
        "record the run's event stream + metrics as a flight-"
        "recorder JSONL artifact (replayable with repro top)"
    ))
    run_.add_argument(
        "--speculate", action="store_true",
        help=(
            "enable cluster-level speculative execution (progress-based "
            "straggler cloning) regardless of the profile's setting"
        ),
    )
    run_.add_argument(
        "--wal", default=None, metavar="PATH",
        help=(
            "journal every scheduling decision to this write-ahead log "
            "(JSONL; .gz suffix gzips) for crash recovery via "
            "'repro cluster resume'"
        ),
    )
    run_.add_argument(
        "--tsdb", default=None, metavar="PATH",
        help=(
            "fold the run into the continuous-monitoring time-series "
            "store and persist it as a merge-accumulating sidecar "
            "(query with 'repro slo' / 'repro alerts' / 'repro export "
            "prom')"
        ),
    )
    run_.add_argument(
        "--events-out", dest="events_out", default=None, metavar="PATH",
        help=(
            "stream the raw event bus to a JSONL file (buffered writes "
            "— cluster traffic is high-volume)"
        ),
    )
    common.add_color(run_)
    run_.add_argument(
        "--crash-after", type=int, default=None, metavar="N",
        help=(
            "tear the manager down after journaling N WAL records "
            "(simulated crash at an exact record boundary; needs --wal)"
        ),
    )
    resume = cluster_sub.add_parser(
        "resume",
        help=(
            "recover a crashed 'cluster run --wal' by verified "
            "deterministic replay: rebuilds the run from the journal's "
            "meta header, checks every surviving record, and carries on "
            "to the report the uninterrupted run would have produced"
        ),
    )
    resume.add_argument(
        "--wal", required=True, metavar="PATH",
        help="the write-ahead log left behind by the crashed run",
    )
    resume.add_argument(
        "--wal-out", default=None, metavar="PATH",
        help="journal the complete replay to a fresh WAL here",
    )
    common.add_json(resume)
    sample = cluster_sub.add_parser(
        "sample-profile",
        help="print the canonical 3-tenant traffic profile as JSON",
    )
    common.add_out(sample)


def _sample_profile(args, out: common.Out) -> int:
    from repro.cluster import sample_profile

    common.emit(common.to_json(sample_profile().to_dict()), args, out)
    return 0


def _resume(args, out: common.Out) -> int:
    """Verified replay from a WAL."""
    report, wal = common.resume_wal(args.wal, args.wal_out)
    if args.json:
        out(common.to_json(report.to_dict()))
    else:
        for warning in wal.warnings:
            out(f"warning: {warning}")
        out(
            f"resumed from {args.wal}: verified {wal.verified} journaled "
            f"record(s), replay produced {len(wal.records)}"
        )
        if args.wal_out:
            out(f"wrote complete replay WAL to {args.wal_out}")
        out(report.render())
    return 0 if not report.failed else 1


def _compare(args, out: common.Out, profile, plan) -> int:
    """The identical arrival trace under both policies; faults are
    re-instantiated per run so each sees the full plan."""
    from repro.cluster import run_traffic

    reports = {
        policy: run_traffic(profile, policy=policy, faults=plan)
        for policy in ("fifo", "fair")
    }
    if args.json:
        out(common.to_json(
            {name: r.to_dict() for name, r in reports.items()}
        ))
    else:
        for name in ("fifo", "fair"):
            out(reports[name].render())
            out("")
        out("fair p95 / fifo p95 (same trace):")
        fifo_summaries = reports["fifo"].tenant_summaries()
        for tenant, fair_summary in (
            reports["fair"].tenant_summaries().items()
        ):
            fifo_p95 = fifo_summaries[tenant].p95
            ratio = (
                f"{fair_summary.p95 / fifo_p95:.3f}" if fifo_p95 else "n/a"
            )
            out(f"  {tenant:<12} {ratio}")
    return 0 if not any(r.failed for r in reports.values()) else 1


def _run(args, out: common.Out) -> int:
    from dataclasses import replace

    from repro.cluster import ClusterWAL, SimulatedCrash, run_traffic

    profile = common.load_profile(args.profile)
    plan = common.load_plan(args.faults)
    if args.speculate:
        profile.speculation = replace(profile.speculation, enabled=True)
    if args.crash_after is not None and not args.wal:
        raise common.CliError(
            "--crash-after needs --wal (nothing would survive)"
        )
    if args.wal and args.compare:
        raise common.CliError("--wal journals a single run; drop --compare")
    if args.compare and (args.tsdb or args.events_out):
        raise common.CliError(
            "--tsdb/--events-out record a single run; drop --compare"
        )
    if args.compare:
        return _compare(args, out, profile, plan)

    # Continuous monitoring: fold the event stream into a time-series
    # store whenever a sidecar was asked for or the profile declares
    # SLOs.  Strictly an observer — the simulated run is identical with
    # or without it (the cluster_slo bench gates that).
    policy = profile.cluster_policy(args.policy)
    monitored = bool(args.tsdb or policy.slos or policy.alerts)
    meta = {
        "command": "cluster",
        "policy": args.policy or profile.policy,
        "seed": profile.seed,
    }
    wal = monitor = None
    try:
        with contextlib.ExitStack() as stack:
            # The observability whose bus the consumers below subscribe
            # to: the recorder, or a bare bus when nothing is recorded.
            obs = stack.enter_context(common.recording(args, out, meta))
            if obs is None and (monitored or args.events_out):
                from repro.obs import (
                    EventBus, MetricRegistry, NULL_TRACER, Observability,
                )

                obs = Observability(
                    NULL_TRACER, MetricRegistry(), enabled=True,
                    bus=EventBus(),
                )
            if monitored:
                from repro.obs.alerts import ClusterMonitor

                monitor = ClusterMonitor.for_policy(policy).attach(obs.bus)
            if args.events_out:
                from repro.obs import JsonlEventSink

                sink = common.attempt(
                    "open", args.events_out,
                    lambda path: JsonlEventSink(path, flush_every=64),
                )
                stack.enter_context(sink.attach(obs.bus))
            if args.wal:
                wal = common.attempt(
                    "open", args.wal,
                    lambda path: ClusterWAL(path, args.crash_after),
                )
            report = run_traffic(
                profile, policy=args.policy, obs=obs, faults=plan, wal=wal,
            )
            return _render_run(args, out, report, monitor, wal)
    except SimulatedCrash as exc:
        out(f"simulated crash: {exc}")
        out(
            f"{len(wal.records)} record(s) journaled to {args.wal}; "
            f"recover with: repro cluster resume --wal {args.wal}"
        )
        return 0


def _render_run(args, out: common.Out, report, monitor, wal) -> int:
    """Reconcile, persist and print one finished ``cluster run``."""
    if args.wal and not args.json:
        out(f"journaled {len(wal.records)} WAL record(s) to {args.wal}")
    statuses = []
    if monitor is not None:
        from repro.obs.tsdb import reconcile_tsdb

        statuses = monitor.statuses()
        mismatches = reconcile_tsdb(monitor.store, report)
        if mismatches:
            for mismatch in mismatches:
                out(f"TSDB MISMATCH: {mismatch}")
            raise common.CliError(
                "the monitoring store does not reconcile with the report"
            )
        if args.tsdb:
            saved = common.attempt(
                "update tsdb sidecar", args.tsdb, monitor.save
            )
    if args.json:
        payload = report.to_dict()
        if monitor is not None:
            payload["slo"] = {
                "statuses": [s.to_dict() for s in statuses],
                "alerts": list(monitor.store.alerts),
            }
        out(common.to_json(payload))
    else:
        out(report.render())
        if statuses:
            from repro.obs.slo import render_slo_table

            pal = common.palette(args)
            out("")
            out(render_slo_table(statuses, pal=pal))
            firing = monitor.engine.firing()
            if firing:
                out(pal.red("alerts firing: " + ", ".join(firing)))
        if args.events_out:
            out(f"wrote event stream to {args.events_out}")
        if args.tsdb:
            for warning in saved.warnings:
                out(f"WARNING: {warning}")
            out(
                f"folded {len(saved)} series "
                f"({saved.runs} run(s) accumulated) into {args.tsdb}"
            )
    return 0 if not report.failed else 1


VERBS = {
    "cluster": {
        "run": _run, "resume": _resume, "sample-profile": _sample_profile,
    },
}


def run(args, out: common.Out) -> int:
    return VERBS["cluster"][args.cluster_command](args, out)
