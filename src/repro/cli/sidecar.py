"""The sidecar readers: ``repro slo | alerts`` over the ``.tsdb``
monitoring sidecar that ``repro cluster run --tsdb`` accumulates.
"""

from __future__ import annotations

from repro.cli import common


def configure(subparsers) -> None:
    slo = subparsers.add_parser(
        "slo",
        help=(
            "evaluate the per-tenant SLOs recorded in a .tsdb sidecar: "
            "compliance, burn rate and remaining error budget per "
            "objective (written by 'repro cluster run --tsdb')"
        ),
    )
    slo.add_argument(
        "tsdb", help=".tsdb monitoring sidecar (gzipped JSONL)"
    )
    slo.add_argument(
        "--at", type=float, default=None, metavar="T",
        help=(
            "evaluate at simulated time T instead of the sidecar's "
            "watermark"
        ),
    )
    common.add_json(slo)
    slo.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any SLO is out of compliance",
    )
    common.add_color(slo)

    alerts = subparsers.add_parser(
        "alerts",
        help=(
            "print the alert timeline recorded in a .tsdb sidecar: "
            "every pending/firing/resolved transition the rule engine "
            "walked on the simulated clock"
        ),
    )
    alerts.add_argument(
        "tsdb", help=".tsdb monitoring sidecar (gzipped JSONL)"
    )
    common.add_json(alerts)
    alerts.add_argument(
        "--firing", action="store_true",
        help="show only firing transitions",
    )
    common.add_color(alerts)


def _slo(args, out: common.Out) -> int:
    from repro.obs.slo import SloConfig, evaluate_slos, render_slo_table

    store = common.load_tsdb(args.tsdb, out)
    slos = [SloConfig.from_dict(d) for d in store.meta.get("slos") or []]
    at = args.at if args.at is not None else store.watermark
    statuses = evaluate_slos(store, slos, at=at)
    if args.json:
        out(common.to_json({
            "at": at,
            "runs": store.runs,
            "statuses": [s.to_dict() for s in statuses],
        }))
    elif not slos:
        out("(sidecar declares no SLOs)")
    else:
        out(f"slo status at t={at:.3f}s ({store.runs} run(s) accumulated)")
        out(render_slo_table(statuses, pal=common.palette(args)))
    if args.strict and any(not s.healthy for s in statuses):
        return 1
    return 0


def _alerts(args, out: common.Out) -> int:
    from repro.obs.alerts import render_alert_timeline

    store = common.load_tsdb(args.tsdb, out)
    alerts = store.alerts
    if args.firing:
        alerts = [a for a in alerts if a.get("transition") == "firing"]
    if args.json:
        out(common.to_json({"runs": store.runs, "alerts": alerts}))
    else:
        out(render_alert_timeline(
            alerts, pal=common.palette(args), runs=store.runs,
        ))
    return 0


VERBS = {"slo": _slo, "alerts": _alerts}


def run(args, out: common.Out) -> int:
    return VERBS[args.command](args, out)
