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
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Callable, Dict, List, Optional


def _version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__

from repro.bench import (
    addcolumn_ablation,
    buffer_ablation,
    colocation,
    encodings_ablation,
    pruning_ablation,
    fig7_microbenchmark,
    fig8_deserialization,
    fig9_rowgroups,
    fig10_selectivity,
    fig11_wide_records,
    table1_crawl,
    table2_load_times,
)


class Experiment:
    """One runnable experiment: a run() callable plus its formatter."""

    def __init__(self, module, description: str, size_arg: Optional[str]):
        self.module = module
        self.description = description
        #: which run() kwarg the --records/--size option maps onto
        self.size_arg = size_arg

    def run(self, size: Optional[int]) -> str:
        kwargs = {}
        if size is not None:
            if self.size_arg is None:
                raise SystemExit("this experiment has no size parameter")
            kwargs[self.size_arg] = size
        result = self.module.run(**kwargs)
        text = self.module.format_table(result)
        chart = getattr(self.module, "format_chart", None)
        if chart is not None:
            text += "\n\n" + chart(result)
        return text


EXPERIMENTS: Dict[str, Experiment] = {
    "fig7": Experiment(
        fig7_microbenchmark,
        "Figure 7: scan microbenchmark (TXT/SEQ/CIF/RCFile)",
        "records",
    ),
    "fig8": Experiment(
        fig8_deserialization,
        "Figure 8: deserialization cost vs typed fraction",
        "records",
    ),
    "fig9": Experiment(
        fig9_rowgroups,
        "Figure 9: RCFile row-group size tuning",
        "records",
    ),
    "fig10": Experiment(
        fig10_selectivity,
        "Figure 10: CIF vs CIF-SL vs predicate selectivity",
        "records",
    ),
    "fig11": Experiment(
        fig11_wide_records,
        "Figure 11: bandwidth vs number of columns",
        "total_bytes",
    ),
    "table1": Experiment(
        table1_crawl,
        "Table 1: the 11-layout crawl comparison",
        "records",
    ),
    "table2": Experiment(
        table2_load_times,
        "Table 2: load times (SEQ -> CIF/CIF-SL/RCFile)",
        "records",
    ),
    "colocation": Experiment(
        colocation,
        "Section 6.4: co-location (CPP on/off)",
        "records",
    ),
    "addcolumn": Experiment(
        addcolumn_ablation,
        "Section 4.3: adding a column, CIF vs RCFile",
        "records",
    ),
    "buffers": Experiment(
        buffer_ablation,
        "Ablation: io.file.buffer.size sensitivity sweep",
        "records",
    ),
    "encodings": Experiment(
        encodings_ablation,
        "Ablation: per-column lightweight encodings (rle/delta/dcsl)",
        "records",
    ),
    "pruning": Experiment(
        pruning_ablation,
        "Ablation: zone-map split pruning, clustered vs shuffled",
        "records",
    ),
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
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    subcommands = parser.add_subparsers(dest="command")

    subcommands.add_parser("list", help="list available experiments")

    report = subcommands.add_parser(
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
    report.add_argument(
        "--out", default=None,
        help="write to a file instead of stdout",
    )
    report.add_argument(
        "--json", action="store_true",
        help=(
            "emit the structured summary as JSON instead of the ASCII "
            "render (requires a trace argument)"
        ),
    )
    report.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI color (also honored: NO_COLOR, TERM=dumb)",
    )
    report.add_argument(
        "--quiet", action="store_true",
        help="print only the header, warnings and job counters",
    )

    perf = subcommands.add_parser(
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
        "--top", type=int, default=30,
        help="path steps to print (default 30)",
    )
    tl = perf_sub.add_parser(
        "timeline",
        help="per-(node, slot) Gantt chart of task attempts",
    )
    tl.add_argument("trace", help="flight-recorder JSONL")
    tl.add_argument(
        "--width", type=int, default=64, help="chart width in characters"
    )
    tl.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI color (also honored: NO_COLOR, TERM=dumb)",
    )
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
    po.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI color (also honored: NO_COLOR, TERM=dumb)",
    )
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
        "--rel-tol", type=float, default=0.01,
        help="relative noise tolerance (default 0.01)",
    )
    pd.add_argument(
        "--operators", action="store_true",
        help=(
            "also attribute the time delta to the operator and "
            "vecdecode kernel responsible, per engine"
        ),
    )

    bench = subcommands.add_parser(
        "bench",
        help=(
            "benchmark regression pipeline: run scenarios at smoke size "
            "into BENCH_*.json and check them against committed baselines"
        ),
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_sub.add_parser("list", help="list scenarios and smoke sizes")
    brun = bench_sub.add_parser(
        "run", help="run scenarios and write canonical BENCH_*.json files"
    )
    brun.add_argument(
        "--out-dir", default="bench-out",
        help="directory for BENCH_*.json (default bench-out)",
    )
    brun.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    brun.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help=(
            "also record each scenario under a flight recorder and "
            "write BENCH_<name>.trace.jsonl here"
        ),
    )
    bcheck = bench_sub.add_parser(
        "check",
        help="compare fresh results against baselines; exit 1 on regression",
    )
    bcheck.add_argument(
        "--baseline-dir", default="benchmarks/baselines",
        help="committed baselines (default benchmarks/baselines)",
    )
    bcheck.add_argument(
        "--fresh-dir", default=None, metavar="DIR",
        help=(
            "load fresh results from an earlier 'bench run' instead of "
            "re-running scenarios now"
        ),
    )
    bcheck.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="check only this scenario (repeatable; default: all baselines)",
    )
    bcheck.add_argument(
        "--rel-tol", type=float, default=None,
        help="relative tolerance for directional metrics (default 0.02)",
    )
    bcheck.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI color (also honored: NO_COLOR, TERM=dumb)",
    )
    bcheck.add_argument(
        "--quiet", action="store_true",
        help="suppress per-scenario OK lines; only failures and the verdict",
    )

    check = subcommands.add_parser(
        "check",
        help=(
            "differential correctness harness: cross-format oracle, "
            "metamorphic invariants, deterministic fuzzing (repro.check)"
        ),
    )
    check_sub = check.add_subparsers(dest="check_command", required=True)
    crun = check_sub.add_parser(
        "run",
        help=(
            "run one seeded case through the differential matrix; with "
            "--plant-corruption, corrupt a block per leg and require the "
            "corruption to be caught, then shrink to a minimal repro"
        ),
    )
    crun.add_argument(
        "--seed", type=int, default=7,
        help="case seed (seed N always generates the same case)",
    )
    crun.add_argument(
        "--matrix", choices=["quick", "full"], default="full",
        help="matrix breadth (default full)",
    )
    crun.add_argument(
        "--rows", type=int, default=None,
        help="override the generated record count",
    )
    crun.add_argument(
        "--plant-corruption", action="store_true",
        help=(
            "corrupt one data block (every replica, via the fault "
            "injector) in each leg; exit 0 only if every leg detects it"
        ),
    )
    cfuzz = check_sub.add_parser(
        "fuzz",
        help="run many generated cases; shrink + save any failure",
    )
    cfuzz.add_argument(
        "--budget", type=int, default=200,
        help="number of cases to run (default 200)",
    )
    cfuzz.add_argument(
        "--seed", type=int, default=0,
        help="base seed; case i uses seed base+i (default 0)",
    )
    cfuzz.add_argument(
        "--matrix", choices=["quick", "full"], default="quick",
        help="matrix per case (default quick)",
    )
    cfuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="where to save shrunk failures (default tests/corpus)",
    )
    cfuzz.add_argument(
        "--keep-going", action="store_true",
        help="keep fuzzing after the first failure",
    )
    cshrink = check_sub.add_parser(
        "shrink",
        help="minimize a failing case (from --case JSON or --seed)",
    )
    group = cshrink.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--case", default=None, metavar="FILE",
        help="a saved corpus case to minimize",
    )
    group.add_argument(
        "--seed", type=int, default=None,
        help="generate the case from this seed and minimize it",
    )
    cshrink.add_argument(
        "--matrix", choices=["quick", "full"], default="quick",
        help="oracle matrix used as the shrinking predicate",
    )
    cshrink.add_argument(
        "--plant-corruption", action="store_true",
        help=(
            "shrink against the corruption-detection predicate instead "
            "of an oracle failure"
        ),
    )
    cshrink.add_argument(
        "--max-evals", type=int, default=200,
        help="shrinker evaluation budget (default 200)",
    )
    cshrink.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the minimized case JSON here",
    )
    ccorpus = check_sub.add_parser(
        "corpus",
        help="list (or --replay) the saved regression corpus",
    )
    ccorpus.add_argument(
        "--dir", default=None, metavar="DIR",
        help="corpus directory (default tests/corpus)",
    )
    ccorpus.add_argument(
        "--replay", action="store_true",
        help="re-run every corpus case; exit 1 if any finding resurfaces",
    )
    ccorpus.add_argument(
        "--matrix", choices=["quick", "full"], default="quick",
        help="matrix used for replay (default quick)",
    )

    experiment = subcommands.add_parser(
        "experiment", help="run one experiment (or 'all')"
    )
    experiment.add_argument(
        "name", choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    experiment.add_argument(
        "--records", "--size", dest="size", type=int, default=None,
        help="dataset size override (records, or bytes for fig11)",
    )
    experiment.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help=(
            "run under a flight recorder and write the JSONL artifact "
            "(spans, metric registry, sim metrics, job counters) here"
        ),
    )
    experiment.add_argument(
        "--gzip", action="store_true",
        help=(
            "gzip the --trace-out artifact (a .gz suffix implies this; "
            "repro report|perf|export|explain load either framing)"
        ),
    )
    experiment.add_argument(
        "--faults", dest="faults", default=None, metavar="PLAN",
        help=(
            "run under a fault plan (JSON, see docs/fault_tolerance.md): "
            "every job executed by the experiment rides through the "
            "plan's node kills, slow nodes, corruption and read errors"
        ),
    )

    fsck = subcommands.add_parser(
        "fsck",
        help=(
            "build a demo CIF dataset, optionally apply a fault plan, "
            "and print the filesystem check report"
        ),
    )
    fsck.add_argument(
        "path", nargs="?", default="/data/crawl-cif",
        help="dataset path to create and check (default /data/crawl-cif)",
    )
    fsck.add_argument(
        "--records", type=int, default=300,
        help="crawl records to load (default 300)",
    )
    fsck.add_argument(
        "--nodes", type=int, default=8,
        help="datanodes in the simulated cluster (default 8)",
    )
    fsck.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="apply every event of this fault plan before checking",
    )
    fsck.add_argument(
        "--no-cpp", action="store_true",
        help="load without the ColumnPlacementPolicy (no co-location)",
    )
    fsck.add_argument(
        "--repair", action="store_true",
        help=(
            "after applying faults, run the block scanner (evict corrupt "
            "replicas) and a re-replication pass before reporting"
        ),
    )
    fsck.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help=(
            "run under a flight recorder so the load/fault/repair spans "
            "(replica.failover, colocation.restored, ...) land in a "
            "RunReport, like experiment runs"
        ),
    )
    fsck.add_argument(
        "--gzip", action="store_true",
        help="gzip the --trace-out artifact (a .gz suffix implies this)",
    )

    export = subcommands.add_parser(
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
    export.add_argument(
        "--out", default=None, metavar="PATH",
        help="write to a file instead of stdout",
    )
    export.add_argument(
        "--check", action="store_true",
        help=(
            "validate the export (chrome: balanced begin/end pairs, "
            "monotonic timestamps; prom: re-parse the exposition); "
            "exit 1 on problems"
        ),
    )
    export.add_argument(
        "--since", type=float, default=None, metavar="T",
        help=(
            "with a .tsdb sidecar, export only samples at simulated "
            "time >= T"
        ),
    )
    export.add_argument(
        "--until", type=float, default=None, metavar="T",
        help=(
            "with a .tsdb sidecar, export only samples at simulated "
            "time <= T"
        ),
    )

    top = subcommands.add_parser(
        "top",
        help=(
            "live job monitor: run the Section 6.3 crawl job (or replay "
            "a recording) with streaming progress frames from the event "
            "bus — per-node slot occupancy, phase bars, faults"
        ),
    )
    top.add_argument(
        "--records", type=int, default=300,
        help="crawl records to load for the demo job (default 300)",
    )
    top.add_argument(
        "--nodes", type=int, default=8,
        help="datanodes in the simulated cluster (default 8)",
    )
    top.add_argument(
        "--refresh", type=float, default=1.0,
        help="seconds of wall time between frames (default 1.0)",
    )
    top.add_argument(
        "--frame-every", type=int, default=40, metavar="N",
        help="with --replay, emit a frame every N events (default 40)",
    )
    top.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="run the job under this fault plan (injections show live)",
    )
    top.add_argument(
        "--replay", default=None, metavar="TRACE",
        help=(
            "replay a recorded run's events through the monitor instead "
            "of running a job"
        ),
    )
    top.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help="also write the run's flight recording here",
    )
    top.add_argument(
        "--gzip", action="store_true",
        help="gzip the --trace-out artifact (a .gz suffix implies this)",
    )
    top.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI color (also honored: NO_COLOR, TERM=dumb)",
    )
    top.add_argument(
        "--quiet", action="store_true",
        help="emit only the final summary frame",
    )

    cluster = subcommands.add_parser(
        "cluster",
        help=(
            "multi-tenant load testing: run seeded open-loop traffic "
            "(Poisson arrivals of crawl/analytics/point-query jobs) "
            "through the fair-share/FIFO resource manager and report "
            "per-tenant latency percentiles and slot utilization"
        ),
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    crun_cluster = cluster_sub.add_parser(
        "run",
        help=(
            "run a traffic profile (JSON; default: the canonical "
            "3-tenant mixed workload) and print the latency report"
        ),
    )
    crun_cluster.add_argument(
        "profile", nargs="?", default=None,
        help=(
            "traffic-profile JSON (see docs/cluster.md; default: the "
            "built-in 3-tenant sample)"
        ),
    )
    crun_cluster.add_argument(
        "--policy", choices=["fair", "fifo"], default=None,
        help="override the profile's scheduling policy",
    )
    crun_cluster.add_argument(
        "--compare", action="store_true",
        help=(
            "run the same trace under both fair and fifo and print the "
            "per-tenant p95 ratios"
        ),
    )
    crun_cluster.add_argument(
        "--json", action="store_true",
        help="emit the structured report as JSON instead of the table",
    )
    crun_cluster.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="run the load under this fault plan (node kills mid-load)",
    )
    crun_cluster.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help=(
            "record the run's event stream + metrics as a flight-"
            "recorder JSONL artifact (replayable with repro top)"
        ),
    )
    crun_cluster.add_argument(
        "--gzip", action="store_true",
        help="gzip the --trace-out artifact (a .gz suffix implies this)",
    )
    crun_cluster.add_argument(
        "--speculate", action="store_true",
        help=(
            "enable cluster-level speculative execution (progress-based "
            "straggler cloning) regardless of the profile's setting"
        ),
    )
    crun_cluster.add_argument(
        "--wal", default=None, metavar="PATH",
        help=(
            "journal every scheduling decision to this write-ahead log "
            "(JSONL; .gz suffix gzips) for crash recovery via "
            "'repro cluster resume'"
        ),
    )
    crun_cluster.add_argument(
        "--tsdb", default=None, metavar="PATH",
        help=(
            "fold the run into the continuous-monitoring time-series "
            "store and persist it as a merge-accumulating sidecar "
            "(query with 'repro slo' / 'repro alerts' / 'repro export "
            "prom')"
        ),
    )
    crun_cluster.add_argument(
        "--events-out", dest="events_out", default=None, metavar="PATH",
        help=(
            "stream the raw event bus to a JSONL file (buffered writes "
            "— cluster traffic is high-volume)"
        ),
    )
    crun_cluster.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI color (also honored: NO_COLOR, TERM=dumb)",
    )
    crun_cluster.add_argument(
        "--crash-after", type=int, default=None, metavar="N",
        help=(
            "tear the manager down after journaling N WAL records "
            "(simulated crash at an exact record boundary; needs --wal)"
        ),
    )
    cresume = cluster_sub.add_parser(
        "resume",
        help=(
            "recover a crashed 'cluster run --wal' by verified "
            "deterministic replay: rebuilds the run from the journal's "
            "meta header, checks every surviving record, and carries on "
            "to the report the uninterrupted run would have produced"
        ),
    )
    cresume.add_argument(
        "--wal", required=True, metavar="PATH",
        help="the write-ahead log left behind by the crashed run",
    )
    cresume.add_argument(
        "--wal-out", default=None, metavar="PATH",
        help="journal the complete replay to a fresh WAL here",
    )
    cresume.add_argument(
        "--json", action="store_true",
        help="emit the structured report as JSON instead of the table",
    )
    cprofile = cluster_sub.add_parser(
        "sample-profile",
        help="print the canonical 3-tenant traffic profile as JSON",
    )
    cprofile.add_argument(
        "--out", default=None, metavar="PATH",
        help="write to a file instead of stdout",
    )

    slo = subcommands.add_parser(
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
    slo.add_argument(
        "--json", action="store_true",
        help="emit the statuses as JSON instead of the table",
    )
    slo.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any SLO is out of compliance",
    )
    slo.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI color (also honored: NO_COLOR, TERM=dumb)",
    )

    alerts = subcommands.add_parser(
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
    alerts.add_argument(
        "--json", action="store_true",
        help="emit the transitions as JSON instead of the table",
    )
    alerts.add_argument(
        "--firing", action="store_true",
        help="show only firing transitions",
    )
    alerts.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI color (also honored: NO_COLOR, TERM=dumb)",
    )

    explain = subcommands.add_parser(
        "explain",
        help=(
            "storage-introspection advisor: scan a freshly built dataset "
            "(or analyze a recorded trace), render the per-split/"
            "per-column access heatmap, reconcile it exactly against the "
            "I/O probes, and emit counter-backed recommendations"
        ),
    )
    explain.add_argument(
        "path", nargs="?", default="/data/crawl-cif",
        help="dataset path to build and explain (default /data/crawl-cif)",
    )
    explain.add_argument(
        "--records", type=int, default=300,
        help="crawl records to load (default 300)",
    )
    explain.add_argument(
        "--nodes", type=int, default=8,
        help="datanodes in the simulated cluster (default 8)",
    )
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
    explain.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="apply every event of this fault plan before scanning",
    )
    explain.add_argument(
        "--no-cpp", action="store_true",
        help="load without the ColumnPlacementPolicy (no co-location)",
    )
    explain.add_argument(
        "--job", default=None, metavar="TRACE",
        help=(
            "analyze a recorded flight recording's storage counters "
            "instead of running a scan (layouts inferred from counters)"
        ),
    )
    explain.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help="also write the scan's flight recording here",
    )
    explain.add_argument(
        "--gzip", action="store_true",
        help="gzip the --trace-out artifact (a .gz suffix implies this)",
    )
    explain.add_argument(
        "--no-color", action="store_true",
        help="disable ANSI color (also honored: NO_COLOR, TERM=dumb)",
    )
    explain.add_argument(
        "--quiet", action="store_true",
        help="suppress the heatmap grid; only reconciliation and advice",
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
    return parser


def _run_fsck(args, out: Callable[[str], None]) -> int:
    """``repro fsck``: exercise fault injection + repair, report health.

    The simulator has no persistent namespace, so the command builds a
    fresh CPP-placed CIF dataset at ``path``, fires the fault plan (if
    given) against it — letting auto-repair and re-replication react —
    and renders the resulting :class:`~repro.hdfs.FsckReport`.  Exit
    status 0 means healthy (every block fully replicated with at least
    one clean copy of every replica).
    """
    from repro.bench import harness
    from repro.core import write_dataset
    from repro.faults import FaultInjector, FaultPlan
    from repro.obs import current_obs
    from repro.workloads.crawl import crawl_records, crawl_schema

    plan = None
    if args.faults:
        try:
            plan = FaultPlan.load(args.faults)
        except (OSError, ValueError, TypeError) as exc:
            out(f"error: cannot load fault plan {args.faults}: {exc}")
            return 1

    recorder = None
    if args.trace_out:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(
            meta={"command": "fsck", "path": args.path, "nodes": args.nodes}
        )

    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(recorder.activate())
            stack.enter_context(
                recorder.tracer.span("fsck", kind="fsck", path=args.path)
            )
        fs = harness.cluster_fs(num_nodes=args.nodes)
        if not args.no_cpp:
            fs.use_column_placement()
        with current_obs().tracer.span("load", kind="load", path=args.path):
            write_dataset(
                fs, args.path, crawl_schema(), crawl_records(args.records),
                split_bytes=harness.MICRO_SPLIT_BYTES,
            )
        if plan is not None:
            fired = FaultInjector(fs, plan).fire_all()
            out(f"applied {fired} fault event(s) from {args.faults}")
            out("")
        if args.repair:
            with current_obs().tracer.span("repair", kind="repair"):
                evicted = fs.scrub()
                created = fs.repair()
            out(f"repair: evicted {evicted} corrupt replica(s), "
                f"created {created} new replica(s)")
            out("")
        report = fs.fsck_report()
    out(report.render())
    if recorder is not None:
        recorder.meta["healthy"] = report.healthy
        try:
            recorder.report().write_jsonl(
                args.trace_out, gzipped=args.gzip or None
            )
        except OSError as exc:
            out(f"error: cannot write flight recording: {exc}")
            return 1
        out(f"wrote flight recording to {args.trace_out}")
    return 0 if report.healthy else 1


def _load_trace(path: str, out: Callable[[str], None]):
    """Load a flight recording or report the failure (None on error)."""
    from repro.obs import RunReport

    try:
        return RunReport.load(path)
    except (OSError, ValueError) as exc:
        out(f"error: cannot read flight recording {path}: {exc}")
        return None


def _load_plan(path: Optional[str], out: Callable[[str], None]):
    """Load a fault plan; returns (plan, ok) so None stays valid."""
    if not path:
        return None, True
    from repro.faults import FaultPlan

    try:
        return FaultPlan.load(path), True
    except (OSError, ValueError, TypeError) as exc:
        out(f"error: cannot load fault plan {path}: {exc}")
        return None, False


def _run_export(args, out: Callable[[str], None]) -> int:
    """``repro export``: recordings -> Chrome trace / Prometheus text."""
    import json as _json

    from repro.obs import (
        chrome_trace,
        parse_prometheus_text,
        prometheus_text,
        validate_chrome_trace,
    )
    from repro.obs.tsdb import TimeSeriesStore, tsdb_prometheus_text

    # A .tsdb monitoring sidecar exports directly (prom only), with
    # optional --since/--until time-range selection.
    store = None
    try:
        store, store_warnings = TimeSeriesStore.load(args.trace)
    except (OSError, ValueError):
        store = None
    if store is not None:
        if args.format != "prom":
            out("error: .tsdb sidecars export as 'prom' only")
            return 1
        for warning in store_warnings:
            out(f"WARNING: {warning}")
        payload = tsdb_prometheus_text(
            store, since=args.since, until=args.until
        )
        problems = []
        if args.check:
            try:
                parse_prometheus_text(payload)
            except ValueError as exc:
                problems = [str(exc)]
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            out(f"wrote {args.out}")
        else:
            out(payload)
        for problem in problems:
            out(f"INVALID: {problem}")
        return 1 if problems else 0

    if args.since is not None or args.until is not None:
        out("error: --since/--until apply to .tsdb sidecars only")
        return 1
    report = _load_trace(args.trace, out)
    if report is None:
        return 1
    for warning in report.warnings:
        out(f"WARNING: {warning}")
    problems: List[str] = []
    if args.format == "chrome":
        trace = chrome_trace(report)
        if args.check:
            problems = validate_chrome_trace(trace)
        payload = _json.dumps(trace, sort_keys=True)
    else:
        payload = prometheus_text(report)
        if args.check:
            try:
                parse_prometheus_text(payload)
            except ValueError as exc:
                problems = [str(exc)]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        out(f"wrote {args.out}")
    else:
        out(payload)
    for problem in problems:
        out(f"INVALID: {problem}")
    return 1 if problems else 0


def _run_top(args, out: Callable[[str], None]) -> int:
    """``repro top``: live (or replayed) event-bus job monitoring."""
    from repro.obs import EventBus, FlightRecorder, LiveMonitor
    from repro.util.term import palette

    tty = bool(getattr(sys.stdout, "isatty", lambda: False)())
    pal = palette(args.no_color)

    if args.replay:
        report = _load_trace(args.replay, out)
        if report is None:
            return 1
        for warning in report.warnings:
            out(pal.yellow(f"WARNING: {warning}"))
        monitor = LiveMonitor(
            out, pal=pal, tty=tty, quiet=args.quiet,
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

    from repro.bench import harness
    from repro.core import write_dataset
    from repro.core.cif import ColumnInputFormat
    from repro.mapreduce.runner import run_job
    from repro.workloads.crawl import crawl_records, crawl_schema
    from repro.workloads.jobs import distinct_content_types_job

    plan, ok = _load_plan(args.faults, out)
    if not ok:
        return 1
    dataset = "/data/top-cif"
    recorder = FlightRecorder(
        meta={"command": "top", "records": args.records, "nodes": args.nodes}
    )
    monitor = LiveMonitor(
        out, refresh=args.refresh, pal=pal, tty=tty, quiet=args.quiet
    )
    monitor.attach(recorder.bus)
    with recorder.activate():
        fs = harness.cluster_fs(num_nodes=args.nodes)
        fs.use_column_placement()
        with recorder.tracer.span("load", kind="load", dataset=dataset):
            write_dataset(
                fs, dataset, crawl_schema(), crawl_records(args.records),
                split_bytes=harness.MICRO_SPLIT_BYTES,
            )
        job = distinct_content_types_job(
            ColumnInputFormat(dataset, columns=["url", "metadata"]),
            num_reducers=min(4, args.nodes),
        )
        result = run_job(fs, job, faults=plan)
    monitor.final()
    out(f"job finished: {result.total_time:.3f}s simulated, "
        f"{len(result.output)} output row(s)")
    if args.trace_out:
        try:
            recorder.report().write_jsonl(
                args.trace_out, gzipped=args.gzip or None
            )
        except OSError as exc:
            out(f"error: cannot write flight recording: {exc}")
            return 1
        out(f"wrote flight recording to {args.trace_out}")
    return 0


def _run_cluster(args, out: Callable[[str], None]) -> int:
    """``repro cluster``: seeded multi-tenant load testing."""
    import json as _json

    from repro.cluster import TrafficProfile, run_traffic, sample_profile

    if args.cluster_command == "resume":
        return _resume_cluster(args, out)

    if args.cluster_command == "sample-profile":
        payload = _json.dumps(
            sample_profile().to_dict(), indent=2, sort_keys=True
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            out(f"wrote {args.out}")
        else:
            out(payload)
        return 0

    if args.profile:
        try:
            profile = TrafficProfile.load(args.profile)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out(f"error: cannot load traffic profile {args.profile}: {exc}")
            return 1
    else:
        profile = sample_profile()
    plan, ok = _load_plan(args.faults, out)
    if not ok:
        return 1
    if args.speculate:
        from dataclasses import replace as _replace

        profile.speculation = _replace(profile.speculation, enabled=True)
    if args.crash_after is not None and not args.wal:
        out("error: --crash-after needs --wal (nothing would survive)")
        return 1
    if args.wal and args.compare:
        out("error: --wal journals a single run; drop --compare")
        return 1
    if args.compare and (args.tsdb or args.events_out):
        out("error: --tsdb/--events-out record a single run; drop --compare")
        return 1

    if args.compare:
        # The identical arrival trace under both policies; faults are
        # re-instantiated per run so each sees the full plan.
        reports = {}
        for policy in ("fifo", "fair"):
            reports[policy] = run_traffic(profile, policy=policy, faults=plan)
        if args.json:
            out(_json.dumps(
                {name: r.to_dict() for name, r in reports.items()},
                indent=2, sort_keys=True,
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
                    f"{fair_summary.p95 / fifo_p95:.3f}"
                    if fifo_p95 else "n/a"
                )
                out(f"  {tenant:<12} {ratio}")
        return 0 if not any(r.failed for r in reports.values()) else 1

    recorder = None
    if args.trace_out:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(meta={
            "command": "cluster",
            "policy": args.policy or profile.policy,
            "seed": profile.seed,
        })

    # Continuous monitoring: fold the event stream into a time-series
    # store whenever a sidecar was asked for or the profile declares
    # SLOs.  Strictly an observer — the simulated run is identical with
    # or without it (the cluster_slo bench gates that).
    resolved_policy = profile.cluster_policy(args.policy)
    monitor = None
    run_obs = None
    bus = None
    if args.tsdb or resolved_policy.slos or resolved_policy.alerts:
        from repro.obs.alerts import ClusterMonitor

        if recorder is not None:
            bus = recorder.bus
        else:
            from repro.obs import (
                EventBus, MetricRegistry, NULL_TRACER, Observability,
            )

            bus = EventBus()
            run_obs = Observability(
                NULL_TRACER, MetricRegistry(), enabled=True, bus=bus,
            )
        monitor = ClusterMonitor.for_policy(resolved_policy).attach(bus)
    sink = None
    if args.events_out:
        from repro.obs import JsonlEventSink

        if bus is None:
            if recorder is not None:
                bus = recorder.bus
            else:
                from repro.obs import (
                    EventBus, MetricRegistry, NULL_TRACER, Observability,
                )

                bus = EventBus()
                run_obs = Observability(
                    NULL_TRACER, MetricRegistry(), enabled=True, bus=bus,
                )
        try:
            sink = JsonlEventSink(args.events_out, flush_every=64)
        except OSError as exc:
            out(f"error: cannot open {args.events_out}: {exc}")
            return 1
        sink.attach(bus)
    wal = None
    if args.wal:
        from repro.cluster import ClusterWAL

        try:
            wal = ClusterWAL(path=args.wal, crash_after=args.crash_after)
        except (OSError, ValueError) as exc:
            out(f"error: cannot open WAL {args.wal}: {exc}")
            return 1
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(recorder.activate())
        if sink is not None:
            stack.enter_context(sink)
        try:
            report = run_traffic(
                profile, policy=args.policy, obs=run_obs, faults=plan,
                wal=wal,
            )
        except Exception as exc:
            from repro.cluster import SimulatedCrash

            if not isinstance(exc, SimulatedCrash):
                raise
            out(f"simulated crash: {exc}")
            out(
                f"{len(wal.records)} record(s) journaled to {args.wal}; "
                f"recover with: repro cluster resume --wal {args.wal}"
            )
            return 0
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
            return 1
        if args.tsdb:
            try:
                saved = monitor.save(args.tsdb)
            except OSError as exc:
                out(f"error: cannot write tsdb sidecar {args.tsdb}: {exc}")
                return 1
    if args.json:
        payload = report.to_dict()
        if monitor is not None:
            payload["slo"] = {
                "statuses": [s.to_dict() for s in statuses],
                "alerts": list(monitor.store.alerts),
            }
        out(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        out(report.render())
        if monitor is not None and statuses:
            from repro.obs.slo import render_slo_table
            from repro.util.term import palette

            pal = palette(args.no_color)
            out("")
            out(render_slo_table(statuses, pal=pal))
            firing = monitor.engine.firing()
            if firing:
                out(pal.red("alerts firing: " + ", ".join(firing)))
        if args.events_out:
            out(f"wrote event stream to {args.events_out}")
        if args.tsdb and monitor is not None:
            out(
                f"folded {len(saved)} series "
                f"({saved.runs} run(s) accumulated) into {args.tsdb}"
            )
    if recorder is not None:
        try:
            recorder.report().write_jsonl(
                args.trace_out, gzipped=args.gzip or None
            )
        except OSError as exc:
            out(f"error: cannot write flight recording: {exc}")
            return 1
        out(f"wrote flight recording to {args.trace_out}")
    return 0 if not report.failed else 1


def _load_tsdb(path: str, out: Callable[[str], None]):
    """Load a .tsdb sidecar or report the failure (None on error)."""
    from repro.obs.tsdb import TimeSeriesStore

    try:
        store, warnings = TimeSeriesStore.load(path)
    except (OSError, ValueError) as exc:
        out(f"error: cannot read tsdb sidecar {path}: {exc}")
        return None
    for warning in warnings:
        out(f"WARNING: {warning}")
    return store


def _run_slo(args, out: Callable[[str], None]) -> int:
    """``repro slo``: evaluate a sidecar's declared SLOs."""
    import json as _json

    from repro.obs.slo import SloConfig, evaluate_slos, render_slo_table
    from repro.util.term import palette

    store = _load_tsdb(args.tsdb, out)
    if store is None:
        return 1
    declared = store.meta.get("slos") or []
    slos = [SloConfig.from_dict(d) for d in declared]
    at = args.at if args.at is not None else store.watermark
    statuses = evaluate_slos(store, slos, at=at)
    if args.json:
        out(_json.dumps(
            {
                "at": at,
                "runs": store.runs,
                "statuses": [s.to_dict() for s in statuses],
            },
            indent=2, sort_keys=True,
        ))
    elif not slos:
        out("(sidecar declares no SLOs)")
    else:
        out(f"slo status at t={at:.3f}s ({store.runs} run(s) accumulated)")
        out(render_slo_table(statuses, pal=palette(args.no_color)))
    if args.strict and any(not s.healthy for s in statuses):
        return 1
    return 0


def _run_alerts(args, out: Callable[[str], None]) -> int:
    """``repro alerts``: print a sidecar's alert timeline."""
    import json as _json

    from repro.obs.alerts import render_alert_timeline
    from repro.util.term import palette

    store = _load_tsdb(args.tsdb, out)
    if store is None:
        return 1
    alerts = store.alerts
    if args.firing:
        alerts = [a for a in alerts if a.get("transition") == "firing"]
    if args.json:
        out(_json.dumps(
            {"runs": store.runs, "alerts": alerts},
            indent=2, sort_keys=True,
        ))
    else:
        out(render_alert_timeline(
            alerts, pal=palette(args.no_color), runs=store.runs,
        ))
    return 0


def _resume_cluster(args, out: Callable[[str], None]) -> int:
    """``repro cluster resume``: verified replay from a WAL."""
    import json as _json

    from repro.cluster import WalDivergence, resume_from_wal

    try:
        report, wal = resume_from_wal(args.wal, wal_out=args.wal_out)
    except WalDivergence as exc:
        out(f"error: {exc}")
        return 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out(f"error: cannot resume from {args.wal}: {exc}")
        return 1
    if not args.json:
        for warning in wal.warnings:
            out(f"warning: {warning}")
        out(
            f"resumed from {args.wal}: verified {wal.verified} journaled "
            f"record(s), replay produced {len(wal.records)}"
        )
        if args.wal_out:
            out(f"wrote complete replay WAL to {args.wal_out}")
    if args.json:
        out(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        out(report.render())
    return 0 if not report.failed else 1


def _explain_scan(fs, input_format, touch_columns, profile=False) -> None:
    """Scan every split on a node that hosts it, as map tasks would.

    ``harness.scan`` reads the whole dataset from one node, which makes
    every co-located split look remote; the advisor's balancer rule
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
    args, out, pal, heatmap, layouts, problems, recommendations
) -> int:
    """Shared tail of ``repro explain``: heatmap, verdict, advice."""
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


def _run_explain(args, out: Callable[[str], None]) -> int:
    """``repro explain``: the storage-introspection advisor."""
    from repro.obs import (
        DatasetHeatmap,
        FlightRecorder,
        advise,
        column_layouts,
        infer_layouts,
        reconcile,
    )
    from repro.util.term import palette

    pal = palette(args.no_color)

    if args.job:
        report = _load_trace(args.job, out)
        if report is None:
            return 1
        for warning in report.warnings:
            out(pal.yellow(f"WARNING: {warning}"))
        heatmap = DatasetHeatmap.from_registry(args.path, report.registry)
        if not heatmap.cells:
            out(f"error: {args.job} records no storage accesses under "
                f"{args.path} — pass the dataset path the job scanned")
            return 1
        layouts = infer_layouts(heatmap)
        # Arbitrary job traces may mix eager and lazy scans, so the
        # lazy-materialization cross-check is not applicable.
        problems = reconcile(
            heatmap, report, scan_only=False, check_lazy=False
        )
        recommendations = advise(heatmap, layouts=layouts)
        if args.analyze:
            from repro.obs import operator_profiles, render_operators
            from repro.obs.advisor import annotate_with_profiles

            annotate_with_profiles(
                recommendations, operator_profiles(report)
            )
            out(render_operators(report, pal=pal))
            out("")
        return _emit_explain(
            args, out, pal, heatmap, layouts, problems, recommendations
        )

    from repro.bench import harness
    from repro.core import write_dataset
    from repro.core.cif import ColumnInputFormat
    from repro.core.columnio import ColumnSpec
    from repro.core.cof import split_dirs_of
    from repro.faults import FaultInjector

    plan, ok = _load_plan(args.faults, out)
    if not ok:
        return 1
    from repro.workloads.crawl import crawl_records, crawl_schema

    touch = [c.strip() for c in args.touch.split(",") if c.strip()]
    columns = None
    if args.columns:
        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    recorder = FlightRecorder(meta={
        "command": "explain", "dataset": args.path,
        "layout": args.layout, "records": args.records,
    })
    with recorder.activate():
        fs = harness.cluster_fs(num_nodes=args.nodes)
        if not args.no_cpp:
            fs.use_column_placement()
        with recorder.tracer.span("load", kind="load", dataset=args.path):
            write_dataset(
                fs, args.path, crawl_schema(), crawl_records(args.records),
                default_spec=ColumnSpec(format=args.layout, codec=args.codec),
                split_bytes=harness.MICRO_SPLIT_BYTES,
            )
        if plan is not None:
            fired = FaultInjector(fs, plan).fire_all()
            out(f"applied {fired} fault event(s) from {args.faults}")
        try:
            _explain_scan(
                fs,
                ColumnInputFormat(
                    args.path, columns=columns, lazy=not args.eager
                ),
                touch,
                profile=args.analyze,
            )
        except (KeyError, ValueError) as exc:
            out(f"error: scan failed: {exc}")
            return 1
        # CPP colocation health gauges, straight off the namenode.
        split_dirs = split_dirs_of(fs, args.path)
        colocated = sum(
            1 for d in split_dirs if fs.split_dir_colocated(d)
        )
        fraction = colocated / len(split_dirs) if split_dirs else 1.0
        recorder.registry.gauge("colocation.split_dirs").set(len(split_dirs))
        recorder.registry.gauge(
            "colocation.split_dirs_colocated"
        ).set(colocated)
        recorder.registry.gauge(
            "colocation.split_dir_fraction"
        ).set(fraction)
    report = recorder.report()
    heatmap = DatasetHeatmap.from_registry(args.path, report.registry)
    accumulated = heatmap.save(fs)  # merge into the .heatmap sidecar
    layouts = column_layouts(fs, args.path)
    codecs = {
        name: args.codec
        for name, layout in layouts.items() if layout == "cblock"
    }
    # Reconciliation is against THIS run's probes; advice looks at the
    # accumulated sidecar picture (identical on a fresh filesystem).
    problems = reconcile(heatmap, report, scan_only=True, check_lazy=True)
    recommendations = advise(
        accumulated, layouts=layouts, codecs=codecs,
        colocated_fraction=fraction,
    )
    if args.analyze:
        from repro.obs import operator_profiles, render_operators
        from repro.obs.advisor import annotate_with_profiles

        annotate_with_profiles(recommendations, operator_profiles(report))
        out(render_operators(report, pal=pal))
        out("")
    status = _emit_explain(
        args, out, pal, accumulated, layouts, problems, recommendations
    )
    if args.trace_out:
        try:
            report.write_jsonl(args.trace_out, gzipped=args.gzip or None)
        except OSError as exc:
            out(f"error: cannot write flight recording: {exc}")
            return 1
        out(f"wrote flight recording to {args.trace_out}")
    return status


def _run_perf(args, out: Callable[[str], None]) -> int:
    """``repro perf``: the analysis layer over saved recordings."""
    from repro.obs import analysis

    if args.perf_command == "diff":
        base = _load_trace(args.a, out)
        cand = _load_trace(args.b, out)
        if base is None or cand is None:
            return 1
        diff = analysis.diff_runs(base, cand, rel_tol=args.rel_tol)
        out(diff.render())
        if args.operators:
            from repro.obs import diff_operators

            out("")
            out(diff_operators(base, cand, rel_tol=args.rel_tol).render())
        return 0 if diff.ok else 1

    report = _load_trace(args.trace, out)
    if report is None:
        return 1
    if args.perf_command == "operators":
        from repro.obs import render_operators
        from repro.util.term import palette

        out(render_operators(report, pal=palette(args.no_color)))
        return 0
    if args.perf_command == "critical-path":
        path = analysis.critical_path(report, root_id=args.root)
        out(path.render(top=args.top))
        return 0
    if args.perf_command == "timeline":
        from repro.util.term import palette

        out(analysis.render_timeline(
            report, width=args.width, pal=palette(args.no_color)
        ))
        return 0
    if args.perf_command == "breakdown":
        out(analysis.render_breakdown(report))
        return 0
    if args.perf_command == "stragglers":
        out(analysis.render_stragglers(report, threshold=args.threshold))
        return 0
    return 2


def _run_bench(args, out: Callable[[str], None]) -> int:
    """``repro bench``: the BENCH_*.json regression pipeline."""
    from repro.bench import regress

    if args.bench_command == "list":
        width = max(len(name) for name in regress.SCENARIOS)
        for name in sorted(regress.SCENARIOS):
            scenario = regress.SCENARIOS[name]
            out(f"{name.ljust(width)}  {scenario.description} "
                f"{scenario.params}")
        return 0
    if args.bench_command == "run":
        try:
            regress.run_all(
                args.out_dir, names=args.scenario,
                trace_dir=args.trace_dir, log=out,
            )
        except KeyError as exc:
            out(f"error: {exc.args[0]}")
            return 1
        return 0
    if args.bench_command == "check":
        rel_tol = (
            args.rel_tol if args.rel_tol is not None
            else regress.DEFAULT_REL_TOL
        )
        try:
            report = regress.check(
                args.baseline_dir, names=args.scenario,
                fresh_dir=args.fresh_dir, rel_tol=rel_tol, log=out,
            )
        except OSError as exc:
            out(f"error: {exc}")
            return 1
        from repro.util.term import palette

        out(report.render(pal=palette(args.no_color), quiet=args.quiet))
        return 0 if report.ok else 1
    return 2


def _corruption_predicate(matrix: str):
    """Shrinking predicate for planted corruption: 'fails' (returns a
    message) as long as at least one leg still *detects* the corruption
    — so shrinking minimizes the case while detection persists."""
    from repro.check import run_matrix

    def caught(case):
        report = run_matrix(case, matrix=matrix, plant_corruption=True)
        hits = [c for c in report.cells if c.ok and not c.skipped]
        return hits[0].detail or hits[0].name if hits else None

    return caught


def _run_check(args, out: Callable[[str], None]) -> int:
    """``repro check``: the differential correctness harness."""
    import json as _json

    from repro.check import generate_case, run_matrix, shrink
    from repro.check.fuzzer import (
        DEFAULT_CORPUS_DIR,
        check_case,
        corpus_files,
        fuzz,
        load_case,
        replay_corpus,
        save_case,
    )
    from repro.check.generators import case_to_obj

    if args.check_command == "run":
        case = generate_case(args.seed, num_rows=args.rows)
        report = run_matrix(
            case, matrix=args.matrix,
            plant_corruption=args.plant_corruption,
        )
        out(report.render())
        if not args.plant_corruption:
            return 0 if report.ok else 1
        missed = report.failures
        if missed:
            out("")
            out(f"CORRUPTION MISSED in {len(missed)} leg(s) — "
                "a corrupted block read back clean.")
            return 1
        out("")
        out("corruption caught in every leg; shrinking to a minimal "
            "repro...")
        minimal, message = shrink(
            case, _corruption_predicate(args.matrix)
        )
        out(f"minimal repro: {minimal.describe()}")
        out(f"  detected as: {message}")
        out(f"  reproduce:   repro check run --matrix {args.matrix} "
            f"--seed {args.seed} --plant-corruption")
        return 0

    if args.check_command == "fuzz":
        corpus_dir = args.corpus or DEFAULT_CORPUS_DIR
        result = fuzz(
            args.budget, seed=args.seed, matrix=args.matrix,
            corpus_dir=corpus_dir,
            stop_on_failure=not args.keep_going, log=out,
        )
        out(f"fuzz: {result.executed} case(s) executed, "
            f"{len(result.failures)} failure(s)")
        for failure in result.failures:
            out(f"  seed {failure.seed}: {failure.message}")
            out(f"    minimal: {failure.shrunk.describe()}")
            if failure.corpus_path:
                out(f"    corpus:  {failure.corpus_path}")
            out(f"    repro:   {failure.repro_command()}")
        return 0 if result.ok else 1

    if args.check_command == "shrink":
        if args.case is not None:
            try:
                case = load_case(args.case)
            except (OSError, ValueError, KeyError) as exc:
                out(f"error: cannot load case {args.case}: {exc}")
                return 1
        else:
            case = generate_case(args.seed)
        if args.plant_corruption:
            predicate = _corruption_predicate(args.matrix)
        else:
            predicate = lambda c: check_case(c, matrix=args.matrix)  # noqa: E731
        if predicate(case) is None:
            out(f"{case.describe()}: predicate does not fail; "
                "nothing to shrink")
            return 1 if args.plant_corruption else 0
        minimal, message = shrink(
            case, predicate, max_evals=args.max_evals, log=out
        )
        out(f"minimal: {minimal.describe()}")
        out(f"  fails as: {message}")
        if args.out:
            payload = _json.dumps(
                case_to_obj(minimal), indent=2, sort_keys=True
            )
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            out(f"wrote {args.out}")
        return 0

    if args.check_command == "corpus":
        directory = args.dir or DEFAULT_CORPUS_DIR
        paths = corpus_files(directory)
        if not paths:
            out(f"corpus {directory}: empty")
            return 0
        if not args.replay:
            for path in paths:
                try:
                    case = load_case(path)
                    out(f"{path}  {case.describe()}  [{case.note}]")
                except (OSError, ValueError, KeyError) as exc:
                    out(f"{path}  UNREADABLE: {exc}")
            return 0
        failures = 0
        for path, message in replay_corpus(directory, matrix=args.matrix):
            if message is None:
                out(f"[  ok] {path}")
            else:
                failures += 1
                out(f"[FAIL] {path}  {message}")
        out(f"corpus replay: {len(paths)} case(s), {failures} failure(s)")
        return 0 if failures == 0 else 1

    return 2


def main(argv: Optional[List[str]] = None, out: Callable[[str], None] = print) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            out(f"{name.ljust(width)}  {EXPERIMENTS[name].description}")
        return 0
    if args.command == "perf":
        return _run_perf(args, out)
    if args.command == "bench":
        return _run_bench(args, out)
    if args.command == "check":
        return _run_check(args, out)
    if args.command == "export":
        return _run_export(args, out)
    if args.command == "top":
        return _run_top(args, out)
    if args.command == "cluster":
        return _run_cluster(args, out)
    if args.command == "slo":
        return _run_slo(args, out)
    if args.command == "alerts":
        return _run_alerts(args, out)
    if args.command == "explain":
        return _run_explain(args, out)
    if args.command == "report" and args.trace is not None:
        from repro.util.term import palette

        report = _load_trace(args.trace, out)
        if report is None:
            return 1
        if args.json:
            import json

            rendered = json.dumps(report.summary(), indent=2, sort_keys=True)
        else:
            # Color goes to the terminal, never into --out files.
            pal = palette(args.no_color or bool(args.out))
            rendered = report.render(pal=pal, quiet=args.quiet)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rendered + "\n")
            out(f"wrote {args.out}")
        else:
            out(rendered)
        return 0
    if args.command == "report":
        if args.json:
            out("error: --json requires a trace argument")
            return 2
        lines: List[str] = [
            "# Reproduction results",
            "",
            "Generated by `python -m repro report`.  Simulated times over",
            "real bytes; see EXPERIMENTS.md for paper-vs-measured analysis.",
            "",
        ]
        for name in sorted(EXPERIMENTS):
            lines.append(f"## {EXPERIMENTS[name].description}")
            lines.append("")
            lines.append("```")
            lines.append(EXPERIMENTS[name].run(None))
            lines.append("```")
            lines.append("")
        document = "\n".join(lines)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(document)
            out(f"wrote {args.out}")
        else:
            out(document)
        return 0
    if args.command == "fsck":
        return _run_fsck(args, out)
    if args.command == "experiment":
        names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
        recorder = None
        if args.trace_out:
            from repro.obs import FlightRecorder

            recorder = FlightRecorder(
                meta={"command": "experiment", "experiments": names}
            )
        plan = None
        if args.faults:
            from repro.faults import FaultPlan

            try:
                plan = FaultPlan.load(args.faults)
            except (OSError, ValueError, TypeError) as exc:
                out(f"error: cannot load fault plan {args.faults}: {exc}")
                return 1
        with contextlib.ExitStack() as stack:
            # The ambient plan reaches every JobRunner the experiment
            # modules construct internally — no parameter plumbing.
            if plan is not None:
                stack.enter_context(plan.activate())
            for name in names:
                size = args.size if args.name != "all" else None
                if recorder is not None:
                    with recorder.activate():
                        with recorder.tracer.span(
                            "experiment", kind="experiment", experiment=name
                        ):
                            text = EXPERIMENTS[name].run(size)
                else:
                    text = EXPERIMENTS[name].run(size)
                out(text)
                out("")
        if recorder is not None:
            try:
                recorder.report().write_jsonl(
                    args.trace_out, gzipped=args.gzip or None
                )
            except OSError as exc:
                out(f"error: cannot write flight recording: {exc}")
                return 1
            out(f"wrote flight recording to {args.trace_out}")
        return 0
    build_parser().print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
