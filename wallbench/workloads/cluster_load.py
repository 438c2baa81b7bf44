"""cluster_load: the multi-tenant path, through ``ClusterManager.run``.

The shipped traffic profile (three tenants, a batch queue and a
preempting interactive queue) is run under the fair policy.  The
arrival trace is the profile's own and never changes; ``--seed``
decides the bytes of the three datasets the jobs read.  A pass is what
``run_traffic`` does — ``build_filesystem``, ``generate_requests``,
``ClusterManager(...).run`` — called apart so each can be timed and so
the data seed and the arrival seed can differ.  An op is one job
request.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Dict, List

from repro.cluster import (
    ClusterManager, TrafficProfile, build_filesystem, generate_requests,
    make_job,
)
from repro.mapreduce import run_job
from repro.workloads.micro import micro_records

from wallbench import inputs, spec
from wallbench.rungs import read_columns, read_records
from wallbench.trace import NO_SPANS, Part, Rung, Unit
from wallbench.workloads.base import Workload
from wallbench.workloads.load import files_under
from wallbench.workloads import seq_scan

POLICY = "fair"
ANALYTICS_PATTERN = "e"      # what make_job("analytics") filters str0 by


class PassResult(list):
    """One outcome per request, plus what the whole pass produced."""

    report = None
    fs = None


def _touch_analytics(record) -> None:
    if ANALYTICS_PATTERN in record.get("str0"):
        record.get("attrs").get("k0")


def _touch_point(record) -> None:
    record.get("int0")


class ClusterLoad(Workload):
    name = "cluster_load"

    def generate(self) -> None:
        path = os.path.join(spec.PACKAGE_DIR, self.sizes["profile"])
        self.arrivals = TrafficProfile.load(path)
        self.data = TrafficProfile.load(path)
        self.data.seed = self.seed
        self.policy = self.arrivals.cluster_policy(POLICY)
        requests = generate_requests(self.arrivals)
        self.request_names = [r.job.name for r in requests]
        self.kinds = Counter(r.kind for r in requests)
        fs = build_filesystem(self.data)
        self.inputs_sha256 = inputs.sha256_of(
            [json.dumps(self.data.to_dict(), sort_keys=True).encode("utf-8")]
            + [
                f"{r.arrival!r}:{r.tenant}:{r.kind}".encode("utf-8")
                for r in requests
            ]
            + [fs.read_file(p) for p in sorted(files_under(fs, "/cluster"))]
        )

    @property
    def op_names(self) -> List[str]:
        return self.request_names

    def run_pass(self, spans=NO_SPANS) -> list:
        result = PassResult()
        try:
            with spans.span("build_filesystem"):
                fs = build_filesystem(self.data)
            with spans.span("generate_requests"):
                requests = generate_requests(self.arrivals)
            with spans.span("run"):
                report = ClusterManager(fs, self.policy).run(requests)
        except Exception as error:  # the whole pass failed: every op did
            result.extend([error] * len(self.request_names))
            return result
        by_id = {o.request_id: o for o in report.outcomes}
        result.extend(
            by_id.get(r.request_id, KeyError(r.job.name)) for r in requests
        )
        result.report, result.fs = report, fs
        return result

    def check(self, answers: list) -> List[str]:
        """Every request is accounted for and completed, and the report
        is byte-identical on every pass."""
        report = answers.report
        if report is None:
            return list(self.op_names)
        text = json.dumps(report.to_dict(), sort_keys=True)
        self.expected.setdefault("report", text)
        accounted = (
            len(report.completed) + len(report.failed) + len(report.shed)
            + len(report.rejected)
        )
        if text != self.expected["report"] or accounted != len(self.op_names):
            return list(self.op_names)
        return [
            name for name, outcome in zip(self.op_names, answers)
            if isinstance(outcome, Exception) or outcome.status != "completed"
        ]

    def sim_counts(self, answers: list) -> Dict[str, float]:
        report = answers.report
        return {
            "sim.task_seconds": report.busy_slot_seconds,
            "sim.disk_bytes": answers.fs.blockstore.total_bytes,
            "sim.records": sum(o.attempts for o in report.outcomes),
        }

    # -- ladder ------------------------------------------------------------

    def units(self, answers: list) -> List[Unit]:
        """Below the run: each kind of job alone on the same filesystem,
        weighted by how often the trace submits it."""
        fs = answers.fs
        micro_rows = [
            i for i, r in enumerate(micro_records(
                self.data.datasets["micro_records"], seed=self.data.seed,
            )) if ANALYTICS_PATTERN in r.get("str0")
        ]

        def job(kind: str):
            return make_job(kind, "ladder", 0)  # fresh: formats cache headers

        def kind_unit(kind, reader_layer, touch, columns=None) -> Unit:
            """``columns`` = (filter column, surviving rows) adds the
            column-reader rung of a CIF kind."""
            n = self.kinds[kind]
            rungs = [
                Rung(reader_layer, [Part("records", lambda: read_records(
                    fs, job(kind).input_format, touch,
                ), n)], inner=None if columns else "hdfs.stream_read"),
                Rung("mapreduce", [Part("job", lambda: run_job(fs, job(kind)), n)]),
            ]
            if columns:
                fmt = job(kind).input_format
                rungs.insert(0, Rung("core.columnio", [Part(
                    "columns", lambda: read_columns(
                        fs, fmt.dataset, fmt.columns, *columns, with_stats=False,
                    ), n,
                )], inner="hdfs.stream_read"))
            return Unit(kind, "mapreduce", rungs)

        children = [
            kind_unit("analytics", "core.cif", _touch_analytics, ("str0", micro_rows)),
            kind_unit("point_query", "core.cif", _touch_point, (None, [])),
            kind_unit("crawl_scan", "formats", seq_scan.touch),
        ]
        return [
            Unit("build_filesystem", "cluster"),
            Unit("generate_requests", "cluster"),
            Unit("run", "cluster", children=[c for c in children if self.kinds[c.name]]),
        ]

    # -- the event loop alone ----------------------------------------------

    def tiny_filesystem(self):
        """The profile's cluster with every dataset cut to one record,
        so a run is scheduling decisions and almost nothing else."""
        tiny = TrafficProfile.from_dict(self.data.to_dict())
        tiny.datasets = dict(
            tiny.datasets, crawl_records=1, micro_records=1, point_records=1,
        )
        return build_filesystem(tiny)

    def run_requests(self, fs):
        return ClusterManager(fs, self.policy).run(
            generate_requests(self.arrivals)
        )
