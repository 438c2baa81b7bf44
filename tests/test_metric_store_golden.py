"""Golden metric store: what one run's numbers read as, pinned exactly.

A run's numbers are kept in three places: the flight recorder's metric
registry (frozen into a ``RunReport``), the cluster monitor's time-series
store (persisted as a ``.tsdb`` sidecar) and the Prometheus text either
one exports.  This file pins all three:

- the registry records of ``RunReport.to_jsonl()`` for Figure 1's job
  over CIF and over SEQ, recorded under one fake-clock
  ``FlightRecorder``, with that report's Prometheus text and the views
  read off its registry (summary, I/O breakdown, heatmap);
- the ``.tsdb`` bytes that ``repro cluster run --tsdb`` writes for the
  sample profile and for ``FaultPlan.random(seed)`` at five seeds, plus
  the bytes after a second run of the sample profile merges into its
  sidecar, and the stdout of each of those runs;
- ``repro export prom`` of one sidecar over its full range and over one
  ``--since/--until`` range.

The values in ``metric_store_golden.json`` were recorded once and are
not re-recorded: a failing case means a change moved a number or a
byte.
"""

import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.cluster import sample_profile
from repro.core import ColumnInputFormat, write_dataset
from repro.faults import FaultPlan
from repro.formats import SequenceFileInputFormat, write_sequence_file
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import run_job
from repro.obs import FlightRecorder
from repro.obs.analysis import render_breakdown
from repro.obs.export import prometheus_text
from repro.obs.heatmap import DatasetHeatmap
from repro.obs.opprofile import fallback_totals
from repro.workloads.crawl import crawl_records, crawl_schema
from repro.workloads.jobs import distinct_content_types_job

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "metric_store_golden.json"
)

#: the chaos seeds whose random fault plans run under the sample profile
SEEDS = (11, 23, 37, 41, 53)
#: the sidecar ``repro export prom`` reads, and its time range
EXPORTED = "seed-11"
SINCE, UNTIL = "0.2", "0.6"
#: stands in for the sidecar's temporary path in captured stdout
PATH_MARK = "{tsdb}"


def _fake_clock():
    ticks = iter(range(10 ** 9))
    return lambda: next(ticks) / 1000.0


def recorded_report():
    """Figure 1's job over CIF, then over SEQ, under one recorder."""
    fs = FileSystem(ClusterConfig(
        num_nodes=3, replication=1, block_size=8 * 1024,
        io_buffer_size=1024,
    ))
    schema = crawl_schema()
    records = list(crawl_records(30, content_bytes=400, seed=4))
    write_dataset(fs, "/fig1/cif", schema, records, split_bytes=6 * 1024)
    write_sequence_file(
        fs, "/fig1/seq", schema, records, compression="record",
        sync_interval=900,
    )
    recorder = FlightRecorder(clock=_fake_clock(), meta={"golden": "fig1"})
    with recorder.activate():
        for fmt in (
            ColumnInputFormat("/fig1/cif", lazy=True),
            SequenceFileInputFormat("/fig1/seq"),
        ):
            run_job(fs, distinct_content_types_job(fmt, num_reducers=2))
    return recorder.report()


def observe_report():
    report = recorded_report()
    registry_lines = [
        line for line in report.to_jsonl().splitlines()
        if json.loads(line)["type"] in ("counter", "gauge", "histogram")
    ]
    heatmap = DatasetHeatmap.from_registry("/fig1/cif", report.registry)
    return {
        "registry": registry_lines,
        "prometheus": prometheus_text(report),
        "summary": json.loads(json.dumps(report.summary(), sort_keys=True)),
        "breakdown": render_breakdown(report),
        "fallbacks": fallback_totals(report),
        "heatmap": {
            f"{split}|{column}": stats.to_dict()
            for (split, column), stats in sorted(heatmap.cells.items())
        },
    }


def _cli(argv, tsdb=None):
    lines = []
    code = main(argv, out=lines.append)
    text = "\n".join(lines)
    if tsdb is not None:
        text = text.replace(tsdb, PATH_MARK)
    return {"exit": code, "stdout": text}


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def observe_cluster(root):
    """Every ``cluster run --tsdb``, its sidecar's bytes and stdout,
    then ``export prom`` of one sidecar."""
    out = {}
    runs = [("sample", [])]
    for seed in SEEDS:
        plan = os.path.join(root, f"plan-{seed}.json")
        FaultPlan.random(seed, sample_profile().nodes).save(plan)
        runs.append((f"seed-{seed}", ["--faults", plan]))
    for name, extra in runs:
        tsdb = os.path.join(root, f"{name}.tsdb")
        out[name] = _cli(
            ["cluster", "run", "--no-color", "--tsdb", tsdb] + extra, tsdb
        )
        out[name]["sha256"] = _sha256(tsdb)
    tsdb = os.path.join(root, "sample.tsdb")
    out["sample+merge"] = _cli(
        ["cluster", "run", "--no-color", "--tsdb", tsdb], tsdb
    )
    out["sample+merge"]["sha256"] = _sha256(tsdb)
    exported = os.path.join(root, f"{EXPORTED}.tsdb")
    out["export"] = _cli(["export", "prom", exported])
    out["export range"] = _cli(
        ["export", "prom", exported, "--since", SINCE, "--until", UNTIL]
    )
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    return observe_cluster(str(tmp_path_factory.mktemp("store")))


@pytest.fixture(scope="module")
def report_views():
    return observe_report()


@pytest.mark.parametrize(
    "view",
    ["registry", "prometheus", "summary", "breakdown", "fallbacks",
     "heatmap"],
)
def test_recorded_report_matches_golden(golden, report_views, view):
    assert report_views[view] == golden["report"][view]


@pytest.mark.parametrize(
    "run",
    ["sample"] + [f"seed-{seed}" for seed in SEEDS]
    + ["sample+merge", "export", "export range"],
)
def test_cluster_store_matches_golden(golden, cluster, run):
    assert cluster[run] == golden["cluster"][run]


def test_golden_pins_what_it_claims(golden):
    report = golden["report"]
    kinds = {json.loads(line)["type"] for line in report["registry"]}
    assert {"counter", "histogram"} <= kinds
    assert "_bucket{" in report["prometheus"]
    cluster = golden["cluster"]
    assert all(cluster[run]["exit"] == 0 for run in cluster)
    assert "(2 run(s) accumulated)" in cluster["sample+merge"]["stdout"]
    assert cluster["sample+merge"]["sha256"] != cluster["sample"]["sha256"]
    full, ranged = cluster["export"]["stdout"], cluster["export range"]["stdout"]
    assert 'quantile="0.95"' in full and full != ranged


if __name__ == "__main__":  # records the golden file
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        pinned = {
            "report": observe_report(),
            "cluster": observe_cluster(root),
        }
    with open(GOLDEN_PATH, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
