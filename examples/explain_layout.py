"""Build a storage heatmap, reconcile it, and get layout advice.

Demonstrates the storage-introspection layer behind ``repro explain``:

1. load a CIF dataset with deliberately suboptimal choices — ``plain``
   layouts (no skip lists) and one column the job never reads,
2. run a lazily-materialized projection scan under a
   :class:`FlightRecorder`; the stream probes attribute every byte,
   seek and row touch to ``file=<dataset>/s<N>/<column>`` counters,
3. fold the counters into a :class:`DatasetHeatmap`, persist it as the
   dataset's ``.heatmap`` sidecar, and render the access grid,
4. :func:`reconcile` the heatmap EXACTLY against the independent
   stream probes and ``sim.Metrics`` snapshots (any drift is an
   attribution bug and would fail loudly),
5. run the advisor: every :class:`Recommendation` cites the registry
   counters that justify it.

Run:  python examples/explain_layout.py
"""

import random

from repro.bench import harness
from repro.core import ColumnInputFormat, write_dataset
from repro.obs import FlightRecorder, current_obs
from repro.obs.advisor import advise, column_layouts
from repro.obs.heatmap import DatasetHeatmap, reconcile
from repro.serde.record import Record
from repro.serde.schema import Schema


def generate(n=600, seed=13):
    schema = Schema.record(
        "Hit",
        [
            ("url", Schema.string()),
            ("status", Schema.int_()),
            ("body", Schema.bytes_()),
        ],
    )
    rng = random.Random(seed)
    records = [
        Record(schema, {
            "url": f"http://example.com/p{i}",
            "status": 200 if rng.random() < 0.9 else 404,
            "body": rng.randbytes(40 + rng.randrange(40)),
        })
        for i in range(n)
    ]
    return schema, records


def main() -> None:
    # -- 1. a co-located CIF dataset with plain (skip-list-free) columns --
    fs = harness.cluster_fs(num_nodes=4)
    fs.use_column_placement()
    schema, records = generate()
    dataset = "/data/hits"
    write_dataset(fs, dataset, schema, records, split_bytes=16 * 1024)

    # -- 2. a projection scan that touches status but never url ----------
    # Lazy materialization: every record is *positioned*, but only the
    # rare 404 rows deserialize their url cell — url's file is opened
    # (it is in the projection) yet pays mostly skips, and with a plain
    # layout every skip still walks the value bytes (Section 5.2).
    recorder = FlightRecorder(meta={"example": "explain_layout"})
    with recorder.activate():
        fmt = ColumnInputFormat(dataset, columns=["url", "status"], lazy=True)
        broken = 0
        for split in fmt.get_splits(fs, fs.cluster):
            node = split.locations[0] if split.locations else 0
            ctx = harness.make_context(fs, node=node)
            obs = current_obs()
            with obs.tracer.span("split_scan", kind="split",
                                 metrics=ctx.metrics):
                reader = fmt.open_reader(fs, split, ctx)
                try:
                    for _, record in reader:
                        if record.get("status") == 404:
                            broken += 1
                            record.get("url")
                finally:
                    reader.close()
            obs.record_metrics(f"scan:{split.label}", ctx.metrics)
    print(f"scan found {broken} broken links")

    # -- 3. fold the counters into a heatmap, persist the sidecar --------
    report = recorder.report()
    heatmap = DatasetHeatmap.from_registry(dataset, report.registry)
    accumulated = heatmap.save(fs)  # merges with any prior runs
    print()
    print(heatmap.render())

    # -- 4. exact reconciliation against the independent probes ----------
    problems = reconcile(heatmap, report, scan_only=True)
    assert not problems, problems
    print()
    print("reconciliation OK: heatmap == stream probes == sim.Metrics")

    # -- 5. counter-backed recommendations -------------------------------
    recommendations = advise(
        accumulated,
        layouts=column_layouts(fs, dataset),
        colocated_fraction=1.0,
    )
    assert recommendations, "the plain layout should trip the advisor"
    print()
    print("the advisor says:")
    for rec in recommendations:
        print("  * " + rec.render().replace("\n", "\n  "))

    # url skipped most of its rows through a layout that cannot jump
    actions = {rec.action for rec in recommendations}
    assert "enable-skip-lists" in actions


if __name__ == "__main__":
    main()
