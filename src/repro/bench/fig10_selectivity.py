"""Figure 10 / Appendix B.4: lazy materialization benefit vs selectivity.

The job aggregates the value under a given key of the map-typed column
for every record whose string column matches a pattern, at predicate
selectivities from 0% to 100%.  ``CIF`` uses eager records over plain
column files; ``CIF-SL`` uses lazy records over skip-list files.

Paper shape targets:
- at low selectivity CIF-SL is clearly faster (unreferenced map values
  are neither read nor deserialized),
- as selectivity approaches 100% CIF-SL converges to CIF,
- CIF-SL's overhead at 100% selectivity is minor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.bench import harness
from repro.bench.regress import flatten, fraction_slug
from repro.core import ColumnInputFormat
from repro.serde.record import Record
from repro.workloads.micro import micro_records, micro_schema

PATTERN = "=HIT="
MAP_KEY = "kk"
SELECTIVITIES = (0.0, 0.05, 0.2, 0.5, 0.8, 1.0)
#: seeds the records and, on an RNG of its own, each selectivity's rewrite
SEED = 10


def _dataset(records: int, selectivity: float, seed: int = SEED):
    """Microbenchmark records with ``selectivity`` of str0 matching."""
    return _matching(micro_records(records, seed=seed), selectivity, seed)


def _matching(
    base: Iterable[Record], selectivity: float, seed: int = SEED
) -> List[Record]:
    """Copies of ``base`` with ``selectivity`` of str0 matching."""
    rng = random.Random(seed)
    out: List[Record] = []
    for record in map(Record.materialize, base):
        if rng.random() < selectivity:
            record.put("str0", record.get("str0")[:10] + PATTERN)
        attrs = dict(record.get("attrs"))
        attrs[MAP_KEY] = rng.randint(0, 100)  # the aggregated key
        record.put("attrs", attrs)
        out.append(record)
    return out


def _aggregate(fs, dataset: str, lazy: bool) -> "tuple[float, int, int]":
    metrics, total, matches = aggregate_metrics(fs, dataset, lazy)
    return metrics.task_time, total, matches


def aggregate_metrics(
    fs, dataset: str, lazy: bool, execution: str = "vectorized",
    profiler=None,
):
    """The Fig-10 aggregation; returns ``(Metrics, sum, match_count)``.

    The pattern filter is pushed down as a selection kernel and the
    surviving map values are folded.  ``execution="scalar"`` is the
    ``vector_scan`` scenario's reference leg: the same aggregation
    record by record, with the identical answer and simulated cost.

    When an :class:`~repro.obs.OperatorProfiler` is passed, it is
    installed for the scan and finished before returning; both branches
    mark operator boundaries at logically identical points so the two
    engines' profiles reconcile exactly on rows and cells.
    """
    from repro.obs import NULL_PROFILER

    fmt = ColumnInputFormat(
        dataset, columns=["str0", "attrs"], lazy=lazy, execution=execution
    )
    ctx = harness.make_context(fs)
    if profiler is None:
        profiler = NULL_PROFILER
    else:
        ctx.profiler = profiler.bind(ctx.metrics).install()
    total = 0
    matches = 0
    try:
        if execution == "vectorized":
            from repro.core.vector import compile_predicate, fold_aggregate
            from repro.query.aggregates import sum_
            from repro.query.expr import col

            predicate = compile_predicate(col("str0").contains(PATTERN))
            folder = sum_(col("attrs"))
            for split in fmt.get_splits(fs, fs.cluster):
                reader = fmt.open_reader(fs, split, ctx)
                profiler.switch("scan")
                while True:
                    frame = reader.read_batch()
                    if frame is None:
                        break
                    profiler.switch("filter")
                    survivors = predicate.run(frame, frame.selection, ctx)
                    n = len(survivors)
                    profiler.add_rows("filter", frame.length, n)
                    profiler.switch("materialize")
                    profiler.add_rows("materialize", n, n)
                    values = [
                        attrs[MAP_KEY]
                        for attrs in frame.values("attrs", survivors)
                    ]
                    profiler.switch("aggregate")
                    profiler.add_rows("aggregate", n, n)
                    total = fold_aggregate(folder, values, total)
                    matches += n
                    profiler.switch("scan")
        else:
            for split in fmt.get_splits(fs, fs.cluster):
                reader = fmt.open_reader(fs, split, ctx)
                profiler.switch("scan")
                for _, record in reader:
                    profiler.switch("filter")
                    text = record.get("str0")
                    ctx.charge_predicate(text)
                    matched = PATTERN in text
                    profiler.add_rows("filter", 1, 1 if matched else 0)
                    if matched:
                        profiler.switch("materialize")
                        profiler.add_rows("materialize", 1, 1)
                        value = record.get("attrs")[MAP_KEY]
                        profiler.switch("aggregate")
                        profiler.add_rows("aggregate", 1, 1)
                        total += value
                        matches += 1
                    profiler.switch("scan")
    finally:
        profiler.finish(ctx.obs)
    return ctx.metrics, total, matches


@dataclass
class Fig10Result:
    records: int
    #: times[layout][selectivity] -> simulated seconds
    times: harness.Grid = field(default_factory=harness.Grid)
    #: sums agree between layouts (correctness cross-check)
    sums: Dict[float, int] = field(default_factory=dict)


def run(records: int = 10000) -> Fig10Result:
    result = Fig10Result(records=records)
    base = list(micro_records(records, seed=SEED))
    schema = micro_schema()
    for selectivity in SELECTIVITIES:
        fs = harness.single_node_fs()
        data = _matching(base, selectivity)
        harness.write_micro(fs, "/f10/cif", schema, data)
        harness.write_micro(fs, "/f10/sl", schema, data, "cif-sl")
        t_cif, sum_cif, _ = _aggregate(fs, "/f10/cif", lazy=False)
        t_sl, sum_sl, _ = _aggregate(fs, "/f10/sl", lazy=True)
        if sum_cif != sum_sl:
            raise AssertionError(
                f"CIF and CIF-SL disagree at selectivity {selectivity}"
            )
        result.times.note("CIF", selectivity, t_cif)
        result.times.note("CIF-SL", selectivity, t_sl)
        result.sums[selectivity] = sum_cif
    return result


def metrics(result: Fig10Result) -> Dict[str, float]:
    out = flatten(result.times, "time.{}.{}", fraction_slug)
    for selectivity, answer in result.sums.items():
        out[f"count.answer.{fraction_slug(selectivity)}"] = answer
    out["ratio.cif_over_sl_low_selectivity"] = (
        result.times["CIF"][0.05] / result.times["CIF-SL"][0.05]
    )
    return out


def format_table(result: Fig10Result) -> str:
    headers = [f"{s:.0%}" for s in SELECTIVITIES]
    return harness.format_table(
        f"Figure 10 - aggregation time vs selectivity "
        f"(simulated seconds, {result.records} records)",
        headers,
        result.times.rows(SELECTIVITIES, digits=4),
    )


def format_chart(result: Fig10Result) -> str:
    from repro.bench.ascii_plot import line_chart

    return line_chart(
        result.times,
        title="Figure 10 - lazy materialization benefit vs selectivity",
        x_label="selectivity",
        y_label="seconds (simulated)",
        height=12,
    )
