"""Metamorphic invariants: transformations the answers must not see.

Differential cells prove that every storage path gives the *same*
answer; metamorphic cells prove the answer is insensitive to
transformations that should be invisible:

``meta:add-column``
    Appending a column the query never projects (a real backfilled
    column, via ``add_column``) leaves a projected CIF scan's *column*
    bytes unchanged — late schema evolution must not tax existing
    readers.  Only the ``.schema``/``.stats`` sidecars may grow.

``meta:permutation``
    Permuting the rows of the dataset leaves the query's aggregate
    (sorted output) unchanged: nothing in the stack may depend on
    record order beyond the order itself.

``meta:evolution``
    A declare-default / append-under-evolved-schema round-trip: old
    split-directories synthesize the default, appended ones carry real
    values, and the original rows still read back exactly.
"""

from __future__ import annotations

import random
from typing import List

from repro.check.generators import Case, normalize, to_records
from repro.core import ColumnInputFormat, add_column, declare_column, write_dataset
from repro.core.cof import ColumnOutputFormat
from repro.obs import FlightRecorder
from repro.serde.schema import Schema

__all__ = ["run_metamorphic"]

_EVO_DEFAULT = 41


def _column_bytes(registry) -> float:
    """Requested bytes attributed to CIF *column* streams (the
    ``.schema``/``.stats`` sidecars excluded — they legitimately grow
    when columns are added)."""
    total = 0.0
    for labels, metric in registry.find("hdfs.bytes.requested", format="cif"):
        column = dict(labels).get("column", "")
        if column.startswith("."):
            continue
        total += metric.value
    return total


def _projected_scan(fs, path: str, columns):
    from repro.check.oracle import scan_records

    recorder = FlightRecorder()
    with recorder.activate():
        rows, _ = scan_records(
            fs, ColumnInputFormat(path, columns=list(columns), lazy=False)
        )
    return rows, _column_bytes(recorder.registry)


def _meta_add_column(case: Case):
    from repro.check.oracle import CellResult, SPLIT_BYTES, _fresh_fs

    path = "/meta/add-column"
    columns = [
        c for c in case.query.columns if case.schema.has_field(c)
    ] or [case.schema.fields[0].name]
    records = to_records(case.schema, case.rows)

    base_fs = _fresh_fs("cif", case.io_buffer)
    write_dataset(base_fs, path, case.schema, records,
                  split_bytes=SPLIT_BYTES)
    base_rows, base_bytes = _projected_scan(base_fs, path, columns)

    evolved_fs = _fresh_fs("cif", case.io_buffer)
    write_dataset(evolved_fs, path, case.schema, records,
                  split_bytes=SPLIT_BYTES)
    add_column(
        evolved_fs, path, "zz_never_projected", Schema.string(),
        ["decoy"] * len(case.rows),
    )
    evolved_rows, evolved_bytes = _projected_scan(evolved_fs, path, columns)

    if base_rows != evolved_rows:
        return CellResult(
            "meta:add-column", False,
            "projected rows changed after adding an unrelated column",
        )
    if base_bytes != evolved_bytes:
        return CellResult(
            "meta:add-column", False,
            f"column bytes changed {base_bytes} -> {evolved_bytes} after "
            f"adding a never-projected column",
        )
    return CellResult("meta:add-column", True)


def _agg_case(case: Case) -> Case:
    """The case with a guaranteed order-insensitive aggregate query."""
    from dataclasses import replace

    from repro.check.generators import KEY_KINDS, QuerySpec

    if case.query.kind == "group":
        return case
    key = next(
        (f.name for f in case.schema.fields
         if f.schema.kind in KEY_KINDS),
        None,
    )
    if key is None:
        return case  # fall back to the (sorted) projection query
    return replace(
        case, query=QuerySpec(kind="group", columns=(key,), agg="count")
    )


def _meta_permutation(case: Case):
    from repro.check.oracle import (
        CellResult, SPLIT_BYTES, _fresh_fs, _sorted_output, make_job,
    )
    from repro.mapreduce import run_job

    agg = _agg_case(case)
    path = "/meta/permutation"
    rng = random.Random(case.seed ^ 0xA5A5)
    permuted_rows = list(agg.rows)
    rng.shuffle(permuted_rows)

    outputs = []
    for rows in (agg.rows, permuted_rows):
        fs = _fresh_fs("cif", case.io_buffer)
        write_dataset(fs, path, agg.schema, to_records(agg.schema, rows),
                      split_bytes=SPLIT_BYTES)
        fmt = ColumnInputFormat(path, lazy=True)
        outputs.append(
            _sorted_output(run_job(fs, make_job(agg, fmt, "perm")).output)
        )
    if outputs[0] != outputs[1]:
        return CellResult(
            "meta:permutation", False,
            f"aggregate changed under row permutation: "
            f"{outputs[0]!r} != {outputs[1]!r}",
        )
    return CellResult("meta:permutation", True)


def _meta_evolution(case: Case):
    from repro.check.oracle import CellResult, SPLIT_BYTES, _fresh_fs, scan_records

    path = "/meta/evolution"
    records = to_records(case.schema, case.rows)
    truth = [normalize(r) for r in case.rows]

    fs = _fresh_fs("cif", case.io_buffer)
    splits = write_dataset(fs, path, case.schema, records,
                           split_bytes=SPLIT_BYTES)

    # evolve: declare with a default, then append under the new schema
    declare_column(fs, path, "evo", Schema.int_(), _EVO_DEFAULT)
    evolved = case.schema.with_field("evo", Schema.int_(),
                                     default=_EVO_DEFAULT)
    appended = []
    for i, row in enumerate(case.rows[: max(1, len(case.rows) // 2)]):
        grown = dict(row)
        grown["evo"] = 1000 + i
        appended.append(grown)
    ColumnOutputFormat(evolved, split_bytes=SPLIT_BYTES).write(
        fs, path, to_records(evolved, appended), first_split_index=splits
    )

    rows, _ = scan_records(fs, ColumnInputFormat(path, lazy=False))
    expected = [dict(r, evo=_EVO_DEFAULT) for r in truth] + [
        normalize(r) for r in appended
    ]
    if rows != expected:
        return CellResult(
            "meta:evolution", False,
            f"evolution round-trip diverged ({len(rows)} rows back, "
            f"{len(expected)} expected)",
        )

    # the old projection still reads exactly the original data
    old_columns = case.schema.field_names
    rows, _ = scan_records(
        fs, ColumnInputFormat(path, columns=old_columns, lazy=False)
    )
    if rows != truth + [
        {k: v for k, v in r.items() if k != "evo"}
        for r in (normalize(r) for r in appended)
    ]:
        return CellResult(
            "meta:evolution", False,
            "old-schema projection diverged after evolution",
        )
    return CellResult("meta:evolution", True)


def run_metamorphic(case: Case) -> List:
    """All metamorphic cells for one case (never raises)."""
    from repro.check.oracle import CellResult

    cells = []
    for fn, name in (
        (_meta_add_column, "meta:add-column"),
        (_meta_permutation, "meta:permutation"),
        (_meta_evolution, "meta:evolution"),
    ):
        try:
            cells.append(fn(case))
        except Exception as exc:  # noqa: BLE001 - every cell must report
            cells.append(CellResult(
                name, False, f"{type(exc).__name__}: {exc}"
            ))
    return cells
