"""ColumnOutputFormat (COF): loading datasets into split-directories.

Figure 4's layout: a dataset directory contains split-directories
``s0, s1, ...``; each holds one file per top-level column plus a
``.schema`` file.  The split-directory naming convention is what the
ColumnPlacementPolicy keys on, so loading through COF on a filesystem
with CPP installed yields fully co-located splits.

Also implements the cheap **add a column** operation of Section 4.3:
one new file dropped into each split-directory plus a schema update —
no existing byte is rewritten (contrast with
:func:`repro.formats.rcfile.add_column_rewrite`).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.columnio import (
    ColumnSpec, encode_column_file, frame_column_file,
)
from repro.core.stats import STATS_FILE, compute_stats, encode_stats
from repro.serde.binary import column_runs
from repro.serde.schema import Schema, SchemaError
from repro.sim.metrics import Metrics

SCHEMA_FILE = ".schema"
DEFAULT_SPLIT_BYTES = 64 * 1024 * 1024  # split-directories of ~one block

_SPLIT_DIR = re.compile(r"^s(\d+)$")


def split_dirs_of(fs, dataset: str) -> List[str]:
    """Sorted split-directory paths of a COF dataset."""
    names = []
    for child in fs.listdir(dataset):
        match = _SPLIT_DIR.match(child)
        if match:
            names.append((int(match.group(1)), child))
    return [f"{dataset.rstrip('/')}/{name}" for _, name in sorted(names)]


def read_dataset_schema(fs, dataset: str) -> Schema:
    """The dataset's schema, from the first split-directory."""
    dirs = split_dirs_of(fs, dataset)
    if not dirs:
        raise SchemaError(f"{dataset} has no split-directories")
    raw = fs.read_file(f"{dirs[0]}/{SCHEMA_FILE}").decode("utf-8")
    return Schema.parse(raw)


class ColumnOutputFormat:
    """Writes records into split-directories, one file per column.

    ``specs`` maps column name -> :class:`ColumnSpec`; unlisted columns
    use ``default_spec``.  ``split_bytes`` bounds the (plain-encoded)
    bytes per split-directory — the coarse unit CPP load-balances at.
    """

    def __init__(
        self,
        schema: Schema,
        specs: Optional[Dict[str, ColumnSpec]] = None,
        default_spec: Optional[ColumnSpec] = None,
        split_bytes: int = DEFAULT_SPLIT_BYTES,
    ) -> None:
        schema._require_record()
        self.schema = schema
        self.default_spec = default_spec if default_spec is not None else ColumnSpec()
        self.specs = dict(specs) if specs else {}
        unknown = set(self.specs) - set(schema.field_names)
        if unknown:
            raise SchemaError(f"specs for unknown columns {sorted(unknown)}")
        self.split_bytes = split_bytes

    def spec_for(self, column: str) -> ColumnSpec:
        return self.specs.get(column, self.default_spec)

    def write(
        self,
        fs,
        dataset: str,
        records: Iterable,
        metrics: Optional[Metrics] = None,
        first_split_index: int = 0,
    ) -> int:
        """Load ``records`` under ``dataset``; returns split-dirs written.

        A split-directory closes after the record that brings its plain
        encoded bytes to ``split_bytes`` or more.  Records are encoded a
        column at a time, a fixed batch of records per step
        (:func:`~repro.serde.binary.column_runs`), so a value that cannot
        be encoded raises before any split-directory holding a record of
        its batch is written: split-directories that the records before
        it would close may be missing after the raise.

        ``first_split_index`` lets several writes fill one dataset, each
        with its own split-directory number range (``repro.tools.sort``
        writes one range per partition).
        """
        split_index = first_split_index
        for _, run in column_runs(self.schema, records, self.split_bytes):
            self._write_split(fs, dataset, split_index, run, metrics)
            split_index += 1
        if split_index == first_split_index:  # no records: one empty split
            empty = [((), b"", [0]) for _ in self.schema.fields]
            self._write_split(fs, dataset, split_index, empty, metrics)
            split_index += 1
        return split_index - first_split_index

    def _write_split(self, fs, dataset, split_index, run, metrics) -> None:
        """One split-directory: the schema, zone maps and column files of
        ``run`` (per field, ``(values, data, ends)``)."""
        fields = self.schema.fields
        split_dir = f"{dataset.rstrip('/')}/s{split_index}"
        fs.write_file(
            f"{split_dir}/{SCHEMA_FILE}",
            self.schema.to_json().encode("utf-8"),
            metrics=metrics,
        )
        # Zone maps: per-column min/max for split pruning.
        stats = compute_stats(
            self.schema,
            {f.name: values for f, (values, _, _) in zip(fields, run)},
        )
        fs.write_file(
            f"{split_dir}/{STATS_FILE}", encode_stats(stats), metrics=metrics,
        )
        for field, (values, data, ends) in zip(fields, run):
            payload = frame_column_file(
                field.schema, values, self.spec_for(field.name), data, ends
            )
            fs.write_file(f"{split_dir}/{field.name}", payload, metrics=metrics)


def write_dataset(
    fs,
    dataset: str,
    schema: Schema,
    records: Iterable,
    specs: Optional[Dict[str, ColumnSpec]] = None,
    default_spec: Optional[ColumnSpec] = None,
    split_bytes: int = DEFAULT_SPLIT_BYTES,
    metrics: Optional[Metrics] = None,
) -> int:
    """One-shot COF load: Section 4.2's loader, as one sequential task."""
    cof = ColumnOutputFormat(
        schema, specs=specs, default_spec=default_spec, split_bytes=split_bytes
    )
    return cof.write(fs, dataset, records, metrics=metrics)


def declare_column(
    fs,
    dataset: str,
    name: str,
    column_schema: Schema,
    default,
    metrics: Optional[Metrics] = None,
) -> None:
    """Add a column *by declaration only* — no data files written.

    The schema files of every split-directory are updated to include
    the new field with a default; readers synthesize the default for
    split-directories that have no file for the column (Avro-style
    schema resolution).  Later loads and selective backfills write real
    files, which then take precedence.  This makes column addition an
    O(split-directories) metadata operation instead of O(data).
    """
    schema = read_dataset_schema(fs, dataset)
    evolved = schema.with_field(name, column_schema, default=default)
    payload = evolved.to_json().encode("utf-8")
    for split_dir in split_dirs_of(fs, dataset):
        with fs.create(f"{split_dir}/{SCHEMA_FILE}", overwrite=True) as out:
            out.write(payload)
        if metrics is not None:
            fs.cluster.disk.charge_write(metrics, len(payload))


def add_column(
    fs,
    dataset: str,
    name: str,
    column_schema: Schema,
    values: Sequence,
    spec: Optional[ColumnSpec] = None,
    metrics: Optional[Metrics] = None,
) -> None:
    """Append a derived column to an existing CIF dataset (Section 4.3).

    ``values`` must be in record order across the whole dataset.  Only
    the new column's files and the per-split schema files are written;
    existing column files are untouched.
    """
    from repro.core.cif import column_record_count

    schema = read_dataset_schema(fs, dataset)
    evolved = schema.with_field(name, column_schema)
    spec = spec if spec is not None else ColumnSpec()
    offset = 0
    for split_dir in split_dirs_of(fs, dataset):
        count = column_record_count(fs, f"{split_dir}/{schema.fields[0].name}")
        chunk = values[offset:offset + count]
        if len(chunk) != count:
            raise ValueError(
                f"need {count} values for {split_dir}, got {len(chunk)}"
            )
        payload = encode_column_file(column_schema, chunk, spec)
        fs.write_file(f"{split_dir}/{name}", payload, metrics=metrics)
        with fs.create(f"{split_dir}/{SCHEMA_FILE}", overwrite=True) as out:
            out.write(evolved.to_json().encode("utf-8"))
        offset += count
    if offset != len(values):
        raise ValueError(f"{len(values) - offset} extra values supplied")
