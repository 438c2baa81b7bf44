"""Tests for dataset sorting and its interaction with zone maps."""

import random

import pytest

from repro.core import ColumnInputFormat, write_dataset
from repro.core.stats import RangePredicate
from repro.serde.record import Record
from repro.serde.schema import Schema, SchemaError
from repro.tools.sort import partition_of, sample_boundaries, sort_dataset
from tests.conftest import make_ctx


def event_schema():
    return Schema.record(
        "E", [("ts", Schema.int_()), ("tag", Schema.string())]
    )


def shuffled_records(n=500, seed=3):
    rng = random.Random(seed)
    schema = event_schema()
    timestamps = list(range(n))
    rng.shuffle(timestamps)
    return [
        Record(schema, {"ts": ts, "tag": f"t{ts % 13}"}) for ts in timestamps
    ]


def read_column(fs, dataset, column, predicates=None):
    fmt = ColumnInputFormat(dataset, columns=[column], lazy=False,
                            predicates=predicates or [])
    ctx = make_ctx()
    out = []
    for split in fmt.get_splits(fs, fs.cluster):
        out.extend(r.get(column) for _, r in fmt.open_reader(fs, split, ctx))
    return out, ctx.metrics


class TestBoundaries:
    def test_even_split(self):
        boundaries = sample_boundaries(list(range(100)), 4)
        assert boundaries == [25, 50, 75]

    def test_single_partition_no_boundaries(self):
        assert sample_boundaries([1, 2, 3], 1) == []

    def test_empty_values(self):
        assert sample_boundaries([], 4) == []

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            sample_boundaries([1], 0)

    def test_partition_of_routes_by_range(self):
        boundaries = [10, 20]
        assert partition_of(boundaries, 5) == 0
        assert partition_of(boundaries, 10) == 0
        assert partition_of(boundaries, 15) == 1
        assert partition_of(boundaries, 99) == 2


class TestSortDataset:
    def test_output_globally_sorted(self, fs):
        schema = event_schema()
        records = shuffled_records()
        write_dataset(fs, "/s/in", schema, records, split_bytes=2048)
        report = sort_dataset(
            fs, ColumnInputFormat("/s/in"), schema, "ts", "/s/out",
            partitions=4, split_bytes=1024,
        )
        assert report.records == len(records)
        values, _ = read_column(fs, "/s/out", "ts")
        assert values == sorted(r.get("ts") for r in records)

    def test_rows_stay_intact(self, fs):
        schema = event_schema()
        records = shuffled_records(200)
        write_dataset(fs, "/s/in", schema, records, split_bytes=2048)
        sort_dataset(
            fs, ColumnInputFormat("/s/in"), schema, "ts", "/s/out",
            partitions=3, split_bytes=1024,
        )
        fmt = ColumnInputFormat("/s/out", lazy=False)
        rows = []
        for split in fmt.get_splits(fs, fs.cluster):
            rows.extend(
                r.to_dict() for _, r in fmt.open_reader(fs, split, make_ctx())
            )
        assert rows == sorted(
            (r.to_dict() for r in records), key=lambda d: d["ts"]
        )

    def test_lazy_rows_are_copied_out_of_their_frame(self, fs):
        # The default reader hands out one lazy row and re-arms it for
        # every row, whatever its batch size; sorting holds every row
        # until the end.
        schema = event_schema()
        records = shuffled_records(120)
        write_dataset(fs, "/s/in", schema, records, split_bytes=2048)
        sort_dataset(
            fs, ColumnInputFormat("/s/in", batch_rows=7), schema, "ts",
            "/s/out", partitions=2, split_bytes=1024,
        )
        values, _ = read_column(fs, "/s/out", "tag")
        assert values == [
            r.get("tag") for r in sorted(records, key=lambda r: r.get("ts"))
        ]

    def test_sort_by_string_column(self, fs):
        schema = event_schema()
        records = shuffled_records(100)
        write_dataset(fs, "/s/in", schema, records)
        sort_dataset(
            fs, ColumnInputFormat("/s/in"), schema, "tag", "/s/out",
            partitions=2, split_bytes=1024,
        )
        values, _ = read_column(fs, "/s/out", "tag")
        assert values == sorted(r.get("tag") for r in records)

    def test_non_primitive_sort_key_rejected(self, fs):
        schema = Schema.record("r", [("m", Schema.map(Schema.int_()))])
        with pytest.raises(SchemaError):
            sort_dataset(fs, ColumnInputFormat("/nope"), schema, "m", "/out")

    def test_sorting_makes_zone_maps_selective(self, fs):
        schema = event_schema()
        records = shuffled_records(600)
        write_dataset(fs, "/s/in", schema, records, split_bytes=1024)

        predicate = [RangePredicate("ts", ">=", 550)]
        unsorted_values, unsorted_metrics = read_column(
            fs, "/s/in", "ts", predicates=predicate
        )
        sort_dataset(
            fs, ColumnInputFormat("/s/in"), schema, "ts", "/s/out",
            partitions=4, split_bytes=1024,
        )
        sorted_values, sorted_metrics = read_column(
            fs, "/s/out", "ts", predicates=predicate
        )
        # Shuffled data: every directory's range overlaps the predicate,
        # so nothing prunes and all 600 records are scanned; clustered
        # data confines the range to a fraction of the directories.
        assert set(v for v in unsorted_values if v >= 550) == set(
            v for v in sorted_values if v >= 550
        )
        assert unsorted_metrics.records == 600
        assert sorted_metrics.records < unsorted_metrics.records / 2
