"""Tests for MultiInputFormat and the repartition join."""

import pytest

from repro.core import write_dataset
from repro.core.cif import ColumnInputFormat
from repro.mapreduce import Job, run_job
from repro.mapreduce.multi import MultiInputFormat
from repro.query.query import join
from repro.serde.record import Record
from repro.serde.schema import Schema


def pages_schema():
    return Schema.record(
        "Page", [("url", Schema.string()), ("clicks", Schema.int_())]
    )


def ranks_schema():
    return Schema.record(
        "Rank", [("page", Schema.string()), ("rank", Schema.double())]
    )


@pytest.fixture
def two_datasets(fs):
    pages = [
        Record(pages_schema(), {"url": f"u{i}", "clicks": i * 3})
        for i in range(40)
    ]
    # Ranks exist for even pages only, plus some dangling ones.
    ranks = [
        Record(ranks_schema(), {"page": f"u{i}", "rank": i / 100})
        for i in range(0, 40, 2)
    ] + [
        Record(ranks_schema(), {"page": f"zz{i}", "rank": 0.0})
        for i in range(3)
    ]
    write_dataset(fs, "/j/pages", pages_schema(), pages, split_bytes=512)
    write_dataset(fs, "/j/ranks", ranks_schema(), ranks, split_bytes=512)
    return fs, pages, ranks


class TestMultiInputFormat:
    def test_union_with_tags(self, two_datasets):
        fs, pages, ranks = two_datasets
        fmt = MultiInputFormat({
            "p": ColumnInputFormat("/j/pages", lazy=False),
            "r": ColumnInputFormat("/j/ranks", lazy=False),
        })

        def mapper(key, tagged, emit, ctx):
            emit(tagged[0], 1)

        def count(key, values, emit, ctx):
            emit(key, sum(values))

        result = run_job(fs, Job("count", mapper, fmt, reducer=count))
        assert dict(result.output) == {"p": 40, "r": 23}

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            MultiInputFormat({})

    def test_split_labels_carry_tags(self, two_datasets):
        fs, _, _ = two_datasets
        fmt = MultiInputFormat({"p": ColumnInputFormat("/j/pages")})
        for split in fmt.get_splits(fs, fs.cluster):
            assert split.label.startswith("p:")


class TestJoin:
    def test_inner_join(self, two_datasets):
        fs, pages, ranks = two_datasets
        result = join(fs, "/j/pages", "/j/ranks", on="url", right_on="page")
        assert len(result) == 20  # even pages only
        by_key = {row["key"]: row for row in result}
        assert by_key["u4"]["left.clicks"] == 12
        assert by_key["u4"]["right.rank"] == 0.04
        assert "zz0" not in by_key

    def test_left_outer_join(self, two_datasets):
        fs, pages, _ = two_datasets
        result = join(
            fs, "/j/pages", "/j/ranks", on="url", right_on="page", how="left"
        )
        assert len(result) == 40
        unmatched = next(r for r in result if r["key"] == "u1")
        assert "right.rank" not in unmatched
        assert unmatched["left.clicks"] == 3

    def test_right_outer_join(self, two_datasets):
        fs, _, ranks = two_datasets
        result = join(
            fs, "/j/pages", "/j/ranks", on="url", right_on="page", how="right"
        )
        assert len(result) == len(ranks)
        dangling = [r for r in result if r["key"].startswith("zz")]
        assert len(dangling) == 3
        assert all("left.clicks" not in r for r in dangling)

    def test_many_to_many(self, fs):
        schema = Schema.record(
            "kv", [("k", Schema.string()), ("v", Schema.int_())]
        )
        left = [Record(schema, {"k": "a", "v": i}) for i in range(3)]
        right = [Record(schema, {"k": "a", "v": 10 + i}) for i in range(2)]
        write_dataset(fs, "/j/l", schema, left)
        write_dataset(fs, "/j/r", schema, right)
        result = join(fs, "/j/l", "/j/r", on="k")
        assert len(result) == 6  # full cross product within the key

    def test_projection_pushdown_per_side(self, two_datasets):
        fs, _, _ = two_datasets
        narrow = join(
            fs, "/j/pages", "/j/ranks", on="url", right_on="page",
            left_columns=["url"], right_columns=["page"],
        )
        wide = join(fs, "/j/pages", "/j/ranks", on="url", right_on="page")
        assert narrow.bytes_read <= wide.bytes_read
        assert len(narrow) == len(wide)

    def test_invalid_how(self, two_datasets):
        fs, _, _ = two_datasets
        with pytest.raises(ValueError):
            join(fs, "/j/pages", "/j/ranks", on="url", how="full")
