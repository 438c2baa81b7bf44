"""Tests for split-directory statistics (zone maps) and split pruning."""

import pytest

from repro.core import ColumnInputFormat, write_dataset
from repro.core.cof import split_dirs_of
from repro.core.stats import (
    ColumnStats,
    RangePredicate,
    compute_stats,
    decode_stats,
    encode_stats,
    extract_range_predicates,
    read_split_stats,
    split_satisfiable,
)
from repro.query import Q, col, count, lit
from repro.serde.record import Record
from repro.serde.schema import Schema
from tests.conftest import make_ctx


def sorted_schema():
    return Schema.record(
        "Event",
        [("day", Schema.int_()), ("host", Schema.string()),
         ("payload", Schema.bytes_())],
    )


def sorted_records(n=300):
    schema = sorted_schema()
    return [
        Record(schema, {
            "day": i // 10,  # monotone: zone maps become selective
            "host": f"h{i % 7}",
            "payload": bytes(20),
        })
        for i in range(n)
    ]


@pytest.fixture
def dataset(fs):
    records = sorted_records()
    write_dataset(fs, "/zm/d", sorted_schema(), records, split_bytes=2048)
    assert len(split_dirs_of(fs, "/zm/d")) > 3
    return fs, records


class TestStatsPrimitives:
    def test_compute_stats_tracks_min_max(self):
        schema = Schema.record("t", [("v", Schema.int_())])
        stats = compute_stats(schema, {"v": [5, 2, 9, 2]})["v"]
        assert (stats.minimum, stats.maximum, stats.count) == (2, 9, 4)

    def test_none_ignored(self):
        schema = Schema.record("t", [("v", Schema.int_())])
        stats = compute_stats(schema, {"v": [None]})["v"]
        assert stats.count == 0 and stats.minimum is None

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 1.0], [-0.0, 0.0], [1.0, float("nan"), -2.0],
        [float("nan"), 3.0, -1.0], [2, True, 1, 2.0, False, 0],
    ])
    def test_min_max_match_a_running_comparison(self, values):
        """The first of equal values is kept and a NaN after the first
        value never wins, as a value-at-a-time ``<`` / ``>`` has it."""
        lo = hi = None
        for v in values:
            lo = v if lo is None or v < lo else lo
            hi = v if hi is None or v > hi else hi
        schema = Schema.record("t", [("v", Schema.double())])
        stats = compute_stats(schema, {"v": values})["v"]
        assert repr((stats.minimum, stats.maximum)) == repr((lo, hi))

    def test_json_roundtrip(self):
        stats = {"a": ColumnStats(3, -1, 7), "b": ColumnStats(0, None, None)}
        back = decode_stats(encode_stats(stats))
        assert back["a"].minimum == -1 and back["a"].maximum == 7
        assert back["b"].count == 0

    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("<", 5, True), ("<", 2, False), ("<", 3, False),
            ("<=", 2, False), ("<=", 3, True),
            (">", 9, False), (">", 8, True),
            (">=", 10, False), (">=", 9, True),
            ("==", 5, True), ("==", 1, False), ("==", 10, False),
        ],
    )
    def test_satisfiable(self, op, value, expected):
        stats = ColumnStats(count=4, minimum=3, maximum=9)
        assert RangePredicate("c", op, value).satisfiable(stats) is expected

    def test_unknown_stats_satisfiable(self):
        assert RangePredicate("c", ">", 5).satisfiable(ColumnStats())

    def test_incomparable_types_never_prune(self):
        stats = ColumnStats(count=1, minimum="a", maximum="z")
        assert RangePredicate("c", ">", 5).satisfiable(stats)

    def test_bad_operator(self):
        with pytest.raises(ValueError):
            RangePredicate("c", "!=", 1)

    def test_split_satisfiable_conjunction(self):
        stats = {"day": ColumnStats(10, 0, 4)}
        assert split_satisfiable(stats, [RangePredicate("day", "<", 2)])
        assert not split_satisfiable(
            stats,
            [RangePredicate("day", "<", 2), RangePredicate("day", ">", 8)],
        )
        assert split_satisfiable(None, [RangePredicate("day", ">", 8)])
        assert split_satisfiable(stats, [RangePredicate("other", ">", 8)])


class TestStatsOnDisk:
    def test_cof_writes_stats(self, dataset):
        fs, _ = dataset
        for split_dir in split_dirs_of(fs, "/zm/d"):
            stats = read_split_stats(fs, split_dir)
            assert stats is not None
            assert stats["day"].minimum <= stats["day"].maximum
            assert stats["payload"].minimum is None  # complex: count only
            assert stats["payload"].count > 0

    def test_stats_cover_disjoint_day_ranges(self, dataset):
        fs, _ = dataset
        ranges = [
            (s["day"].minimum, s["day"].maximum)
            for s in (
                read_split_stats(fs, d) for d in split_dirs_of(fs, "/zm/d")
            )
        ]
        assert ranges == sorted(ranges)  # monotone column, ordered dirs


class TestSplitPruning:
    def test_pruning_preserves_results(self, dataset):
        fs, records = dataset
        expected = [r.get("host") for r in records if r.get("day") >= 25]

        pruned_fmt = ColumnInputFormat(
            "/zm/d", columns=["day", "host"],
            predicates=[RangePredicate("day", ">=", 25)],
        )
        out = []
        for split in pruned_fmt.get_splits(fs, fs.cluster):
            for _, record in pruned_fmt.open_reader(fs, split, make_ctx()):
                if record.get("day") >= 25:
                    out.append(record.get("host"))
        assert out == expected
        assert pruned_fmt.pruned_dirs > 0

    def test_pruning_reduces_bytes(self, dataset):
        fs, _ = dataset

        def scan_bytes(predicates):
            fmt = ColumnInputFormat(
                "/zm/d", columns=["day", "host"], lazy=False,
                predicates=predicates,
            )
            ctx = make_ctx()
            for split in fmt.get_splits(fs, fs.cluster):
                for _ in fmt.open_reader(fs, split, ctx):
                    pass
            return ctx.metrics.disk_bytes

        full = scan_bytes([])
        pruned = scan_bytes([RangePredicate("day", ">=", 25)])
        assert pruned < full / 2

    def test_unsatisfiable_everywhere_prunes_all(self, dataset):
        fs, _ = dataset
        fmt = ColumnInputFormat(
            "/zm/d", predicates=[RangePredicate("day", ">", 10_000)]
        )
        assert fmt.get_splits(fs, fs.cluster) == []

    def test_datasets_without_stats_never_pruned(self, fs):
        # Simulate an old dataset: delete the stats files.
        write_dataset(fs, "/zm/old", sorted_schema(), sorted_records(50),
                      split_bytes=2048)
        for split_dir in split_dirs_of(fs, "/zm/old"):
            fs.delete(f"{split_dir}/.stats")
        fmt = ColumnInputFormat(
            "/zm/old", predicates=[RangePredicate("day", ">", 10_000)]
        )
        assert len(fmt.get_splits(fs, fs.cluster)) == len(
            split_dirs_of(fs, "/zm/old")
        )


class TestQueryIntegration:
    def test_expr_self_describes_range(self):
        assert (col("day") >= 25).range_constraint == ("day", ">=", 25)
        assert (lit(25) <= col("day")).range_constraint == ("day", ">=", 25)
        assert (col("day") == 3).range_constraint == ("day", "==", 3)
        assert not hasattr(col("day").contains("x"), "range_constraint")
        assert not hasattr(col("a") < col("b"), "range_constraint")

    def test_extract_range_predicates(self):
        predicates = extract_range_predicates(
            [col("day") >= 25, col("host").contains("h1")]
        )
        assert predicates == [RangePredicate("day", ">=", 25)]

    def test_query_prunes_and_answers_correctly(self, dataset):
        fs, records = dataset
        result = (
            Q("/zm/d")
            .where(col("day") >= 25)
            .group_by("host")
            .aggregate(n=count())
            .run(fs)
        )
        expected = {}
        for r in records:
            if r.get("day") >= 25:
                expected[r.get("host")] = expected.get(r.get("host"), 0) + 1
        assert {row["host"]: row["n"] for row in result} == expected
        assert "zone-map pruning: day >= 25" in (
            Q("/zm/d").where(col("day") >= 25).select("host").explain()
        )

    def test_query_pruning_reduces_bytes(self, dataset):
        fs, _ = dataset
        narrow = (
            Q("/zm/d").where(col("day") >= 28).select("host").run(fs)
        )
        full = Q("/zm/d").select("host").run(fs)
        assert narrow.bytes_read < full.bytes_read / 2
