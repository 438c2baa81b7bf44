"""Tests for the declarative query layer."""

import pytest

from repro.core import write_dataset
from repro.obs import FlightRecorder, expr_fallback_totals, render_operators
from repro.query import (
    Expr, Q, avg, col, count, count_distinct, lit, max_, min_, sum_,
)
from repro.query.query import QueryError
from repro.serde.record import Record
from repro.workloads.crawl import crawl_records, crawl_schema
from tests.conftest import micro_records, micro_schema


@pytest.fixture
def crawl_fs(fs):
    records = list(crawl_records(400, selectivity=0.25, content_bytes=512))
    write_dataset(fs, "/q/crawl", crawl_schema(), records,
                  split_bytes=64 * 1024)
    return fs, records


@pytest.fixture
def micro_fs(fs):
    schema = micro_schema()
    records = micro_records(schema, 300)
    write_dataset(fs, "/q/micro", schema, records, split_bytes=32 * 1024)
    return fs, records


class TestExpressions:
    def test_col_and_literal_comparison(self):
        from repro.serde.record import Record
        from repro.serde.schema import Schema

        schema = Schema.record("r", [("x", Schema.int_())])
        rec = Record(schema, {"x": 5})
        assert (col("x") > 3).evaluate(rec) is True
        assert (col("x") == lit(5)).evaluate(rec) is True
        assert ((col("x") + 1) * 2).evaluate(rec) == 12
        assert (~(col("x") > 3)).evaluate(rec) is False

    def test_map_key_access(self):
        from repro.serde.record import Record
        from repro.serde.schema import Schema

        schema = Schema.record("r", [("m", Schema.map(Schema.string()))])
        rec = Record(schema, {"m": {"a": "x"}})
        assert col("m")["a"].evaluate(rec) == "x"
        assert col("m")["missing"].evaluate(rec) is None

    def test_columns_tracked_through_composition(self):
        expr = (col("a") > 3) & col("b").contains("x") | (col("c")["k"] == 1)
        assert expr.columns == frozenset({"a", "b", "c"})

    def test_apply_and_length(self):
        from repro.serde.record import Record
        from repro.serde.schema import Schema

        schema = Schema.record("r", [("s", Schema.string())])
        rec = Record(schema, {"s": "hello"})
        assert col("s").length().evaluate(rec) == 5
        assert col("s").apply(str.upper).evaluate(rec) == "HELLO"

    def test_is_null(self):
        from repro.serde.record import Record
        from repro.serde.schema import Schema

        schema = Schema.record("r", [("s", Schema.string())])
        assert col("s").is_null().evaluate(Record(schema)) is True


class TestProjectionQueries:
    def test_select_with_filter(self, crawl_fs):
        fs, records = crawl_fs
        result = (
            Q("/q/crawl")
            .where(col("url").contains("ibm.com/jp"))
            .select("url", ctype=col("metadata")["content-type"])
            .run(fs)
        )
        expected = [
            {"url": r.get("url"), "ctype": r.get("metadata")["content-type"]}
            for r in records
            if "ibm.com/jp" in r.get("url")
        ]
        assert sorted(r["url"] for r in result) == sorted(
            e["url"] for e in expected
        )
        assert {r["ctype"] for r in result} == {e["ctype"] for e in expected}

    def test_empty_query_rejected(self, crawl_fs):
        fs, _ = crawl_fs
        with pytest.raises(QueryError):
            Q("/q/crawl").run(fs)

    def test_conjunctive_filters(self, micro_fs):
        fs, records = micro_fs
        result = (
            Q("/q/micro")
            .where(col("int0") > 5000)
            .where(col("int1") <= 5000)
            .select("int0", "int1")
            .run(fs)
        )
        expected = [
            r for r in records
            if r.get("int0") > 5000 and r.get("int1") <= 5000
        ]
        assert len(result) == len(expected)


class TestAggregationQueries:
    def test_global_aggregates(self, micro_fs):
        fs, records = micro_fs
        result = (
            Q("/q/micro")
            .aggregate(
                n=count(),
                total=sum_(col("int0")),
                low=min_(col("int0")),
                high=max_(col("int0")),
                mean=avg(col("int0")),
            )
            .run(fs)
        )
        values = [r.get("int0") for r in records]
        row = result.rows[0]
        assert row["n"] == len(values)
        assert row["total"] == sum(values)
        assert row["low"] == min(values)
        assert row["high"] == max(values)
        assert row["mean"] == pytest.approx(sum(values) / len(values))

    def test_group_by_with_filter(self, crawl_fs):
        fs, records = crawl_fs
        result = (
            Q("/q/crawl")
            .where(col("url").contains("ibm.com/jp"))
            .group_by(ctype=col("metadata")["content-type"])
            .aggregate(pages=count(), latest=max_(col("fetchTime")))
            .run(fs)
        )
        expected = {}
        for r in records:
            if "ibm.com/jp" not in r.get("url"):
                continue
            key = r.get("metadata")["content-type"]
            pages, latest = expected.get(key, (0, None))
            expected[key] = (
                pages + 1,
                r.get("fetchTime") if latest is None
                else max(latest, r.get("fetchTime")),
            )
        got = {r["ctype"]: (r["pages"], r["latest"]) for r in result}
        assert got == expected

    def test_count_distinct_matches_figure_1(self, crawl_fs):
        # Figure 1's job as one declarative line.
        fs, records = crawl_fs
        result = (
            Q("/q/crawl")
            .where(col("url").contains("ibm.com/jp"))
            .aggregate(
                content_types=count_distinct(col("metadata")["content-type"])
            )
            .run(fs)
        )
        expected = len({
            r.get("metadata")["content-type"]
            for r in records
            if "ibm.com/jp" in r.get("url")
        })
        assert result.rows[0]["content_types"] == expected

    def test_combiner_used_when_algebraic(self, micro_fs):
        fs, _ = micro_fs
        q = Q("/q/micro").group_by("int0").aggregate(n=count())
        assert "combiner: yes" in q.explain()
        q2 = Q("/q/micro").aggregate(d=count_distinct(col("int0")))
        assert "combiner: no" in q2.explain()

    def test_select_after_aggregate_rejected(self):
        q = Q("/d").aggregate(n=count())
        with pytest.raises(QueryError):
            q.select("x")

    def test_empty_aggregate_rejected(self):
        with pytest.raises(QueryError):
            Q("/d").aggregate()

    def test_select_after_group_by_rejected(self):
        with pytest.raises(QueryError):
            Q("/d").group_by(b=col("x")).select("y")

    def test_group_by_after_select_rejected(self):
        with pytest.raises(QueryError):
            Q("/d").select("y").group_by(b=col("x"))

    def test_group_by_without_aggregate_rejected(self, micro_fs):
        # Used to return every row, ungrouped, without a word.
        fs, _ = micro_fs
        with pytest.raises(QueryError):
            Q("/q/micro").group_by(b=col("int0").apply(lambda v: v % 2)).run(fs)


class TestPlanning:
    def test_projection_pushdown_columns(self):
        q = (
            Q("/d")
            .where(col("url").contains("x"))
            .group_by(ct=col("metadata")["content-type"])
            .aggregate(n=count())
        )
        assert q.referenced_columns() == ["metadata", "url"]
        assert "projection push-down: ['metadata', 'url']" in q.explain()

    def test_pushdown_reduces_bytes_read(self, crawl_fs):
        fs, _ = crawl_fs
        narrow = (
            Q("/q/crawl")
            .where(col("url").contains("ibm.com/jp"))
            .select("url")
            .run(fs)
        )
        wide = (
            Q("/q/crawl")
            .where(col("url").contains("ibm.com/jp"))
            .select("url", "content")
            .run(fs)
        )
        assert narrow.bytes_read < wide.bytes_read / 3

    def test_late_materialization_skips_filtered_columns(self, crawl_fs):
        # With a selective filter, the metadata column is deserialized
        # only for matching records: cells decoded stay low.
        fs, records = crawl_fs
        selective = (
            Q("/q/crawl")
            .where(col("url").contains("ibm.com/jp"))
            .group_by(ct=col("metadata")["content-type"])
            .aggregate(n=count())
            .run(fs)
        )
        full = (
            Q("/q/crawl")
            .group_by(ct=col("metadata")["content-type"])
            .aggregate(n=count())
            .run(fs)
        )
        assert selective.job.map_metrics.cells < full.job.map_metrics.cells

    def test_builder_is_immutable(self):
        base = Q("/d")
        filtered = base.where(col("x") > 1)
        assert base._filters == []
        assert len(filtered._filters) == 1

    def test_query_result_iteration(self, micro_fs):
        fs, _ = micro_fs
        result = Q("/q/micro").select("int0").run(fs)
        assert len(list(result)) == len(result) == 300


class TestPostAggregation:
    def test_having_filters_groups(self, micro_fs):
        fs, records = micro_fs
        result = (
            Q("/q/micro")
            .group_by(bucket=col("int0").apply(lambda v: v % 5, "mod5"))
            .aggregate(n=count())
            .having(lambda row: row["n"] >= 50)
            .run(fs)
        )
        from collections import Counter

        counts = Counter(r.get("int0") % 5 for r in records)
        expected = {b: n for b, n in counts.items() if n >= 50}
        assert {r["bucket"]: r["n"] for r in result} == expected

    def test_order_by_and_limit(self, micro_fs):
        fs, records = micro_fs
        result = (
            Q("/q/micro")
            .group_by(bucket=col("int0").apply(lambda v: v % 5, "mod5"))
            .aggregate(n=count())
            .order_by("n", descending=True)
            .limit(2)
            .run(fs)
        )
        assert len(result) == 2
        assert result.rows[0]["n"] >= result.rows[1]["n"]

    def test_order_by_on_projection(self, micro_fs):
        fs, records = micro_fs
        result = (
            Q("/q/micro").select("int0").order_by("int0").limit(5).run(fs)
        )
        expected = sorted(r.get("int0") for r in records)[:5]
        assert [r["int0"] for r in result] == expected

    def test_limit_validation(self):
        from repro.query.query import QueryError

        with pytest.raises(QueryError):
            Q("/d").limit(-1)

    def test_having_requires_callable(self):
        from repro.query.query import QueryError

        with pytest.raises(QueryError):
            Q("/d").having("n > 3")


class TestQueryProperties:
    def test_random_groupby_matches_local_computation(self, micro_fs):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        fs, records = micro_fs

        @settings(max_examples=10, deadline=None)
        @given(
            modulus=st.integers(min_value=1, max_value=9),
            threshold=st.integers(min_value=0, max_value=10000),
            agg_col=st.sampled_from(["int1", "int2", "int3"]),
        )
        def check(modulus, threshold, agg_col):
            result = (
                Q("/q/micro")
                .where(col("int0") >= threshold)
                .group_by(g=col("int5").apply(lambda v: v % modulus, "mod"))
                .aggregate(n=count(), total=sum_(col(agg_col)))
                .run(fs)
            )
            expected = {}
            for r in records:
                if r.get("int0") < threshold:
                    continue
                g = r.get("int5") % modulus
                n, total = expected.get(g, (0, 0))
                expected[g] = (n + 1, total + r.get(agg_col))
            got = {row["g"]: (row["n"], row["total"]) for row in result}
            assert got == expected

        check()


def _opaque(expr):
    """The same Expr with no structure: it evaluates identically but
    gives the compiler nothing to compile."""
    return Expr(expr.evaluate, expr.columns, f"opaque {expr.description}")


def _lazy_counters(registry):
    return {
        (name, labels): metric.value
        for name, labels, metric in registry
        if name.startswith("lazy.")
    }


def _recorded(q, fs):
    recorder = FlightRecorder(clock=lambda: 0.0)
    with recorder.activate():
        result = q.run(fs)
    return result, recorder


class TestFramePrograms:
    """Select / group / aggregate expressions run column-at-a-time over
    each frame's survivors; the per-row path is what they fall back to,
    and both must make the same charges in the same order."""

    SHAPES = {
        "selective": lambda q: q.where(col("str0").contains("-1"))
        .aggregate(total=sum_(col("attrs")["k07-0"])),
        "narrow": lambda q: q.where(col("int0") > 5000)
        .aggregate(top=max_(col("int1"))),
        "wide": lambda q: q.group_by(b=col("int0").apply(lambda v: v % 8))
        .aggregate(
            n=count(), a=sum_(col("int1")), l=sum_(col("str2").length())
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_cif_scan_shapes_take_no_fallback(self, micro_fs, shape):
        fs, _ = micro_fs
        _, recorder = _recorded(self.SHAPES[shape](Q("/q/micro")), fs)
        report = recorder.report()
        assert expr_fallback_totals(report) == {}
        assert not recorder.registry.find("vecexpr.fallback")

    def test_expr_without_metadata_falls_back_once(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 40)
        write_dataset(fs, "/q/one", schema, records, split_bytes=1 << 20)
        raw = _opaque(col("int0") + 1)
        result, recorder = _recorded(Q("/q/one").select("str0", x=raw), fs)
        assert sorted(r["x"] for r in result) == sorted(
            r.get("int0") + 1 for r in records
        )
        report = recorder.report()
        assert expr_fallback_totals(report) == {raw.description: 1}
        assert raw.description in render_operators(report)

    def test_a_fallback_evaluates_records(self, micro_fs):
        fs, records = micro_fs
        seen = set()

        def plus_one(row, ctx):
            seen.add(type(row))
            return row.get("int0") + 1

        raw = Expr(plus_one, frozenset({"int0"}), "opaque plus one")
        result = Q("/q/micro").where(raw > 5000).select(x=raw).run(fs)
        assert sorted(r["x"] for r in result) == sorted(
            r.get("int0") + 1 for r in records if r.get("int0") + 1 > 5000
        )
        assert seen == {Record}

    def test_contains_outside_where_falls_back(self, micro_fs):
        fs, records = micro_fs
        q = Q("/q/micro").select(hit=col("str0").contains("-1"))
        result, recorder = _recorded(q, fs)
        assert sorted(r["hit"] for r in result) == sorted(
            "-1" in r.get("str0") for r in records
        )
        assert list(expr_fallback_totals(recorder.report())) == [
            "str0 contains '-1'"
        ]

    def test_charges_equal_the_per_row_path_bit_for_bit(self, micro_fs):
        """Any compiled op against the same op forced row by row: rows,
        every ``Metrics`` field (exact ``==``: the compiled op reads a
        column at a time, the per-row path a cell at a time, and whole
        ticks add up the same either way), and the lazy counters."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        fs, _ = micro_fs
        values = st.sampled_from([
            col("int1"), col("str3"), col("attrs")["k07-0"],
            col("int2") * 2 - col("int4"), col("str1").length(),
            col("int3").apply(lambda v: v // 1000, "thousands"),
            (col("int5") > 5000) | col("int5").is_null(), ~(col("int1") < 10),
        ])
        filters = st.lists(st.sampled_from([
            col("int0") > 3000, col("int2") < 7000,
            col("str0").contains("-2"), col("str4").length() > 30,
        ]), max_size=2)

        @settings(max_examples=15, deadline=None)
        @given(
            filters=filters,
            exprs=st.lists(values, min_size=1, max_size=4),
            grouped=st.booleans(),
        )
        def check(filters, exprs, grouped):
            def build(wrap):
                q = Q("/q/micro")
                for f in filters:
                    q = q.where(f)
                named = {f"e{i}": wrap(e) for i, e in enumerate(exprs)}
                if not grouped:
                    return q.select(**named)
                key, *rest = named.values()
                return q.group_by(g=key).aggregate(
                    n=count(), **{f"m{i}": max_(e) for i, e in enumerate(rest)}
                )

            compiled, rec_c = _recorded(build(lambda e: e), fs)
            per_row, rec_r = _recorded(build(_opaque), fs)
            assert expr_fallback_totals(rec_c.report()) == {}
            assert expr_fallback_totals(rec_r.report())
            assert compiled.rows == per_row.rows
            assert compiled.job.map_metrics == per_row.job.map_metrics
            assert compiled.job.reduce_metrics == per_row.job.reduce_metrics
            assert _lazy_counters(rec_c.registry) == _lazy_counters(
                rec_r.registry
            )

        check()
