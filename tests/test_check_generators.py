"""The differential harness's case generator: determinism, boundary
bias, query rewriting, and the JSON corpus round-trip."""

from dataclasses import replace

from repro.check.generators import (
    DEFAULT_IO_BUFFER,
    IO_BUFFERS,
    Case,
    QuerySpec,
    case_from_obj,
    case_to_obj,
    expected_output,
    generate_case,
    normalize,
    rewrite_query,
    to_records,
    zero_value,
)
from repro.serde.schema import Schema


class TestDeterminism:
    def test_same_seed_same_case(self):
        for seed in (0, 7, 123, 99999):
            a, b = generate_case(seed), generate_case(seed)
            assert a.schema.to_json() == b.schema.to_json()
            assert a.rows == b.rows
            assert a.query == b.query
            assert a.chaos_seed == b.chaos_seed

    def test_seeds_differ(self):
        cases = [generate_case(s) for s in range(20)]
        distinct = {
            (c.schema.to_json(), tuple(map(repr, c.rows))) for c in cases
        }
        assert len(distinct) > 15  # near-total case diversity

    def test_io_buffer_is_seeded_and_every_size_is_drawn(self):
        drawn = [generate_case(seed).io_buffer for seed in range(40)]
        assert drawn == [generate_case(seed).io_buffer for seed in range(40)]
        assert set(drawn) == set(IO_BUFFERS)

    def test_row_count_override(self):
        assert len(generate_case(3, num_rows=2).rows) == 2

    def test_first_field_is_a_groupable_key(self):
        from repro.check.generators import KEY_KINDS

        for seed in range(30):
            case = generate_case(seed)
            assert case.schema.fields[0].schema.kind in KEY_KINDS


class TestBoundaryBias:
    def test_boundary_values_appear(self):
        """A modest seed sweep must surface extreme sentinels — the
        whole point of pool-driven generation."""
        hits = set()
        for seed in range(120):
            for row in generate_case(seed).rows:
                for value in row.values():
                    if value in (2**31 - 1, -(2**31), 2**63 - 1):
                        hits.add("int-extreme")
                    if value == "":
                        hits.add("empty-string")
                    if isinstance(value, str) and "\x00" in value:
                        hits.add("nul-string")
        assert {"int-extreme", "empty-string", "nul-string"} <= hits


class TestQueries:
    def test_query_columns_exist(self):
        for seed in range(40):
            case = generate_case(seed)
            for name in case.query.columns:
                assert case.schema.has_field(name)
            if case.query.value_col:
                assert case.schema.has_field(case.query.value_col)

    def test_rewrite_query_survives_projection(self):
        for seed in range(40):
            case = generate_case(seed)
            keep = [case.schema.fields[0].name]
            projected = case.schema.project(keep)
            rewritten = rewrite_query(case.query, projected)
            for name in rewritten.columns:
                assert projected.has_field(name)

    def test_expected_output_group_count(self):
        schema = Schema.record("t", [("k", Schema.string())])
        case = Case(
            seed=0, schema=schema,
            rows=[{"k": "a"}, {"k": "b"}, {"k": "a"}],
            query=QuerySpec(kind="group", columns=("k",), agg="count"),
            chaos_seed=0,
        )
        assert sorted(expected_output(case)) == [("a", 2), ("b", 1)]


class TestCorpusRoundTrip:
    def test_json_round_trip_exact(self):
        for seed in (1, 5, 42, 77, 1234):
            case = generate_case(seed)
            back = case_from_obj(case_to_obj(case))
            assert back.schema.to_json() == case.schema.to_json()
            assert back.rows == case.rows
            assert back.query == case.query
            assert back.seed == case.seed
            assert back.chaos_seed == case.chaos_seed

    def test_round_trip_preserves_bytes_and_nested(self):
        schema = Schema.record("t", [
            ("k", Schema.int_()),
            ("b", Schema.bytes_()),
            ("m", Schema.map(values=Schema.array(Schema.string()))),
        ])
        case = Case(
            seed=9, schema=schema,
            rows=[{"k": 1, "b": b"\x00\xff", "m": {"": ["", "\x00"]}}],
            query=QuerySpec(kind="project", columns=("k", "b", "m")),
            chaos_seed=3, note="hand-built",
        )
        back = case_from_obj(case_to_obj(case))
        assert back.rows == case.rows
        assert back.note == "hand-built"

    def test_io_buffer_travels_only_when_it_is_not_the_default(self):
        case = generate_case(4)
        odd = replace(case, io_buffer=61)
        assert case_to_obj(odd)["io_buffer"] == 61
        assert case_from_obj(case_to_obj(odd)).io_buffer == 61
        plain = case_to_obj(replace(case, io_buffer=DEFAULT_IO_BUFFER))
        assert "io_buffer" not in plain
        assert case_from_obj(plain).io_buffer == DEFAULT_IO_BUFFER

    def test_committed_corpus_keeps_its_names(self, tmp_path):
        # the name carries a digest of the payload: a case saved before
        # the io_buffer field must re-save byte for byte
        import os

        from repro.check.fuzzer import corpus_files, load_case, save_case

        for path in corpus_files():
            resaved = save_case(load_case(path), str(tmp_path))
            assert os.path.basename(resaved) == os.path.basename(path)

    def test_shrunk_note_survives(self):
        case = replace(generate_case(4), note="shrunk from seed 4")
        assert case_from_obj(case_to_obj(case)).note == "shrunk from seed 4"


class TestHelpers:
    def test_to_records_normalize_inverse(self):
        case = generate_case(11)
        records = to_records(case.schema, case.rows)
        assert [normalize(r) for r in case.rows] == [
            normalize(r) for r in records
        ]

    def test_zero_values_typecheck(self):
        case = generate_case(13)
        zeroed = [
            {f.name: zero_value(f.schema) for f in case.schema.fields}
        ]
        # must be storable: Record construction validates kinds
        assert to_records(case.schema, zeroed)[0] is not None
