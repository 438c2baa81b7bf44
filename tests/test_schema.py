"""Tests for schema parsing, projection, and evolution."""

import pytest

from repro.serde.schema import PRIMITIVES, Field, Schema, SchemaError


def url_info_schema():
    """Figure 2's URLInfo schema."""
    return Schema.record(
        "URLInfo",
        [
            ("url", Schema.string()),
            ("srcUrl", Schema.string()),
            ("fetchTime", Schema.time()),
            ("inlink", Schema.array(Schema.string())),
            ("metadata", Schema.map(Schema.string())),
            ("annotations", Schema.map(Schema.string())),
            ("content", Schema.bytes_()),
        ],
    )


class TestConstruction:
    def test_primitives(self):
        for name in ("int", "long", "double", "boolean", "string", "bytes", "time"):
            assert Schema.parse(name).kind == name

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            Schema("decimal")

    def test_duplicate_field_rejected(self):
        with pytest.raises(SchemaError):
            Schema.record("r", [("a", Schema.int_()), ("a", Schema.string())])

    def test_field_indices_in_order(self):
        schema = url_info_schema()
        assert [f.index for f in schema.fields] == list(range(7))
        assert schema.field("fetchTime").index == 2

    def test_missing_field_raises(self):
        with pytest.raises(SchemaError):
            url_info_schema().field("nope")

    def test_fields_on_primitive_raises(self):
        with pytest.raises(SchemaError):
            Schema.int_().field("x")


class TestJsonRoundtrip:
    def test_url_info_roundtrip(self):
        schema = url_info_schema()
        parsed = Schema.parse(schema.to_json())
        assert parsed == schema
        assert parsed.field("metadata").schema.kind == "map"
        assert parsed.field("inlink").schema.items.kind == "string"

    def test_nested_record_roundtrip(self):
        inner = Schema.record("inner", [("x", Schema.int_())])
        outer = Schema.record(
            "outer", [("a", inner), ("b", Schema.array(inner))]
        )
        assert Schema.parse(outer.to_json()) == outer

    def test_parse_dict_form(self):
        schema = Schema.parse(
            {
                "type": "record",
                "name": "kv",
                "fields": [
                    {"name": "k", "type": "string"},
                    {"name": "v", "type": {"type": "map", "values": "int"}},
                ],
            }
        )
        assert schema.field("v").schema.values.kind == "int"

    def test_parse_bad_primitive(self):
        with pytest.raises(SchemaError):
            Schema.parse("varchar")

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_a_primitive_parses_the_same_in_every_form(self, name):
        bare = Schema.parse(name)
        assert bare == Schema(name) and bare.kind == name
        assert Schema.parse(f'"{name}"') == bare
        assert Schema.parse({"type": name}) == bare
        assert Schema.parse(f'{{"type": "{name}"}}') == bare

    @pytest.mark.parametrize("name", ["varchar", '"varchar"', "Int", ""])
    def test_an_unknown_name_still_raises(self, name):
        with pytest.raises(SchemaError):
            Schema.parse(name)


class TestProjection:
    def test_project_keeps_schema_order(self):
        schema = url_info_schema()
        proj = schema.project(["metadata", "url"])
        assert proj.field_names == ["url", "metadata"]

    def test_project_unknown_field(self):
        with pytest.raises(SchemaError):
            url_info_schema().project(["url", "bogus"])

    def test_with_field_appends(self):
        schema = url_info_schema()
        evolved = schema.with_field("pagerank", Schema.double())
        assert evolved.field_names[-1] == "pagerank"
        assert len(schema.fields) == 7  # original untouched

    def test_with_field_duplicate(self):
        with pytest.raises(SchemaError):
            url_info_schema().with_field("url", Schema.string())


class TestEquality:
    def test_field_equality_ignores_index(self):
        a = Field("x", Schema.int_(), 0)
        b = Field("x", Schema.int_(), 3)
        assert a == b

    def test_schema_hashable(self):
        assert hash(url_info_schema()) == hash(url_info_schema())
