"""Tests for the paper's contribution: COF loading, CIF reading,
column file layouts, lazy records, and cheap column addition."""

import pytest

from repro.core import ColumnInputFormat, ColumnSpec, add_column, write_dataset
from repro.core.cif import column_record_count
from repro.core.cof import read_dataset_schema, split_dirs_of
from repro.serde.record import Record
from repro.serde.schema import Schema, SchemaError
from tests.conftest import make_ctx, micro_records, micro_schema

ALL_SPECS = [
    ColumnSpec("plain"),
    ColumnSpec("skiplist", skip_sizes=(100, 10)),
    ColumnSpec("cblock", codec="lzo", block_bytes=2048),
    ColumnSpec("cblock", codec="zlib", block_bytes=2048),
]


def load(fs, records, schema, dataset="/data/d1", **kw):
    return write_dataset(fs, dataset, schema, records, **kw)


def read_all(fs, dataset, columns=None, lazy=False, ctx=None):
    fmt = ColumnInputFormat(dataset, columns=columns, lazy=lazy)
    out = []
    ctx = ctx or make_ctx()
    for split in fmt.get_splits(fs, fs.cluster):
        reader = fmt.open_reader(fs, split, ctx)
        for _, record in reader:
            out.append(record.to_dict() if lazy else record.to_dict())
    return out


class TestCofLayout:
    def test_split_directories_created(self, fs):
        schema = micro_schema()
        n = load(fs, micro_records(schema, 300), schema, split_bytes=16 * 1024)
        dirs = split_dirs_of(fs, "/data/d1")
        assert len(dirs) == n > 1
        for split_dir in dirs:
            children = fs.listdir(split_dir)
            assert ".schema" in children
            assert set(schema.field_names) <= set(children)

    def test_schema_readable_back(self, fs):
        schema = micro_schema()
        load(fs, micro_records(schema, 10), schema)
        assert read_dataset_schema(fs, "/data/d1") == schema

    def test_counts_consistent_across_columns(self, fs):
        schema = micro_schema()
        load(fs, micro_records(schema, 123), schema, split_bytes=8 * 1024)
        for split_dir in split_dirs_of(fs, "/data/d1"):
            counts = {
                column_record_count(fs, f"{split_dir}/{name}")
                for name in schema.field_names
            }
            assert len(counts) == 1

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.format + "-" + s.codec)
    def test_each_value_is_encoded_once(self, fs, spec, monkeypatch):
        """The encoding that sizes a split is the one its column files
        are framed from: each column's values pass through
        ``encode_values`` once, in record order.  The files are what
        values alone encode to."""
        from repro.core import columnio
        from repro.serde import binary

        encode_values = binary.encode_values
        calls = []

        def recording(schema, values):
            calls.append((schema, list(values)))
            return encode_values(schema, values)

        monkeypatch.setattr(binary, "encode_values", recording)
        monkeypatch.setattr(columnio, "encode_values", recording)
        schema = micro_schema()
        records = micro_records(schema, 300)
        n = load(fs, records, schema, default_spec=spec, split_bytes=16 * 1024)
        assert n > 1
        # a batch at a time, one call per column in schema order
        width = len(schema.fields)
        assert calls and len(calls) % width == 0
        for i, field in enumerate(schema.fields):
            assert all(s is field.schema for s, _ in calls[i::width])
            assert [v for _, values in calls[i::width] for v in values] == [
                r.get(field.name) for r in records
            ]
        monkeypatch.undo()
        offset = 0
        for split_dir in split_dirs_of(fs, "/data/d1"):
            count = column_record_count(fs, f"{split_dir}/{schema.fields[0].name}")
            chunk = records[offset:offset + count]
            offset += count
            for field in schema.fields:
                assert fs.read_file(f"{split_dir}/{field.name}") == (
                    columnio.encode_column_file(
                        field.schema, [r.get(field.name) for r in chunk], spec
                    )
                )
        assert offset == len(records)

    def test_empty_dataset_single_split(self, fs):
        schema = micro_schema()
        assert load(fs, [], schema) == 1
        assert read_all(fs, "/data/d1") == []

    def test_unknown_spec_column_rejected(self, fs):
        with pytest.raises(SchemaError):
            write_dataset(
                fs, "/d", micro_schema(), [], specs={"nope": ColumnSpec()}
            )


class TestCifRoundtrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.format + "-" + s.codec)
    def test_roundtrip_all_layouts(self, fs, spec):
        schema = micro_schema()
        records = micro_records(schema, 350)
        load(fs, records, schema, default_spec=spec, split_bytes=16 * 1024)
        assert read_all(fs, "/data/d1") == [r.to_dict() for r in records]

    def test_dcsl_roundtrip_for_map_column(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 350)
        load(
            fs,
            records,
            schema,
            specs={"attrs": ColumnSpec("dcsl", skip_sizes=(100, 10))},
            split_bytes=16 * 1024,
        )
        assert read_all(fs, "/data/d1") == [r.to_dict() for r in records]

    def test_dcsl_requires_map_column(self, fs):
        schema = micro_schema()
        with pytest.raises(SchemaError):
            load(
                fs,
                micro_records(schema, 5),
                schema,
                specs={"str0": ColumnSpec("dcsl")},
            )

    def test_lazy_equals_eager(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 200)
        load(fs, records, schema, split_bytes=16 * 1024)
        assert read_all(fs, "/data/d1", lazy=True) == read_all(
            fs, "/data/d1", lazy=False
        )

    def test_projection_returns_only_selected(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 50)
        load(fs, records, schema)
        out = read_all(fs, "/data/d1", columns=["str1", "attrs"])
        assert out == [
            {"str1": r.get("str1"), "attrs": r.get("attrs")} for r in records
        ]

    def test_set_columns_comma_string(self, fs):
        schema = micro_schema()
        load(fs, micro_records(schema, 5), schema)
        fmt = ColumnInputFormat("/data/d1")
        fmt.set_columns("str0, int0")  # the paper's setColumns API
        assert fmt.columns == ["str0", "int0"]

    def test_unprojected_files_not_opened(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 400)
        load(fs, records, schema, split_bytes=32 * 1024)
        ctx_one = make_ctx()
        read_all(fs, "/data/d1", columns=["int0"], ctx=ctx_one)
        ctx_all = make_ctx()
        read_all(fs, "/data/d1", ctx=ctx_all)
        assert ctx_one.metrics.disk_bytes < ctx_all.metrics.disk_bytes / 5

    def test_get_unprojected_column_raises(self, fs):
        schema = micro_schema()
        load(fs, micro_records(schema, 5), schema)
        fmt = ColumnInputFormat("/data/d1", columns=["str0"], lazy=True)
        split = fmt.get_splits(fs, fs.cluster)[0]
        reader = fmt.open_reader(fs, split, make_ctx())
        _, record = next(iter(reader))
        with pytest.raises(SchemaError):
            record.get("attrs")


class TestReaderChoice:
    def test_default_opens_the_batch_reader(self, fs):
        from repro.core.cif import CIFRecordReader, VectorizedCIFRecordReader

        schema = micro_schema()
        load(fs, micro_records(schema, 20), schema)
        for kwargs, expected in (
            ({}, VectorizedCIFRecordReader),
            ({"execution": "vectorized"}, VectorizedCIFRecordReader),
            ({"execution": "scalar"}, CIFRecordReader),
        ):
            fmt = ColumnInputFormat("/data/d1", **kwargs)
            split = fmt.get_splits(fs, fs.cluster)[0]
            reader = fmt.open_reader(fs, split, make_ctx())
            assert type(reader) is expected

    def test_bad_arguments_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ColumnInputFormat("/data/d1", batch_rows=0)
        with pytest.raises(ValueError):
            ColumnInputFormat("/data/d1", execution="ambient")
        with pytest.raises(ValueError):
            ColumnInputFormat("/data/d1", execution=None)


class TestCifSplits:
    def test_one_split_per_directory_by_default(self, fs):
        schema = micro_schema()
        n = load(fs, micro_records(schema, 300), schema, split_bytes=16 * 1024)
        fmt = ColumnInputFormat("/data/d1")
        assert len(fmt.get_splits(fs, fs.cluster)) == n

    def test_dirs_per_split_grouping(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 300)
        n = load(fs, records, schema, split_bytes=16 * 1024)
        fmt = ColumnInputFormat("/data/d1", dirs_per_split=2)
        splits = fmt.get_splits(fs, fs.cluster)
        assert len(splits) == (n + 1) // 2
        out = []
        for split in splits:
            out.extend(
                r.to_dict()
                for _, r in fmt.open_reader(fs, split, make_ctx())
            )
        assert out == [r.to_dict() for r in records]

    def test_split_locations_with_cpp(self, fs):
        fs.use_column_placement()
        schema = micro_schema()
        load(fs, micro_records(schema, 300), schema, split_bytes=16 * 1024)
        fmt = ColumnInputFormat("/data/d1")
        for split in fmt.get_splits(fs, fs.cluster):
            assert len(split.locations) == 3  # fully co-located replicas

    def test_split_length_counts_projected_only(self, fs):
        schema = micro_schema()
        load(fs, micro_records(schema, 200), schema)
        full = ColumnInputFormat("/data/d1").get_splits(fs, fs.cluster)
        one = ColumnInputFormat("/data/d1", columns=["int0"]).get_splits(
            fs, fs.cluster
        )
        assert one[0].length < full[0].length / 5


class TestLazySkipping:
    def test_lazy_skips_deserialization(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 300)
        load(
            fs,
            records,
            schema,
            default_spec=ColumnSpec("skiplist", skip_sizes=(100, 10)),
        )
        fmt = ColumnInputFormat(
            "/data/d1", columns=["int0", "attrs"], lazy=True
        )
        ctx = make_ctx()
        split = fmt.get_splits(fs, fs.cluster)[0]
        touched = 0
        for _, record in fmt.open_reader(fs, split, ctx):
            if record.get("int0") % 10 == 0:  # ~10% selectivity
                record.get("attrs")
                touched += 1
        # Far fewer map cells decoded than a full scan would produce.
        full_cells = 300 * (1 + 20)  # int + 10 keys + 10 values per record
        assert ctx.metrics.cells < full_cells * 0.5
        assert 0 < touched < 300

    def test_lazy_cheaper_cpu_than_eager_at_low_selectivity(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 400)
        load(
            fs,
            records,
            schema,
            default_spec=ColumnSpec("skiplist", skip_sizes=(100, 10)),
        )

        def run(lazy):
            fmt = ColumnInputFormat(
                "/data/d1", columns=["int0", "attrs"], lazy=lazy
            )
            ctx = make_ctx()
            for split in fmt.get_splits(fs, fs.cluster):
                for _, record in fmt.open_reader(fs, split, ctx):
                    if record.get("int0") < 0:  # never true: 0% selectivity
                        record.get("attrs")
            return ctx.metrics.cpu_time

        assert run(lazy=True) < run(lazy=False)

    def test_repeated_get_same_record_decodes_once(self, fs):
        schema = micro_schema()
        load(fs, micro_records(schema, 10), schema)
        fmt = ColumnInputFormat("/data/d1", lazy=True)
        split = fmt.get_splits(fs, fs.cluster)[0]
        ctx = make_ctx()
        reader = fmt.open_reader(fs, split, ctx)
        _, record = next(iter(reader))
        first = record.get("attrs")
        cells_after_first = ctx.metrics.cells
        assert record.get("attrs") is first
        assert ctx.metrics.cells == cells_after_first

    @pytest.mark.parametrize(
        "spec",
        [
            ColumnSpec("plain"),
            ColumnSpec("skiplist", skip_sizes=(100, 10)),
            ColumnSpec("cblock", codec="lzo", block_bytes=1024),
        ],
        ids=lambda s: s.format,
    )
    def test_sparse_access_pattern_correct(self, fs, spec):
        """Property: values fetched through arbitrary skips are correct."""
        schema = micro_schema()
        records = micro_records(schema, 257)  # not a multiple of any level
        load(fs, records, schema, default_spec=spec)
        fmt = ColumnInputFormat("/data/d1", columns=["int2", "attrs"], lazy=True)
        split = fmt.get_splits(fs, fs.cluster)[0]
        wanted = {3, 4, 17, 99, 100, 101, 200, 256}
        got = {}
        for i, (_, record) in enumerate(fmt.open_reader(fs, split, make_ctx())):
            if i in wanted:
                got[i] = (record.get("int2"), record.get("attrs"))
        assert got == {
            i: (records[i].get("int2"), records[i].get("attrs")) for i in wanted
        }


def lazy_and_eager_rows(fs, dataset, columns, execution):
    """Each lazy row (reused: compared before the next one is read) with
    its eager twin, over every split of ``dataset``."""
    lazy, eager = (
        ColumnInputFormat(dataset, columns=columns, lazy=lazy,
                          execution=execution)
        for lazy in (True, False)
    )
    for split in lazy.get_splits(fs, fs.cluster):
        yield from zip(
            (r for _, r in lazy.open_reader(fs, split, make_ctx())),
            (r for _, r in eager.open_reader(fs, split, make_ctx())),
        )


class TestLazyRowsAreRecords:
    @pytest.mark.parametrize("execution", ["scalar", "vectorized"])
    def test_a_lazy_row_equals_its_eager_twin(self, fs, execution):
        schema = micro_schema()
        load(fs, micro_records(schema, 60), schema, split_bytes=4096)
        pairs = 0
        for lazy, eager in lazy_and_eager_rows(
            fs, "/data/d1", ["int1", "str0", "attrs"], execution
        ):
            assert isinstance(lazy, Record)
            lazy.get("int1")
            assert lazy == eager and eager == lazy
            assert repr(lazy) == repr(eager)
            pairs += 1
        assert pairs == 60

    def test_a_writer_takes_lazy_rows(self, fs):
        schema = micro_schema()
        load(fs, micro_records(schema, 80), schema, split_bytes=4096)
        for name, lazy in (("eager", False), ("lazy", True)):
            fmt = ColumnInputFormat("/data/d1", lazy=lazy)
            rows = (
                r for split in fmt.get_splits(fs, fs.cluster)
                for _, r in fmt.open_reader(fs, split, make_ctx())
            )
            load(fs, rows, schema, dataset=f"/out/{name}", split_bytes=2048)
        dirs = split_dirs_of(fs, "/out/eager")
        assert len(dirs) > 1
        assert [d.replace("eager", "lazy") for d in dirs] == split_dirs_of(
            fs, "/out/lazy"
        )
        for split_dir in dirs:
            for name in fs.listdir(split_dir):
                path = f"{split_dir}/{name}"
                assert fs.read_file(path) == fs.read_file(
                    path.replace("eager", "lazy")
                ), path


class TestAddColumn:
    def test_add_column_visible_and_cheap(self, fs):
        schema = micro_schema()
        records = micro_records(schema, 250)
        load(fs, records, schema, split_bytes=16 * 1024)
        before = {
            split_dir: fs.file_length(f"{split_dir}/attrs")
            for split_dir in split_dirs_of(fs, "/data/d1")
        }
        ranks = [float(i) * 0.5 for i in range(250)]
        add_column(fs, "/data/d1", "rank", Schema.double(), ranks)

        out = read_all(fs, "/data/d1", columns=["rank"])
        assert [r["rank"] for r in out] == ranks
        # Existing column files were not rewritten.
        for split_dir, size in before.items():
            assert fs.file_length(f"{split_dir}/attrs") == size

    def test_add_column_updates_schema(self, fs):
        schema = micro_schema()
        load(fs, micro_records(schema, 30), schema)
        add_column(fs, "/data/d1", "flag", Schema.boolean(), [True] * 30)
        evolved = read_dataset_schema(fs, "/data/d1")
        assert "flag" in evolved.field_names

    def test_add_column_wrong_count_rejected(self, fs):
        schema = micro_schema()
        load(fs, micro_records(schema, 30), schema)
        with pytest.raises(ValueError):
            add_column(fs, "/data/d1", "x", Schema.int_(), [1] * 10)
