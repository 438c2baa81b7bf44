"""Direct unit tests for the four column-file layouts.

These exercise readers at the ColumnReader level (below CIF), including
hypothesis property tests that random skip/read interleavings always
return the right values and never read backwards.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnio import (
    ColumnSpec,
    encode_column_file,
    open_column_reader,
)
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce.types import TaskContext
from repro.serde.schema import Schema, SchemaError
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics


def make_reader(payload: bytes, field_schema: Schema, io_buffer: int = 4096):
    """A reader over a column file stored in a tiny simulated HDFS."""
    fs = FileSystem(
        ClusterConfig(num_nodes=1, replication=1, block_size=1 << 22,
                      io_buffer_size=io_buffer)
    )
    fs.write_file("/col", payload)
    ctx = TaskContext(node=0, cost=CpuCostModel(), io_buffer_size=io_buffer)
    stream = fs.open("/col", node=0, metrics=ctx.metrics)
    return open_column_reader(stream, field_schema, ctx), ctx


SPECS = {
    "plain": ColumnSpec("plain"),
    "skiplist": ColumnSpec("skiplist", skip_sizes=(100, 10)),
    "cblock-lzo": ColumnSpec("cblock", codec="lzo", block_bytes=512),
    "cblock-zlib": ColumnSpec("cblock", codec="zlib", block_bytes=512),
}


class TestSpecValidation:
    def test_unknown_format(self):
        with pytest.raises(ValueError):
            ColumnSpec("columnar")

    def test_non_descending_skip_sizes(self):
        with pytest.raises(ValueError):
            ColumnSpec("skiplist", skip_sizes=(10, 100))

    def test_skip_sizes_that_do_not_nest_rejected(self):
        # a bottom block would straddle two blocks of the level above
        for sizes in ((50, 7), (10, 4), (100, 30, 10)):
            with pytest.raises(ValueError, match="nest"):
                ColumnSpec("skiplist", skip_sizes=sizes)
        ColumnSpec("skiplist", skip_sizes=(49, 7))

    def test_skip_size_one_rejected(self):
        with pytest.raises(ValueError):
            ColumnSpec("skiplist", skip_sizes=(10, 1))

    def test_bad_block_bytes(self):
        with pytest.raises(ValueError):
            ColumnSpec("cblock", block_bytes=0)


class TestHeaders:
    def test_bad_magic_rejected(self):
        fs = FileSystem(ClusterConfig(num_nodes=1, replication=1))
        fs.write_file("/col", b"NOPE" + b"\x00" * 32)
        ctx = TaskContext(node=0, cost=CpuCostModel(), io_buffer_size=4096)
        with pytest.raises(ValueError):
            open_column_reader(fs.open("/col"), Schema.int_(), ctx)

    @pytest.mark.parametrize("name", list(SPECS))
    def test_count_in_header(self, name):
        values = list(range(137))
        payload = encode_column_file(Schema.int_(), values, SPECS[name])
        reader, _ = make_reader(payload, Schema.int_())
        assert reader.count == 137

    def test_dcsl_header(self):
        schema = Schema.map(Schema.int_())
        values = [{"a": i} for i in range(25)]
        payload = encode_column_file(
            schema, values, ColumnSpec("dcsl", skip_sizes=(10, 5))
        )
        reader, _ = make_reader(payload, schema)
        assert reader.count == 25
        assert reader.sizes == (10, 5)


class TestSequentialRead:
    @pytest.mark.parametrize("name", list(SPECS))
    def test_int_column(self, name):
        values = [i * 7 - 50 for i in range(523)]
        payload = encode_column_file(Schema.int_(), values, SPECS[name])
        reader, _ = make_reader(payload, Schema.int_())
        assert [reader.read_value() for _ in range(523)] == values

    @pytest.mark.parametrize("name", list(SPECS))
    def test_string_column(self, name):
        values = [f"value-{i}" * (i % 5 + 1) for i in range(211)]
        payload = encode_column_file(Schema.string(), values, SPECS[name])
        reader, _ = make_reader(payload, Schema.string())
        assert [reader.read_value() for _ in range(211)] == values

    @pytest.mark.parametrize("name", list(SPECS))
    def test_read_past_end(self, name):
        payload = encode_column_file(Schema.int_(), [1, 2], SPECS[name])
        reader, _ = make_reader(payload, Schema.int_())
        reader.read_value()
        reader.read_value()
        with pytest.raises(EOFError):
            reader.read_value()

    @pytest.mark.parametrize("name", list(SPECS))
    def test_empty_column(self, name):
        payload = encode_column_file(Schema.int_(), [], SPECS[name])
        reader, _ = make_reader(payload, Schema.int_())
        assert reader.count == 0
        with pytest.raises(EOFError):
            reader.read_value()


class TestSkipping:
    @pytest.mark.parametrize("name", list(SPECS))
    def test_skip_then_read(self, name):
        values = [i * 3 for i in range(400)]
        payload = encode_column_file(Schema.int_(), values, SPECS[name])
        reader, _ = make_reader(payload, Schema.int_())
        reader.skip(250)
        assert reader.read_value() == values[250]
        reader.skip(100)
        assert reader.read_value() == values[351]

    @pytest.mark.parametrize("name", list(SPECS))
    def test_value_at_api(self, name):
        values = [f"s{i}" for i in range(150)]
        payload = encode_column_file(Schema.string(), values, SPECS[name])
        reader, _ = make_reader(payload, Schema.string())
        assert reader.value_at(0) == "s0"
        assert reader.value_at(77) == "s77"
        assert reader.value_at(149) == "s149"

    @pytest.mark.parametrize("name", list(SPECS))
    def test_rewind_rejected(self, name):
        payload = encode_column_file(Schema.int_(), [0, 1, 2], SPECS[name])
        reader, _ = make_reader(payload, Schema.int_())
        reader.skip(2)
        with pytest.raises(ValueError):
            reader.sync_to(0)

    @pytest.mark.parametrize("name", list(SPECS))
    def test_skip_past_end_rejected(self, name):
        payload = encode_column_file(Schema.int_(), [0, 1, 2], SPECS[name])
        reader, _ = make_reader(payload, Schema.int_())
        with pytest.raises(EOFError):
            reader.skip(4)

    def test_negative_skip_rejected(self):
        payload = encode_column_file(Schema.int_(), [0], SPECS["plain"])
        reader, _ = make_reader(payload, Schema.int_())
        with pytest.raises(ValueError):
            reader.skip(-1)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(SPECS)),
        data=st.data(),
        count=st.integers(min_value=1, max_value=300),
    )
    def test_random_access_pattern_property(self, name, data, count):
        """Any forward access pattern returns exactly the right values."""
        values = [i * 11 - 3 for i in range(count)]
        payload = encode_column_file(Schema.int_(), values, SPECS[name])
        reader, _ = make_reader(payload, Schema.int_())
        indices = sorted(
            data.draw(
                st.sets(st.integers(min_value=0, max_value=count - 1),
                        max_size=20)
            )
        )
        for index in indices:
            assert reader.value_at(index) == values[index], (name, index)


class TestSkipListEfficiency:
    def test_large_skips_avoid_value_bytes(self):
        # Skipping 1000 long strings through skip blocks must charge far
        # less CPU than decode-discarding them one by one (plain).
        values = ["x" * 200 for _ in range(1100)]
        plain = encode_column_file(Schema.string(), values, ColumnSpec("plain"))
        skipl = encode_column_file(
            Schema.string(), values, ColumnSpec("skiplist")
        )
        r_plain, ctx_plain = make_reader(plain, Schema.string())
        r_skip, ctx_skip = make_reader(skipl, Schema.string())
        r_plain.skip(1000)
        r_skip.skip(1000)
        assert ctx_skip.metrics.cpu_time < ctx_plain.metrics.cpu_time / 20
        assert r_plain.read_value() == r_skip.read_value() == "x" * 200

    def test_large_skips_avoid_io(self):
        # With a small readahead window, block-level jumps leave most of
        # the file unfetched.
        values = ["y" * 500 for _ in range(1100)]
        payload = encode_column_file(
            Schema.string(), values, ColumnSpec("skiplist")
        )
        reader, ctx = make_reader(payload, Schema.string(), io_buffer=2048)
        reader.skip(1000)
        reader.read_value()
        assert ctx.metrics.disk_bytes < len(payload) / 10

    def test_partial_tail_blocks(self):
        # Counts not divisible by the level sizes still skip correctly.
        values = list(range(1234))
        payload = encode_column_file(
            Schema.int_(), values, ColumnSpec("skiplist")
        )
        reader, _ = make_reader(payload, Schema.int_())
        assert reader.value_at(1233) == 1233

    def test_skiplist_file_larger_than_plain(self):
        values = list(range(5000))
        plain = encode_column_file(Schema.int_(), values, ColumnSpec("plain"))
        skipl = encode_column_file(
            Schema.int_(), values, ColumnSpec("skiplist")
        )
        assert len(plain) < len(skipl) < len(plain) * 1.2


class TestCompressedBlocks:
    def test_file_smaller_than_plain(self):
        values = ["header:value;" * 10 for _ in range(500)]
        plain = encode_column_file(Schema.string(), values, ColumnSpec("plain"))
        comp = encode_column_file(
            Schema.string(), values, ColumnSpec("cblock", codec="zlib")
        )
        assert len(comp) < len(plain) / 2

    def test_whole_block_skip_avoids_decompression(self):
        values = [f"v{i}" * 20 for i in range(1000)]
        spec = ColumnSpec("cblock", codec="zlib", block_bytes=1024)
        payload = encode_column_file(Schema.string(), values, spec)
        # Skipping everything should inflate nothing...
        reader, ctx = make_reader(payload, Schema.string())
        reader.skip(1000)
        skip_cpu = ctx.metrics.cpu_time
        # ...while reading everything inflates every block.
        reader2, ctx2 = make_reader(payload, Schema.string())
        for _ in range(1000):
            reader2.read_value()
        assert skip_cpu < ctx2.metrics.cpu_time / 10

    def test_mid_block_access_inflates_whole_block(self):
        values = [f"w{i}" for i in range(100)]
        spec = ColumnSpec("cblock", codec="lzo", block_bytes=1 << 20)
        payload = encode_column_file(Schema.string(), values, spec)
        reader, ctx = make_reader(payload, Schema.string())
        reader.skip(50)  # lands inside the (single) block
        assert reader.read_value() == "w50"
        # The whole block was decompressed to reach value 50.
        assert ctx.metrics.cpu_time > 0

    @pytest.mark.parametrize("batch_kernels", [False, True])
    @pytest.mark.parametrize("touch", [
        lambda r: r.read_value(),
        lambda r: r.read_vector(4),
        lambda r: r.skip(3),  # once inflated through a copy with no check
    ], ids=["read_value", "read_vector", "skip"])
    def test_lying_raw_len_rejected_however_the_block_is_opened(
        self, touch, batch_kernels
    ):
        values = [f"v{i}" for i in range(10)]
        payload = bytearray(encode_column_file(
            Schema.string(), values, ColumnSpec("cblock", codec="lzo")
        ))
        raw_len_at = payload.index(b"lzo") + len(b"lzo") + 1  # past the count
        assert payload[raw_len_at] == 30  # ten 3-byte values
        payload[raw_len_at] += 1
        reader, _ = make_reader(bytes(payload), Schema.string())
        reader.batch_kernels = batch_kernels
        with pytest.raises(ValueError, match="corrupt compressed block"):
            touch(reader)


class TestDcsl:
    def map_values(self, n, keys=("content-type", "server", "encoding")):
        rng = random.Random(4)
        return [
            {k: f"val{rng.randint(0, 9)}" for k in rng.sample(keys, 2)}
            for _ in range(n)
        ]

    def test_roundtrip(self):
        schema = Schema.map(Schema.string())
        values = self.map_values(357)
        payload = encode_column_file(
            schema, values, ColumnSpec("dcsl", skip_sizes=(100, 10))
        )
        reader, _ = make_reader(payload, schema)
        assert [reader.read_value() for _ in range(357)] == values

    def test_requires_map_schema(self):
        with pytest.raises(SchemaError):
            encode_column_file(Schema.string(), ["x"], ColumnSpec("dcsl"))

    def test_smaller_than_plain_for_repetitive_keys(self):
        schema = Schema.map(Schema.string())
        values = self.map_values(500)
        plain = encode_column_file(schema, values, ColumnSpec("plain"))
        dcsl = encode_column_file(
            schema, values, ColumnSpec("dcsl", skip_sizes=(100, 10))
        )
        assert len(dcsl) < len(plain)

    def test_skip_across_dictionary_blocks(self):
        schema = Schema.map(Schema.string())
        # Different key universes per top-level block: skipping across
        # blocks must pick up the right dictionary.
        values = [{f"k{i // 100}": f"v{i}"} for i in range(300)]
        payload = encode_column_file(
            schema, values, ColumnSpec("dcsl", skip_sizes=(100, 10))
        )
        reader, _ = make_reader(payload, schema)
        assert reader.value_at(250) == {"k2": "v250"}

    def test_decode_cheaper_than_plain_map_decode(self):
        schema = Schema.map(Schema.string())
        values = self.map_values(400)
        plain = encode_column_file(schema, values, ColumnSpec("plain"))
        dcsl = encode_column_file(
            schema, values, ColumnSpec("dcsl", skip_sizes=(100, 10))
        )
        r_plain, ctx_plain = make_reader(plain, schema)
        r_dcsl, ctx_dcsl = make_reader(dcsl, schema)
        for _ in range(400):
            r_plain.read_value()
            r_dcsl.read_value()
        assert ctx_dcsl.metrics.cpu_time < ctx_plain.metrics.cpu_time

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "content-type", "x-frame"]),
            st.integers(min_value=0, max_value=1000),
            max_size=4,
        ),
        min_size=1,
        max_size=120,
    ))
    def test_roundtrip_property(self, values):
        schema = Schema.map(Schema.int_())
        payload = encode_column_file(
            schema, values, ColumnSpec("dcsl", skip_sizes=(50, 10))
        )
        reader, _ = make_reader(payload, schema)
        assert [reader.read_value() for _ in values] == values
