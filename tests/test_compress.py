"""Tests for codecs and the key dictionary."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compress import KeyDictionary, LzoCodec, ZlibCodec, get_codec
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader, ByteWriter


class TestCodecs:
    @pytest.mark.parametrize("name", ["zlib", "lzo"])
    def test_roundtrip(self, name):
        codec = get_codec(name)
        data = b"the quick brown fox " * 100
        assert codec.decompress(codec.compress(data)) == data

    @given(st.binary(max_size=4096))
    def test_roundtrip_arbitrary(self, data):
        for name in ("zlib", "lzo"):
            codec = get_codec(name)
            assert codec.decompress(codec.compress(data)) == data

    def test_zlib_ratio_beats_lzo(self):
        # The defining trade-off of Section 3.3.
        data = ("content-type:text/html;encoding:utf8;" * 500).encode()
        assert len(ZlibCodec().compress(data)) < len(LzoCodec().compress(data))

    def test_lzo_inflate_cheaper_than_zlib(self):
        # The codec trade-off of Section 3.3: LZO decompresses ~2-3x
        # cheaper than ZLIB (effective in-Hadoop rates, see calibration).
        data = b"x" * 100_000
        cost = CpuCostModel()
        m_zlib, m_lzo = Metrics(), Metrics()
        zl = ZlibCodec()
        lz = LzoCodec()
        zl.decompress(zl.compress(data), cost, m_zlib)
        lz.decompress(lz.compress(data), cost, m_lzo)
        assert m_lzo.cpu_time < m_zlib.cpu_time / 2

    def test_inflate_charged_on_output_bytes(self):
        data = b"a" * 50_000  # compresses tiny, inflates big
        cost, metrics = CpuCostModel(), Metrics()
        codec = ZlibCodec()
        blob = codec.compress(data)
        codec.decompress(blob, cost, metrics)
        expected = len(data) * cost.profile.zlib_inflate_per_byte
        assert metrics.cpu_ticks == expected

    def test_unknown_codec(self):
        with pytest.raises(KeyError):
            get_codec("snappy")


class TestKeyDictionary:
    def test_interning_is_stable(self):
        d = KeyDictionary()
        a = d.add("content-type")
        b = d.add("encoding")
        assert d.add("content-type") == a
        assert d.id_of("encoding") == b
        assert d.key_of(a) == "content-type"
        assert len(d) == 2

    def test_contains(self):
        d = KeyDictionary(["a", "b"])
        assert "a" in d and "z" not in d

    def test_wire_roundtrip(self):
        d = KeyDictionary(["content-type", "server", "encoding", "länge"])
        out = ByteWriter()
        d.write(out)
        back = KeyDictionary.read(ByteReader(out.getvalue()))
        assert back.keys == d.keys
        assert back.id_of("encoding") == d.id_of("encoding")

    @given(st.lists(st.text(max_size=12), unique=True, max_size=50))
    def test_roundtrip_property(self, keys):
        d = KeyDictionary(keys)
        out = ByteWriter()
        d.write(out)
        back = KeyDictionary.read(ByteReader(out.getvalue()))
        assert back.keys == list(keys)
