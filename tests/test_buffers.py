"""Tests for ByteWriter/ByteReader primitives."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.buffers import ByteReader, ByteWriter


class TestByteWriter:
    def test_position_tracks_length(self):
        w = ByteWriter()
        assert w.position == 0
        w.write_bytes(b"abc")
        assert w.position == 3
        w.write_byte(0xFF)
        assert w.position == 4

    def test_len_prefixed(self):
        w = ByteWriter()
        w.write_len_prefixed(b"hello")
        assert w.getvalue() == b"\x05hello"

    def test_string_utf8(self):
        w = ByteWriter()
        w.write_string("héllo")
        data = w.getvalue()
        r = ByteReader(data)
        assert r.read_string() == "héllo"

    def test_append_only_semantics(self):
        # There is deliberately no way to rewrite earlier bytes.
        w = ByteWriter()
        assert not hasattr(w, "seek")


class TestByteReader:
    def test_read_past_end_raises(self):
        r = ByteReader(b"ab")
        with pytest.raises(EOFError):
            r.read_bytes(3)

    def test_skip_and_remaining(self):
        r = ByteReader(b"abcdef")
        r.skip(2)
        assert r.remaining == 4
        assert r.read_bytes(2) == b"cd"
        assert not r.at_end()
        r.skip(2)
        assert r.at_end()

    def test_skip_len_prefixed_returns_total(self):
        w = ByteWriter()
        w.write_len_prefixed(b"x" * 200)  # 2-byte varint prefix
        r = ByteReader(w.getvalue())
        assert r.skip_len_prefixed() == 202

    @given(st.floats(allow_nan=False))
    def test_double_roundtrip(self, value):
        w = ByteWriter()
        w.write_double(value)
        got = ByteReader(w.getvalue()).read_double()
        assert got == value or (math.isinf(value) and got == value)

    def test_double_nan(self):
        w = ByteWriter()
        w.write_double(float("nan"))
        assert math.isnan(ByteReader(w.getvalue()).read_double())

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_mixed_stream_roundtrip(self, a, b):
        w = ByteWriter()
        w.write_len_prefixed(a)
        w.write_zigzag(-42)
        w.write_len_prefixed(b)
        r = ByteReader(w.getvalue())
        assert r.read_len_prefixed() == a
        assert r.read_zigzag() == -42
        assert r.read_len_prefixed() == b
        assert r.at_end()
