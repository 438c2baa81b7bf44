"""Tests for HDFS streams: output commit, buffered input, StreamByteReader."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdfs import ClusterConfig, CorruptBlockError, FileSystem
from repro.hdfs.streams import StreamByteReader
from repro.obs import FlightRecorder
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteWriter


def small_fs(**kw):
    defaults = dict(num_nodes=4, block_size=2048, io_buffer_size=512)
    defaults.update(kw)
    return FileSystem(ClusterConfig(**defaults))


class TestOutputStream:
    def test_write_after_close_rejected(self):
        fs = small_fs()
        out = fs.create("/f")
        out.write(b"x")
        out.close()
        with pytest.raises(ValueError):
            out.write(b"y")

    def test_double_close_is_noop(self):
        fs = small_fs()
        out = fs.create("/f")
        out.write(b"data")
        out.close()
        out.close()
        assert fs.read_file("/f") == b"data"

    def test_position_tracks_written_bytes(self):
        fs = small_fs()
        with fs.create("/f") as out:
            assert out.position == 0
            out.write(b"abc")
            assert out.position == 3

    def test_context_manager_commits(self):
        fs = small_fs()
        with fs.create("/f") as out:
            out.write(b"hello")
        assert fs.read_file("/f") == b"hello"


class TestInputStream:
    def test_seek_bounds(self):
        fs = small_fs()
        fs.write_file("/f", b"0123456789")
        stream = fs.open("/f")
        with pytest.raises(ValueError):
            stream.seek(-1)
        with pytest.raises(ValueError):
            stream.seek(11)
        stream.seek(10)  # end is allowed
        assert stream.read(5) == b""

    def test_read_all_default(self):
        fs = small_fs()
        fs.write_file("/f", b"abcdef")
        stream = fs.open("/f")
        stream.seek(2)
        assert stream.read() == b"cdef"

    def test_backward_seek_recharges(self):
        fs = small_fs(block_size=65536, io_buffer_size=1024)
        fs.write_file("/f", b"z" * 8192)
        node = fs.block_locations("/f")[0][0]
        metrics = Metrics()
        stream = fs.open("/f", node=node, metrics=metrics)
        stream.seek(4096)
        stream.read(100)
        first = metrics.disk_bytes
        stream.seek(0)
        stream.read(100)
        assert metrics.disk_bytes > first  # window was invalidated

    @settings(max_examples=30, deadline=None)
    @given(
        payload=st.binary(min_size=1, max_size=5000),
        offsets=st.lists(
            st.tuples(st.integers(0, 4999), st.integers(0, 600)), max_size=8
        ),
    )
    def test_positioned_reads_match_payload(self, payload, offsets):
        fs = small_fs(block_size=700)
        fs.write_file("/f", payload)
        stream = fs.open("/f")
        for offset, n in offsets:
            offset = min(offset, len(payload))
            stream.seek(offset)
            assert stream.read(n) == payload[offset:offset + n]


class TestMidStreamIntegrity:
    """A block is checksummed on its first refill only, so damage that
    lands between two refills of one open stream must still be caught."""

    PAYLOAD = bytes(range(256)) * 12  # one 3 KiB block, six 512 B buffers

    def open_after_one_buffer(self):
        fs = small_fs(block_size=4096)
        fs.write_file("/f", self.PAYLOAD)
        block = fs.namenode.blocks_of("/f")[0]
        node = block.locations[0]
        stream = fs.open("/f", node=node)
        assert stream.read(512) == self.PAYLOAD[:512]  # verifies the block
        return fs, block, node, stream

    def test_payload_corrupted_between_refills_raises(self):
        fs, block, _, stream = self.open_after_one_buffer()
        fs.blockstore.corrupt(block.block_id, offset=2000)
        with pytest.raises(CorruptBlockError):
            stream.read(512)

    def test_replica_marked_between_refills_fails_over(self):
        recorder = FlightRecorder()
        with recorder.activate():
            fs, block, node, stream = self.open_after_one_buffer()
            fs.blockstore.mark_replica_corrupt(block.block_id, node)
            rest = stream.read()
        assert rest == self.PAYLOAD[512:]  # served by a clean replica
        registry = recorder.registry
        assert registry.value_of("replica.corrupt_detected", node=node) == 1
        assert registry.value_of("replica.failover") >= 1
        assert fs.blockstore.corrupt_replicas() == []
        assert fs.fsck_report().healthy


class TestStreamByteReader:
    def build(self, payload: bytes, io_buffer: int = 512):
        fs = small_fs(block_size=1 << 20, io_buffer_size=io_buffer)
        fs.write_file("/f", payload)
        return StreamByteReader(fs.open("/f"))

    def test_varint_across_chunk_boundary(self):
        w = ByteWriter()
        w.write_bytes(b"\x00" * 511)  # leave 1 byte in the first chunk
        w.write_varint(300)  # 2-byte varint straddles the boundary
        reader = self.build(w.getvalue())
        reader.skip(511)
        assert reader.read_varint() == 300

    def test_skip_len_prefixed_span_survives_a_window_rebase(self):
        # A skip past the buffered window makes the next refill rebase
        # ``pos`` to 0; the returned span (which the cost model charges)
        # must still be prefix + payload, not a negative pos delta.
        w = ByteWriter()
        w.write_bytes(b"\x00")
        w.write_bytes(b"\x00" * 2000)
        w.write_len_prefixed(b"x" * 300)
        reader = self.build(w.getvalue())
        reader.read_byte()  # fill the first 512-byte window
        reader.skip(2000)   # lazily, far past it
        assert reader.skip_len_prefixed() == 302
        assert reader.at_end()

    def test_zigzag_roundtrip_through_stream(self):
        w = ByteWriter()
        for v in (-1000000, -1, 0, 1, 1000000):
            w.write_zigzag(v)
        reader = self.build(w.getvalue())
        assert [reader.read_zigzag() for _ in range(5)] == [
            -1000000, -1, 0, 1, 1000000
        ]

    def test_skip_beyond_buffer_then_read(self):
        payload = bytes(range(256)) * 40  # 10240 bytes
        reader = self.build(payload)
        reader.skip(9000)
        assert reader.read_bytes(4) == payload[9000:9004]
        assert reader.offset == 9004

    def test_skip_past_eof_rejected(self):
        reader = self.build(b"abc")
        with pytest.raises(EOFError):
            reader.skip(4)

    def test_read_past_eof_rejected(self):
        reader = self.build(b"abc")
        reader.skip(2)
        with pytest.raises(EOFError):
            reader.read_bytes(2)

    def test_offset_stable_across_compaction(self):
        payload = bytes(i % 251 for i in range(3 << 20))
        reader = self.build(payload, io_buffer=1 << 16)
        # Force compaction (threshold is 1 MiB of consumed prefix).
        total = 0
        while total < (2 << 20):
            reader.read_bytes(4096)
            total += 4096
        assert reader.offset == total
        assert reader.read_bytes(4) == payload[total:total + 4]

    def test_at_end_and_remaining(self):
        reader = self.build(b"xyz")
        assert not reader.at_end()
        reader.read_bytes(3)
        assert reader.at_end()

    def test_corrupt_varint_raises(self):
        reader = self.build(b"\xff" * 32)
        with pytest.raises(Exception):
            reader.read_varint()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**50), min_size=1,
                    max_size=400))
    def test_varint_stream_property(self, values):
        w = ByteWriter()
        for v in values:
            w.write_varint(v)
        reader = self.build(w.getvalue(), io_buffer=64)
        assert [reader.read_varint() for _ in values] == values
        assert reader.at_end()
