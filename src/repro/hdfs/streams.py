"""HDFS output/input streams with readahead and locality accounting.

The input stream is where the paper's I/O-elimination story is decided:
HDFS and the local filesystem fetch data in ``io.file.buffer.size``
units (128 KB in Section 6.2), so skipping *within* a readahead window
saves nothing, while skips larger than the window turn into seeks that
genuinely avoid disk traffic.  This is the mechanism that makes RCFile's
interleaved columns hard to eliminate (Section 4.1) and makes CIF's
separate files and large skips effective.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

from repro.hdfs.namenode import BlockInfo
from repro.obs import NULL_STREAM_PROBE, StreamProbe
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader
from repro.util.varint import VarintError, decode_varint


class HdfsOutputStream:
    """Append-only writer; blocks are cut and placed on close.

    Mirrors HDFS semantics: bytes can only be appended (no rewinds — the
    reason skip-list construction needs double buffering, Appendix B.3).
    """

    def __init__(self, fs, path: str, metrics: Optional[Metrics] = None) -> None:
        self._fs = fs
        self.path = path
        self._buf = bytearray()
        self._metrics = metrics
        self._closed = False

    def write(self, data) -> int:
        if self._closed:
            raise ValueError(f"stream for {self.path} is closed")
        self._buf += data
        return len(data)

    @property
    def position(self) -> int:
        return len(self._buf)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fs._commit_file(self.path, bytes(self._buf), self._metrics)
        self._buf = bytearray()

    def __enter__(self) -> "HdfsOutputStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class HdfsInputStream:
    """Positioned, buffered reader over a file's block sequence.

    Every fetch is at least ``buffer_size`` bytes (readahead); fetched
    bytes are charged to the local disk model when the reading node holds
    a replica of the block, and to the network model otherwise.  A fetch
    that is not contiguous with the previous one costs a seek.
    """

    def __init__(
        self,
        fs,
        blocks: List[BlockInfo],
        buffer_size: int,
        node: Optional[int] = None,
        metrics: Optional[Metrics] = None,
        bandwidth_scale: float = 1.0,
        probe: Optional[StreamProbe] = None,
    ) -> None:
        """``fs`` is the :class:`~repro.hdfs.filesystem.FileSystem` that
        serves every fetch (``check_transient`` and ``fetch_block``: the
        checksum-verifying, failure-aware read path) and whose cluster's
        disk and network models the fetches are charged to."""
        self._fs = fs
        self._blocks = blocks
        self._buffer_size = buffer_size
        self._node = node
        self._metrics = metrics
        self._probe = probe if probe is not None else NULL_STREAM_PROBE
        self._disk = fs.cluster.disk
        self._network = fs.cluster.network
        self._bandwidth_scale = bandwidth_scale
        self.buffer_size = buffer_size
        self._starts: List[int] = []
        offset = 0
        for block in blocks:
            self._starts.append(offset)
            offset += block.length
        self._length = offset
        self.pos = 0
        self._window_start = 0
        self._window = b""
        self._last_fetch_end: Optional[int] = None

    # -- positioning -------------------------------------------------------

    @property
    def length(self) -> int:
        return self._length

    def tell(self) -> int:
        return self.pos

    def seek(self, pos: int) -> None:
        if pos < 0 or pos > self._length:
            raise ValueError(f"seek to {pos} outside [0, {self._length}]")
        self.pos = pos

    # -- reading -----------------------------------------------------------

    def read(self, n: int = -1) -> bytes:
        """Read up to ``n`` bytes from the current position."""
        if n < 0:
            n = self._length - self.pos
        n = min(n, self._length - self.pos)
        if n <= 0:
            return b""
        if self._metrics is not None:
            self._metrics.requested_bytes += n
            self._probe.on_request(n)
        parts = []
        while n > 0:
            window_off = self.pos - self._window_start
            if 0 <= window_off < len(self._window):
                parts.append(self._window[window_off:window_off + n])
                self.pos += len(parts[-1])
                n -= len(parts[-1])
            else:
                self._fetch(self.pos, max(n, self._buffer_size))
        # most reads lie in one window: its slice, not a copy of it
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def read_fully(self) -> bytes:
        self.seek(0)
        return self.read(self._length)

    # -- internals -----------------------------------------------------------

    def _fetch(self, start: int, want: int) -> None:
        """Pull ``want`` bytes (capped at EOF) into the readahead window."""
        want = min(want, self._length - start)
        if want <= 0:
            raise EOFError(f"fetch past end of file at {start}")
        seeking = self._last_fetch_end is None or start != self._last_fetch_end
        end = start + want
        chunks = []
        local_bytes = 0
        remote_bytes = 0
        remote_transfers = 0
        # Flaky-reader faults surface here, at fetch granularity, so a
        # retried task re-reads from a clean stream position.
        self._fs.check_transient(self._node)
        block_index = bisect_right(self._starts, start) - 1
        cursor = start
        while cursor < end:
            block = self._blocks[block_index]
            block_start = self._starts[block_index]
            lo = cursor - block_start
            hi = min(end - block_start, block.length)
            payload, local = self._fs.fetch_block(block, self._node)
            chunks.append(payload[lo:hi])
            nbytes = hi - lo
            if local:
                local_bytes += nbytes
            else:
                remote_bytes += nbytes
                remote_transfers += 1
            cursor = block_start + hi
            block_index += 1
        self._window = b"".join(chunks)
        self._window_start = start
        self._last_fetch_end = end
        if self._metrics is not None:
            self._probe.on_fetch(local_bytes, remote_bytes, seeking)
            if local_bytes:
                self._disk.charge_read(
                    self._metrics,
                    local_bytes,
                    seeks=1 if seeking else 0,
                    bandwidth_scale=self._bandwidth_scale,
                )
            if remote_bytes:
                self._network.charge_remote_read(
                    self._metrics,
                    remote_bytes,
                    transfers=remote_transfers + (1 if seeking else 0),
                )


class StreamByteReader(ByteReader):
    """A :class:`ByteReader` that pulls from an :class:`HdfsInputStream`.

    Gives decoders their usual positioned-buffer API over a file without
    materializing it: bytes are fetched on demand in decode-window
    chunks, the consumed prefix is compacted away, and
    :meth:`ByteReader.skip` past the buffered region becomes a stream
    seek — so skipped bytes are never fetched (I/O elimination).
    """

    _COMPACT_THRESHOLD = 1 << 20

    def __init__(self, stream: HdfsInputStream) -> None:
        super().__init__(bytearray(), 0)
        self._stream = stream
        # Decode-window size follows the stream's readahead so skip-based
        # I/O elimination operates at the same granularity HDFS fetches at.
        self._chunk = stream.buffer_size
        self._origin = stream.tell()  # stream offset of self._buf[0]

    @property
    def offset(self) -> int:
        """Logical offset in the underlying stream."""
        return self._origin + self.pos

    def at_end(self) -> bool:
        return self.offset >= self._stream.length

    def _require(self, n: int) -> None:
        if self.pos + n <= len(self._buf):
            return
        if self.pos > len(self._buf):
            # A prior skip() moved past the buffered bytes: drop the
            # stale window and position the stream there directly so the
            # gap is never fetched.
            self._origin += self.pos
            self._buf = bytearray()
            self.pos = 0
        elif self.pos >= self._COMPACT_THRESHOLD:
            self._buf = self._buf[self.pos:]
            self._origin += self.pos
            self.pos = 0
        missing = self.pos + n - len(self._buf)
        self._stream.seek(self._origin + len(self._buf))
        data = self._stream.read(max(missing, self._chunk))
        if len(data) < missing:
            raise EOFError(
                f"need {n} bytes at stream offset {self.offset}, got EOF"
            )
        self._buf += data

    def skip(self, n: int) -> None:
        # Unlike the base class, skipping may run past the buffered
        # bytes; the gap is resolved lazily (and cheaply) in _require.
        if n < 0:
            raise ValueError("cannot skip backwards")
        if self.offset + n > self._stream.length:
            raise EOFError(
                f"skip {n} from {self.offset} passes EOF at {self._stream.length}"
            )
        self.pos += n

    def _read_varint_slow(self) -> int:
        while True:
            try:
                value, new_pos = decode_varint(self._buf, self.pos)
            except VarintError:
                if len(self._buf) - self.pos >= 10:
                    raise  # genuinely malformed, not just truncated
                self._require(len(self._buf) - self.pos + 1)
                continue
            self.pos = new_pos
            return value

    def read_varint(self) -> int:
        # The fast path assumes the varint is fully buffered; fall back
        # to refill-and-retry when it is truncated at the window edge.
        if self.pos >= len(self._buf):
            self._require(1)
        try:
            value, new_pos = decode_varint(self._buf, self.pos)
        except VarintError:
            return self._read_varint_slow()
        self.pos = new_pos
        return value

    def read_zigzag(self) -> int:
        folded = self.read_varint()
        if folded & 1:
            return -((folded + 1) >> 1)
        return folded >> 1
