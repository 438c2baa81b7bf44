"""Growable write buffers and positioned read buffers.

Every on-disk format in this reproduction serializes into a
:class:`ByteWriter` and parses out of a :class:`ByteReader`.  Keeping the
primitive encode/decode operations here (instead of scattering
``struct.pack`` calls across formats) gives each format identical wire
conventions and gives tests a single seam to verify.
"""

from __future__ import annotations

import struct

from repro.util.varint import (
    decode_varint,
    decode_zigzag,
    encode_varint,
    encode_zigzag,
)

_DOUBLE = struct.Struct("<d")


class ByteWriter:
    """An append-only, growable byte buffer.

    Mirrors the append-only semantics of an HDFS output stream: data can
    only be added at the end, never rewritten.  (This restriction is what
    forces the double-buffered skip-list build described in Appendix B.3
    of the paper.)
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def position(self) -> int:
        """Current length, i.e. the offset the next write lands at."""
        return len(self._buf)

    def write_bytes(self, data) -> None:
        self._buf += data

    def write_byte(self, value: int) -> None:
        self._buf.append(value & 0xFF)

    def write_varint(self, value: int) -> None:
        encode_varint(value, self._buf)

    def write_zigzag(self, value: int) -> None:
        encode_zigzag(value, self._buf)

    def write_double(self, value: float) -> None:
        self._buf += _DOUBLE.pack(value)

    def write_len_prefixed(self, data) -> None:
        """Write a varint length followed by the raw bytes."""
        encode_varint(len(data), self._buf)
        self._buf += data

    def write_string(self, text: str) -> None:
        """Write a UTF-8 string with a varint length prefix."""
        self.write_len_prefixed(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class ByteReader:
    """A positioned reader over an immutable byte buffer."""

    # _vec_owner: the ColumnReader class name stamped by columnio, so
    # vecdecode fallback counters can be labeled by reader type.
    __slots__ = ("_buf", "pos", "_vec_owner")

    def __init__(self, data, pos: int = 0) -> None:
        self._buf = data
        self.pos = pos

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def offset(self) -> int:
        """Logical position; subclasses backed by streams may remap it."""
        return self.pos

    @property
    def remaining(self) -> int:
        return len(self._buf) - self.pos

    def at_end(self) -> bool:
        return self.pos >= len(self._buf)

    def _require(self, n: int) -> None:
        if self.pos + n > len(self._buf):
            raise EOFError(
                f"need {n} bytes at offset {self.pos}, "
                f"only {self.remaining} remain"
            )

    def read_bytes(self, n: int) -> bytes:
        self._require(n)
        out = bytes(self._buf[self.pos:self.pos + n])
        self.pos += n
        return out

    def read_byte(self) -> int:
        self._require(1)
        value = self._buf[self.pos]
        self.pos += 1
        return value

    def read_varint(self) -> int:
        value, self.pos = decode_varint(self._buf, self.pos)
        return value

    def read_zigzag(self) -> int:
        value, self.pos = decode_zigzag(self._buf, self.pos)
        return value

    def read_double(self) -> float:
        self._require(8)
        value = _DOUBLE.unpack_from(self._buf, self.pos)[0]
        self.pos += 8
        return value

    def read_len_prefixed(self) -> bytes:
        n = self.read_varint()
        return self.read_bytes(n)

    def read_string(self) -> str:
        return self.read_len_prefixed().decode("utf-8")

    def skip(self, n: int) -> None:
        """Advance the position by ``n`` bytes without copying."""
        self._require(n)
        self.pos += n

    def skip_len_prefixed(self) -> int:
        """Skip a length-prefixed field; returns bytes skipped (incl. prefix)."""
        # ``offset``, not ``pos``: a stream-backed reader may rebase its
        # window (and so ``pos``) while refilling for the prefix.
        start = self.offset
        n = self.read_varint()
        self.skip(n)
        return self.offset - start
