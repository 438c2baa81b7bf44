"""Variable-length integer codecs.

These match the wire formats used by the serialization frameworks the
paper discusses (Avro, Thrift, Protocol Buffers) and by Hadoop's own
``WritableUtils``:

- *varint*: unsigned LEB128 — 7 payload bits per byte, the high bit marks
  continuation.
- *zigzag*: signed integers folded onto unsigned ones so that small
  magnitudes (positive or negative) stay short, then LEB128-encoded.

The codecs operate on :class:`bytearray`/:class:`bytes`-like objects and
are deliberately free of any I/O so they can be reused by every format in
:mod:`repro.formats` and :mod:`repro.core`.
"""

from __future__ import annotations

MAX_VARINT_BYTES = 10  # enough for any 64-bit value

#: the first unsigned value that no longer fits in MAX_VARINT_BYTES.
#: The encoder enforces the same ceiling the decoder does: without the
#: check, values >= 2**70 would encode into 11+ bytes that
#: :func:`decode_varint` then rejects as "varint too long" — an
#: encode/decode asymmetry that turns a bad input into a corrupt file
#: instead of an error at the write site.
_VARINT_LIMIT = 1 << (7 * MAX_VARINT_BYTES)


class VarintError(ValueError):
    """Raised when a buffer does not contain a well-formed varint."""


def encode_varint(value: int, out: bytearray) -> int:
    """Append ``value`` to ``out`` as an unsigned LEB128 varint.

    Returns the number of bytes written.  ``value`` must be >= 0 and
    fit in ``MAX_VARINT_BYTES`` bytes (i.e. < 2**70).
    """
    if 0 <= value < 0x80:  # lengths and counts: nearly always one byte
        out.append(value)
        return 1
    if value < 0:
        raise VarintError(f"varint cannot encode negative value {value}")
    if value >= _VARINT_LIMIT:
        raise VarintError(
            f"varint cannot encode {value}: needs more than "
            f"{MAX_VARINT_BYTES} bytes"
        )
    written = 0
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
            written += 1
        else:
            out.append(byte)
            return written + 1


def decode_varint(buf, pos: int = 0) -> "tuple[int, int]":
    """Decode an unsigned varint from ``buf`` starting at ``pos``.

    Returns ``(value, new_pos)``.
    """
    result = 0
    shift = 0
    start = pos
    end = len(buf)
    while True:
        if pos >= end:
            raise VarintError(f"truncated varint at offset {start}")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift >= 7 * MAX_VARINT_BYTES:
            raise VarintError(f"varint too long at offset {start}")


def encode_zigzag(value: int, out: bytearray) -> int:
    """Append a signed integer to ``out`` using zig-zag + LEB128.

    Returns the number of bytes written.
    """
    # Map ..., -2, -1, 0, 1, 2, ... onto 3, 1, 0, 2, 4, ...
    if value >= 0:
        folded = value << 1
    else:
        folded = ((-value) << 1) - 1
    return encode_varint(folded, out)


def decode_zigzag(buf, pos: int = 0) -> "tuple[int, int]":
    """Decode a zig-zag varint from ``buf``; returns ``(value, new_pos)``."""
    folded, pos = decode_varint(buf, pos)
    if folded & 1:
        return -((folded + 1) >> 1), pos
    return folded >> 1, pos


def varint_size(value: int) -> int:
    """Number of bytes :func:`encode_varint` would use for ``value``."""
    if value < 0:
        raise VarintError(f"varint cannot encode negative value {value}")
    if value >= _VARINT_LIMIT:
        raise VarintError(
            f"varint cannot encode {value}: needs more than "
            f"{MAX_VARINT_BYTES} bytes"
        )
    size = 1
    value >>= 7
    while value:
        size += 1
        value >>= 7
    return size


def zigzag_size(value: int) -> int:
    """Number of bytes :func:`encode_zigzag` would use for ``value``."""
    if value >= 0:
        return varint_size(value << 1)
    return varint_size(((-value) << 1) - 1)
