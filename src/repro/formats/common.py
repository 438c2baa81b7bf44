"""Shared machinery for block-granular formats: splits and sync markers.

SequenceFile and RCFile are single-file formats whose splits are HDFS
blocks; record (or row-group) boundaries do not align with block
boundaries, so both formats embed 16-byte *sync markers* and a reader
assigned the byte range ``[start, end)`` scans forward to the first sync
at or after ``start`` and stops at the first sync at or after ``end``.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from repro.mapreduce.types import InputFormat, InputSplit

SYNC_SIZE = 16


def make_sync_marker(seed: str) -> bytes:
    """A deterministic 16-byte sync marker derived from ``seed``.

    The first byte is forced to 0xFF so a marker can never be confused
    with an entry tag when a reader is positioned at an entry boundary.
    """
    return b"\xff" + hashlib.md5(seed.encode("utf-8")).digest()[:15]


def block_splits(fs, path: str, label: str) -> List["FileSplit"]:
    """One split per HDFS block of ``path`` (Hadoop's default)."""
    blocks = fs.namenode.blocks_of(path)
    splits: List[FileSplit] = []
    offset = 0
    for i, block in enumerate(blocks):
        splits.append(
            FileSplit(
                path=path,
                start=offset,
                end=offset + block.length,
                length=block.length,
                locations=list(block.locations),
                label=f"{label}[{i}]",
            )
        )
        offset += block.length
    return splits


class BlockInputFormat(InputFormat):
    """A single-file format split at its HDFS blocks, whose header
    ``parse_header(fs, path)`` reads once, on first use."""

    #: each split is labeled ``<split_label>[<block index>]``
    split_label = ""

    def __init__(self, path: str) -> None:
        self.path = path
        self._header = None

    @staticmethod
    def parse_header(fs, path: str):
        raise NotImplementedError

    def _read_header(self, fs):
        if self._header is None:
            self._header = self.parse_header(fs, self.path)
        return self._header

    def get_splits(self, fs, cluster) -> List["FileSplit"]:
        return block_splits(fs, self.path, self.split_label)


class FileSplit(InputSplit):
    """A byte range of one file (with the block's replica locations)."""

    def __init__(
        self,
        path: str,
        start: int,
        end: int,
        length: int,
        locations: List[int],
        label: str = "",
    ) -> None:
        super().__init__(length=length, locations=locations, label=label)
        self.path = path
        self.start = start
        self.end = end


def scan_to_sync(
    stream, marker: bytes, start: int, limit: Optional[int] = None
) -> Optional[int]:
    """Offset of the first sync marker at or after ``start``.

    Returns the offset of the *first byte after* the marker (where the
    framed data begins), or None if no marker occurs before ``limit``
    (or EOF).  The scan reads through the stream, so the bytes it
    touches are charged — exactly as in Hadoop.
    """
    limit = stream.length if limit is None else min(limit, stream.length)
    window = b""
    window_start = start
    pos = start
    # Scan in small increments: the stream's readahead already fetches
    # at buffer granularity, and a sync typically sits within one
    # record/row-group of the split start.
    chunk_size = 4 * 1024
    while True:
        found = window.find(marker)
        if found != -1:
            if window_start + found >= limit:
                return None  # first sync begins past this split's range
            return window_start + found + SYNC_SIZE
        if pos >= limit:
            return None
        stream.seek(pos)
        chunk = stream.read(min(chunk_size, stream.length - pos))
        if not chunk:
            return None
        pos += len(chunk)
        # Keep a marker-sized tail so markers spanning chunk edges match.
        keep = window[-(SYNC_SIZE - 1):]
        window_start += len(window) - len(keep)
        window = keep + chunk
