"""The one JSONL codec: every line-per-record artifact goes through here.

Flight recordings, raw event streams, the cluster WAL and ``.tsdb``
sidecars are all one JSON object per line, each carrying a ``type``.
Writers frame by file name (a ``.gz`` suffix gzips); readers frame by
content (the gzip magic bytes), so a renamed artifact still loads.

Crash tolerance lives here once.  A writer flushes whole lines, so a
crash leaves a readable prefix: possibly a gzip stream without its
trailer, possibly a torn final line.  The reader salvages both with a
warning.  Any *earlier* malformed line is corruption, not a crash, and
is a hard ``ValueError``.  Callers keep only their own record
validation (WAL ``seq``/version, tsdb header, recorder record types).
"""

from __future__ import annotations

import gzip
import json
import zlib
from typing import AnyStr, Iterable, List, Tuple

_GZIP_MAGIC = b"\x1f\x8b"

#: how much of a file :func:`peek` looks at (compressed and inflated)
_PEEK_BYTES = 1 << 16


def dumps(record: dict) -> str:
    """One record as its canonical line (sorted keys, no newline)."""
    return json.dumps(record, sort_keys=True)


class JsonlWriter:
    """Append records to ``path``, one line each.

    ``flush_every=1`` makes every record durable before the next is
    written; a high-volume stream flushes every N records and on
    :meth:`close`.
    """

    def __init__(self, path: str, flush_every: int = 1) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        opener = gzip.open if path.endswith(".gz") else open
        self._handle = opener(path, "wt", encoding="utf-8")
        self._flush_every = flush_every
        self._since_flush = 0

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def write(self, record: dict) -> None:
        self._handle.write(dumps(record) + "\n")
        self._since_flush += 1
        if self._since_flush >= self._flush_every:
            self._handle.flush()
            self._since_flush = 0

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_frame(path: str, records: Iterable[dict]) -> None:
    """Replace ``path`` with ``records`` as one deterministic gzip member.

    The whole-file rewrite a merge-accumulating sidecar needs:
    ``mtime=0`` keeps identical content identical bytes.
    """
    text = "".join(dumps(record) + "\n" for record in records)
    blob = gzip.compress(text.encode("utf-8"), 9, mtime=0)
    with open(path, "wb") as handle:
        handle.write(blob)


def _inflate(path: str, blob: bytes) -> Tuple[bytes, List[str]]:
    """Gunzip ``blob``; a truncated stream yields its readable prefix."""
    try:
        return gzip.decompress(blob), []
    except (EOFError, OSError, zlib.error) as exc:
        try:
            salvaged = zlib.decompressobj(31).decompress(blob)
        except zlib.error:
            raise ValueError(
                f"{path}: unreadable gzip stream: {exc}"
            ) from exc
        return salvaged, [
            f"torn gzip stream salvaged to {len(salvaged)} byte(s)"
        ]


def parse(data: AnyStr, what: str = "record") -> Tuple[List[dict], List[str]]:
    """Split JSONL ``data`` into ``(records, warnings)``.

    ``what`` names the artifact's records in error messages.  A final
    line that does not parse is the record in flight when the writer
    died: it is dropped with a warning as long as something precedes it.
    """
    records: List[dict] = []
    warnings: List[str] = []
    lines = data.splitlines()
    last = next(
        (n for n in range(len(lines), 0, -1) if lines[n - 1].strip()), 0
    )
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if records and lineno == last:
                warnings.append(
                    f"truncated final line (line {lineno}) dropped "
                    f"(torn final record): {exc}"
                )
                break
            raise ValueError(f"line {lineno} is not a {what}: {exc}") from exc
        if not isinstance(record, dict) or "type" not in record:
            raise ValueError(f"line {lineno} is not a {what}")
        records.append(record)
    return records, warnings


def read(path: str, what: str = "record") -> Tuple[List[dict], List[str]]:
    """Read an artifact, gzipped or not; returns ``(records, warnings)``."""
    with open(path, "rb") as handle:
        blob = handle.read()
    warnings: List[str] = []
    if blob.startswith(_GZIP_MAGIC):
        blob, warnings = _inflate(path, blob)
    records, torn = parse(blob, what)
    return records, warnings + torn


def peek(path: str) -> dict:
    """The first record alone, at bounded cost.

    Enough to tell artifact kinds apart by their meta header without
    parsing the file.  Raises ``OSError``/``ValueError`` like
    :func:`read` (also when the first line outgrows the peek window).
    """
    with open(path, "rb") as handle:
        head = handle.read(_PEEK_BYTES)
    if head.startswith(_GZIP_MAGIC):
        try:
            head = zlib.decompressobj(31).decompress(head, _PEEK_BYTES)
        except zlib.error as exc:
            raise ValueError(f"{path}: unreadable gzip stream: {exc}") from exc
    records, _ = parse(head.split(b"\n", 1)[0])
    if not records:
        raise ValueError(f"{path}: no records")
    return records[0]
