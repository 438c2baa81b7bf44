"""Block payload storage.

HDFS replicates each block onto several datanodes; the simulator keeps
one copy of the bytes per block (replica *locations* are metadata on
:class:`~repro.hdfs.namenode.BlockInfo`).  This keeps memory at the
dataset's logical size while preserving every behaviour the experiments
measure — which replica a reader is near only affects *timing*, never
content.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Set, Tuple


class BlockStore:
    """Maps block id -> immutable payload bytes (with CRC32 checksums).

    HDFS checksums every block; the simulator records a CRC32 at write
    time so :meth:`verify` (and ``FileSystem.fsck``) can detect
    corruption injected by tests or bugs.

    A payload is an immutable ``bytes`` object, so a block is checksummed
    when it is first read and again only after something changed it:
    :meth:`verify` answers from a verified-until-mutated set and
    :meth:`rescan` is the one place that runs the CRC over the bytes.
    Nothing is marked at write time.  The bit is dropped by the only
    three things that can change what the CRC would say — :meth:`corrupt`
    (new payload), :meth:`remove` (id gone) and :meth:`put` (new bytes) —
    so after any sequence of calls ``verify(b) == (crc32(get(b)) ==
    stored checksum)``; ``FileSystem.fsck_report`` rescans every block
    from its bytes and would expose a mutation path that forgot to.

    Corruption comes in two granularities, mirroring real HDFS:

    - :meth:`corrupt` flips a byte of the *payload* itself — every
      replica is bad and the block is unrecoverable;
    - :meth:`mark_replica_corrupt` poisons one ``(block, node)``
      replica.  The bytes are intact elsewhere, so a reader can fail
      over to another replica and the namenode can re-replicate from a
      good copy.
    """

    def __init__(self) -> None:
        self._payloads: Dict[int, bytes] = {}
        self._checksums: Dict[int, int] = {}
        self._corrupt_replicas: Set[Tuple[int, int]] = set()
        self._verified: Set[int] = set()

    def put(self, block_id: int, payload: bytes) -> None:
        if block_id in self._payloads:
            raise KeyError(f"block {block_id} already stored")
        self._payloads[block_id] = bytes(payload)
        self._checksums[block_id] = zlib.crc32(payload)
        self._verified.discard(block_id)

    def get(self, block_id: int) -> bytes:
        return self._payloads[block_id]

    def verify(self, block_id: int) -> bool:
        """True when the stored payload still matches its checksum
        (the memo of :meth:`rescan`: unchanged bytes are not re-read)."""
        return block_id in self._verified or self.rescan(block_id)

    def rescan(self, block_id: int) -> bool:
        """Checksum the payload bytes now and remember the answer."""
        ok = zlib.crc32(self._payloads[block_id]) == self._checksums[block_id]
        if ok:
            self._verified.add(block_id)
        else:
            self._verified.discard(block_id)
        return ok

    def corrupt(self, block_id: int, offset: int = 0) -> None:
        """Flip a byte (testing hook for corruption scenarios)."""
        payload = bytearray(self._payloads[block_id])
        if not payload:
            return
        payload[offset % len(payload)] ^= 0xFF
        self._payloads[block_id] = bytes(payload)
        self._verified.discard(block_id)

    # -- per-replica corruption ---------------------------------------

    def mark_replica_corrupt(self, block_id: int, node: int) -> None:
        """Poison the copy of ``block_id`` held by datanode ``node``."""
        if block_id not in self._payloads:
            raise KeyError(f"block {block_id} not stored")
        self._corrupt_replicas.add((block_id, node))

    def replica_marked(self, block_id: int, node: int) -> bool:
        """True when ``node``'s copy carries a corruption mark.  Payload
        bytes are shared by all replicas, so a copy is good when it is
        unmarked and the block passes :meth:`verify`."""
        return (block_id, node) in self._corrupt_replicas

    def clear_replica(self, block_id: int, node: int) -> None:
        """Forget a replica's corruption mark (the copy was evicted, or
        re-replication wrote a fresh one from a good source)."""
        self._corrupt_replicas.discard((block_id, node))

    def corrupt_replicas(self) -> List[Tuple[int, int]]:
        """Every ``(block_id, node)`` replica currently marked corrupt."""
        return sorted(self._corrupt_replicas)

    def remove(self, block_id: int) -> None:
        self._payloads.pop(block_id, None)
        self._checksums.pop(block_id, None)
        self._verified.discard(block_id)
        self._corrupt_replicas = {
            pair for pair in self._corrupt_replicas if pair[0] != block_id
        }

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._payloads

    def __len__(self) -> int:
        return len(self._payloads)

    @property
    def total_bytes(self) -> int:
        """Logical bytes stored (one copy per block)."""
        return sum(len(p) for p in self._payloads.values())
