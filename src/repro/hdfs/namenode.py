"""Namenode: the HDFS namespace and block map.

Paths are ``/``-separated absolute strings.  Directories are implicit
(created on demand, as HDFS does for ``create``).  Each file is an
ordered list of blocks; each block records its length, its single copy
of real bytes (held in the shared block store), and the datanodes
holding replicas.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class HdfsError(OSError):
    """Filesystem-level errors (missing paths, conflicts)."""


def normalize(path: str) -> str:
    """Normalize to an absolute, ``/``-rooted, no-trailing-slash path."""
    if not path.startswith("/"):
        path = "/" + path
    norm = posixpath.normpath(path)
    return "/" if norm == "" else norm


@dataclass
class BlockInfo:
    """One HDFS block: id, length, and replica locations (node ids)."""

    block_id: int
    length: int
    locations: List[int] = field(default_factory=list)


@dataclass
class FileStatus:
    """Metadata returned by :meth:`NameNode.status`."""

    path: str
    is_dir: bool
    length: int
    block_count: int


class NameNode:
    """Namespace + block map.  Byte payloads live in :class:`BlockStore`."""

    def __init__(self) -> None:
        self._files: Dict[str, List[BlockInfo]] = {}
        self._dirs = {"/"}
        self._next_block_id = 0

    # -- namespace --------------------------------------------------------

    def mkdirs(self, path: str) -> None:
        path = normalize(path)
        if path in self._files:
            raise HdfsError(f"{path} exists and is a file")
        while path not in self._dirs:
            self._dirs.add(path)
            path = posixpath.dirname(path)

    def exists(self, path: str) -> bool:
        path = normalize(path)
        return path in self._files or path in self._dirs

    def is_dir(self, path: str) -> bool:
        return normalize(path) in self._dirs

    def create_file(
        self, path: str, overwrite: bool = False
    ) -> List[BlockInfo]:
        """Register an empty file; returns the blocks an overwritten
        file held, which the caller frees (as with :meth:`delete`)."""
        path = normalize(path)
        if path in self._dirs:
            raise HdfsError(f"{path} exists and is a directory")
        if path in self._files and not overwrite:
            raise HdfsError(f"{path} already exists")
        self.mkdirs(posixpath.dirname(path))
        displaced = self._files.get(path, [])
        self._files[path] = []
        return displaced

    def delete(self, path: str, recursive: bool = False) -> List[BlockInfo]:
        """Remove a file or directory tree; returns the freed blocks."""
        path = normalize(path)
        freed: List[BlockInfo] = []
        if path in self._files:
            freed.extend(self._files.pop(path))
            return freed
        if path in self._dirs:
            children = self.listdir(path)
            if children and not recursive:
                raise HdfsError(f"{path} is a non-empty directory")
            for child in children:
                freed.extend(self.delete(posixpath.join(path, child), True))
            self._dirs.discard(path)
            return freed
        raise HdfsError(f"{path} does not exist")

    def listdir(self, path: str) -> List[str]:
        """Immediate child names (files and directories), sorted."""
        path = normalize(path)
        if path in self._files:
            raise HdfsError(f"{path} is a file")
        if path not in self._dirs:
            raise HdfsError(f"{path} does not exist")
        prefix = path if path.endswith("/") else path + "/"
        children = set()
        for existing in list(self._files) + list(self._dirs):
            if existing != path and existing.startswith(prefix):
                rest = existing[len(prefix):]
                children.add(rest.split("/", 1)[0])
        return sorted(children)

    def status(self, path: str) -> FileStatus:
        path = normalize(path)
        if path in self._files:
            blocks = self._files[path]
            return FileStatus(
                path, False, sum(b.length for b in blocks), len(blocks)
            )
        if path in self._dirs:
            return FileStatus(path, True, 0, 0)
        raise HdfsError(f"{path} does not exist")

    # -- block map ---------------------------------------------------------

    def add_block(self, path: str, length: int, locations: List[int]) -> BlockInfo:
        path = normalize(path)
        if path not in self._files:
            raise HdfsError(f"{path} is not an open file")
        block = BlockInfo(self._next_block_id, length, list(locations))
        self._next_block_id += 1
        self._files[path].append(block)
        return block

    def blocks_of(self, path: str) -> List[BlockInfo]:
        path = normalize(path)
        try:
            return self._files[path]
        except KeyError:
            raise HdfsError(f"{path} does not exist or is a directory") from None

    def file_length(self, path: str) -> int:
        return sum(b.length for b in self.blocks_of(path))

    def block_locations(self, path: str) -> List[List[int]]:
        return [list(b.locations) for b in self.blocks_of(path)]

    def all_blocks(self) -> List[BlockInfo]:
        return [b for blocks in self._files.values() for b in blocks]

    def files_with_blocks(self) -> Dict[str, List[BlockInfo]]:
        """Snapshot of every file's block list (for re-replication scans)."""
        return {path: list(blocks) for path, blocks in self._files.items()}

    # -- replica invalidation (fault tolerance) ---------------------------

    def invalidate_replica(self, block: BlockInfo, node: int) -> bool:
        """Drop ``node`` from a block's replica set (corrupt or dead copy).

        Returns True when the node actually held a replica.  The block
        becomes under-replicated; a later
        :meth:`~repro.hdfs.filesystem.FileSystem.repair` pass restores
        the target replication from a surviving copy.
        """
        if node in block.locations:
            block.locations.remove(node)
            return True
        return False

    def blocks_on(self, node: int) -> List[Tuple[str, BlockInfo]]:
        """Every ``(path, block)`` with a replica on ``node``."""
        return [
            (path, block)
            for path, blocks in self._files.items()
            for block in blocks
            if node in block.locations
        ]

    def path_of_block(self, block_id: int) -> Optional[str]:
        """The file a block belongs to (None for unknown ids)."""
        for path, blocks in self._files.items():
            for block in blocks:
                if block.block_id == block_id:
                    return path
        return None
