"""The HDFS facade: what formats and the MapReduce engine program against.

Equivalent to Hadoop's ``FileSystem`` API surface, scoped to what the
paper's formats need: create/open/list/delete, block locations for the
scheduler, a pluggable placement policy — plus the fault-tolerance
machinery the paper's co-location argument assumes underneath it
(Section 4.1): datanode crashes and decommissions, checksum-verified
reads with replica failover, and a re-replication repair pass that goes
through the placement policy so repaired CIF split-directories stay
co-located.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.hdfs.blockstore import BlockStore
from repro.hdfs.cluster import ClusterConfig
from repro.hdfs.errors import (
    BlockMissingError,
    CorruptBlockError,
    NodeDeadError,
    TransientReadError,
)
from repro.hdfs.namenode import (
    BlockInfo,
    FileStatus,
    HdfsError,
    NameNode,
    normalize,
)
from repro.hdfs.placement import (
    BlockPlacementPolicy,
    ColumnPlacementPolicy,
    DefaultPlacementPolicy,
    split_directory_of,
)
from repro.hdfs.streams import HdfsInputStream, HdfsOutputStream
from repro.obs import current_obs
from repro.sim.metrics import Metrics


@dataclass
class FsckReport:
    """What ``hdfs fsck`` would print: integrity and replication state.

    ``corrupt_files`` lists files with an *unrecoverable* block (the
    payload itself fails its checksum — every replica is bad);
    ``corrupt_replicas`` lists single bad copies that a reader can fail
    over around and :meth:`FileSystem.repair` can re-replicate away.
    ``non_colocated_split_dirs`` flags CIF split-directories whose
    column files no longer share one replica set — the condition under
    which CIF silently degrades to remote reads.
    """

    total_files: int = 0
    total_blocks: int = 0
    corrupt_files: List[str] = field(default_factory=list)
    corrupt_replicas: List[Tuple[str, int, int]] = field(default_factory=list)
    under_replicated: List[Tuple[str, int, int, int]] = field(
        default_factory=list
    )
    missing_blocks: List[Tuple[str, int]] = field(default_factory=list)
    non_colocated_split_dirs: List[str] = field(default_factory=list)
    dead_nodes: List[int] = field(default_factory=list)
    decommissioned_nodes: List[int] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when every block is fully replicated and uncorrupted."""
        return not (
            self.corrupt_files
            or self.corrupt_replicas
            or self.under_replicated
            or self.missing_blocks
        )

    def render(self) -> str:
        lines = [
            f"files: {self.total_files}  blocks: {self.total_blocks}",
            f"dead nodes: {self.dead_nodes or 'none'}"
            + (
                f"  decommissioned: {self.decommissioned_nodes}"
                if self.decommissioned_nodes
                else ""
            ),
        ]
        if self.corrupt_files:
            lines.append(f"CORRUPT files ({len(self.corrupt_files)}):")
            lines += [f"  {path}" for path in self.corrupt_files]
        if self.corrupt_replicas:
            lines.append(
                f"corrupt replicas ({len(self.corrupt_replicas)}):"
            )
            lines += [
                f"  {path} block {bid} on node {node}"
                for path, bid, node in self.corrupt_replicas
            ]
        if self.missing_blocks:
            lines.append(f"MISSING blocks ({len(self.missing_blocks)}):")
            lines += [
                f"  {path} block {bid}" for path, bid in self.missing_blocks
            ]
        if self.under_replicated:
            lines.append(
                f"under-replicated blocks ({len(self.under_replicated)}):"
            )
            lines += [
                f"  {path} block {bid}: {live}/{want} replicas"
                for path, bid, live, want in self.under_replicated
            ]
        if self.non_colocated_split_dirs:
            lines.append(
                "split-directories with lost co-location "
                f"({len(self.non_colocated_split_dirs)}):"
            )
            lines += [f"  {d}" for d in self.non_colocated_split_dirs]
        lines.append("status: " + ("HEALTHY" if self.healthy else "DEGRADED"))
        return "\n".join(lines)


class FileSystem:
    """A simulated HDFS instance bound to one cluster configuration."""

    def __init__(
        self,
        cluster: Optional[ClusterConfig] = None,
        placement: Optional[BlockPlacementPolicy] = None,
    ) -> None:
        self.cluster = cluster if cluster is not None else ClusterConfig()
        self.placement = (
            placement if placement is not None else DefaultPlacementPolicy()
        )
        self.namenode = NameNode()
        self.blockstore = BlockStore()
        self._rng = random.Random(self.cluster.seed)
        self._dead_nodes: Set[int] = set()
        self._decommissioned: Set[int] = set()
        self._slowdowns: Dict[int, float] = {}
        self._transient: Dict[int, int] = {}

    # -- configuration ---------------------------------------------------

    def set_placement_policy(self, placement: BlockPlacementPolicy) -> None:
        """Swap the block placement policy (the
        ``dfs.block.replicator.classname`` hook of Section 4.2).

        Affects blocks placed from now on; existing blocks stay put,
        exactly as in HDFS.
        """
        self.placement = placement

    def use_column_placement(self) -> ColumnPlacementPolicy:
        """Install CPP and return it (convenience for experiments)."""
        policy = ColumnPlacementPolicy()
        self.set_placement_policy(policy)
        return policy

    # -- namespace passthroughs -------------------------------------------

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def is_dir(self, path: str) -> bool:
        return self.namenode.is_dir(path)

    def mkdirs(self, path: str) -> None:
        self.namenode.mkdirs(path)

    def listdir(self, path: str) -> List[str]:
        return self.namenode.listdir(path)

    def status(self, path: str) -> FileStatus:
        return self.namenode.status(path)

    def file_length(self, path: str) -> int:
        return self.namenode.file_length(path)

    def delete(self, path: str, recursive: bool = False) -> None:
        freed = self.namenode.delete(path, recursive=recursive)
        for block in freed:
            self.blockstore.remove(block.block_id)
        self.placement.forget(normalize(path))

    # -- streams -----------------------------------------------------------

    def create(
        self,
        path: str,
        overwrite: bool = False,
        metrics: Optional[Metrics] = None,
    ) -> HdfsOutputStream:
        """Open an append-only output stream for a new file."""
        for block in self.namenode.create_file(path, overwrite=overwrite):
            self.blockstore.remove(block.block_id)
        return HdfsOutputStream(self, normalize(path), metrics=metrics)

    def open(
        self,
        path: str,
        node: Optional[int] = None,
        metrics: Optional[Metrics] = None,
        buffer_size: Optional[int] = None,
        bandwidth_scale: float = 1.0,
        probe=None,
    ) -> HdfsInputStream:
        """Open a buffered input stream.

        ``node`` is the datanode the reading task runs on (None for
        out-of-band access, e.g. loaders and tests, which read free of
        charge when ``metrics`` is None and locally otherwise).
        ``bandwidth_scale`` < 1 models interleaved multi-file scans.
        ``probe`` is an observability :class:`~repro.obs.StreamProbe`
        attributing this stream's fetches to labeled counters.
        """
        return HdfsInputStream(
            self,
            self.namenode.blocks_of(path),
            buffer_size=buffer_size or self.cluster.io_buffer_size,
            node=node,
            metrics=metrics,
            bandwidth_scale=bandwidth_scale / self.slowdown_of(node),
            probe=probe,
        )

    def write_file(
        self, path: str, data: bytes, metrics: Optional[Metrics] = None
    ) -> None:
        """Create ``path`` holding exactly ``data`` (convenience)."""
        with self.create(path, metrics=metrics) as out:
            out.write(data)

    def read_file(self, path: str) -> bytes:
        """Whole-file read without accounting (loaders, tests)."""
        return self.open(path).read_fully()

    def _commit_file(
        self, path: str, data: bytes, metrics: Optional[Metrics]
    ) -> None:
        """Cut ``data`` into blocks, place replicas, store payloads."""
        block_size = self.cluster.block_size
        excluded = self._dead_nodes | self._decommissioned
        offset = 0
        while True:
            chunk = data[offset:offset + block_size]
            targets = self.placement.choose_targets(path, self.cluster, self._rng)
            live = [n for n in targets if n not in excluded]
            if not live:
                raise HdfsError(f"no live targets for block of {path}")
            block = self.namenode.add_block(path, len(chunk), live)
            self.blockstore.put(block.block_id, chunk)
            offset += len(chunk)
            if offset >= len(data):
                break
        if metrics is not None:
            # The writer pays for its local replica; pipeline copies to
            # the other replicas overlap with it.
            self.cluster.disk.charge_write(metrics, len(data))

    # -- verified, failure-aware block reads -------------------------------

    def check_transient(self, node: Optional[int]) -> None:
        """Raise :class:`TransientReadError` when a flaky-read fault is
        armed for ``node`` (one fault consumed per raised error)."""
        if node is None:
            return
        left = self._transient.get(node, 0)
        if left > 0:
            self._transient[node] = left - 1
            current_obs().registry.counter(
                "hdfs.transient_errors", node=node
            ).inc()
            raise TransientReadError(
                f"transient read error on node {node} ({left - 1} left armed)"
            )

    def fetch_block(
        self, block: BlockInfo, reader_node: Optional[int]
    ) -> Tuple[bytes, bool]:
        """Serve a block read from the best live, checksum-clean replica.

        Returns ``(payload, local)``.  Preference order: the reader's
        own replica, then the lowest-numbered live one.  Replicas that
        fail their checksum are reported to the namenode (invalidated
        and immediately re-replicated from a good copy); a read that *planned* to be local but was served
        remotely counts a ``replica.failover`` and is charged network
        cost by the stream layer.
        """
        if reader_node is not None and reader_node in self._dead_nodes:
            raise NodeDeadError(f"reading node {reader_node} is dead")
        bid = block.block_id
        if not self.blockstore.verify(bid):
            raise CorruptBlockError(
                f"block {bid}: every replica fails its checksum"
            )
        wanted_local = reader_node is None or reader_node in block.locations
        candidates = [n for n in block.locations if n not in self._dead_nodes]
        if reader_node in candidates:
            order = [reader_node] + sorted(
                n for n in candidates if n != reader_node
            )
        else:
            order = sorted(candidates)
        for node in order:
            if self.blockstore.replica_marked(bid, node):
                self.report_corrupt_replica(block, node)
                continue
            local = reader_node is None or node == reader_node
            if wanted_local and not local:
                obs = current_obs()
                obs.registry.counter("replica.failover").inc()
                obs.emit(
                    "replica.failover", block=bid,
                    reader=reader_node, served_by=node,
                )
            return self.blockstore.get(bid), local
        raise BlockMissingError(
            f"block {bid}: no live, uncorrupted replica remains"
        )

    def report_corrupt_replica(self, block: BlockInfo, node: int) -> None:
        """A reader detected a checksum mismatch on one replica.

        The replica is invalidated at the namenode and the block is
        immediately re-replicated from a surviving good copy (HDFS does
        this asynchronously), through the placement policy, so CPP
        datasets stay co-located.
        """
        if not self._evict_replica(block, node):
            return
        obs = current_obs()
        obs.registry.counter(
            "replica.corrupt_detected", node=node
        ).inc()
        obs.emit(
            "replica.corrupt_detected", block=block.block_id, node=node
        )
        has_good_copy = self.blockstore.verify(block.block_id) and any(
            n not in self._dead_nodes
            and not self.blockstore.replica_marked(block.block_id, n)
            for n in block.locations
        )
        if has_good_copy:
            path = self.namenode.path_of_block(block.block_id)
            if path is not None:
                self._repair_block(path, block)

    # -- locality queries ----------------------------------------------------

    def block_locations(self, path: str) -> List[List[int]]:
        return self.namenode.block_locations(path)

    def hosts_for(self, path: str) -> List[int]:
        """Nodes hosting *every* block of ``path`` (fully-local readers)."""
        per_block = self.namenode.block_locations(path)
        if not per_block:
            return list(range(self.cluster.num_nodes))
        hosts = set(per_block[0])
        for locations in per_block[1:]:
            hosts &= set(locations)
        return sorted(hosts)

    # -- node lifecycle ------------------------------------------------------

    @property
    def failed_nodes(self) -> set:
        return set(self._dead_nodes)

    def live_nodes(self) -> List[int]:
        """Datanodes accepting reads, writes, and tasks."""
        gone = self._dead_nodes | self._decommissioned
        return [n for n in range(self.cluster.num_nodes) if n not in gone]

    def is_node_live(self, node: int) -> bool:
        return (
            node not in self._dead_nodes and node not in self._decommissioned
        )

    def set_node_slowdown(self, node: int, factor: float) -> None:
        """Degrade ``node``'s local disk bandwidth by ``factor`` (>= 1).

        Models a failing disk / overloaded datanode: tasks reading
        locally there take ``factor``x longer, which is what Hadoop's
        speculative execution exists to route around.
        """
        if factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        if factor == 1.0:
            self._slowdowns.pop(node, None)
        else:
            self._slowdowns[node] = factor

    def slowdown_of(self, node: Optional[int]) -> float:
        if node is None:
            return 1.0
        return self._slowdowns.get(node, 1.0)

    def crash_node(self, node: int) -> int:
        """Kill a datanode: every replica it held is invalidated.

        Returns the number of replicas dropped by the dead-node scan.
        Affected blocks stay readable through surviving replicas (readers
        fail over); call :meth:`repair` to restore full replication.
        """
        if node in self._dead_nodes:
            return 0
        self._dead_nodes.add(node)
        self._decommissioned.discard(node)
        self._slowdowns.pop(node, None)
        self._transient.pop(node, None)
        if isinstance(self.placement, ColumnPlacementPolicy):
            # Re-point every pinned set before blocks move so the whole
            # split-directory re-replicates to the same place.
            self.placement.repin_after_failure(
                node, self.cluster, self._rng,
                avoid=self._dead_nodes | self._decommissioned,
            )
        return sum(
            self._evict_replica(block, node)
            for _path, block in self.namenode.blocks_on(node)
        )

    def _evict_replica(self, block: BlockInfo, node: int) -> bool:
        """Drop ``node``'s copy of ``block`` at the namenode, and the
        copy's corruption mark with it: a mark only ever names a replica
        the namenode lists.  True when the node held a replica."""
        if not self.namenode.invalidate_replica(block, node):
            return False
        self.blockstore.clear_replica(block.block_id, node)
        return True

    def decommission_node(self, node: int) -> int:
        """Gracefully retire a datanode: replicas are copied off first.

        Unlike :meth:`crash_node` there is no under-replication window —
        the node keeps serving until every block it holds has a
        replacement replica.  Returns the number of replicas moved.
        """
        if node in self._dead_nodes or node in self._decommissioned:
            return 0
        self._decommissioned.add(node)
        if isinstance(self.placement, ColumnPlacementPolicy):
            self.placement.repin_after_failure(
                node, self.cluster, self._rng,
                avoid=self._dead_nodes | self._decommissioned,
            )
        moved = 0
        for path, block in self.namenode.blocks_on(node):
            replacement = self._choose_live_replacement(path, block)
            if replacement is not None:
                block.locations.append(replacement)
                moved += 1
            self._evict_replica(block, node)
        return moved

    def fail_node(self, node: int) -> int:
        """Kill a datanode and re-replicate its blocks via the policy.

        ``crash_node`` + ``repair`` in one step (the original extension
        hook).  Returns the number of block replicas re-created.  With
        CPP, the replacement keeps each split-directory co-located.
        """
        if node in self._dead_nodes:
            return 0
        self.crash_node(node)
        return self.repair()

    def arm_transient_errors(self, node: int, count: int = 1) -> None:
        """The next ``count`` fetches by tasks on ``node`` raise
        :class:`TransientReadError` (consumed one per fetch)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._transient[node] = self._transient.get(node, 0) + count

    # -- repair --------------------------------------------------------------

    def repair(self) -> int:
        """Re-replication pass: restore every under-replicated block.

        Replacement targets come from the placement policy, so CPP
        datasets repair *consistently* — all column files of a
        split-directory land on the same fresh node.  Emits
        ``colocation.restored`` / ``colocation.lost`` counters for every
        split-directory the pass touched.  Returns replicas created.
        """
        created = 0
        touched_dirs = set()
        for path, blocks in self.namenode.files_with_blocks().items():
            for block in blocks:
                if not block.locations:
                    continue  # data lost; fsck reports the missing block
                added = self._repair_block(path, block)
                created += added
                if added:
                    split_dir = split_directory_of(path)
                    if split_dir is not None:
                        touched_dirs.add(split_dir)
        registry = current_obs().registry
        for split_dir in sorted(touched_dirs):
            if self.split_dir_colocated(split_dir):
                registry.counter("colocation.restored").inc()
            else:
                registry.counter("colocation.lost").inc()
        return created

    def _target_replication(self) -> int:
        return min(
            self.cluster.effective_replication, max(1, len(self.live_nodes()))
        )

    def scrub(self) -> int:
        """Block-scanner pass: detect and evict corrupt replicas.

        Models HDFS's periodic ``DataBlockScanner``: every replica whose
        stored checksum mismatches is reported to the namenode and
        re-replicated from a good copy — without
        waiting for a reader to stumble over it.  Returns the number of
        corrupt replicas evicted.
        """
        evicted = 0
        for block_id, node in self.blockstore.corrupt_replicas():
            path = self.namenode.path_of_block(block_id)
            if path is None:
                continue
            for block in self.namenode.blocks_of(path):
                if block.block_id == block_id and node in block.locations:
                    self.report_corrupt_replica(block, node)
                    evicted += 1
                    break
        return evicted

    def _repair_block(self, path: str, block: BlockInfo) -> int:
        """Restore one block's replication; returns replicas created.
        Shared by :meth:`repair` and the corrupt-replica fast path."""
        created = 0
        while len(block.locations) < self._target_replication():
            replacement = self._choose_live_replacement(path, block)
            if replacement is None:
                break
            block.locations.append(replacement)
            created += 1
        return created

    def _choose_live_replacement(
        self, path: str, block: BlockInfo
    ) -> Optional[int]:
        """Ask the policy for a replacement node, retrying past dead or
        already-used proposals (policies have no failure knowledge)."""
        excluded = self._dead_nodes | self._decommissioned
        avoid = list(block.locations)
        for _ in range(2 * self.cluster.num_nodes):
            try:
                candidate = self.placement.choose_replacement(
                    path, avoid, self.cluster, self._rng
                )
            except ValueError:
                return None
            if candidate not in excluded and candidate not in block.locations:
                return candidate
            if candidate not in avoid:
                avoid.append(candidate)
            else:  # policy is stuck proposing the same exhausted set
                avoid = sorted(set(avoid) | excluded)
        return None

    # -- integrity -----------------------------------------------------------

    def split_dir_colocated(self, split_dir: str) -> bool:
        """True when every block of every file under ``split_dir`` sits
        on one common replica set (the CPP invariant, Figure 3b)."""
        split_dir = normalize(split_dir)
        sets = set()
        for path, blocks in self.namenode.files_with_blocks().items():
            if not (path == split_dir or path.startswith(split_dir + "/")):
                continue
            for block in blocks:
                sets.add(tuple(sorted(block.locations)))
        return len(sets) <= 1

    def fsck_report(self, path: Optional[str] = None) -> FsckReport:
        """Full integrity scan, like ``hdfs fsck``: corruption (block
        and replica level), replication, and CIF co-location state.

        This is the byte-level block scanner: every block is
        re-checksummed from its payload (``BlockStore.rescan``), not
        answered from the read path's verified-once memo.
        ``path`` limits the check to one file or directory subtree.
        """
        report = FsckReport(
            dead_nodes=sorted(self._dead_nodes),
            decommissioned_nodes=sorted(self._decommissioned),
        )
        prefix = None if path is None else normalize(path)
        target = self._target_replication()
        split_dirs = set()
        for file_path, blocks in sorted(
            self.namenode.files_with_blocks().items()
        ):
            if prefix is not None and not (
                file_path == prefix or file_path.startswith(prefix + "/")
            ):
                continue
            report.total_files += 1
            report.total_blocks += len(blocks)
            split_dir = split_directory_of(file_path)
            if split_dir is not None:
                split_dirs.add(split_dir)
            payload_corrupt = False
            for block in blocks:
                if self.blockstore.rescan(block.block_id):
                    report.corrupt_replicas += [
                        (file_path, block.block_id, node)
                        for node in block.locations
                        if self.blockstore.replica_marked(
                            block.block_id, node
                        )
                    ]
                else:
                    payload_corrupt = True
                live = [
                    n for n in block.locations if n not in self._dead_nodes
                ]
                if not live:
                    report.missing_blocks.append(
                        (file_path, block.block_id)
                    )
                elif len(live) < target:
                    report.under_replicated.append(
                        (file_path, block.block_id, len(live), target)
                    )
            if payload_corrupt:
                report.corrupt_files.append(file_path)
        for split_dir in sorted(split_dirs):
            if not self.split_dir_colocated(split_dir):
                report.non_colocated_split_dirs.append(split_dir)
        return report

    def fsck(self, path: Optional[str] = None) -> List[str]:
        """Verify block checksums; returns paths with corrupt blocks.

        ``path`` limits the check to one file or directory subtree
        (None checks everything), like ``hdfs fsck``.  See
        :meth:`fsck_report` for the full structured scan.
        """
        report = self.fsck_report(path)
        corrupt = set(report.corrupt_files)
        corrupt.update(p for p, _, _ in report.corrupt_replicas)
        return sorted(corrupt)
