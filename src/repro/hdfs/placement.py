"""Block placement policies, including the paper's CPP (Section 4.2).

HDFS lets deployments swap the block placement policy via the
``dfs.block.replicator.classname`` configuration property — no Hadoop
recompilation needed.  The paper exploits exactly that hook:

- :class:`DefaultPlacementPolicy` scatters replicas randomly (the
  behaviour that breaks column co-location in Figure 3a), and
- :class:`ColumnPlacementPolicy` (CPP) pins every block of every file
  inside one *split-directory* onto the same replica set (Figure 3b).
  The first block of a split-directory is placed by the default
  algorithm — which is why load balancing under CPP happens at
  split-directory granularity (Section 4.3) — and all later blocks
  follow it.

Split-directories are recognized by naming convention: a path component
matching ``s<digits>`` (e.g. ``/data/2011-01-01/s0/url``).  Paths that
do not follow the convention fall back to the default policy, as in the
paper.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Optional

from repro.hdfs.cluster import ClusterConfig

_SPLIT_DIR_COMPONENT = re.compile(r"^s\d+$")


def split_directory_of(path: str) -> Optional[str]:
    """The enclosing split-directory of ``path``, or None.

    ``/data/x/s3/url`` -> ``/data/x/s3``;  ``/data/x/part-0`` -> None.
    """
    parts = path.split("/")
    for i in range(len(parts) - 1, 0, -1):
        if _SPLIT_DIR_COMPONENT.match(parts[i]):
            return "/".join(parts[: i + 1])
    return None


class BlockPlacementPolicy:
    """Chooses datanodes for new block replicas."""

    def choose_targets(
        self,
        path: str,
        cluster: ClusterConfig,
        rng: random.Random,
    ) -> List[int]:
        """Replica target nodes for the next block of ``path``."""
        raise NotImplementedError

    def choose_replacement(
        self,
        path: str,
        existing: List[int],
        cluster: ClusterConfig,
        rng: random.Random,
    ) -> int:
        """A node to re-replicate onto after a failure (node not in ``existing``)."""
        raise NotImplementedError

    def forget(self, path: str) -> None:
        """Drop any placement state for a deleted path (no-op by default)."""


class DefaultPlacementPolicy(BlockPlacementPolicy):
    """HDFS's stock policy, abstracted: random distinct nodes per block."""

    def choose_targets(self, path, cluster, rng) -> List[int]:
        k = cluster.effective_replication
        return rng.sample(range(cluster.num_nodes), k)

    def choose_replacement(self, path, existing, cluster, rng) -> int:
        candidates = [n for n in range(cluster.num_nodes) if n not in existing]
        if not candidates:
            raise ValueError("no node available for re-replication")
        return rng.choice(candidates)


class ColumnPlacementPolicy(DefaultPlacementPolicy):
    """CPP: co-locate all column files of a split-directory (Section 4.2).

    Guarantees that a map task scheduled on any node holding one column
    of its split holds *all* columns of that split locally.  Paths
    outside split-directories, and each directory's first pick, get the
    default placement.
    """

    def __init__(self) -> None:
        self._pinned: Dict[str, List[int]] = {}

    def pinned_nodes(self, split_dir: str) -> Optional[List[int]]:
        """The replica set a split-directory is pinned to, if any yet."""
        nodes = self._pinned.get(split_dir)
        return list(nodes) if nodes is not None else None

    def choose_targets(self, path, cluster, rng) -> List[int]:
        split_dir = split_directory_of(path)
        if split_dir is None:
            return super().choose_targets(path, cluster, rng)
        pinned = self._pinned.get(split_dir)
        if pinned is None:
            # First block of this split-directory: default placement
            # chooses, then the whole directory sticks to it.
            pinned = super().choose_targets(path, cluster, rng)
            self._pinned[split_dir] = pinned
        return list(pinned)

    def choose_replacement(self, path, existing, cluster, rng) -> int:
        split_dir = split_directory_of(path)
        if split_dir is None or split_dir not in self._pinned:
            return super().choose_replacement(path, existing, cluster, rng)
        pinned = self._pinned[split_dir]
        # Re-pin once per failure: swap any dead pinned node for a fresh
        # one so the whole split-directory re-replicates to the same
        # place and stays co-located.
        for candidate in pinned:
            if candidate not in existing:
                return candidate
        fresh = super().choose_replacement(path, pinned, cluster, rng)
        pinned.append(fresh)
        return fresh

    def repin_after_failure(
        self, failed_node: int, cluster, rng, avoid=()
    ) -> None:
        """Swap ``failed_node`` out of every pinned set, consistently.

        ``avoid`` lists additional nodes (other dead/decommissioned
        datanodes) the replacement must not land on, so a repair pass
        under multiple failures stays consistent.
        """
        for split_dir, pinned in self._pinned.items():
            if failed_node in pinned:
                exclude = list(pinned) + [n for n in avoid if n not in pinned]
                fresh = super().choose_replacement(
                    split_dir, exclude, cluster, rng
                )
                pinned[pinned.index(failed_node)] = fresh

    def forget(self, path: str) -> None:
        split_dir = split_directory_of(path)
        if split_dir is not None:
            self._pinned.pop(split_dir, None)
        else:
            self._pinned.pop(path, None)
