"""Shared fixtures: small clusters, schemas, and deterministic datasets."""

from __future__ import annotations

import random

import pytest

from repro.cluster.manager import run_alone
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce.scheduler import MapWork
from repro.mapreduce.types import TaskContext
from repro.obs import NULL_OBS
from repro.serde.record import Record
from repro.serde.schema import Schema
from repro.sim.cost import CpuCostModel


@pytest.fixture
def fs():
    """A small cluster with tiny blocks so multi-block paths get exercised."""
    return FileSystem(
        ClusterConfig(num_nodes=8, block_size=64 * 1024, io_buffer_size=4096)
    )


@pytest.fixture
def ctx():
    """An unplaced task context (reads are treated as local)."""
    return TaskContext(node=None, cost=CpuCostModel(), io_buffer_size=4096)


def make_ctx() -> TaskContext:
    return TaskContext(node=None, cost=CpuCostModel(), io_buffer_size=4096)


def schedule(
    splits, num_nodes, slots_per_node, execute,
    max_attempts=1, speculative=False, obs=NULL_OBS, faults=None,
):
    """Run synthetic map work alone on the one scheduler.

    ``execute(split, node)`` returns the attempt's Metrics (its
    simulated duration is ``metrics.task_time``) or raises a
    FaultError; returns the executed attempts in launch order.
    """
    fs = FileSystem(
        ClusterConfig(num_nodes=num_nodes, map_slots_per_node=slots_per_node)
    )
    work = MapWork(
        "t", splits, lambda split, node: (execute(split, node), None),
        max_attempts=max_attempts,
    )
    return run_alone(fs, work, obs, faults, speculative).tasks


def micro_schema() -> Schema:
    """The Section 6.2 microbenchmark schema: 6 strings, 6 ints, 1 map."""
    fields = [(f"str{i}", Schema.string()) for i in range(6)]
    fields += [(f"int{i}", Schema.int_()) for i in range(6)]
    fields.append(("attrs", Schema.map(Schema.int_())))
    return Schema.record("micro", fields)


def micro_records(schema: Schema, n: int, seed: int = 7):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        rec = Record(schema)
        for j in range(6):
            rec.put(f"str{j}", f"s{i}-{j}-" + "x" * rng.randint(5, 20))
            rec.put(f"int{j}", rng.randint(1, 10000))
        rec.put(
            "attrs",
            {f"k{rng.randint(0, 30):02d}-{e}": rng.randint(0, 99) for e in range(10)},
        )
        records.append(rec)
    return records
