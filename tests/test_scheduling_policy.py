"""Seam proof: a new selection policy is one small class over the hooks.

HAIL (*Only Aggressive Elephants are Fast Elephants*) keeps each replica
of a block in a different sort order and sends a map task to the replica
whose layout suits the job.  The scheduling half of that idea, choosing
*which* free replica holder gets the task, must fit the event loop's
policy seam without touching the loop.  Per-replica layouts are not
built here: a caller-supplied ``score(split, node)`` stands in for "how
well this node's copy suits the job".
"""

import zlib

from repro.cluster import (
    ClusterManager,
    ClusterPolicy,
    JobRequest,
    TenantConfig,
)
from repro.formats.sequence_file import (
    SequenceFileInputFormat,
    write_sequence_file,
)
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import run_job
from repro.workloads.crawl import crawl_records, crawl_schema
from repro.workloads.jobs import distinct_content_types_job
from tests.test_runner_edges import (
    assert_schedule_invariants,
    recording_obs,
    run_sample_profile,
)


class Hail:
    """Selection by replica score, over any other policy's other hooks.

    Jobs are served in arrival order, as by the default policy; among
    the free slots that hold a replica of one of the job's ready splits,
    the best-scored (split, node) pair wins.  With no such slot the
    kernel's own placement (remote, or a banned node over a stranded
    job) applies.
    """

    def __init__(self, inner, score):
        self.inner, self.score = inner, score
        #: (free slots, [(split, banned)] ready, split, node, local) taken
        self.decisions = []

    def __getattr__(self, hook):  # before_assign, may_take_slot
        return getattr(self.inner, hook)

    def select(self, scheduler, now):
        for execution in sorted(
            (e for e in scheduler.executions if e.ready(now)),
            key=lambda e: (e.arrival, e.request_id),
        ):
            ready = execution.ready(now)
            holders = [
                (self.score(execution.splits[p.index], node), -node, -slot, i)
                for i, p in enumerate(ready)
                for node, slot in scheduler.free
                if node not in p.banned
                and node in execution.splits[p.index].locations
            ]
            if holders:
                _score, neg_node, neg_slot, i = max(holders)
                placed = (execution, ready[i], -neg_node, -neg_slot, True)
            else:
                placed = scheduler.place(execution, now)
            if placed is not None:
                _execution, pending, node, _slot, local = placed
                self.decisions.append((
                    sorted(scheduler.free),
                    [(execution.splits[p.index], p.banned) for p in ready],
                    execution.splits[pending.index], node, local,
                ))
                return placed
        return None


def replica_score(split, node):
    """A fixed, arbitrary preference of each split for each holder."""
    return zlib.crc32(f"{split.label}@{node}".encode())


def assert_took_the_top_scored_replica(hail):
    chose = 0
    for free, ready, split, node, local in hail.decisions:
        if not local:
            continue
        chose += 1
        best = max(
            replica_score(s, n)
            for s, banned in ready
            for n, _ in free
            if n in s.locations and n not in banned
        )
        assert replica_score(split, node) == best
    assert chose  # the policy did get to choose


def install_hail(manager):
    manager.hooks = Hail(manager.hooks, replica_score)


def figure1_cluster():
    """Figure 1's job over a crawl file of several 3-way replicated
    blocks, so most splits have more than one free holder to pick."""
    fs = FileSystem(ClusterConfig(
        num_nodes=6, map_slots_per_node=1, replication=3,
        block_size=8 * 1024, io_buffer_size=1024,
    ))
    write_sequence_file(
        fs, "/crawl/seq", crawl_schema(), crawl_records(300, seed=5),
        sync_interval=20,
    )
    return fs


def figure1_job():
    return distinct_content_types_job(
        SequenceFileInputFormat("/crawl/seq"), num_reducers=2
    )


def run_figure1(install=None):
    obs, events = recording_obs()
    manager = ClusterManager(figure1_cluster(), ClusterPolicy(
        tenants=[TenantConfig("t", "default")], policy="fifo"
    ), obs)
    if install is not None:
        install(manager)
    manager.run([JobRequest(figure1_job(), "t", 0.0)])
    return manager, events


class TestHailSelection:
    def test_figure1_job(self):
        default, _ = run_figure1()
        manager, events = run_figure1(install_hail)
        assert_schedule_invariants(manager, events)
        assert_took_the_top_scored_replica(manager.hooks)
        assert manager.job_results[0].output == default.job_results[0].output
        assert manager.job_results[0].output == run_job(
            figure1_cluster(), figure1_job()
        ).output
        assert manager.job_results[0].counters.as_dict() == (
            default.job_results[0].counters.as_dict()
        )
        # it is a different schedule, not the default one re-derived
        placements = [
            [(t.split.label, t.node) for t in m.executions[0].tasks]
            for m in (manager, default)
        ]
        assert placements[0] != placements[1]

    def test_three_tenant_profile(self):
        default, _, default_report = run_sample_profile("fifo")
        manager, events, report = run_sample_profile(
            "fifo", install=install_hail
        )
        assert_schedule_invariants(manager, events)
        assert_took_the_top_scored_replica(manager.hooks)
        completed = {o.request_id for o in report.completed}
        assert completed
        for request_id in completed & {
            o.request_id for o in default_report.completed
        }:
            assert manager.job_results[request_id].output == (
                default.job_results[request_id].output
            )
            assert manager.job_results[request_id].counters.as_dict() == (
                default.job_results[request_id].counters.as_dict()
            )
