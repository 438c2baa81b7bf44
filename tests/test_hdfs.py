"""Tests for the HDFS simulator: namespace, blocks, placement, failure."""

import random
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hdfs import (
    ClusterConfig,
    ColumnPlacementPolicy,
    CorruptBlockError,
    FileSystem,
)
from repro.hdfs import blockstore as blockstore_module
from repro.hdfs.blockstore import BlockStore
from repro.hdfs.namenode import HdfsError
from repro.hdfs.placement import DefaultPlacementPolicy, split_directory_of
from repro.sim.metrics import Metrics


def small_fs(**kw):
    defaults = dict(num_nodes=8, block_size=1024, io_buffer_size=256)
    defaults.update(kw)
    return FileSystem(ClusterConfig(**defaults))


class TestNamespace:
    def test_create_write_read(self):
        fs = small_fs()
        fs.write_file("/data/a", b"hello world")
        assert fs.read_file("/data/a") == b"hello world"
        assert fs.file_length("/data/a") == 11

    def test_implicit_parent_dirs(self):
        fs = small_fs()
        fs.write_file("/a/b/c/file", b"x")
        assert fs.is_dir("/a/b/c")
        assert fs.listdir("/a") == ["b"]

    def test_listdir_mixed(self):
        fs = small_fs()
        fs.write_file("/d/f1", b"1")
        fs.write_file("/d/sub/f2", b"2")
        assert fs.listdir("/d") == ["f1", "sub"]

    def test_no_overwrite_by_default(self):
        fs = small_fs()
        fs.write_file("/f", b"1")
        with pytest.raises(HdfsError):
            fs.create("/f")
        with fs.create("/f", overwrite=True) as out:
            out.write(b"2")
        assert fs.read_file("/f") == b"2"

    def test_overwrite_frees_displaced_blocks(self):
        # Regression: overwrite reset the block list at the namenode and
        # left the old payload, checksum and replica mark in the store.
        fs = small_fs()
        fs.write_file("/a", b"x" * 100)
        old = fs.namenode.blocks_of("/a")[0]
        fs.blockstore.mark_replica_corrupt(old.block_id, old.locations[0])
        with fs.create("/a", overwrite=True) as out:
            out.write(b"y" * 10)
        assert old.block_id not in fs.blockstore
        assert len(fs.blockstore) == 1
        assert fs.blockstore.total_bytes == 10
        assert fs.blockstore.corrupt_replicas() == []
        assert fs.read_file("/a") == b"y" * 10
        assert fs.fsck_report().healthy

    def test_delete_file_frees_blocks(self):
        fs = small_fs()
        fs.write_file("/f", b"x" * 5000)
        stored = len(fs.blockstore)
        fs.delete("/f")
        assert len(fs.blockstore) == 0
        assert stored > 0
        assert not fs.exists("/f")

    def test_delete_nonempty_dir_needs_recursive(self):
        fs = small_fs()
        fs.write_file("/d/f", b"x")
        with pytest.raises(HdfsError):
            fs.delete("/d")
        fs.delete("/d", recursive=True)
        assert not fs.exists("/d")

    def test_open_missing_raises(self):
        with pytest.raises(HdfsError):
            small_fs().open("/nope")


class TestBlocks:
    def test_file_split_into_blocks(self):
        fs = small_fs(block_size=1000)
        fs.write_file("/f", b"a" * 2500)
        blocks = fs.namenode.blocks_of("/f")
        assert [b.length for b in blocks] == [1000, 1000, 500]

    def test_empty_file_single_empty_block(self):
        fs = small_fs()
        fs.write_file("/f", b"")
        assert fs.file_length("/f") == 0
        assert fs.read_file("/f") == b""

    def test_replication_count(self):
        fs = small_fs()
        fs.write_file("/f", b"x" * 100)
        for locs in fs.block_locations("/f"):
            assert len(locs) == 3
            assert len(set(locs)) == 3

    def test_replication_bounded_by_cluster(self):
        fs = small_fs(num_nodes=2)
        fs.write_file("/f", b"x")
        assert len(fs.block_locations("/f")[0]) == 2

    def test_single_copy_of_bytes(self):
        fs = small_fs()
        fs.write_file("/f", b"x" * 10_000)
        assert fs.blockstore.total_bytes == 10_000  # not 3x


class TestReadAccounting:
    def test_sequential_read_charges_readahead_granularity(self):
        fs = small_fs(block_size=10_000, io_buffer_size=1000)
        fs.write_file("/f", bytes(range(256)) * 40)  # 10240 bytes
        node = fs.block_locations("/f")[0][0]
        metrics = Metrics()
        stream = fs.open("/f", node=node, metrics=metrics)
        stream.read(10)
        assert metrics.requested_bytes == 10
        assert metrics.disk_bytes == 1000  # one readahead window
        stream.read(900)
        assert metrics.disk_bytes == 1000  # still inside the window

    def test_skip_within_buffer_saves_nothing(self):
        fs = small_fs(block_size=100_000, io_buffer_size=4096)
        fs.write_file("/f", b"z" * 50_000)
        node = fs.block_locations("/f")[0][0]
        metrics = Metrics()
        stream = fs.open("/f", node=node, metrics=metrics)
        stream.read(100)
        stream.seek(2000)  # within the 4 KB readahead window
        stream.read(100)
        assert metrics.disk_bytes == 4096

    def test_large_skip_eliminates_io(self):
        fs = small_fs(block_size=100_000, io_buffer_size=4096)
        fs.write_file("/f", b"z" * 50_000)
        node = fs.block_locations("/f")[0][0]
        metrics = Metrics()
        stream = fs.open("/f", node=node, metrics=metrics)
        stream.read(100)
        stream.seek(40_000)  # far beyond readahead
        stream.read(100)
        assert metrics.disk_bytes == 2 * 4096
        assert metrics.seeks == 2  # initial open + the jump

    def test_remote_read_charged_to_network(self):
        fs = small_fs()
        fs.write_file("/f", b"y" * 3000)
        replicas = set(fs.block_locations("/f")[0])
        outsider = next(n for n in range(8) if n not in replicas)
        metrics = Metrics()
        fs.open("/f", node=outsider, metrics=metrics).read(3000)
        assert metrics.net_bytes >= 3000
        assert metrics.disk_bytes == 0

    def test_local_faster_than_remote(self):
        fs = small_fs(block_size=300_000)  # single block: fully remote reader
        fs.write_file("/f", b"y" * 200_000)
        replicas = set(fs.block_locations("/f")[0])
        local = next(iter(replicas))
        outsider = next(n for n in range(8) if n not in replicas)
        m_local, m_remote = Metrics(), Metrics()
        fs.open("/f", node=local, metrics=m_local).read_fully()
        fs.open("/f", node=outsider, metrics=m_remote).read_fully()
        assert m_remote.io_time > 2 * m_local.io_time

    def test_read_spanning_blocks(self):
        fs = small_fs(block_size=1000)
        payload = bytes(i % 251 for i in range(3500))
        fs.write_file("/f", payload)
        stream = fs.open("/f")
        stream.seek(800)
        assert stream.read(1500) == payload[800:2300]


class TestSplitDirectoryNaming:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("/data/2011-01-01/s0/url", "/data/2011-01-01/s0"),
            ("/data/x/s12/metadata", "/data/x/s12"),
            ("/data/x/s12", "/data/x/s12"),
            ("/data/x/part-0", None),
            ("/data/sx/other", None),
            ("/s1/s2/f", "/s1/s2"),  # deepest split component wins
        ],
    )
    def test_detection(self, path, expected):
        assert split_directory_of(path) == expected


class TestColumnPlacementPolicy:
    def make_cif_layout(self, fs, dataset="/data/d1", splits=4, columns=5):
        for s in range(splits):
            for c in range(columns):
                fs.write_file(f"{dataset}/s{s}/col{c}", b"v" * 2000)

    def test_colocation_within_split_dir(self):
        fs = small_fs()
        fs.use_column_placement()
        self.make_cif_layout(fs)
        for s in range(4):
            location_sets = {
                tuple(sorted(locs))
                for c in range(5)
                for locs in fs.block_locations(f"/data/d1/s{s}/col{c}")
            }
            assert len(location_sets) == 1  # every block of every column file

    def test_different_splits_spread_out(self):
        fs = small_fs()
        fs.use_column_placement()
        self.make_cif_layout(fs, splits=12)
        pinned = {
            tuple(sorted(fs.block_locations(f"/data/d1/s{s}/col0")[0]))
            for s in range(12)
        }
        assert len(pinned) > 1  # load balanced at split-dir granularity

    def test_default_policy_scatters_columns(self):
        fs = small_fs()  # default placement
        self.make_cif_layout(fs)
        location_sets = {
            tuple(sorted(locs))
            for c in range(5)
            for locs in fs.block_locations(f"/data/d1/s0/col{c}")
        }
        assert len(location_sets) > 1

    def test_non_conforming_paths_fall_back(self):
        fs = small_fs()
        policy = fs.use_column_placement()
        fs.write_file("/other/file1", b"x" * 100)
        assert policy.pinned_nodes("/other") is None

    def test_hosts_for_fully_local(self):
        fs = small_fs()
        fs.use_column_placement()
        self.make_cif_layout(fs, splits=1)
        hosts = fs.hosts_for("/data/d1/s0/col0")
        assert len(hosts) == 3

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=4, max_value=30), st.integers(min_value=1, max_value=8))
    def test_colocation_property(self, nodes, columns):
        fs = FileSystem(ClusterConfig(num_nodes=nodes, block_size=512))
        fs.use_column_placement()
        for c in range(columns):
            fs.write_file(f"/d/s0/c{c}", b"x" * 1500)
        sets = {
            tuple(sorted(locs))
            for c in range(columns)
            for locs in fs.block_locations(f"/d/s0/c{c}")
        }
        assert len(sets) == 1


class TestFailureRecovery:
    def test_rereplication_restores_count(self):
        fs = small_fs()
        fs.write_file("/f", b"x" * 5000)
        victim = fs.block_locations("/f")[0][0]
        moved = fs.fail_node(victim)
        assert moved > 0
        for locs in fs.block_locations("/f"):
            assert victim not in locs
            assert len(locs) == 3

    def test_cpp_keeps_colocation_after_failure(self):
        fs = small_fs()
        fs.use_column_placement()
        for c in range(5):
            fs.write_file(f"/d/s0/c{c}", b"x" * 3000)
        victim = fs.block_locations("/d/s0/c0")[0][0]
        fs.fail_node(victim)
        sets = {
            tuple(sorted(locs))
            for c in range(5)
            for locs in fs.block_locations(f"/d/s0/c{c}")
        }
        assert len(sets) == 1
        assert victim not in next(iter(sets))

    def test_double_failure_is_idempotent(self):
        fs = small_fs()
        fs.write_file("/f", b"x" * 1000)
        victim = fs.block_locations("/f")[0][0]
        fs.fail_node(victim)
        assert fs.fail_node(victim) == 0


class TestWriteAccounting:
    def test_load_charges_write_io(self):
        fs = small_fs()
        metrics = Metrics()
        with fs.create("/f", metrics=metrics) as out:
            out.write(b"x" * 100_000)
        assert metrics.io_time > 0
        assert metrics.disk_bytes == 100_000


class TestChecksums:
    def test_fsck_clean_filesystem(self):
        fs = small_fs()
        fs.write_file("/a/f1", b"x" * 3000)
        fs.write_file("/a/f2", b"y" * 500)
        assert fs.fsck() == []

    def test_fsck_detects_corruption(self):
        fs = small_fs()
        fs.write_file("/a/f1", b"x" * 3000)
        fs.write_file("/a/f2", b"y" * 500)
        victim = fs.namenode.blocks_of("/a/f2")[0].block_id
        fs.blockstore.corrupt(victim)
        assert fs.fsck() == ["/a/f2"]
        assert not fs.blockstore.verify(victim)

    def test_fsck_scoped_to_subtree(self):
        fs = small_fs()
        fs.write_file("/a/f", b"x" * 100)
        fs.write_file("/b/f", b"y" * 100)
        fs.blockstore.corrupt(fs.namenode.blocks_of("/b/f")[0].block_id)
        assert fs.fsck("/a") == []
        assert fs.fsck("/b") == ["/b/f"]
        assert fs.fsck() == ["/b/f"]

    def test_checksum_removed_with_block(self):
        fs = small_fs()
        fs.write_file("/f", b"data")
        block_id = fs.namenode.blocks_of("/f")[0].block_id
        fs.delete("/f")
        assert block_id not in fs.blockstore


def _stored_ok(fs, model, block_id):
    """The definition ``verify`` must equal: CRC of the bytes held now
    against the CRC of the bytes that were written."""
    return zlib.crc32(fs.blockstore.get(block_id)) == model[block_id]


class TestVerifiedOnce:
    """The verified-until-mutated memo: a block is checksummed when it
    is first read and again only after something changed it."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from([
                    "put", "overwrite", "remove", "verify", "rescan",
                    "corrupt", "mark", "clear", "fsck",
                    "crash", "decommission", "repair", "scrub",
                ]),
                st.integers(0, 1 << 16),
                st.binary(max_size=150),
            ),
            max_size=30,
        ),
        sweep=st.booleans(),
    )
    @example(
        steps=[("put", 0, b"abc"), ("mark", 0, b""), ("crash", 0, b"")],
        sweep=False,
    )
    @example(
        steps=[("put", 0, b"abc"), ("mark", 1, b""), ("decommission", 0, b""),
               ("repair", 0, b"")],
        sweep=True,
    )
    def test_verify_equals_a_fresh_crc_after_any_sequence(self, steps, sweep):
        # ``sweep`` checks every live block after every step; without it
        # blocks stay unread between steps, so both memo states (never
        # verified, verified) meet every mutation.
        fs = small_fs(num_nodes=6, block_size=64)
        store = fs.blockstore
        model = {}  # block id -> crc32 of the bytes as written

        def write(path, data):
            with fs.create(path, overwrite=True) as out:
                out.write(data)
            for i, block in enumerate(fs.namenode.blocks_of(path)):
                model[block.block_id] = zlib.crc32(data[i * 64:(i + 1) * 64])

        def check_all():
            files = fs.namenode.files_with_blocks()
            for blocks in files.values():
                for block in blocks:
                    bid = block.block_id
                    assert store.verify(bid) == _stored_ok(fs, model, bid)
            report = fs.fsck_report()
            assert report.corrupt_files == sorted(
                path for path, blocks in files.items()
                if not all(store.verify(b.block_id) for b in blocks)
            )
            # every mark names a replica the namenode lists: remove()
            # takes a block's marks along, an eviction its replica's
            locations = {
                b.block_id: b.locations for b in fs.namenode.all_blocks()
            }
            for bid, node in store.corrupt_replicas():
                assert node in locations[bid]
            assert sorted(
                (bid, node) for _, bid, node in report.corrupt_replicas
            ) == [
                (bid, node) for bid, node in store.corrupt_replicas()
                if store.verify(bid)
            ]

        for count, (op, pick, data) in enumerate(steps):
            paths = sorted(fs.namenode.files_with_blocks())
            live = fs.namenode.all_blocks()
            if op == "put":
                write(f"/f{count}", data)
            elif op == "overwrite" and paths:
                write(paths[pick % len(paths)], data)
            elif op == "remove" and paths:
                fs.delete(paths[pick % len(paths)])
            elif op == "fsck":
                check_all()
            elif op in ("crash", "decommission") and len(fs.live_nodes()) > 4:
                # four of six stay up: a put draws three targets blind
                # and raises when none of them is live
                # a node holding a marked replica, while there is one
                marks = store.corrupt_replicas()
                victim = marks[pick % len(marks)][1] if marks else pick % 6
                if op == "crash":
                    fs.crash_node(victim)
                else:
                    fs.decommission_node(victim)
            elif op == "repair":
                fs.repair()
            elif op == "scrub":
                marked = len(store.corrupt_replicas())
                assert fs.scrub() == marked
                assert store.corrupt_replicas() == []
            elif live:
                block = live[pick % len(live)]
                bid, node = block.block_id, pick % 6
                if op == "verify":
                    assert store.verify(bid) == _stored_ok(fs, model, bid)
                elif op == "rescan":
                    assert store.rescan(bid) == _stored_ok(fs, model, bid)
                elif op == "corrupt":
                    store.corrupt(bid, offset=pick)
                elif op == "mark" and block.locations:
                    holders = block.locations  # as the fault injector does
                    store.mark_replica_corrupt(bid, holders[pick % len(holders)])
                elif op == "clear":
                    store.clear_replica(bid, node)
            assert len(store) == len(fs.namenode.all_blocks())
            if sweep:
                check_all()
        check_all()

    def test_unknown_block_still_raises(self):
        store = BlockStore()
        with pytest.raises(KeyError):
            store.verify(3)
        store.put(3, b"abc")
        assert store.verify(3)
        store.remove(3)
        with pytest.raises(KeyError):
            store.verify(3)
        store.put(3, b"abd")  # a re-used id is checksummed afresh
        store.corrupt(3)
        assert not store.verify(3)

    def test_one_crc_per_block_until_something_changes(self, monkeypatch):
        # The machine-independent form of the wall-clock claim: a count.
        from types import SimpleNamespace

        from repro.formats.sequence_file import (
            SequenceFileInputFormat,
            write_sequence_file,
        )
        from repro.mapreduce import Job, run_job
        from tests.conftest import micro_records, micro_schema

        fs = small_fs(num_nodes=6, block_size=28 * 1024, io_buffer_size=1024)
        schema = micro_schema()
        write_sequence_file(
            fs, "/j/seq", schema, micro_records(schema, 150), sync_interval=50
        )
        blocks = fs.namenode.blocks_of("/j/seq")
        assert len(blocks) == 2  # a 5/4-block file, as in wallbench seq_scan

        calls = []

        def counting_crc32(data):
            calls.append(len(data))
            return zlib.crc32(data)

        monkeypatch.setattr(
            blockstore_module, "zlib", SimpleNamespace(crc32=counting_crc32)
        )
        for _ in range(2):
            stream = fs.open("/j/seq", node=blocks[0].locations[0])
            while stream.read(1024):
                pass

        def mapper(key, value, emit, ctx):
            emit(value.get("int0") % 5, 1)

        run_job(fs, Job("count", mapper, SequenceFileInputFormat("/j/seq")))
        assert sorted(calls) == sorted(b.length for b in blocks)

        fs.blockstore.corrupt(blocks[1].block_id)
        with pytest.raises(CorruptBlockError):
            fs.read_file("/j/seq")
        assert len(calls) == len(blocks) + 1
