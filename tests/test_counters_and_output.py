"""Tests for counters, output formats, and namenode edge cases."""

import pytest

from repro.hdfs import ClusterConfig, FileSystem
from repro.hdfs.namenode import HdfsError, NameNode, normalize
from repro.mapreduce.counters import Counters


class TestCounters:
    def test_increment_and_get(self):
        c = Counters()
        c.increment("a")
        c.increment("a", 4)
        assert c.get("a") == 5
        assert c.get("missing") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("x", 2)
        b.increment("x", 3)
        b.increment("y")
        a.merge(b)
        assert a.as_dict() == {"x": 5, "y": 1}

    def test_items_sorted(self):
        c = Counters()
        c.increment("b")
        c.increment("a")
        assert [name for name, _ in c.items()] == ["a", "b"]

    def test_repr_stable(self):
        c = Counters()
        c.increment("k", 7)
        assert "k" in repr(c) and "7" in repr(c)

    def test_mapping_protocol(self):
        c = Counters()
        c.increment("b", 2)
        c.increment("a")
        assert list(c) == ["a", "b"]
        assert len(c) == 2
        assert "a" in c and "missing" not in c
        assert c["b"] == 2
        assert c.keys() == ["a", "b"]
        assert dict(c.items()) == {"a": 1, "b": 2}

    def test_getitem_missing_raises_without_inserting(self):
        c = Counters()
        with pytest.raises(KeyError):
            c["nope"]
        assert len(c) == 0  # lookup must not create the key

    def test_back_compat_merge_and_as_dict(self):
        # the classic API is unchanged by the observability routing
        a, b = Counters(), Counters()
        a.increment("x", 2)
        b.increment("x", 3)
        b.increment("y")
        a.merge(b)
        assert a.as_dict() == {"x": 5, "y": 1}
        assert a.get("x") == 5 and a.get("gone") == 0

    def test_increments_route_to_active_registry(self):
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(clock=lambda: 0.0)
        with recorder.activate():
            c = Counters()
            c.increment("map.tasks", 4)
        assert recorder.registry.value_of(
            "mapreduce.counters", name="map.tasks"
        ) == 4
        # without a recorder the registry is the shared no-op
        c2 = Counters()
        c2.increment("map.tasks", 4)
        assert c2.get("map.tasks") == 4


class TestPathNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/a/b", "/a/b"),
            ("a/b", "/a/b"),
            ("/a/b/", "/a/b"),
            ("/a//b", "/a/b"),
            ("/a/./b", "/a/b"),
            ("/a/b/../c", "/a/c"),
            ("/", "/"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize(raw) == expected


class TestNameNodeEdges:
    def test_file_over_directory_rejected(self):
        nn = NameNode()
        nn.mkdirs("/d/sub")
        with pytest.raises(HdfsError):
            nn.create_file("/d/sub")

    def test_directory_over_file_rejected(self):
        nn = NameNode()
        nn.create_file("/d/f")
        with pytest.raises(HdfsError):
            nn.mkdirs("/d/f")

    def test_listdir_on_file_rejected(self):
        nn = NameNode()
        nn.create_file("/d/f")
        with pytest.raises(HdfsError):
            nn.listdir("/d/f")

    def test_status_of_root(self):
        nn = NameNode()
        assert nn.status("/").is_dir

    def test_deep_recursive_delete(self):
        fs = FileSystem(ClusterConfig(num_nodes=2, block_size=1024))
        for i in range(3):
            fs.write_file(f"/top/a{i}/b/c/file", b"x" * 100)
        fs.delete("/top", recursive=True)
        assert not fs.exists("/top")
        assert len(fs.blockstore) == 0

    def test_status_length_and_blocks(self):
        fs = FileSystem(ClusterConfig(num_nodes=2, block_size=1000))
        fs.write_file("/f", b"z" * 2500)
        status = fs.status("/f")
        assert status.length == 2500
        assert status.block_count == 3
        assert not status.is_dir
