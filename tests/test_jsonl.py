"""The one JSONL codec (``repro.util.jsonl``) and the crash tails it
salvages for every artifact kind built on it: a gzip stream missing only
its trailer, a gzip stream cut mid-record, a torn final line.
"""

import gzip
import json

import pytest

from repro.cluster import ClusterWAL, resume_from_wal, run_traffic
from repro.cluster.traffic import sample_profile
from repro.obs import FlightRecorder, RunReport
from repro.obs.tsdb import TimeSeriesStore
from repro.util import jsonl

RECORDS = [{"type": "meta", "n": 0}] + [
    {"type": "row", "n": n, "pad": "x" * 40} for n in range(1, 30)
]


def write(path, records=RECORDS):
    with jsonl.JsonlWriter(str(path)) as writer:
        for record in records:
            writer.write(record)
    return path


class TestCodec:
    def test_suffix_frames_the_writer_content_frames_the_reader(self, tmp_path):
        plain = write(tmp_path / "a.jsonl")
        zipped = write(tmp_path / "a.jsonl.gz")
        assert plain.read_bytes().startswith(b'{"n": 0')
        assert zipped.read_bytes()[:2] == b"\x1f\x8b"
        renamed = tmp_path / "renamed.jsonl"
        renamed.write_bytes(zipped.read_bytes())
        for path in (plain, zipped, renamed):
            assert jsonl.read(str(path)) == (RECORDS, [])

    def test_each_flushed_record_is_durable_before_close(self, tmp_path):
        path = tmp_path / "live.jsonl.gz"
        writer = jsonl.JsonlWriter(str(path))
        writer.write(RECORDS[0])
        writer.write(RECORDS[1])
        records, warnings = jsonl.read(str(path))  # no trailer yet
        writer.close()
        assert records == RECORDS[:2]
        assert any("torn gzip stream salvaged" in w for w in warnings)

    def test_torn_final_line_is_dropped_with_a_warning(self, tmp_path):
        path = write(tmp_path / "torn.jsonl")
        path.write_bytes(path.read_bytes()[:-9])
        records, warnings = jsonl.read(str(path))
        assert records == RECORDS[:-1]
        assert len(warnings) == 1 and "truncated final line" in warnings[0]

    def test_earlier_malformed_line_is_a_hard_error(self, tmp_path):
        lines = [jsonl.dumps(r) for r in RECORDS]
        lines[3] = lines[3][:10]
        with pytest.raises(ValueError, match="line 4 is not a row"):
            jsonl.parse("\n".join(lines) + "\n", "row")
        with pytest.raises(ValueError, match="line 1"):
            jsonl.parse('["no", "type"]\n{"type": "x"}\n')

    def test_a_lone_torn_line_is_not_salvage(self):
        with pytest.raises(ValueError, match="line 1"):
            jsonl.parse('{"type": "me')

    def test_gzip_garbage_after_the_magic_is_a_value_error(self, tmp_path):
        path = tmp_path / "junk.gz"
        path.write_bytes(b"\x1f\x8b" + b"\xff" * 64)
        with pytest.raises(ValueError, match="unreadable gzip stream"):
            jsonl.read(str(path))

    def test_peek_reads_only_the_header(self, tmp_path):
        path = write(tmp_path / "a.jsonl.gz")
        assert jsonl.peek(str(path)) == RECORDS[0]
        path.write_bytes(path.read_bytes()[:-40])  # torn tail: still fine
        assert jsonl.peek(str(path)) == RECORDS[0]
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        with pytest.raises(ValueError):
            jsonl.peek(str(empty))

    def test_frame_is_deterministic_and_whole(self, tmp_path):
        a, b = tmp_path / "a.tsdb", tmp_path / "b.tsdb"
        jsonl.write_frame(str(a), RECORDS)
        jsonl.write_frame(str(b), iter(RECORDS))
        assert a.read_bytes() == b.read_bytes()
        expected = "".join(jsonl.dumps(r) + "\n" for r in RECORDS).encode()
        assert a.read_bytes() == gzip.compress(expected, 9, mtime=0)


# -- one regression per artifact kind ----------------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A gzipped trace, WAL and tsdb sidecar from one tiny cluster run."""
    root = tmp_path_factory.mktemp("artifacts")
    profile = sample_profile()
    profile.duration = 0.1
    recorder = FlightRecorder()
    wal = ClusterWAL(path=str(root / "run.wal.gz"))
    with recorder.activate():
        report = run_traffic(profile, wal=wal)
    recorder.report().write_jsonl(str(root / "run.jsonl.gz"))
    store = TimeSeriesStore(meta={"origin": "test"})
    for n in range(2000):
        store.record("counter", "jobs", n * 0.01, 1.0, tenant=str(n % 97))
    store.save(str(root / "run.tsdb"))
    return root, json.dumps(report.to_dict(), sort_keys=True)


def cut(path, drop):
    """``path`` minus its last ``drop`` bytes, beside the original."""
    target = path.with_name(f"cut{drop}-{path.name}")
    target.write_bytes(path.read_bytes()[:-drop])
    return str(target)


#: gzip's trailer is CRC32 + ISIZE; a crash after a flushed line leaves
#: everything but these 8 bytes
TRAILER = 8
MID_STREAM = 200


@pytest.mark.parametrize("drop", [TRAILER, MID_STREAM])
class TestTornGzipPerArtifact:
    def test_flight_recording(self, artifacts, drop):
        root, _ = artifacts
        whole = RunReport.load(str(root / "run.jsonl.gz"))
        report = RunReport.load(cut(root / "run.jsonl.gz", drop))
        assert any("torn gzip stream" in w for w in report.warnings)
        assert report.meta == whole.meta and report.spans == whole.spans
        if drop == TRAILER:  # every record intact
            assert report.summary()["counters"] == whole.summary()["counters"]

    def test_cluster_wal(self, artifacts, drop):
        root, full_json = artifacts
        whole, _ = ClusterWAL.load(str(root / "run.wal.gz"))
        path = cut(root / "run.wal.gz", drop)
        records, warnings = ClusterWAL.load(path)
        assert any("torn gzip stream" in w for w in warnings)
        assert records == whole[:len(records)]
        assert (len(records) == len(whole)) == (drop == TRAILER)
        report, wal = resume_from_wal(path)
        assert wal.warnings and wal.verified == len(records)
        assert json.dumps(report.to_dict(), sort_keys=True) == full_json

    def test_tsdb_sidecar(self, artifacts, drop):
        root, _ = artifacts
        whole, _ = TimeSeriesStore.load(str(root / "run.tsdb"))
        store, warnings = TimeSeriesStore.load(cut(root / "run.tsdb", drop))
        assert any("torn gzip stream" in w for w in warnings)
        assert store.meta["origin"] == "test"
        assert 0 < len(store) <= len(whole) == 97
        if drop == TRAILER:  # every record intact
            assert store.to_lines() == whole.to_lines()
