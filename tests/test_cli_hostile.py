"""Hostile input, one matrix: every artifact-reading CLI invocation
against the same six ways a file can be wrong.

One fixture set, every reader, the same expectations.  The JSONL
artifacts (flight recording, ``.tsdb`` sidecar, cluster WAL) salvage a
torn final line or a truncated gzip stream: exit 0 and a warning line.
Everything else, including a torn or truncated single-document JSON
input (fault plan, traffic profile, check case), is one ``error:`` line
and exit 1.  Nothing raises out of ``main``.  A count option given a
number its verb cannot use is refused at parse time as a usage error
(exit 2), and so is a tolerance that is negative or not finite.
"""

import gzip
import json

import pytest

from repro.check import generate_case
from repro.check.fuzzer import save_case
from repro.cli import main
from repro.cluster import sample_profile
from repro.faults import FaultEvent, FaultPlan

DATASET = "/data/top-cif"  # where `repro top` loads its demo dataset

#: invocation -> (artifact kind it reads, argv with {} for the path)
READERS = {
    "report": ("trace", ["report", "{}"]),
    "perf critical-path": ("trace", ["perf", "critical-path", "{}"]),
    "perf timeline": ("trace", ["perf", "timeline", "{}", "--no-color"]),
    "perf breakdown": ("trace", ["perf", "breakdown", "{}"]),
    "perf stragglers": ("trace", ["perf", "stragglers", "{}"]),
    "perf operators": ("trace", ["perf", "operators", "{}", "--no-color"]),
    "perf diff": ("trace", ["perf", "diff", "{}", "{}"]),
    "export chrome": ("trace", ["export", "chrome", "{}"]),
    "export prom": ("trace", ["export", "prom", "{}"]),
    "top --replay": (
        "trace", ["top", "--replay", "{}", "--quiet", "--no-color"],
    ),
    "explain --job": (
        "trace", ["explain", DATASET, "--job", "{}", "--quiet", "--no-color"],
    ),
    "slo": ("tsdb", ["slo", "{}", "--no-color"]),
    "alerts": ("tsdb", ["alerts", "{}", "--no-color"]),
    "cluster resume": ("wal", ["cluster", "resume", "--wal", "{}"]),
    "cluster run": ("profile", ["cluster", "run", "{}", "--no-color"]),
    "experiment --faults": (
        "plan", ["experiment", "fig8", "--records", "10", "--faults", "{}"],
    ),
    "fsck --faults": ("plan", ["fsck", "--records", "40", "--faults", "{}"]),
    "top --faults": (
        "plan", ["top", "--records", "40", "--quiet", "--faults", "{}"],
    ),
    "cluster run --faults": ("plan", ["cluster", "run", "--faults", "{}"]),
    "explain --faults": (
        "plan", ["explain", "--records", "40", "--quiet", "--faults", "{}"],
    ),
    "check shrink --case": ("case", ["check", "shrink", "--case", "{}"]),
}

#: the line-per-record artifacts, whose crash tails salvage
JSONL = ("trace", "tsdb", "wal")

#: a valid artifact of another kind, for each reader to refuse (a WAL
#: for the trace readers: `export` also takes a sidecar)
WRONG_KIND = {
    "trace": "wal", "tsdb": "trace", "wal": "trace",
    "plan": "profile", "profile": "plan", "case": "plan",
}

HOSTILE = (
    "missing", "empty", "not-json", "wrong-kind", "torn-line", "cut-gzip",
)


def run(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines).splitlines()


def text_of(path):
    blob = path.read_bytes()
    return gzip.decompress(blob) if blob[:2] == b"\x1f\x8b" else blob


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One good artifact of each kind, all from tiny runs."""
    root = tmp_path_factory.mktemp("valid")
    tiny = sample_profile()
    tiny.duration = 0.1
    (root / "profile").write_text(json.dumps(tiny.to_dict()))
    FaultPlan(
        [FaultEvent("kill_node", node=1, at_time=0.02)], seed=3
    ).save(str(root / "plan"))
    save_case(generate_case(3), str(root))
    next(root.glob("case-*.json")).rename(root / "case")
    assert main(
        ["top", "--records", "120", "--nodes", "4", "--quiet",
         "--trace-out", str(root / "trace")], out=lambda line: None,
    ) == 0
    assert main(
        ["cluster", "run", str(root / "profile"), "--json",
         "--wal", str(root / "wal"), "--tsdb", str(root / "tsdb")],
        out=lambda line: None,
    ) == 0
    return root


@pytest.fixture(scope="module")
def hostile(valid, tmp_path_factory):
    """``(kind, case) -> path``: every valid artifact, broken each way."""
    root = tmp_path_factory.mktemp("hostile")
    paths = {}
    for kind in WRONG_KIND:
        text = text_of(valid / kind)
        # A record artifact loses half of its final line, a single
        # document half of itself ...
        torn = text[: len(text) // 2]
        if kind in JSONL:
            torn = text[: len(text) - len(text.splitlines()[-1]) // 2 - 1]
        # ... and a gzip stream ends inside its last flushed line.
        zipped = root / f"{kind}.whole.gz"
        with gzip.open(zipped, "wb") as handle:
            for line in text.splitlines(keepends=True):
                handle.write(line)
                handle.flush()
        variants = {
            "empty": b"",
            "not-json": b"this is not json\n",
            "wrong-kind": (valid / WRONG_KIND[kind]).read_bytes(),
            # tsdb sidecars are gzip-framed on disk; keep that framing
            "torn-line": gzip.compress(torn) if kind == "tsdb" else torn,
            "cut-gzip": zipped.read_bytes()[:-24],
        }
        paths[kind, "missing"] = root / f"{kind}.missing"
        for case, blob in variants.items():
            paths[kind, case] = root / f"{kind}.{case}"
            paths[kind, case].write_bytes(blob)
    return paths


@pytest.mark.parametrize("case", HOSTILE)
@pytest.mark.parametrize("reader", sorted(READERS))
def test_hostile_input(hostile, reader, case):
    kind, argv = READERS[reader]
    path = str(hostile[kind, case])
    code, lines = run([arg.replace("{}", path) for arg in argv])
    if kind in JSONL and case in ("torn-line", "cut-gzip"):
        assert code == 0, lines
        assert any(
            line.startswith(("WARNING: ", "warning: ")) for line in lines
        ), lines
    else:
        assert code == 1, lines
        assert lines[-1].startswith("error: "), lines
        assert path in lines[-1]


def test_valid_artifacts_load_clean(valid):
    """The matrix's control row: the unbroken fixtures raise no warning."""
    for reader in ("report", "slo", "cluster resume", "explain --job"):
        kind, argv = READERS[reader]
        code, lines = run(
            [arg.replace("{}", str(valid / kind)) for arg in argv]
        )
        assert code == 0, (reader, lines)
        assert not any("warning" in line.lower() for line in lines), reader


#: registry records a flight recording cannot hold, each with the
#: readers that would trip over it: the loader refuses them all
BAD_REGISTRY_RECORDS = {
    "counter without value": (
        {"type": "counter", "name": "hdfs.bytes.disk", "labels": {}},
        ("report", "export prom", "perf breakdown"),
    ),
    "counter with text value": (
        {"type": "counter", "name": "hdfs.bytes.disk", "labels": {},
         "value": "7"},
        ("report", "export prom"),
    ),
    "histogram without boundaries": (
        {"type": "histogram", "name": "hdfs.fetch.bytes", "labels": {},
         "counts": [1], "sum": 3.0, "count": 1},
        ("export prom",),
    ),
    "histogram counts short": (
        {"type": "histogram", "name": "hdfs.fetch.bytes", "labels": {},
         "boundaries": [1, 4], "counts": [1, 0], "sum": 3.0, "count": 1},
        ("export prom",),
    ),
}
BAD_REGISTRY_CASES = [
    (record, reader)
    for record, (_, readers) in sorted(BAD_REGISTRY_RECORDS.items())
    for reader in readers
]


def _with_bad_record(valid, tmp_path, record):
    return _inserted(valid, tmp_path, BAD_REGISTRY_RECORDS[record][0])


def _inserted(valid, tmp_path, record):
    """The valid recording with ``record`` as its record 1."""
    lines = text_of(valid / "trace").decode().splitlines(keepends=True)
    lines.insert(1, json.dumps(record) + "\n")
    path = tmp_path / "run.jsonl"
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize(
    "record,reader", BAD_REGISTRY_CASES,
    ids=[f"{reader}:{record}" for record, reader in BAD_REGISTRY_CASES],
)
def test_malformed_registry_record_is_an_unreadable_recording(
    valid, tmp_path, record, reader
):
    path = str(_with_bad_record(valid, tmp_path, record))
    _, argv = READERS[reader]
    code, lines = run([arg.replace("{}", path) for arg in argv])
    assert code == 1, lines
    assert lines[-1].startswith(f"error: cannot read flight recording {path}")


@pytest.mark.parametrize("record", sorted(BAD_REGISTRY_RECORDS))
def test_malformed_registry_record_fails_at_load(valid, tmp_path, record):
    from repro.obs import RunReport

    path = _with_bad_record(valid, tmp_path, record)
    kind = BAD_REGISTRY_RECORDS[record][0]["type"]
    with pytest.raises(ValueError, match=kind):
        RunReport.load(str(path))


#: span and event records the schema in ``repro.obs.recorder`` refuses,
#: each with the readers that died on it with a bare KeyError or
#: TypeError before the loader checked them ("event without wall" read
#: as a default time instead)
BAD_TIMELINE_RECORDS = {
    "span without wall_end": (
        {"type": "span", "id": 999, "parent": None, "name": "x",
         "kind": "job", "wall_start": 0.0},
        ("report", "export chrome"),
    ),
    "span with text wall_start": (
        {"type": "span", "id": 999, "parent": None, "name": "x",
         "kind": "job", "wall_start": "0", "wall_end": 1.0},
        ("report", "export chrome"),
    ),
    "span without id": (
        {"type": "span", "parent": None, "name": "x", "kind": "job",
         "wall_start": 0.0, "wall_end": 1.0},
        ("perf critical-path", "perf timeline", "perf stragglers"),
    ),
    "event with text sim": (
        {"type": "event", "seq": 999, "kind": "task.finish", "wall": 0.1,
         "sim": "0.1"},
        ("export chrome", "top --replay"),
    ),
    "event without wall": (
        {"type": "event", "seq": 999, "kind": "job.start"}, ("report",),
    ),
}
BAD_TIMELINE_CASES = [
    (record, reader)
    for record, (_, readers) in sorted(BAD_TIMELINE_RECORDS.items())
    for reader in readers
]


@pytest.mark.parametrize(
    "record,reader", BAD_TIMELINE_CASES,
    ids=[f"{reader}:{record}" for record, reader in BAD_TIMELINE_CASES],
)
def test_malformed_span_or_event_record_is_an_unreadable_recording(
    valid, tmp_path, record, reader
):
    path = str(_inserted(valid, tmp_path, BAD_TIMELINE_RECORDS[record][0]))
    _, argv = READERS[reader]
    code, lines = run([arg.replace("{}", path) for arg in argv])
    assert code == 1, lines
    assert lines[-1].startswith(f"error: cannot read flight recording {path}")


@pytest.mark.parametrize("record", sorted(BAD_TIMELINE_RECORDS))
def test_malformed_span_or_event_record_fails_at_load(
    valid, tmp_path, record
):
    from repro.obs import RunReport

    bad = BAD_TIMELINE_RECORDS[record][0]
    path = _inserted(valid, tmp_path, bad)
    with pytest.raises(ValueError, match=f"record 1: {bad['type']}"):
        RunReport.load(str(path))


@pytest.mark.parametrize("case", [c for c in HOSTILE if c != "missing"])
def test_corpus_replay_reports_an_unreadable_case(
    valid, hostile, tmp_path, case
):
    """The directory reader's row: ``check corpus --replay`` fails the
    broken file by name and still replays its neighbours."""
    good, bad = tmp_path / "case-good.json", tmp_path / "case-bad.json"
    good.write_bytes((valid / "case").read_bytes())
    bad.write_bytes(hostile["case", case].read_bytes())
    code, lines = run(["check", "corpus", "--replay", "--dir", str(tmp_path)])
    assert code == 1, lines
    assert any(
        line.startswith(f"[FAIL] {bad}  UNREADABLE: ") for line in lines
    ), lines
    assert f"[  ok] {good}" in lines
    assert lines[-1] == "corpus replay: 2 case(s), 1 failure(s)"


#: numbers a verb cannot use: each is a usage error (exit 2) at parse
#: time, never a traceback or a silent run on nothing
UNUSABLE_NUMBERS = {
    "top --nodes 0": ["top", "--nodes", "0"],
    "fsck --nodes 0": ["fsck", "--nodes", "0"],
    "explain --nodes 0": ["explain", "/data/demo", "--nodes", "0"],
    "top --records -3": ["top", "--records", "-3"],
    "experiment --size -5": ["experiment", "fig10", "--size", "-5"],
    "experiment --size 0": ["experiment", "fig8", "--size", "0"],
    "check run --rows -4": ["check", "run", "--rows", "-4"],
    "check fuzz --budget -1": ["check", "fuzz", "--budget", "-1"],
    "perf timeline --width 0": ["perf", "timeline", "T", "--width", "0"],
    "perf critical-path --top -1": [
        "perf", "critical-path", "T", "--top", "-1",
    ],
    "top --frame-every 0": ["top", "--replay", "T", "--frame-every", "0"],
    # a NaN band passes every comparison, a negative one fails them all
    "perf diff --rel-tol nan": ["perf", "diff", "A", "B", "--rel-tol", "nan"],
    "bench check --rel-tol -0.5": [
        "bench", "check", "--scenario", "fig9", "--rel-tol", "-0.5",
    ],
    "bench check --rel-tol inf": ["bench", "check", "--rel-tol", "inf"],
}


@pytest.mark.parametrize("name", sorted(UNUSABLE_NUMBERS))
def test_unusable_number_is_a_usage_error(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main(UNUSABLE_NUMBERS[name], out=lambda line: None)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_non_number_tolerance_keeps_argparse_wording(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["perf", "diff", "A", "B", "--rel-tol", "tight"],
             out=lambda line: None)
    assert exc.value.code == 2
    assert "invalid float value: 'tight'" in capsys.readouterr().err


def test_non_integer_count_keeps_argparse_wording(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["top", "--nodes", "many"], out=lambda line: None)
    assert exc.value.code == 2
    assert "invalid int value: 'many'" in capsys.readouterr().err
