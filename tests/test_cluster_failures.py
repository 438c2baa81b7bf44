"""The two ways a requested job ends failed on the shared cluster.

- Every attempt of a job fails: its split exhausts its attempts, the
  scheduler fails the execution, and the manager's envelope
  (``ClusterManager._job_failed``) tells ``job.finish outcome=failed``
  and files the request under ``report.failed``.
- Every node dies while work is outstanding: ready work has nowhere to
  run and no event could change that, so the event loop strands it
  (``SlotScheduler._strand``) with "no live map slots remain".

Each run must end, account for every request, and make ``repro cluster
run`` exit 1.
"""

import json
import threading
from functools import lru_cache

import pytest

from repro.cli import main
from repro.cluster import generate_requests, run_traffic, sample_profile
from repro.cluster.traffic import CRAWL_SEQ
from repro.faults import FaultEvent, FaultPlan
from repro.obs import FlightRecorder

#: wall seconds a run may take before it counts as not ending
BOUND_S = 60.0


def _profile():
    """The sample profile, cut to a tenth of a simulated second of
    arrivals over small datasets."""
    profile = sample_profile()
    profile.duration = 0.1
    profile.datasets = dict(
        profile.datasets,
        crawl_records=20, micro_records=60, point_records=10,
    )
    return profile


PLANS = {
    # every replica of the crawl file's first block is corrupt, so every
    # attempt of every crawl_scan job fails its checksum
    "corrupt": FaultPlan([
        FaultEvent("corrupt_block", path=CRAWL_SEQ, at_time=0.0),
    ]),
    # every node dies before the arrivals end, and none is repaired
    "all-dead": FaultPlan([
        FaultEvent("kill_node", node=node, at_time=0.01, repair=False)
        for node in range(_profile().nodes)
    ]),
}


def _bounded(fn):
    """``fn()``, failing the test if it has not returned (or raised) in
    :data:`BOUND_S` wall seconds."""
    out = []

    def call():
        try:
            out.append((fn(), None))
        except Exception as error:  # re-raised below, in the test
            out.append((None, error))

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(BOUND_S)
    assert out, f"the run did not end within {BOUND_S} s"
    value, error = out[0]
    if error is not None:
        raise error
    return value


@lru_cache(maxsize=None)
def _failed_run(name):
    """``(requests, report, failed job.finish events)`` of the small
    profile under plan ``name``."""
    profile = _profile()
    recorder = FlightRecorder(clock=lambda: 0.0)

    def run():
        with recorder.activate():
            return run_traffic(profile, faults=PLANS[name])

    report = _bounded(run)
    finishes = [
        event for event in recorder.events_log
        if event.kind == "job.finish"
        and event.attrs.get("outcome") == "failed"
    ]
    return generate_requests(profile), report, finishes


@pytest.mark.parametrize("name", sorted(PLANS))
def test_every_request_is_accounted_for(name):
    requests, report, _ = _failed_run(name)
    assert report.failed
    assert sorted(o.request_id for o in report.outcomes) == sorted(
        r.request_id for r in requests
    )
    assert len(report.completed) + len(report.failed) + len(
        report.shed
    ) + len(report.rejected) == len(requests)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_each_failed_request_tells_a_failed_job_finish(name):
    _, report, finishes = _failed_run(name)
    assert sorted(e.attrs["job"] for e in finishes) == sorted(
        o.job_name for o in report.failed
    )
    assert all(e.attrs["error"] for e in finishes)


def test_a_job_whose_every_attempt_fails_is_failed_alone():
    requests, report, _ = _failed_run("corrupt")
    crawl = {r.request_id for r in requests if r.kind == "crawl_scan"}
    assert crawl and {o.request_id for o in report.failed} == crawl
    for outcome in report.failed:
        assert "allowed attempts" in outcome.error, outcome.error
        assert outcome.attempts > 1
    assert len(report.completed) == len(requests) - len(crawl)


def test_work_left_with_no_live_slot_is_stranded():
    _, report, _ = _failed_run("all-dead")
    errors = {o.error for o in report.failed}
    assert "no live map slots remain" in errors, errors


@pytest.mark.parametrize("name", sorted(PLANS))
def test_cluster_run_exits_1(name, tmp_path):
    profile_path = tmp_path / "profile.json"
    plan_path = tmp_path / "plan.json"
    profile_path.write_text(json.dumps(_profile().to_dict()))
    PLANS[name].save(str(plan_path))
    lines = []
    code = _bounded(lambda: main(
        ["cluster", "run", str(profile_path), "--faults", str(plan_path),
         "--no-color"],
        out=lines.append,
    ))
    assert code == 1, "\n".join(lines)
