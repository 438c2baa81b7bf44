"""Write-ahead journal + crash resume for the cluster manager.

The :class:`~repro.cluster.manager.ClusterManager` is deterministic: a
run is a pure function of (traffic profile, policy, fault plan).  That
turns crash recovery into *deterministic replay with an integrity
check* instead of mutable-state snapshotting:

- **Recording** — the scheduler offers the journal every fact it puts
  on the event bus, in the bus's vocabulary, and :data:`RECORDS` here
  says which of them are scheduling decisions and what a record keeps
  of each (admission, launch, attempt resolution — preemption
  included — re-queue, shuffle start/abort, map-output loss, node
  blacklisting, job completion): one JSON record per decision in a
  JSONL WAL.  Record 0 is a ``meta`` header embedding the full profile,
  policy name and fault plan — everything needed to re-derive the run.
  Lines go through :mod:`repro.util.jsonl` like the flight-recorder
  artifacts: flushed one at a time, gzip-framed under a ``.gz`` name,
  so a crash mid-write leaves a readable prefix and
  :meth:`ClusterWAL.load` salvages a trailer-less gzip stream or a
  torn final line with a warning.

- **Resume** — :func:`resume_from_wal` rebuilds the profile and fault
  plan from the header and re-runs the traffic with a *verifying* WAL:
  every record the replay produces is compared field-for-field against
  the surviving prefix.  A match proves the rebuilt manager walked the
  exact same state trajectory the crashed one did, after which the
  replay continues past the crash point and produces the byte-identical
  :class:`~repro.cluster.report.ClusterReport` the uninterrupted run
  would have.  Any mismatch raises :class:`WalDivergence` — corrupted
  journal, edited profile, or non-determinism — rather than silently
  reporting numbers the original run never saw.

Simulated crashes (``crash_after=N``) tear the manager down at an exact
record boundary: the WAL holds records ``0..N-1`` and the manager dies
before writing record ``N``.  The crash-resume test sweeps every
boundary of the sample profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.util import jsonl

#: bump when the record schema changes incompatibly (2: every attempt
#: resolution, eviction included, is one ``complete`` record)
WAL_VERSION = 2

#: scheduling fact -> (record type, the attrs the record keeps beside
#: the fact's sim time ``t``).  A fact is a bus event kind
#: (``job.finish`` splits by its outcome) or ``task.requeue``, which the
#: kernel states to the journal alone.  Facts without a row (and the
#: reduce-side ``task.finish``, which the runner emits and the
#: scheduler never states) are not decisions and leave no record.
RECORDS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "admission.accept": ("admit", ("job", "tenant", "queue", "splits")),
    "admission.reject": ("reject", ("job", "tenant", "queued")),
    "admission.shed": ("shed", ("job", "tenant", "predicted", "deadline")),
    "task.start": (
        "launch", ("job", "split", "node", "slot", "attempt", "speculative"),
    ),
    "task.finish": ("complete", ("job", "split", "node", "slot", "outcome")),
    "task.requeue": ("requeue", ("job", "split", "ready", "attempt")),
    "shuffle.start": ("shuffle_start", ("job", "end")),
    "shuffle.abort": ("shuffle_abort", ("job", "node")),
    "mapoutput.lost": ("output_lost", ("job", "split", "node")),
    "node.lost": ("node_lost", ("node",)),
    "node.blacklisted": ("node_blacklisted", ("node",)),
    "job.finish/completed": ("job_complete", ("job",)),
    "job.finish/failed": ("job_failed", ("job", "error")),
    "cluster.finish": ("cluster_finish", (
        "makespan", "completed", "rejected", "failed", "shed",
        "preemptions", "map_output_losses",
    )),
}


def record_for(
    kind: str, sim_time: float, attrs: dict
) -> Optional[Tuple[str, dict]]:
    """The ``(record type, fields)`` a fact is journaled as, if at all."""
    if kind == "job.finish":
        kind = f"job.finish/{attrs['outcome']}"
    shape = RECORDS.get(kind)
    if shape is None:
        return None
    record_type, kept = shape
    fields = {"t": sim_time, **{name: attrs[name] for name in kept}}
    if record_type == "job_complete":
        fields["finish"] = sim_time  # the v2 schema says it twice
    return record_type, fields


class SimulatedCrash(RuntimeError):
    """The manager was torn down at a requested WAL record boundary."""


class WalDivergence(RuntimeError):
    """Replay produced a record that contradicts the journal."""


class ClusterWAL:
    """One run's journal: appends records, optionally verifying them.

    ``path`` (optional) persists records as flushed JSONL (gzip framing
    by ``.gz`` suffix).  ``crash_after=N`` raises
    :class:`SimulatedCrash` instead of writing record ``N`` (0-based),
    so the file holds exactly ``N`` records.  ``expected`` puts the WAL
    in resume mode: each appended record is checked against the loaded
    prefix and a mismatch raises :class:`WalDivergence`.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        crash_after: Optional[int] = None,
        expected: Optional[List[dict]] = None,
    ) -> None:
        if crash_after is not None and crash_after < 1:
            raise ValueError("crash_after must be >= 1 (the meta record)")
        self.path = path
        self.crash_after = crash_after
        self.expected = expected
        #: every record appended so far, in order
        self.records: List[dict] = []
        #: records verified against the ``expected`` prefix
        self.verified = 0
        #: loader warnings (torn tail) carried through a resume
        self.warnings: List[str] = []
        self._seq = 0
        self._writer = jsonl.JsonlWriter(path) if path is not None else None

    def append(self, kind: str, /, **fields) -> dict:
        """Journal one record; returns it (with its ``seq`` assigned)."""
        if self.crash_after is not None and self._seq >= self.crash_after:
            self.close()
            raise SimulatedCrash(
                f"simulated crash at record boundary {self._seq}"
            )
        record = {"seq": self._seq, "type": kind, **fields}
        if self.expected is not None and self._seq < len(self.expected):
            if self.expected[self._seq] != record:
                raise WalDivergence(
                    f"replay diverged at record {self._seq}: journal has "
                    f"{jsonl.dumps(self.expected[self._seq])} "
                    f"but replay produced {jsonl.dumps(record)}"
                )
            self.verified += 1
        self.records.append(record)
        if self._writer is not None:
            self._writer.write(record)
        self._seq += 1
        return record

    def note(self, kind: str, sim_time: float, attrs: dict) -> None:
        """Journal the record a scheduling fact stands for, if any."""
        record = record_for(kind, sim_time, attrs)
        if record is not None:
            self.append(record[0], **record[1])

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # -- loading -------------------------------------------------------

    @staticmethod
    def load(path: str) -> Tuple[List[dict], List[str]]:
        """Read a journal; returns ``(records, warnings)``.

        The warnings are the codec's salvage notes: the record in
        flight when the manager crashed, or a gzip stream that never
        got its trailer.
        """
        records, warnings = jsonl.read(path, "WAL record")
        for index, record in enumerate(records):
            if record.get("seq") != index:
                raise ValueError(
                    f"record {index}: expected seq {index}, "
                    f"got {record.get('seq')!r}"
                )
        if not records:
            raise ValueError(f"{path}: empty WAL (nothing to resume)")
        if records[0].get("type") != "meta":
            raise ValueError(f"{path}: record 0 is not a meta header")
        version = records[0].get("v")
        if version != WAL_VERSION:
            raise ValueError(
                f"{path}: WAL version {version!r} "
                f"(this build reads {WAL_VERSION})"
            )
        return records, warnings


def resume_from_wal(
    path: str,
    policy: Optional[str] = None,
    obs=None,
    wal_out: Optional[str] = None,
):
    """Recover a crashed run: returns ``(report, wal)``.

    Rebuilds the traffic profile and fault plan from the journal's meta
    header, replays the run while verifying every surviving record, and
    carries on past the crash point to the finished
    :class:`~repro.cluster.report.ClusterReport` — byte-identical to
    what the uninterrupted run would have produced.  ``wal_out``
    optionally journals the *complete* replay to a fresh file.
    ``policy`` must be left None except to match the original run.
    """
    from repro.faults import FaultPlan

    from repro.cluster.traffic import TrafficProfile, run_traffic

    records, warnings = ClusterWAL.load(path)
    meta = records[0]
    profile = TrafficProfile.from_dict(meta["profile"])
    plan = (
        FaultPlan.from_dict(meta["faults"])
        if meta.get("faults") is not None
        else None
    )
    wal = ClusterWAL(path=wal_out, expected=records)
    wal.warnings.extend(warnings)  # surfaced by the CLI
    report = run_traffic(
        profile,
        policy=policy or meta.get("policy"),
        obs=obs,
        faults=plan,
        wal=wal,
    )
    if wal.verified < len(records):
        raise WalDivergence(
            f"replay finished after {len(wal.records)} records but only "
            f"{wal.verified} of {len(records)} journaled records were "
            f"reproduced — the journal belongs to a longer run"
        )
    return report, wal
