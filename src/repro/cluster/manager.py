"""The resource manager: the event loop under a multi-tenant policy.

:class:`ClusterManager` is a :class:`~repro.mapreduce.eventloop.
SlotScheduler` (the one event loop, which also runs ``run_job``
alone) plus what a shared cluster adds on top of it.
:meth:`ClusterManager.run` turns each admitted :class:`JobRequest` into
the same kind of work a single job is: map attempts run for real via
``JobRunner.execute_map_attempt`` and each finished job commits through
``JobRunner.finish``, so a job computes a byte-identical
:class:`~repro.mapreduce.runner.JobResult` (output and counters) whether
it runs alone or under contention.

What lives here is the **request envelope**:

- **admission control**: each tenant has a bounded queue of admitted-
  but-not-started jobs; submissions beyond it are rejected immediately
  (backpressure, surfaced as ``admission.reject`` events), and jobs
  with a deadline the calibrated cost model predicts they will miss are
  *shed* at the door (``admission.shed``) instead of wasting slots,
- every request's :class:`~repro.cluster.report.JobOutcome` (completed,
  failed, shed or rejected), the ``job.*`` / ``cluster.*`` events and
  the final :class:`~repro.cluster.report.ClusterReport`.

Who gets a slot is decided by the policy the manager installs on the
loop (:mod:`repro.cluster.fairshare`): hierarchical fair share with
preemption, or the FIFO baseline.  Attempts, retries, node loss, the
shuffle window and speculation are the kernel's; every scheduling
decision can be journaled to a :class:`~repro.cluster.wal.ClusterWAL`
for crash recovery by verified deterministic replay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional

from repro.hdfs.filesystem import FileSystem
from repro.mapreduce.eventloop import SlotScheduler, run_alone  # noqa: F401
from repro.mapreduce.job import Job
from repro.mapreduce.nodeloss import BLACKLIST_AFTER  # noqa: F401
from repro.mapreduce.runner import JobResult, JobRunner
from repro.mapreduce.scheduler import MapWork, _Execution
from repro.obs import Observability

from repro.cluster.config import ClusterPolicy
from repro.cluster.fairshare import FairShare, TenantPolicy
from repro.cluster.report import ClusterReport, JobOutcome
from repro.cluster.wal import ClusterWAL


@dataclass(frozen=True)
class JobRequest:
    """One job submission: who wants what, and when.

    ``deadline`` (seconds after arrival, None = none) arms deadline-
    aware admission: the manager sheds the job up front if the cost
    model predicts it cannot finish in time.
    """

    job: Job
    tenant: str
    arrival: float
    request_id: int = 0
    kind: str = ""  # workload class label (crawl_scan / analytics / ...)
    deadline: Optional[float] = None


class ClusterManager(SlotScheduler):
    """Admits job requests onto one cluster's slots and arbitrates
    between them."""

    def __init__(
        self,
        fs: FileSystem,
        policy: ClusterPolicy,
        obs: Optional[Observability] = None,
        faults=None,
        max_attempts: Optional[int] = None,
        wal: Optional[ClusterWAL] = None,
    ) -> None:
        arbiter = FairShare if policy.policy == "fair" else TenantPolicy
        super().__init__(
            fs, obs, faults,
            policy=arbiter(policy),
            speculation=policy.speculation,
            backoff=policy.backoff,
            max_attempts=max_attempts,
            journal=wal,
        )
        self.policy = policy
        self.runner = JobRunner(fs, self.obs, faults)
        self.outcomes: List[JobOutcome] = []
        #: the request behind each admitted execution, by its eid
        self._requests: Dict[int, JobRequest] = {}
        #: committed job results, keyed by request_id (tests, repro.check)
        self.job_results: Dict[int, JobResult] = {}

    # -- public entry points -------------------------------------------

    def run(self, requests: List[JobRequest]) -> ClusterReport:
        """Run every request to completion; returns the latency report."""
        queue = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        self.tell(
            "cluster.start", 0.0,
            policy=self.policy.policy,
            nodes=self.fs.cluster.num_nodes,
            slots=self.total_slots,
            queues=len(self.policy.queues),
            tenants=len(self.policy.tenants),
            jobs=len(queue),
        )
        self.drive(queue, self._admit)
        report = ClusterReport(
            policy=self.policy.policy,
            outcomes=sorted(
                self.outcomes, key=lambda o: o.request_id
            ),
            makespan=self.horizon,
            total_slots=self.total_slots,
            busy_slot_seconds=self.busy_slot_seconds,
            preemptions=self.preemptions,
            map_output_losses=self.map_output_losses,
            speculative_attempts=self.speculative_attempts,
        )
        self.tell(
            "cluster.finish", self.horizon,
            policy=self.policy.policy,
            completed=len(report.completed),
            rejected=len(report.rejected),
            failed=len(report.failed),
            shed=len(report.shed),
            makespan=self.horizon,
            utilization=report.utilization,
            preemptions=self.preemptions,
            map_output_losses=self.map_output_losses,
            speculative_attempts=self.speculative_attempts,
        )
        return report

    def submit(
        self,
        work: MapWork,
        tenant: str,
        arrival: float = 0.0,
        request_id: int = 0,
    ) -> _Execution:
        """Put one unit of work on the cluster in ``tenant``'s queue,
        beneath admission control; :meth:`drive` runs it."""
        return super().submit(
            work, tenant, arrival, request_id,
            queue=self.policy.tenant(tenant).queue,
        )

    # -- admission ------------------------------------------------------

    def _admit(self, request: JobRequest) -> None:
        tenant = self.policy.tenant(request.tenant)
        queue = tenant.queue
        self.tell(
            "job.submitted", request.arrival,
            job=request.job.name, tenant=request.tenant, queue=queue,
            kind=request.kind,
        )
        waiting = sum(
            1 for e in self.executions
            if e.tenant == request.tenant
            and not e.started
            and e.failed is None
        )
        if waiting >= tenant.max_queued:
            self.tell(
                "admission.reject", request.arrival,
                job=request.job.name, tenant=request.tenant, queue=queue,
                queued=waiting, limit=tenant.max_queued,
            )
            self._outcome(
                request, "rejected",
                error=f"tenant queue full ({waiting}/{tenant.max_queued})",
            )
            return
        splits = request.job.input_format.get_splits(
            self.fs, self.fs.cluster
        )
        if request.deadline is not None:
            predicted = self._predict_latency(request, splits)
            if predicted > request.deadline:
                self.tell(
                    "admission.shed", request.arrival,
                    job=request.job.name, tenant=request.tenant,
                    queue=queue, predicted=predicted,
                    deadline=request.deadline,
                )
                self._outcome(
                    request, "shed",
                    error=(
                        f"predicted latency {predicted:.3f}s exceeds "
                        f"deadline {request.deadline:.3f}s"
                    ),
                )
                return
        self.tell(
            "admission.accept", request.arrival,
            job=request.job.name, tenant=request.tenant, queue=queue,
            queued=waiting + 1, splits=len(splits),
        )
        work = self.runner.map_work(request.job, splits)
        execution = self.submit(
            replace(work, commit=partial(self._finalize, request)),
            request.tenant, request.arrival, request.request_id,
        )
        self._requests[execution.eid] = request

    def _outcome(
        self, request: JobRequest, status: str, **fields
    ) -> JobOutcome:
        outcome = JobOutcome(
            request_id=request.request_id,
            job_name=request.job.name,
            tenant=request.tenant,
            queue=self.policy.tenant(request.tenant).queue,
            kind=request.kind,
            arrival=request.arrival,
            status=status,
            deadline=request.deadline,
            **fields,
        )
        self.outcomes.append(outcome)
        return outcome

    def _predict_latency(self, request: JobRequest, splits: List) -> float:
        """Cost-model estimate of the job's completion latency.

        Map work is charged at the disk's sequential rate plus one seek
        per split, spread over the slots the tenant's queue can expect
        (its capacity share under fair scheduling, the whole pool under
        FIFO), behind the queue's current pending backlog.  Deliberately
        conservative-simple: shedding must be cheap, deterministic and
        explainable — not a second scheduler.
        """
        cluster = self.fs.cluster
        disk = cluster.disk

        def cost(split) -> float:
            return split.length / disk.bytes_per_sec + disk.seek_seconds

        work = sum(cost(split) for split in splits)
        queue = self.policy.tenant(request.tenant).queue
        slots = self.hooks.expected_slots(queue, max(1, self.live_slots()))
        backlog = 0.0
        for execution in self.executions:
            if not execution.unfinished() or execution.queue != queue:
                continue
            for pending in execution.pending:
                backlog += cost(execution.splits[pending.index])
        return (backlog + work) / slots + cluster.job_overhead_seconds

    # -- the envelope's end of an execution -----------------------------

    def on_execution(
        self, execution: _Execution, now: float,
        error: Optional[str] = None,
    ) -> None:
        """An execution started or failed: the envelope's
        ``job.dispatch`` or failed outcome.  Work submitted directly, not
        through a request, has no envelope to tell."""
        request = self._requests.get(execution.eid)
        if request is None:
            return
        if error is not None:
            self._job_failed(request, execution, error, now)
            return
        self.tell(
            "job.dispatch", now,
            job=execution.name, tenant=execution.tenant,
            queue=execution.queue, splits=len(execution.splits),
            wait=now - execution.arrival,
        )

    def _job_failed(
        self,
        request: JobRequest,
        execution: _Execution,
        error: str,
        now: float,
    ) -> None:
        self.tell(
            "job.finish", now,
            job=execution.name, tenant=execution.tenant,
            queue=execution.queue, outcome="failed", error=error,
        )
        self._outcome(
            request, "failed",
            start=execution.start,
            attempts=len(execution.tasks),
            preemptions=execution.preemptions,
            error=error,
        )

    def _finalize(
        self, request: JobRequest, execution: _Execution, map_end: float
    ) -> float:
        """A request's commit: the job's result, then its outcome."""
        result = self.runner.finish(request.job, execution, map_end)
        self.job_results[request.request_id] = result
        finish = (
            map_end + result.reduce_time
            + self.fs.cluster.job_overhead_seconds
        )
        outcome = self._outcome(
            request, "completed",
            start=execution.start,
            finish=finish,
            map_makespan=result.map_makespan,
            reduce_time=result.reduce_time,
            attempts=result.attempts,
            preemptions=execution.preemptions,
        )
        finish_attrs = {}
        if outcome.deadline is not None:
            finish_attrs["deadline"] = outcome.deadline
            finish_attrs["deadline_miss"] = outcome.deadline_missed
        self.tell(
            "job.finish", finish,
            job=execution.name, tenant=execution.tenant,
            queue=execution.queue, outcome="completed",
            latency=outcome.latency, wait=outcome.wait,
            preemptions=execution.preemptions, attempts=result.attempts,
            **finish_attrs,
        )
        return finish
