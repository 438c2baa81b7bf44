"""MapReduce engine over the simulated HDFS.

Implements the Hadoop abstractions the paper's techniques plug into
(Section 2): ``InputFormat`` (split generation + record reading),
``OutputFormat``, hand-coded map and reduce functions over a generic
record abstraction.  The locality-aware slot scheduler they run on is
here too, beneath every caller: :class:`repro.mapreduce.eventloop.
SlotScheduler`, which ``run_job`` gives one job to
(:func:`~repro.mapreduce.eventloop.run_alone`) and on which
:mod:`repro.cluster` builds its multi-tenant layer through the four
hooks of :class:`~repro.mapreduce.scheduler.SchedulingPolicy`.

The engine *executes* jobs for real — mappers and reducers are Python
functions that see actual decoded records — while *time* is simulated:
each task accumulates I/O and CPU charges in its metrics, the scheduler
places the tasks on the cluster's map slots event-by-event, and
the job result reports the two quantities Table 1 reports: **map time**
(total map-task seconds divided by the cluster's map slots) and **total
time** (wall-clock makespan including shuffle/sort/reduce).
"""

from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Job
from repro.mapreduce.types import (
    InputFormat,
    InputSplit,
    OutputFormat,
    RecordReader,
    TaskContext,
)


def __getattr__(name: str):
    """The runner's names, bound on first use (PEP 562): a format that
    imports ``repro.mapreduce.types`` need not load the runner, the
    event loop and the scheduler."""
    if name == "JobFailedError":
        from repro.mapreduce.scheduler import JobFailedError
    elif name in ("JobResult", "JobRunner", "run_job"):
        from repro.mapreduce.runner import JobResult, JobRunner, run_job
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = locals()[name]
    return value


__all__ = [
    "Counters",
    "InputFormat",
    "InputSplit",
    "Job",
    "JobFailedError",
    "JobResult",
    "JobRunner",
    "OutputFormat",
    "RecordReader",
    "TaskContext",
    "run_job",
]
