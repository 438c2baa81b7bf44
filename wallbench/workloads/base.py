"""What every workload gives the trial runner."""

from __future__ import annotations

from typing import Dict, List

from repro.hdfs import ClusterConfig, FileSystem

from wallbench import spec
from wallbench.trace import NO_SPANS, Unit


def new_filesystem() -> FileSystem:
    """The benchmark's own cluster: pinned here, not program defaults."""
    cluster = spec.config()["cluster"]
    fs = FileSystem(ClusterConfig(
        num_nodes=cluster["num_nodes"],
        map_slots_per_node=cluster["map_slots_per_node"],
        reduce_slots_per_node=cluster["reduce_slots_per_node"],
        block_size=cluster["block_bytes"],
        io_buffer_size=cluster["io_buffer_bytes"],
    ))
    if cluster["column_placement"]:
        fs.use_column_placement()
    return fs


def job_sim_counts(job_results) -> Dict[str, float]:
    """Exact simulated totals of one pass, from its ``JobResult``s."""
    return {
        "sim.task_seconds": sum(
            r.map_metrics.task_time + r.reduce_metrics.task_time
            for r in job_results
        ),
        "sim.disk_bytes": sum(r.bytes_read for r in job_results),
        "sim.records": sum(r.map_metrics.records for r in job_results),
    }


class Workload:
    """One workload: fixed op list, seeded inputs, checked outputs.

    ``run_pass`` is the only thing timed.  It returns one answer per op
    (an exception object for an op that raised); ``check`` compares them
    with a pure-Python evaluation outside the timed window.
    """

    name = ""

    def __init__(self, sizes: dict, seed: int) -> None:
        self.sizes = sizes
        self.seed = seed
        self.inputs_sha256 = ""
        #: op name -> expected answer, filled by ``setup``
        self.expected: Dict[str, object] = {}

    def generate(self) -> None:
        """Make the inputs from the seed; sets ``inputs_sha256``."""
        raise NotImplementedError

    def load(self) -> None:
        """Write what the ops read; computes ``expected``."""

    @property
    def op_names(self) -> List[str]:
        raise NotImplementedError

    def run_pass(self, spans=NO_SPANS) -> list:
        raise NotImplementedError

    def check(self, answers: list) -> List[str]:
        """Names of the ops whose answer is wrong or that raised."""
        raise NotImplementedError

    def sim_counts(self, answers: list) -> Dict[str, float]:
        raise NotImplementedError

    def units(self, answers: list) -> List[Unit]:
        """The ladder below each op, on the bytes that pass wrote/read."""
        raise NotImplementedError

    def _run_ops(self, ops, spans) -> list:
        answers = []
        for name, fn in ops:
            with spans.span(name):
                try:
                    answers.append(fn())
                except Exception as error:  # an op that raises has failed
                    answers.append(error)
        return answers
