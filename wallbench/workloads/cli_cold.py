"""cli_cold: what every CLI user and shell-out test pays per call.

Three ``python -m repro`` subprocesses.  Import time and argparse
construction dominate; nothing is reused between calls.  The seed has
nothing to decide here: the inputs are the three argument lists.
"""

from __future__ import annotations

import subprocess
import sys
from typing import Dict, List

from wallbench import inputs, spec
from wallbench.trace import NO_SPANS, Part, Rung, Unit
from wallbench.workloads.base import Workload

PYTHON_FLOOR = ["-c", "pass"]
IMPORT_CLI = ["-c", "import repro.cli"]


def python(args: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable] + args, env=spec.child_env(), cwd=spec.ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


class CliCold(Workload):
    name = "cli_cold"

    def generate(self) -> None:
        self.commands = {
            "version": ["-m", "repro", "--version"],
            "bench_list": ["-m", "repro", "bench", "list"],
            "experiment_fig10": [
                "-m", "repro", "experiment", "fig10",
                "--records", str(self.sizes["fig10_records"]),
            ],
        }
        self.inputs_sha256 = inputs.sha256_of(
            " ".join(args).encode("utf-8") for args in self.commands.values()
        )

    @property
    def op_names(self) -> List[str]:
        return list(self.commands)

    def run_pass(self, spans=NO_SPANS) -> list:
        return self._run_ops(
            [(name, lambda a=args: python(a)) for name, args in self.commands.items()],
            spans,
        )

    def check(self, answers: list) -> List[str]:
        """Exit code 0 and the same stdout as the first pass."""
        failed = []
        for name, answer in zip(self.op_names, answers):
            if isinstance(answer, Exception) or answer.returncode != 0:
                failed.append(name)
            elif answer.stdout != self.expected.setdefault(name, answer.stdout):
                failed.append(name)
            elif name == "version" and not answer.stdout.startswith(b"repro "):
                failed.append(name)
        return failed

    def sim_counts(self, answers: list) -> Dict[str, float]:
        """No simulated work is visible from outside a subprocess."""
        return {"sim.task_seconds": 0.0, "sim.disk_bytes": 0, "sim.records": 0}

    def units(self, answers: list) -> List[Unit]:
        return [
            Unit(name, "cli", [
                Rung("cli.python_floor", [Part("python", lambda: python(PYTHON_FLOOR))]),
                Rung("cli.import", [Part("import", lambda: python(IMPORT_CLI))]),
            ])
            for name in self.commands
        ]
