"""Package layering: nothing below ``repro.cluster`` imports it.

The scheduler kernel lives in ``repro.mapreduce``; ``repro.cluster`` is
the multi-tenant layer on top.  An import of ``repro.cluster`` from a
package underneath it (at module level, inside a function, or under
``TYPE_CHECKING``) means a piece of the kernel or a shared helper has
drifted back up.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: the only packages that may import ``repro.cluster``
ABOVE_CLUSTER = {"cluster", "bench", "check", "cli"}

#: what the kernel must stay ignorant of
MULTI_TENANT_NAMES = {
    "ClusterPolicy", "TenantConfig", "QueueConfig", "JobRequest",
    "JobRunner", "ClusterReport", "JobOutcome",
}
KERNEL = ("scheduler", "eventloop", "nodeloss", "speculation")


def imported_modules(path: Path):
    """``(module, lineno)`` for every import in the file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno
            for alias in node.names:  # from repro import cluster
                yield f"{node.module}.{alias.name}", node.lineno


def test_only_the_layers_above_import_repro_cluster():
    offenders = set()
    for path in sorted(SRC.rglob("*.py")):
        package = path.relative_to(SRC).parts[0]
        if package in ABOVE_CLUSTER:
            continue
        for module, lineno in imported_modules(path):
            if module == "repro.cluster" or module.startswith(
                "repro.cluster."
            ):
                offenders.add(f"{path.relative_to(SRC)}:{lineno}")
    assert sorted(offenders) == []


def test_the_walk_sees_function_level_imports(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "def f():\n"
        "    from repro.cluster.manager import run_alone\n"
        "    from repro import cluster\n"
    )
    assert [m for m, _ in imported_modules(source)] == [
        "repro.cluster.manager", "repro.cluster.manager.run_alone",
        "repro", "repro.cluster",
    ]


def test_the_kernel_names_nothing_multi_tenant():
    for name in KERNEL:
        tree = ast.parse((SRC / "mapreduce" / f"{name}.py").read_text())
        named = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
        } | {
            n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
        }
        assert named & MULTI_TENANT_NAMES == set(), name
