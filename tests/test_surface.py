"""Surface audit: every module under ``src/repro`` serves some caller.

A module is *reached* when a file under ``src/repro``, ``examples/``,
``wallbench/`` or ``benchmarks/`` (other than the module itself and its
own package's ``__init__.py``, whose re-export proves nothing) does one
of:

- imports it, at module or function level (``import repro.x.m``,
  ``from repro.x.m import name``, ``from repro.x import m``);
- imports from the package a name that ``__init__.py`` re-exports from
  it (``from repro.x import name``);
- reaches it, or such a name, by attribute through the imported package
  (``from repro import obs`` ... ``obs.analysis.render_timeline``).

Entry points (``__init__``, ``__main__``) and modules named by a
dispatch table (``repro.cli.VERBS``, ``repro.bench.regress.SCENARIOS``)
are reached by definition.  A module only its own tests import was
built for traffic nobody sends: delete it, or list it in
:data:`KEPT_ON_PURPOSE` with the reason.  This is the module-level half
of the audit; the function-level half needs a trace and judgement
(``docs/testing.md`` § Reachability audit).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

import repro
from repro.bench.regress import SCENARIOS
from repro.cli import VERBS

SRC = Path(repro.__file__).parent
ROOT = SRC.parents[1]
CALLER_DIRS = (SRC, ROOT / "examples", ROOT / "wallbench", ROOT / "benchmarks")

#: modules no caller reaches, kept anyway: name -> why
KEPT_ON_PURPOSE = {
    "repro.core.loader": (
        "the paper's Section 4.2 parallel loader, one of its own "
        "artifacts; tests/test_parallel_loader.py is its only caller"
    ),
}


def module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def reexports(init: Path, modules: Dict[str, Path]) -> Dict[str, str]:
    """``name -> module`` for every ``from <module> import name`` in a
    package's ``__init__.py``."""
    out: Dict[str, str] = {}
    for node in ast.walk(ast.parse(init.read_text(), str(init))):
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            for alias in node.names:
                out[alias.asname or alias.name] = node.module
    return out


def reached_from(
    path: Path, modules: Dict[str, Path], exported: Dict[str, Dict[str, str]]
) -> Set[str]:
    """Every module of ``modules`` the file at ``path`` reaches."""
    tree = ast.parse(path.read_text(), str(path))
    found: Set[str] = set()
    bound: Dict[str, str] = {}  # local name -> the package it names

    def through(package: str, name: str) -> None:
        found.add(f"{package}.{name}")
        if name in exported.get(package, {}):
            found.add(exported[package][name])

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
                if alias.asname and alias.name in exported:
                    bound[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            found.add(node.module)
            for alias in node.names:
                through(node.module, alias.name)
                if f"{node.module}.{alias.name}" in exported:
                    bound[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            through(bound[node.value.id], node.attr)
    return found & set(modules)


def unreached(src: Path = SRC, caller_dirs=CALLER_DIRS) -> Set[str]:
    modules = {module_name(p, src): p for p in sorted(src.rglob("*.py"))}
    exported = {
        name: reexports(path, modules)
        for name, path in modules.items() if path.name == "__init__.py"
    }
    reached = {
        name for name, path in modules.items()
        if path.name in ("__init__.py", "__main__.py")
    }
    reached |= {module.__name__ for module in VERBS.values()}
    reached |= {f"repro.bench.{s.source}" for s in SCENARIOS.values()}
    for directory in caller_dirs:
        for path in sorted(directory.rglob("*.py")):
            for name in reached_from(path, modules, exported):
                target = modules[name]
                own_init = target.parent / "__init__.py"
                if path != target and path != own_init:
                    reached.add(name)
    return set(modules) - reached


def test_every_module_is_reached_or_kept_on_purpose():
    assert sorted(unreached() - set(KEPT_ON_PURPOSE)) == []


def test_the_allow_list_holds_only_what_is_still_unreached():
    # an entry whose module gained a caller (or was deleted) must go
    assert sorted(set(KEPT_ON_PURPOSE) - unreached()) == []


def test_the_walk_sees_each_way_of_reaching_a_module(tmp_path):
    pkg = tmp_path / "src" / "repro"
    (pkg / "obs").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "obs" / "__init__.py").write_text(
        "from repro.obs.export import chrome_trace\n"
        "from repro.obs.orphan import lonely\n"
    )
    for name in ("analysis", "export", "tsdb", "live", "orphan"):
        (pkg / "obs" / f"{name}.py").write_text("")
    (pkg / "obs" / "selfish.py").write_text("import repro.obs.selfish\n")
    callers = tmp_path / "examples"
    callers.mkdir()
    (callers / "demo.py").write_text(
        "from repro.obs import chrome_trace\n"        # a re-exported name
        "from repro.obs import live as monitor\n"     # the module itself
        "def f():\n"
        "    from repro import obs\n"                 # function level
        "    import repro.obs.tsdb\n"
        "    return obs.analysis.render_timeline\n"   # through the package
    )
    assert unreached(pkg, (pkg, callers)) == {
        # re-exported by its own __init__ only; imported by itself only
        "repro.obs.orphan", "repro.obs.selfish",
    }
