"""Surface audit: every module under ``src/repro`` serves some caller,
and every public function and class is named somewhere.

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
:data:`KEPT_ON_PURPOSE` with the reason.

The cheap half of the function-level audit is a name search: a public
``def`` or ``class`` under ``src/repro`` (at module or class level) whose
name appears in no file under ``src/``, ``tests/``, ``examples/``,
``wallbench/`` or ``benchmarks/`` except at its own definition has no
caller and no test, so it goes, or into :data:`UNNAMED_ON_PURPOSE` with
the reason.  The other half needs a trace and judgement
(``docs/testing.md`` § Reachability audit).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, Set

import repro
from repro.bench.regress import SCENARIOS
from repro.cli import VERBS

SRC = Path(repro.__file__).parent
ROOT = SRC.parents[1]
CALLER_DIRS = (SRC, ROOT / "examples", ROOT / "wallbench", ROOT / "benchmarks")
NAMING_DIRS = (ROOT / "src", ROOT / "tests") + CALLER_DIRS[1:]

#: modules no caller reaches, kept anyway: name -> why
KEPT_ON_PURPOSE: Dict[str, str] = {}


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


#: public definitions named nowhere but where they are defined, kept
#: anyway: qualified name -> why
UNNAMED_ON_PURPOSE: Dict[str, str] = {}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def public_defs(tree: ast.Module) -> Iterator[tuple]:
    """``(qualified name, name)`` of every public def and class at module
    or class level (a function's nested defs are its own business)."""
    pending = [(node, "") for node in tree.body]
    while pending:
        node, owner = pending.pop()
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) or node.name.startswith("_"):
            continue
        yield owner + node.name, node.name
        if isinstance(node, ast.ClassDef):
            pending += [(child, f"{owner}{node.name}.") for child in node.body]


def unnamed(src: Path = SRC, naming_dirs=NAMING_DIRS) -> Set[str]:
    """Public defs and classes under ``src`` whose name no file under
    ``naming_dirs`` holds but at the definition (this file excepted: it
    names what it exempts)."""
    names: Counter = Counter()
    for directory in naming_dirs:
        for path in directory.rglob("*.py"):
            if path.resolve() != Path(__file__).resolve():
                names.update(_IDENTIFIER.findall(path.read_text()))
    found = set()
    for path in sorted(src.rglob("*.py")):
        module = module_name(path, src)
        for qualified, name in public_defs(ast.parse(path.read_text())):
            if names[name] <= 1:
                found.add(f"{module}.{qualified}")
    return found


def test_every_public_definition_is_named_or_kept_on_purpose():
    assert sorted(unnamed() - set(UNNAMED_ON_PURPOSE)) == []


def test_the_name_allow_list_holds_only_what_is_still_unnamed():
    assert sorted(set(UNNAMED_ON_PURPOSE) - unnamed()) == []


def test_the_name_search_sees_each_way_of_naming_a_definition(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "def lonely(): pass\n"                  # named at its def only
        "def _private(): pass\n"                # private: not audited
        "def called_here(): pass\n"
        "def caller():\n"
        "    def nested(): pass\n"              # nested: not audited
        "    return called_here()\n"
        "class Box:\n"
        "    def unused(self): pass\n"          # a method named nowhere
        "    def in_a_test(self): pass\n"
        "    def in_a_docstring(self): pass\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        '"""Covers Box.in_a_docstring."""\n'
        "from repro.mod import Box, caller\n"
        "Box().in_a_test()\n"
    )
    assert unnamed(pkg, (tmp_path / "src", tests)) == {
        "repro.mod.lonely", "repro.mod.Box.unused",
    }
