"""The package layout's import graph.

Each package ``__init__`` lists its exports once, in a table handed to
``repro._exports.lazy_exports``, and they load on first use: importing
a package loads none of its modules, and a module loads only what it
imports.  These checks run in fresh interpreters, because this test
process has long since imported nearly everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: The modules whose call-time imports moved to the top, the modules
#: on the other side of the three call-time imports that remain, and
#: the CLI, whose imports name defining modules.
IMPORTS_FIRST = (
    "repro.obs.live", "repro.obs.history", "repro.obs.cost",
    "repro.serve.views", "repro.dist.status", "repro.dist.planner",
    "repro.experiments.overall", "repro.experiments.levels",
    "repro.experiments.scalability", "repro.search.engine",
    "repro.store.artifacts", "repro.store.fingerprint",
    "repro.questions.pools", "repro.runs.registry", "repro.runs.driver",
    "repro.cli",
)

#: What ``import repro.runs.registry`` must not load.
HEAVY_PACKAGES = {"engine", "dist", "serve", "experiments", "hybrid"}
HEAVY_MODULES = {"repro.llm.oracle", "repro.llm.simulated",
                 "repro.core.runner"}

#: (module, imported module) of every call-time ``repro`` import
#: outside ``cli.py`` and ``serve/app.py``, which defer heavy modules
#: for start-up.  Each closes a real module cycle.
CALL_TIME_IMPORTS = {
    ("repro.obs.cost", "repro.runs.driver"),
    ("repro.questions.pools", "repro.store.artifacts"),
    ("repro.runs.registry", "repro.dist.status"),
}


def _fresh(code: str) -> object:
    """The JSON a fresh interpreter prints after running ``code``."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = ("import json, sys; print(json.dumps(sorted("
           "m for m in sys.modules if m.split('.')[0] == 'repro')))")


def _export_tables() -> dict[str, dict[str, str]]:
    """package -> {exported name: the module its table names}."""
    tables = {}
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", "") == "lazy_exports"):
                tables[package] = {
                    name: module for module, names
                    in ast.literal_eval(node.args[1]).items()
                    for name in names}
    return tables


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_import_repro_loads_only_the_export_helper():
    assert _fresh("import repro\n" + _LOADED) == ["repro",
                                                  "repro._exports"]


def test_registry_import_stays_out_of_the_heavy_layers():
    loaded = _fresh("import repro.runs.registry\n" + _LOADED)
    assert "repro.runs.registry" in loaded
    heavy = [name for name in loaded if name in HEAVY_MODULES
             or "." in name and name.split(".")[1] in HEAVY_PACKAGES]
    assert heavy == []


def test_every_export_is_its_defining_modules_object():
    tables = _export_tables()
    assert len(tables) == 19 and "repro.search" in tables
    assert "repro.generators" not in tables     # eager: fingerprinted
    code = f"""
import importlib, json, pkgutil
tables = {tables!r}
def mismatches():
    bad = []
    for package, owners in tables.items():
        module = importlib.import_module(package)
        if set(module.__all__) - {{"__version__"}} != set(owners):
            bad.append(package + ".__all__")
        for name, owner in owners.items():
            value = getattr(module, name)
            if value is not getattr(importlib.import_module(owner), name):
                bad.append(package + "." + name)
    return bad
first = mismatches()
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
print(json.dumps(first + mismatches()))
"""
    assert _fresh(code) == []


def test_the_cli_loads_no_asyncio():
    # The batcher forms batches on the engine's own worker threads, so
    # nothing in the program needs an event loop.
    assert _fresh("import json, sys, repro.cli\n"
                  "print(json.dumps('asyncio' in sys.modules))") is False


@pytest.mark.parametrize("module", IMPORTS_FIRST)
def test_module_imports_first(module):
    assert module in _fresh(f"import {module}\n" + _LOADED)


def test_call_time_imports_are_the_three_module_cycles():
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.relative_to(SRC / "repro").as_posix() in ("cli.py",
                                                          "serve/app.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.ImportFrom) and node.module
                        and node.module.split(".")[0] == "repro"):
                    found.add((_module_name(path), node.module))
                elif isinstance(node, ast.Import):
                    found.update((_module_name(path), alias.name)
                                 for alias in node.names
                                 if alias.name.split(".")[0] == "repro")
    assert found == CALL_TIME_IMPORTS
