"""Shared fixtures for the test suite.

Heavy artifacts (full synthetic taxonomies, the default oracle) are
session-scoped; most tests run against a small hand-built taxonomy or
reduced sample sizes so the suite stays fast.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.benchmark import TaxoGlimpse
from repro.generators.registry import build_taxonomy
from repro.questions.pools import build_pools
from repro.runs.registry import RUNS_ENV
from repro.store.artifacts import STORE_ENV
from repro.taxonomy.builder import TaxonomyBuilder
from repro.taxonomy.node import Domain


@pytest.fixture(scope="session", autouse=True)
def _hermetic_store(tmp_path_factory):
    """Point the artifact store at a per-session scratch directory.

    The suite still exercises the store-backed ``build_pools`` path,
    but never reads or writes the developer's ``~/.cache`` artifacts —
    every run starts cold and leaves nothing behind.
    """
    previous = os.environ.get(STORE_ENV)
    os.environ[STORE_ENV] = str(tmp_path_factory.mktemp("artifact-store"))
    yield
    if previous is None:
        os.environ.pop(STORE_ENV, None)
    else:
        os.environ[STORE_ENV] = previous


@pytest.fixture(scope="session", autouse=True)
def _hermetic_runs(tmp_path_factory):
    """Point the default run registry at a per-session scratch dir.

    Same contract as the artifact store above: code paths that fall
    back to the default ``RunRegistry()`` stay exercised without ever
    touching (or polluting) the developer's ``~/.cache`` runs.
    """
    previous = os.environ.get(RUNS_ENV)
    os.environ[RUNS_ENV] = str(tmp_path_factory.mktemp("run-registry"))
    yield
    if previous is None:
        os.environ.pop(RUNS_ENV, None)
    else:
        os.environ[RUNS_ENV] = previous


@pytest.fixture()
def folds(monkeypatch) -> list:
    """``(fold, path, start offset, end offset, thread)`` of every fold
    of a run log that a follower or the registry makes (the real folds
    still run)."""
    from repro.obs import live
    from repro.runs import registry
    calls: list = []

    def spy(name, real):
        def fold(path, base=None, offset=0, start_line=1, follow=False):
            state, end, line = real(path, base, offset, start_line,
                                    follow)
            calls.append((name, path, offset, end,
                          threading.current_thread()))
            return state, end, line
        return fold

    for module, name in ((live, "fold_run_ledger"),
                         (live, "fold_span_totals"),
                         (registry, "fold_run_ledger")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    return calls


#: One attempt of a run (or, with a shard index >= 0, of one of its
#: shards) whose process exits without any cleanup once its model has
#: given ``answers`` answers, as a killed process does.
_DIES_MIDWAY = """
import os, sys
from repro.llm.registry import get_model
from repro.runs import RunRegistry, execute_run

root, run_id, answers, shard = sys.argv[1:]
left = [int(answers)]

class Dies:
    def __init__(self, inner):
        self.inner, self.name = inner, inner.name

    def generate(self, prompt):
        if left[0] == 0:
            os._exit(3)
        left[0] -= 1
        return self.inner.generate(prompt)

registry = RunRegistry(root)
resolve = lambda name: Dies(get_model(name))
if int(shard) < 0:
    execute_run(registry.request(run_id), registry=registry,
                run_id=run_id, resolve_model=resolve)
else:
    from repro.dist.worker import run_shard
    run_shard(run_id, int(shard), registry=registry,
              resolve_model=resolve)
"""


@pytest.fixture()
def killed_attempt():
    """``kill(registry, run_id, answers, shard=None)`` runs one attempt
    of the run (or of its shard ``shard``) in a child process that dies
    without cleanup after ``answers`` model answers, and returns the
    dead child's pid: its bracket event, records and heartbeat marker
    stay behind."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def kill(registry, run_id: str, answers: int,
             shard: int | None = None) -> int:
        child = subprocess.Popen(
            [sys.executable, "-c", _DIES_MIDWAY, str(registry.root),
             run_id, str(answers), str(-1 if shard is None else shard)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        _, stderr = child.communicate(timeout=120)
        assert child.returncode == 3, stderr
        return child.pid

    return kill


@pytest.fixture()
def propagating_logs():
    """Let ``repro.*`` records reach caplog's root handler (the CLI's
    ``configure_logging`` turns propagation off)."""
    root = logging.getLogger("repro")
    before = root.propagate
    root.propagate = True
    yield
    root.propagate = before


@pytest.fixture(autouse=True)
def _restored_logs():
    """Put the ``repro`` logger back as it was before each test.

    A CLI ``main()`` call runs ``configure_logging``, which binds a
    handler to the sys.stderr of that moment: in a test, its capture
    stream, closed when the test ends.  A later test's server threads
    would log into that closed stream.
    """
    root = logging.getLogger("repro")
    handlers, level, propagate = (root.handlers[:], root.level,
                                  root.propagate)
    yield
    root.handlers[:] = handlers
    root.setLevel(level)
    root.propagate = propagate


@pytest.fixture()
def toy_taxonomy():
    """A tiny 3-level shopping taxonomy with known structure.

    Electronics -> (Audio -> (Headphones, Speakers, Earbuds),
                    Video -> (Monitors,))
    Home        -> (Furniture -> (Chairs,))
    """
    builder = TaxonomyBuilder("Toy", Domain.SHOPPING,
                              concept_noun="products")
    electronics = builder.add_root("Electronics")
    home = builder.add_root("Home")
    audio = builder.add_child(electronics, "Audio")
    video = builder.add_child(electronics, "Video")
    furniture = builder.add_child(home, "Furniture")
    builder.add_child(audio, "Headphones")
    builder.add_child(audio, "Speakers")
    builder.add_child(audio, "Earbuds")
    builder.add_child(video, "Monitors")
    builder.add_child(furniture, "Chairs")
    return builder.build()


@pytest.fixture(scope="session")
def ebay_taxonomy():
    """The smallest real-shaped taxonomy (595 nodes)."""
    return build_taxonomy("ebay")


@pytest.fixture(scope="session")
def glottolog_taxonomy():
    return build_taxonomy("glottolog")


@pytest.fixture(scope="session")
def ncbi_taxonomy():
    return build_taxonomy("ncbi")


@pytest.fixture(scope="session")
def ebay_pools():
    """Small question pools over eBay for runner tests."""
    return build_pools("ebay", sample_size=20)


@pytest.fixture(scope="session")
def fast_bench():
    """A TaxoGlimpse facade with small per-level samples."""
    return TaxoGlimpse(sample_size=24)
