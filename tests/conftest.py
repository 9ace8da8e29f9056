"""Shared fixtures for the test suite.

Heavy artifacts (full synthetic taxonomies, the default oracle) are
session-scoped; most tests run against a small hand-built taxonomy or
reduced sample sizes so the suite stays fast.
"""

from __future__ import annotations

import logging
import os
import threading

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
