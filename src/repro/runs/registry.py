"""The run registry: a directory of content-addressed run directories.

Layout: ``<root>/<fingerprint12>-<seq>/`` with two files per run —
``manifest.json`` (the frozen :class:`RunRequest`, its fingerprint and
creation time; written atomically via temp file + ``os.replace``) and
``ledger.jsonl`` (the append-only event log).  The fingerprint covers
the full run request plus the generator code fingerprint, so runs of
different sweeps — or of the same sweep across a generator change —
can never collide; the ``-<seq>`` suffix separates repeated runs of
the identical request.

``REPRO_RUNS_DIR`` relocates the default root (the tests point it at
a per-session scratch directory).

Replayed ledgers are kept in a :class:`StateCache` and reused while
the ledger file is unchanged, so repeated reads of one run (``repro
serve`` answering ``runs show``/``diff``/``obs trails`` for many
clients) replay it once per version instead of once per read.  Each
cached version also keeps the views :meth:`RunRegistry.view` derives
from it while the run is sealed, so a repeat read of a finished run
builds and encodes nothing either.  The live follower reads the same
cache (:meth:`StateCache.follow`) and folds only what was appended
since its last poll.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from repro.errors import ManifestCorruptError, RunError, UnknownRunError
from repro.obs.jsonl import last_advanced, replace_text
from repro.runs.heartbeat import (DEFAULT_STALL_DEADLINE_S,
                                  HEARTBEAT_FILENAME, attempt_status)
from repro.runs.ledger import LEDGER_FILENAME, RunState, fold_run_ledger
from repro.runs.request import LEDGER_SCHEMA_VERSION, RunRequest

#: Environment override for the default registry root.
RUNS_ENV = "REPRO_RUNS_DIR"

MANIFEST_FILENAME = "manifest.json"

#: File name of the span log inside a run directory.
SPANS_FILENAME = "spans.jsonl"

#: File name of the cross-run metric time series in the registry root.
HISTORY_FILENAME = "history.jsonl"

#: File name of the shard plan inside a sharded run directory.
SHARD_PLAN_FILENAME = "shards.json"

#: Directory of per-shard state inside a sharded run directory.
SHARDS_DIRNAME = "shards"

#: Directory of the per-tenant registries ``repro serve`` keeps under
#: its root (``<root>/tenants/<name>``); never a run directory.
TENANTS_DIRNAME = "tenants"

#: One plain path segment: no traversal, no separators.  Every run id
#: must be one (the registry's own are ``<12 hex>-<NN>``), and so must
#: every tenant name ``repro serve`` accepts.
PLAIN_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")

#: Ledger bytes, plus the bytes of the views kept with them, a
#: :class:`StateCache` may hold.  A replayed state takes about twice
#: its ledger's bytes in memory; two W1 trail-on ledgers (6.4 MB each)
#: and their diff (0.7 MB) fit together, so diffing them replays
#: neither.
STATE_CACHE_BYTES = 16 * 1024 * 1024

#: ``(st_dev, st_ino, st_size, st_mtime_ns)``: what the caches compare
#: to tell one version of a file from the next.
FileVersion = tuple[int, int, int, int]

#: ``fold(path, base=None, offset=0, start_line=1, follow=False) ->
#: (state, offset, next_line)``: one kind of run log folded from byte 0,
#: or from ``offset`` on onto a copy of ``base`` that leaves ``base``
#: as it was (:func:`repro.runs.ledger.fold_run_ledger`).
LogFold = Callable[..., tuple[Any, int, int]]


def default_runs_root() -> Path:
    value = os.environ.get(RUNS_ENV)
    if value:
        return Path(value)
    return Path.home() / ".cache" / "repro-taxoglimpse" / "runs"


def file_version(path: Path) -> FileVersion | None:
    """The version of the file at ``path``, or None when it cannot be
    stat'ed (a file that does not exist is a version too)."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def watch(files: list[tuple[Path, FileVersion | None]],
          path: Path) -> None:
    """Note ``path``'s version in ``files``, the list a
    :meth:`RunRegistry.view` builder fills; call it before the file is
    read, so a write racing the read costs a rebuild, never a stale
    view."""
    files.append((path, file_version(path)))


@dataclass(frozen=True, slots=True)
class RunSummary:
    """One registry listing row (``repro runs list``)."""

    run_id: str
    dataset: str
    models: int
    taxonomies: int
    settings: str
    sample_size: int | None
    per_level: bool
    cells_total: int
    cells_done: int
    questions: int
    finished: bool
    created_at: float
    #: Live status (``running``/``stalled``/``finished``/``crashed``,
    #: plus ``unmerged`` for sharded runs whose workers all finished,
    #: and ``invalid`` for undecodable run directories) derived from
    #: the ledger's run-finished event and attempt pid + the heartbeat.
    status: str = "crashed"
    #: Shard fan-out (0 = unsharded single-process run).
    shards: int = 0
    #: Accumulated spend from the run's persisted stats snapshot
    #: (0 for ledgers predating cost metering or still-running runs).
    cost_nanos: int = 0

    @property
    def cost_usd(self) -> float:
        return self.cost_nanos / 1e9

    def as_row(self) -> dict[str, object]:
        return {
            "run_id": self.run_id,
            "dataset": self.dataset,
            "models": self.models,
            "taxonomies": self.taxonomies,
            "settings": self.settings,
            "sample": ("cochran" if self.sample_size is None
                       else self.sample_size),
            "per_level": "yes" if self.per_level else "no",
            "cells": f"{self.cells_done}/{self.cells_total}",
            "questions": self.questions,
            "shards": self.shards if self.shards else "-",
            "cost_usd": f"{self.cost_usd:.4f}",
            "status": self.status,
        }

    def to_dict(self) -> dict[str, object]:
        """Machine-readable listing entry (``runs list --json``)."""
        return {
            "run_id": self.run_id,
            "dataset": self.dataset,
            "models": self.models,
            "taxonomies": self.taxonomies,
            "settings": self.settings.split(","),
            "sample_size": self.sample_size,
            "per_level": self.per_level,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "questions": self.questions,
            "finished": self.finished,
            "status": self.status,
            "shards": self.shards,
            "cost_nanos": self.cost_nanos,
            "cost_usd": self.cost_usd,
            "created_at": self.created_at,
        }


@dataclass(eq=False, slots=True)
class LedgerVersion:
    """One version of a run log, as a :class:`StateCache` holds it: the
    state folded from it, where a fold of the lines appended since
    resumes, and the views derived from that state.  The log is the
    ledger (the state a :class:`RunState`) or the span log (what the
    live follower folds from it)."""

    path: Path
    #: The log's version when the fold began (None: no log).
    version: FileVersion | None
    state: Any
    #: Byte offset and line number the next fold starts at.
    offset: int = 0
    next_line: int = 1
    #: view key -> (the other files it read, with their versions at
    #: build time; the view; its bytes).
    views: dict[Hashable, tuple[tuple, object, int]] = field(
        default_factory=dict)
    #: Ledger bytes plus the bytes of :attr:`views`.
    bytes: int = 0


class StateCache:
    """Folded run logs, reused while the log file is unchanged.

    Entries are keyed by log path and remember the file's
    ``(st_dev, st_ino, st_size, st_mtime_ns)`` at fold time; a read
    reuses an entry only when a fresh ``os.stat`` matches.  Every
    writer in the repository changes that key: ledger appends grow
    the size, merge's ``os.replace`` swaps the inode, gc deletes the
    file.  The stat is taken *before* the fold opens the file, so a
    write racing the read costs one extra fold later, never a stale
    hit.  The one change it cannot see is an in-place rewrite to the
    same size within one mtime tick, which no writer here does.  Only
    versions folded from byte 0 are kept; a follower's extension of
    one (:meth:`follow`) is its own.

    Each entry also keeps views derived from its state
    (:meth:`remember`, :meth:`recall`).  A view is reused under the
    same rule, extended to every other file its builder read, and goes
    with its entry when the entry is replaced or evicted.

    The cache is an LRU bounded by :data:`STATE_CACHE_BYTES` of ledger
    and view bytes; a ledger larger than the whole budget is replayed
    but not kept.  The lock covers lookup, insert and evict, never a
    fold or a build, so a cold replay of one run does not block
    cached reads of another; two threads that miss together may both
    replay (or build), and the later insert wins.  Errors propagate
    and are never cached.

    A returned state is shared by every caller that reads the same
    version: treat it as read-only.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: path -> entry, least recently used first.
        self._entries: OrderedDict[Path, LedgerVersion] = OrderedDict()
        #: Ledger and view bytes of the cached entries.
        self.bytes = 0

    def entry(self, path: Path, fold: LogFold,
              follow: bool = False) -> LedgerVersion:
        """The current version of the log at ``path``, folded from byte
        0 by ``fold`` on a miss (``follow`` passed on).

        Raises ``FileNotFoundError`` for a missing log and what the
        fold raises for a corrupt one
        (:class:`repro.errors.LedgerCorruptError` for a ledger).
        """
        stat = os.stat(path)
        version = (stat.st_dev, stat.st_ino, stat.st_size,
                   stat.st_mtime_ns)
        entry = self._lookup(path, version)
        if entry is not None:
            return entry
        state, offset, line = fold(path, follow=follow)
        # A replayed run state costs about twice its ledger's bytes;
        # any other fold counts its own size.
        entry = LedgerVersion(
            path, version, state, offset, line,
            bytes=(stat.st_size if isinstance(state, RunState)
                   else sys.getsizeof(state)))
        with self._lock:
            stale = self._entries.pop(path, None)
            if stale is not None:
                self.bytes -= stale.bytes
            if self.fits(entry.bytes):
                self._entries[path] = entry
                self.bytes += entry.bytes
                self._evict()
        return entry

    def fits(self, size: int) -> bool:
        """Whether a version of ``size`` bytes may be kept."""
        return size <= STATE_CACHE_BYTES

    def current(self, path: Path) -> LedgerVersion | None:
        """The cached version of the log at ``path`` while it is still
        the file's version, else None; never folds."""
        return self._lookup(path, file_version(path))

    def follow(self, path: Path, last: LedgerVersion | None,
               fold: LogFold) -> LedgerVersion:
        """The current version of the log at ``path`` for a follower
        that holds ``last`` (None before its first read).

        While the file keeps ``last``'s ``(st_dev, st_ino)`` and has
        not shrunk below where ``last``'s fold stopped, only the lines
        appended since are folded, quietly, onto a copy of ``last``'s
        state; ``last`` never changes, and the result is the caller's
        alone.  Otherwise the version comes from :meth:`entry`.
        """
        stat = os.stat(path)
        version = (stat.st_dev, stat.st_ino, stat.st_size,
                   stat.st_mtime_ns)
        if last is not None and last.version == version:
            return last
        if (last is None or last.version is None
                or last.version[:2] != version[:2]
                or stat.st_size < last.offset):
            return self.entry(path, fold, follow=True)
        error = None
        try:
            state, offset, line = fold(path, last.state, last.offset,
                                       last.next_line, True)
        except Exception as exc:
            error = exc
        # A replace between the stat and the read hands the fold the
        # new file from the old offset.
        if (file_version(path) or (None,))[:2] != version[:2]:
            return self.entry(path, fold, follow=True)
        if error is not None:
            raise error
        return LedgerVersion(path, version, state, offset, line)

    def _lookup(self, path: Path,
                version: FileVersion | None) -> LedgerVersion | None:
        with self._lock:
            entry = self._entries.get(path)
            if entry is None or entry.version != version:
                return None
            self._entries.move_to_end(path)
            return entry

    def recall(self, entry: LedgerVersion, key: Hashable) -> object:
        """The view kept under ``key``, or None unless every file it
        was built from still has the version it had then."""
        with self._lock:
            kept = entry.views.get(key)
        if kept is None or any(file_version(path) != version
                               for path, version in kept[0]):
            return None
        return kept[1]

    def remember(self, entry: LedgerVersion, key: Hashable,
                 files: tuple, view: object, size: int) -> None:
        """Keep ``view`` under ``key`` while the entry is cached.

        ``files`` lists the other files the view was built from, each
        with its version taken before the build read it.  An entry
        replaced or evicted since ``view``'s state was taken from it
        keeps nothing.
        """
        with self._lock:
            if self._entries.get(entry.path) is not entry:
                return
            old = entry.views.get(key)
            grown = size - (old[2] if old is not None else 0)
            entry.views[key] = (files, view, size)
            entry.bytes += grown
            self.bytes += grown
            self._evict()

    def _evict(self) -> None:
        while self.bytes > STATE_CACHE_BYTES:
            _, evicted = self._entries.popitem(last=False)
            self.bytes -= evicted.bytes


class RunRegistry:
    """Create, enumerate and load ledgered runs under one root.

    ``state_cache`` lets several registries share one
    :class:`StateCache` (the server shares one across tenants); a
    registry built without one keeps its own.
    """

    def __init__(self, root: str | Path | None = None,
                 state_cache: StateCache | None = None):
        self.root = (Path(root) if root is not None
                     else default_runs_root())
        self.state_cache = (state_cache if state_cache is not None
                            else StateCache())

    # ------------------------------------------------------------------
    def run_dir(self, run_id: str) -> Path:
        """The run's directory; every per-run path starts here.

        Raises :class:`UnknownRunError` for an id that is not one
        plain name (``../x``, ``a/b``), so no caller ever opens a
        path outside the root.
        """
        if not PLAIN_NAME_RE.fullmatch(run_id):
            raise UnknownRunError(run_id, str(self.root))
        return self.root / run_id

    def ledger_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / LEDGER_FILENAME

    def manifest_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / MANIFEST_FILENAME

    def spans_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / SPANS_FILENAME

    def heartbeat_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / HEARTBEAT_FILENAME

    def history_path(self) -> Path:
        """The registry-wide cross-run metric time series."""
        return self.root / HISTORY_FILENAME

    # ------------------------------------------------------------------
    # Sharded run layout (``repro.dist``)
    # ------------------------------------------------------------------
    def shard_plan_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / SHARD_PLAN_FILENAME

    def shards_dir(self, run_id: str) -> Path:
        return self.run_dir(run_id) / SHARDS_DIRNAME

    def shard_dir(self, run_id: str, shard: int) -> Path:
        return self.shards_dir(run_id) / f"shard-{shard:02d}"

    def shard_ledger_path(self, run_id: str, shard: int) -> Path:
        return self.shard_dir(run_id, shard) / LEDGER_FILENAME

    def shard_spans_path(self, run_id: str, shard: int) -> Path:
        return self.shard_dir(run_id, shard) / SPANS_FILENAME

    def shard_heartbeat_path(self, run_id: str, shard: int) -> Path:
        return self.shard_dir(run_id, shard) / HEARTBEAT_FILENAME

    def shard_cache_path(self, run_id: str, shard: int) -> Path:
        return self.shard_dir(run_id, shard) / "cache.json"

    def shard_count(self, run_id: str) -> int:
        """Planned shard fan-out (0 = unsharded; corrupt plan = 0).

        Cheap existence-plus-header probe for listings — use
        :func:`repro.dist.planner.load_shard_plan` when the full plan
        (with strict corruption errors) is needed.
        """
        path = self.shard_plan_path(run_id)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return max(0, int(payload["shards"]))
        except (OSError, ValueError, KeyError, TypeError):
            return 0

    # ------------------------------------------------------------------
    def create(self, request: RunRequest, cells: int) -> str:
        """Allocate a run directory and persist its manifest.

        The run id is ``<request fingerprint[:12]>-<seq>``; the seq
        suffix is claimed with an exclusive ``mkdir`` so two
        concurrent creators of the same request get distinct runs.
        """
        prefix = request.fingerprint()[:12]
        self.root.mkdir(parents=True, exist_ok=True)
        for seq in range(1, 10_000):
            run_id = f"{prefix}-{seq:02d}"
            try:
                self.run_dir(run_id).mkdir(parents=True,
                                           exist_ok=False)
            except FileExistsError:
                continue
            self._write_manifest(run_id, request, cells)
            return run_id
        raise RunError(  # pragma: no cover - 10k reruns of one sweep
            f"run id space exhausted for fingerprint {prefix}")

    def _write_manifest(self, run_id: str, request: RunRequest,
                        cells: int) -> None:
        payload = {
            "format_version": LEDGER_SCHEMA_VERSION,
            "run_id": run_id,
            "fingerprint": request.fingerprint(),
            "created_at": time.time(),
            "cells": cells,
            "request": request.to_dict(),
        }
        replace_text(self.manifest_path(run_id),
                     json.dumps(payload, indent=1))

    # ------------------------------------------------------------------
    def manifest(self, run_id: str) -> dict:
        """The run's manifest document.

        Reads without a prior existence probe: a run directory swept
        away between the probe and the read (``runs gc`` racing a
        lister) must surface as :class:`UnknownRunError`, never as an
        unhandled ``FileNotFoundError``.  A manifest that cannot be
        read or decoded, or is no object with a ``request`` object and
        finite numbers as ``cells`` and ``created_at`` when present,
        raises :class:`ManifestCorruptError`.
        """
        path = self.manifest_path(run_id)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise UnknownRunError(run_id, str(self.root)) from None
        except OSError as exc:
            raise ManifestCorruptError(
                f"unreadable manifest for run {run_id!r}: "
                f"{exc}") from exc
        try:
            manifest = json.loads(text)
        except ValueError as exc:
            raise ManifestCorruptError(
                f"corrupt manifest for run {run_id!r}: {exc}") from exc
        if not (isinstance(manifest, dict)
                and isinstance(manifest.get("request"), dict)
                and all(type(manifest.get(key, 0)) in (int, float)
                        and math.isfinite(manifest.get(key, 0))
                        for key in ("cells", "created_at"))):
            raise ManifestCorruptError(
                f"corrupt manifest for run {run_id!r}: no run manifest")
        return manifest

    def request(self, run_id: str) -> RunRequest:
        return RunRequest.from_dict(self.manifest(run_id)["request"])

    def state(self, run_id: str) -> RunState:
        """The run's replayed ledger (empty state if never started).

        Served from :attr:`state_cache` while the ledger file is
        unchanged, so the state may be shared with other callers and
        must not be mutated.
        """
        if not self.manifest_path(run_id).exists():
            raise UnknownRunError(run_id, str(self.root))
        return self.ledger_version(run_id).state

    def ledger_version(self, run_id: str) -> LedgerVersion:
        """The run's current ledger version as :attr:`state_cache` holds
        it; one with no ledger and an empty state if never started."""
        path = self.ledger_path(run_id)
        try:
            return self.state_cache.entry(path, fold_run_ledger)
        except FileNotFoundError:
            # Never started, or the run vanished mid-read (gc race);
            # either way the ledger says nothing about the run.
            return LedgerVersion(path, None, RunState(run_id=run_id))

    def view(self, run_id: str, key: Hashable,
             build: Callable[[RunState, list], tuple[object, bool]],
             size: Callable[[object], int] = len) -> object:
        """``build(state, files)``'s view of the run's current ledger
        version, kept with that version while it may be.

        ``build`` returns the view and whether it may be kept: only a
        view that reads no heartbeat, pid or clock, which a sealed run
        (:attr:`RunState.sealed`) vouches for.  The one exception is
        the hub's final snapshot of a settled run, whose ages read the
        clock: the first one kept is what every later viewer of that
        version gets.  ``build`` notes through :func:`watch` each file
        besides the ledger and the manifest that it reads.  A kept
        view is reused only while the ledger, the manifest and each of
        those files still have the versions they had before the build.
        The ledger's entry is keyed by its path, never the bare run id,
        so two tenants holding one run id never share a view.  ``size``
        gives a view's bytes, counted against
        :data:`STATE_CACHE_BYTES`.
        """
        files: list[tuple[Path, FileVersion | None]] = []
        watch(files, self.manifest_path(run_id))
        if files[0][1] is None:
            raise UnknownRunError(run_id, str(self.root))
        entry = self.ledger_version(run_id)
        view = self.state_cache.recall(entry, key)
        if view is None:
            view, keep = build(entry.state, files)
            if keep:
                self.state_cache.remember(entry, key, tuple(files), view,
                                          size(view))
        return view

    def kept(self, run_id: str, key: Hashable) -> object:
        """The view :meth:`view` kept under ``key`` if the run's current
        ledger version is cached, else None; never folds."""
        entry = self.state_cache.current(self.ledger_path(run_id))
        return None if entry is None else self.state_cache.recall(entry,
                                                                   key)

    # ------------------------------------------------------------------
    def list_ids(self) -> list[str]:
        try:
            return sorted(
                entry.name for entry in self.root.iterdir()
                if entry.is_dir() and PLAIN_NAME_RE.fullmatch(entry.name)
                and (entry / MANIFEST_FILENAME).exists())
        except FileNotFoundError:
            return []

    def orphan_dirs(self) -> list[Path]:
        """Run directories without a manifest (crashed mid-create).

        These are invisible to :meth:`list_ids` — a ``create`` that
        died between its exclusive ``mkdir`` and the manifest write
        leaves one behind — and are what ``repro runs gc`` prunes.
        The tenants directory of a served root is not one.
        """
        try:
            return sorted(
                entry for entry in self.root.iterdir()
                if entry.is_dir() and entry.name != TENANTS_DIRNAME
                and not (entry / MANIFEST_FILENAME).exists())
        except FileNotFoundError:
            return []

    def list_runs(self) -> list[RunSummary]:
        """Summaries for every run, oldest first.

        The scan is a *consistent snapshot* under concurrent writers:
        a run directory that disappears between enumeration and
        decode (``runs gc``, a worker shuffling shard dirs) is simply
        skipped, while one that cannot be decoded (corrupt manifest
        or ledger — e.g. a creator crashed mid-write, or the disk
        lied) is *flagged* as an ``invalid`` row.  Neither case may
        poison the whole listing with an exception.
        """
        summaries = []
        for run_id in self.list_ids():
            try:
                summaries.append(self.summary(run_id))
            except UnknownRunError:
                continue                 # vanished mid-scan
            except RunError:
                summaries.append(RunSummary(
                    run_id=run_id, dataset="?", models=0, taxonomies=0,
                    settings="", sample_size=None, per_level=False,
                    cells_total=0, cells_done=0, questions=0,
                    finished=False, created_at=0.0, status="invalid"))
        return sorted(summaries,
                      key=lambda s: (s.created_at, s.run_id))

    def progress_ts(self, run_id: str) -> float | None:
        """Last time the run's ledger or span log visibly advanced."""
        return last_advanced(self.ledger_path(run_id),
                             self.spans_path(run_id))

    def status(self, run_id: str, state: RunState | None = None,
               stall_deadline_s: float = DEFAULT_STALL_DEADLINE_S
               ) -> str:
        """Live status of one run (:func:`attempt_status` of ``state``,
        its replayed ledger, read from the registry if not given).

        For a sharded run that has not been merged yet, the top-level
        ledger and heartbeat do not exist — the truth lives in the K
        shard directories, so status aggregation is delegated to
        ``repro.dist.status``.
        """
        if state is None:
            state = self.state(run_id)
        if not state.finished and self.shard_count(run_id) > 0:
            # Call-time: repro.dist.status imports this module.
            from repro.dist.status import sharded_run_status
            return sharded_run_status(
                run_id, registry=self,
                stall_deadline_s=stall_deadline_s)
        return attempt_status(
            state.finished, state.pid, self.heartbeat_path(run_id),
            self.ledger_path(run_id), self.spans_path(run_id),
            stall_deadline_s=stall_deadline_s)

    def summary(self, run_id: str) -> RunSummary:
        """The run's listing row; a sealed run's is kept with its
        ledger version (:meth:`view`)."""
        return self.view(run_id, "summary", partial(self._summary, run_id),
                         size=sys.getsizeof)

    def _summary(self, run_id: str, state: RunState,
                 files: list) -> tuple[RunSummary, bool]:
        watch(files, self.shard_plan_path(run_id))
        manifest = self.manifest(run_id)
        request = RunRequest.from_dict(manifest["request"])
        # A budget stop is a deliberate pause, not a crash: the
        # attempt's process is gone but the ledger says why.
        if state.budget_stopped:
            status = "budget-stopped"
        else:
            status = self.status(run_id, state)
        return RunSummary(
            run_id=run_id,
            dataset=request.dataset,
            models=len(request.models),
            taxonomies=len(request.taxonomy_keys),
            settings=",".join(request.settings),
            sample_size=request.sample_size,
            per_level=request.per_level,
            cells_total=int(manifest.get("cells", 0)),
            cells_done=state.completed_cells,
            questions=state.recorded_questions,
            finished=state.finished,
            created_at=float(manifest.get("created_at", 0.0)),
            status=status,
            shards=self.shard_count(run_id),
            cost_nanos=int((state.stats or {}).get("cost_nanos", 0)),
        ), state.sealed
