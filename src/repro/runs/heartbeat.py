"""Run heartbeats: a liveness marker next to each run's ledger.

The ledger records *progress*; it cannot distinguish "the process is
between cells" from "the process is gone".  So each attempt's bracket
event (``run-started``, ``shard-started``) carries its process's pid,
and the attempt keeps the mtime of a ``heartbeat.json`` marker fresh:
created once, then one ``os.utime`` per beat from a daemon thread, so
no beat writes bytes or frees blocks.  :func:`attempt_status` folds
the signals into one status:

* a ``run-finished`` event -> ``finished``, before any file is read;
* no pid, or a dead one -> ``crashed``;
* a live pid, but neither the marker nor the logs advancing within
  the stall deadline -> ``stalled``;
* otherwise -> ``running``.

An attempt whose bracket event has no pid predates them; its pid is
read from the JSON document its heartbeat then was
(:func:`read_heartbeat`), so older runs read as they always did.

``repro runs list`` derives its status column this way; the live
follower (`repro watch`) uses the same freshness signals but skips
the pid check — a watcher may be on a different host than the run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.obs.jsonl import last_advanced

#: File name of the liveness marker inside a run directory.
HEARTBEAT_FILENAME = "heartbeat.json"

#: Seconds between heartbeat beats.
DEFAULT_INTERVAL_S = 1.0

#: How long ledger + heartbeat may both sit still before a run is
#: considered stalled (readers can override per call).
DEFAULT_STALL_DEADLINE_S = 30.0


class HeartbeatWriter:
    """Keeps a run's heartbeat marker fresh from a daemon thread.

    The constructor creates the marker when it is missing (never
    truncating one that exists; a new one gets the mode the umask
    gives an appended log) and beats once synchronously, so a watcher
    never observes a started attempt without a fresh marker; after
    that a daemon thread beats every ``interval_s``.  ``close()``
    stops the thread and leaves the marker behind (its staleness is
    the crash/stall signal).
    """

    def __init__(self, path: str | Path,
                 interval_s: float = DEFAULT_INTERVAL_S):
        self.path = Path(path)
        self.interval_s = interval_s
        self.path.parent.mkdir(parents=True, exist_ok=True)
        os.close(os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666))
        self._stop = threading.Event()
        self.beat()
        self._thread = threading.Thread(
            target=self._loop, name="repro-heartbeat", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.beat()
            except OSError:  # pragma: no cover - disk gone mid-run
                return

    def beat(self) -> None:
        """Set the marker's mtime to now."""
        os.utime(self.path)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "HeartbeatWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_heartbeat(path: str | Path) -> dict | None:
    """The JSON heartbeat document of an attempt written before
    bracket events carried a pid, or ``None`` when absent/unreadable.

    An unreadable file is treated as absent: the heartbeat is a
    liveness hint, never load-bearing state.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "ts" not in payload:
        return None
    return payload


def pid_alive(pid: object) -> bool:
    """True when ``pid`` names a live process on this host."""
    try:
        pid = int(pid)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - platform oddities
        return False
    return True


def run_status(finished: bool, pid: object, freshest: float | None,
               now: float | None = None,
               stall_deadline_s: float = DEFAULT_STALL_DEADLINE_S
               ) -> str:
    """Fold the liveness signals into one registry status.

    ``pid`` is the latest attempt's (``None`` when unknown);
    ``freshest`` is the last time its heartbeat marker or logs
    visibly advanced (their newest mtime), ``None`` when none exists.
    """
    if finished:
        return "finished"
    if not pid_alive(pid):
        return "crashed"
    now = time.time() if now is None else now
    if now - (freshest or 0.0) > stall_deadline_s:
        return "stalled"
    return "running"


def attempt_status(finished: bool, pid: object, heartbeat: str | Path,
                   *logs: str | Path,
                   stall_deadline_s: float = DEFAULT_STALL_DEADLINE_S
                   ) -> str:
    """:func:`run_status` of a run's or shard's latest attempt, which
    beats on ``heartbeat`` and writes ``logs``.

    ``finished`` and ``pid`` come from the folded ledger; a finished
    attempt reads no file.  An attempt whose bracket event has no pid
    (``None``) takes the one in its heartbeat document.
    """
    if finished:
        return "finished"
    if pid is None:
        pid = (read_heartbeat(heartbeat) or {}).get("pid")
    return run_status(False, pid, last_advanced(heartbeat, *logs),
                      stall_deadline_s=stall_deadline_s)
