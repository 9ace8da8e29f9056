"""Run heartbeats: a liveness marker next to each run's ledger.

The ledger records *progress*; it cannot distinguish "the process is
between cells" from "the process is gone".  The heartbeat closes that
gap: ``execute_run``/``resume_run`` keep a small ``heartbeat.json``
fresh for the duration of the run (an atomically replaced document
with the writer's pid and a monotonic-enough wall timestamp, rewritten
every interval by a daemon thread), and readers combine three signals
into one status:

* a ``run-finished`` event in the ledger  -> ``finished``;
* no heartbeat, or a heartbeat whose pid is no longer alive
  -> ``crashed``;
* a live pid but neither the heartbeat nor the ledger advancing
  within the stall deadline -> ``stalled``;
* otherwise -> ``running``.

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

from repro.obs.jsonl import replace_text

#: File name of the liveness marker inside a run directory.
HEARTBEAT_FILENAME = "heartbeat.json"

#: Seconds between heartbeat rewrites.
DEFAULT_INTERVAL_S = 1.0

#: How long ledger + heartbeat may both sit still before a run is
#: considered stalled (readers can override per call).
DEFAULT_STALL_DEADLINE_S = 30.0

#: The four states ``repro runs list`` reports.
RUN_STATUSES = ("running", "stalled", "finished", "crashed")


class HeartbeatWriter:
    """Keeps a run's ``heartbeat.json`` fresh from a daemon thread.

    The first beat is written synchronously in the constructor so a
    watcher never observes a started run without a heartbeat; after
    that a daemon thread rewrites the file every ``interval_s``.
    ``close()`` stops the thread and leaves the last document behind
    (its staleness is the crash/stall signal).
    """

    def __init__(self, path: str | Path,
                 interval_s: float = DEFAULT_INTERVAL_S,
                 clock=time.time):
        self.path = Path(path)
        self.interval_s = interval_s
        self._clock = clock
        self._started_ts = clock()
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
        """Atomically rewrite the heartbeat document."""
        payload = {
            "pid": os.getpid(),
            "ts": self._clock(),
            "started_ts": self._started_ts,
            "interval_s": self.interval_s,
        }
        replace_text(self.path, json.dumps(payload))

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "HeartbeatWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_heartbeat(path: str | Path) -> dict | None:
    """The heartbeat document, or ``None`` when absent/unreadable.

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


def run_status(finished: bool, heartbeat: dict | None,
               progress_ts: float | None, now: float | None = None,
               stall_deadline_s: float = DEFAULT_STALL_DEADLINE_S
               ) -> str:
    """Fold the three liveness signals into one registry status.

    ``progress_ts`` is the last time the run's ledger (or span log)
    visibly advanced — typically the file mtime; ``None`` when the
    run never wrote an event.
    """
    if finished:
        return "finished"
    if heartbeat is None or not pid_alive(heartbeat.get("pid")):
        return "crashed"
    now = time.time() if now is None else now
    freshest = max(float(heartbeat["ts"]),
                   progress_ts if progress_ts is not None else 0.0)
    if now - freshest > stall_deadline_s:
        return "stalled"
    return "running"
