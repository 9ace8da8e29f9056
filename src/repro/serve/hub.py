"""Follower fan-out: one ledger tail per run, N live subscribers.

A naive server would give every SSE client its own
:class:`repro.obs.LedgerFollower` — N clients on one run means N
full tails of the same ledger, and the producing run pays the read
pressure N times.  The :class:`FollowerHub` collapses that to one:
per (tenant, run) it owns a single follower polled by one broadcast
thread, and every poll's snapshot dict is fanned out to each
subscriber's queue.  Because all subscribers receive the *same*
payload object, the bytes they stream are bit-identical — which is
what lets the acceptance test require every client's final snapshot
to agree exactly.

Flow-control contract: subscriber queues are bounded and drop their
*oldest* pending snapshot when full, so one slow client can neither
stall the broadcaster nor starve its peers; the final (``finished``
or ``budget-stopped``) snapshot is always delivered because it is the
last thing enqueued before the end-of-stream sentinel.  A broadcast
with no subscribers left shuts itself down after a grace period, and
a settled run's final snapshot is kept with its ledger version
(:meth:`repro.runs.registry.RunRegistry.view`, so any write to the
ledger or the span log retires it) to serve late subscribers without
following the run again.
"""

from __future__ import annotations

import logging
import queue
import sys
import threading
import time

from repro.errors import ReproError
from repro.obs.alerts import AlertEvaluator
from repro.obs.live import LedgerFollower
from repro.runs.registry import RunRegistry

_log = logging.getLogger("repro.serve.hub")

#: Queue slots per subscriber before drop-oldest kicks in.
SUBSCRIBER_QUEUE_SLOTS = 64

#: The view key a settled run's final snapshot is kept under.
FINAL_VIEW = "final"

#: An end-of-stream marker (follows the final snapshot).
_DONE = "done"
_SNAPSHOT = "snapshot"
_ERROR = "error"
_ALERT = "alert"


class Subscription:
    """One client's view of a broadcast: a bounded event queue.

    Iterate :meth:`events` until the stream ends; call :meth:`close`
    (idempotent) when the client disconnects so the broadcaster stops
    paying for it.
    """

    def __init__(self, on_close=None):
        self._queue: queue.Queue = queue.Queue(
            maxsize=SUBSCRIBER_QUEUE_SLOTS)
        self._on_close = on_close
        self._closed = False

    # -- producer side -------------------------------------------------
    def publish(self, kind: str, payload: dict | None) -> None:
        """Enqueue without ever blocking: full queues drop oldest."""
        while True:
            try:
                self._queue.put_nowait((kind, payload))
                return
            except queue.Full:
                try:
                    self._queue.get_nowait()
                except queue.Empty:  # pragma: no cover - tiny race
                    pass

    def end(self, payload: dict | None = None) -> None:
        self.publish(_DONE, payload or {})

    # -- consumer side -------------------------------------------------
    def events(self, timeout_s: float = 10.0):
        """Yield ``(kind, payload)`` pairs, ending after ``done``.

        A quiet period longer than ``timeout_s`` yields a ``("ping",
        None)`` keep-alive so SSE writers can detect dead sockets.
        """
        while True:
            try:
                kind, payload = self._queue.get(timeout=timeout_s)
            except queue.Empty:
                yield "ping", None
                continue
            yield kind, payload
            if kind == _DONE:
                return

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._on_close is not None:
            self._on_close(self)


class _Broadcast:
    """One follower + one poll thread, fanned out to subscribers."""

    def __init__(self, hub: "FollowerHub", key: tuple[str, str],
                 run_id: str, registry: RunRegistry,
                 interval_s: float, idle_grace_s: float):
        self.hub = hub
        self.key = key
        self.run_id = run_id
        self.registry = registry
        self.interval_s = interval_s
        self.idle_grace_s = idle_grace_s
        self.follower = LedgerFollower(run_id, registry=registry)
        #: One evaluator per broadcast: every subscriber sees the
        #: same firing/resolved transitions, exactly once each.
        self.alerts = AlertEvaluator()
        self._subscribers: list[Subscription] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._ended = False
        self._last: dict | None = None
        self._idle_since: float | None = None
        self.polls = 0
        self._thread = threading.Thread(
            target=self._loop, name=f"follow-{run_id}", daemon=True)

    def start(self) -> None:
        self._thread.start()

    # ------------------------------------------------------------------
    def add(self, subscription: Subscription) -> bool:
        """Attach; ``False`` when the broadcast already ended.

        The latest snapshot (if any) is replayed to the newcomer
        under the publish lock, so a subscriber attaching between
        the final publish and the end-of-stream still receives the
        final snapshot — and a mid-run subscriber gets an instant
        first frame instead of waiting out the poll interval.
        """
        with self._lock:
            if self._ended:
                return False
            if self._last is not None:
                subscription.publish(_SNAPSHOT, self._last)
            self._subscribers.append(subscription)
            self._idle_since = None
            return True

    def remove(self, subscription: Subscription) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                return
            if not self._subscribers:
                self._idle_since = time.monotonic()

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    # ------------------------------------------------------------------
    def _publish(self, kind: str, payload: dict | None) -> None:
        with self._lock:
            if kind == _SNAPSHOT:
                self._last = payload
            targets = list(self._subscribers)
        for subscription in targets:
            subscription.publish(kind, payload)

    def _end(self, drain: bool) -> None:
        with self._lock:
            self._ended = True
            targets = list(self._subscribers) if drain else []
            self._subscribers.clear()
        # Unregistered first: a client that has seen the end finds no
        # ended broadcast to attach to.
        self.hub._broadcast_done(self)
        for subscription in targets:
            subscription.end({"run_id": self.run_id})

    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                snapshot = self.follower.poll()
                payload = snapshot.to_dict()
                payload["ts"] = time.time()
                self.polls += 1
                self._publish(_SNAPSHOT, payload)
                for event in self.alerts.observe(snapshot):
                    self._publish(_ALERT, {"run_id": self.run_id,
                                           **event.to_dict()})
                if snapshot.settled:
                    self._keep(payload)
                    break
                with self._lock:
                    idle = (self._idle_since is not None
                            and time.monotonic() - self._idle_since
                            > self.idle_grace_s)
                if idle:
                    break
                self._stop.wait(self.interval_s)
        except Exception as exc:    # a damaged run file, or a bug
            _log.warning("broadcast-error run=%s error=%r", self.run_id,
                         exc, exc_info=not isinstance(exc, ReproError))
            self._publish(_ERROR, {"run_id": self.run_id,
                                   "message": str(exc)})
        self._end(drain=True)

    def _keep(self, final: dict) -> None:
        """Keep the final snapshot, already sent, with the ledger and
        span log versions it was read from, for late subscribers."""
        if not self.registry.state_cache.fits(self.follower.ledger.offset):
            return      # a replay would keep nothing
        read = [(version.path, version.version)
                for version in (self.follower.ledger, self.follower.spans)]

        def build(state, files: list) -> tuple[dict, bool]:
            files += read
            return final, state.sealed

        self.registry.view(self.run_id, FINAL_VIEW, build,
                           size=sys.getsizeof)

    def stop(self) -> None:
        self._stop.set()


class FollowerHub:
    """Shared live-streaming state of one server process."""

    def __init__(self, interval_s: float = 0.25,
                 idle_grace_s: float = 5.0):
        self.interval_s = interval_s
        self.idle_grace_s = idle_grace_s
        self._lock = threading.Lock()
        self._broadcasts: dict[tuple[str, str], _Broadcast] = {}
        self._closed = False

    def _broadcast_done(self, broadcast: _Broadcast) -> None:
        with self._lock:
            if self._broadcasts.get(broadcast.key) is broadcast:
                del self._broadcasts[broadcast.key]

    # ------------------------------------------------------------------
    def subscribe(self, tenant: str, run_id: str,
                  registry: RunRegistry) -> Subscription:
        """A live event stream over ``run_id`` in ``tenant``.

        A settled run whose final snapshot is kept with its current
        ledger version gets that snapshot and the end of the stream,
        looked up without a fold; any other run gets the one broadcast
        that follows it.  Raises :class:`repro.errors.UnknownRunError`
        for a bad id (the follower validates the manifest up front).
        """
        key = (tenant, run_id)
        while True:
            with self._lock:
                if self._closed:
                    raise ReproError("server is shutting down")
                final = registry.kept(run_id, FINAL_VIEW)
                broadcast = self._broadcasts.get(key)
                if final is None and broadcast is None:
                    broadcast = _Broadcast(
                        self, key, run_id, registry,
                        interval_s=self.interval_s,
                        idle_grace_s=self.idle_grace_s)
                    self._broadcasts[key] = broadcast
                    # Attached before its thread runs, so a settled run
                    # whose final is not kept cannot end it unseen.
                    subscription = Subscription(on_close=broadcast.remove)
                    broadcast.add(subscription)
                    broadcast.start()
                    return subscription
            if final is not None:
                subscription = Subscription()
                subscription.publish(_SNAPSHOT, final)
                subscription.end({"run_id": run_id})
                return subscription
            subscription = Subscription(on_close=broadcast.remove)
            if broadcast.add(subscription):
                return subscription
            # Broadcast ended between lookup and attach: retry (the
            # final is now kept, or a fresh broadcast spins up).

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        with self._lock:
            broadcasts = list(self._broadcasts.values())
        return {
            "broadcasts": len(broadcasts),
            "subscribers": sum(b.subscriber_count
                               for b in broadcasts),
        }

    def close(self) -> None:
        """Stop every broadcast and release every subscriber."""
        with self._lock:
            self._closed = True
            broadcasts = list(self._broadcasts.values())
        for broadcast in broadcasts:
            broadcast.stop()
        for broadcast in broadcasts:
            broadcast._thread.join(timeout=5.0)
            broadcast._end(drain=True)
