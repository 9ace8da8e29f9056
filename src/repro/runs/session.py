"""One attempt's execution resources, set up and torn down as a unit.

``execute_run``, ``resume_run`` and :func:`repro.dist.worker.run_shard`
each run one *attempt* against a run (or shard) directory.  An attempt
needs the same handful of resources every time — an engine, the
attempt's own :class:`Telemetry`, a tracer whose finished spans stream
to ``spans.jsonl``, a heartbeat, a ledger and the
:class:`EvaluationRunner` that writes into it — and must release them
in reverse order however it ends.  :class:`RunSession` owns exactly
that, so the three entry points differ only in the events and cells
they drive through it.

:func:`engine_for` is the one place that builds the engine a request's
shape asks for; every request runs through one, the paper-shaped
``workers=1`` sweep included.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path

from repro.core.runner import EvaluationRunner
from repro.engine.cache import ResponseCache
from repro.engine.config import EngineConfig, RetryPolicy
from repro.engine.scheduler import EvaluationEngine
from repro.engine.telemetry import EngineStats, Telemetry
from repro.obs.export import JsonlSpanSink, last_span_id
from repro.obs.tracer import Tracer
from repro.runs.heartbeat import HEARTBEAT_FILENAME, HeartbeatWriter
from repro.runs.ledger import LEDGER_FILENAME, RunLedger
from repro.runs.registry import SPANS_FILENAME
from repro.runs.request import RunRequest


def engine_for(request: RunRequest,
               cache: ResponseCache | None = None) -> EvaluationEngine:
    """The engine a request's shape asks for.

    Every shape retries with the request's policy.  Fan-out, batching
    and coalescing also carry a response cache (a fresh in-memory one
    unless ``cache`` is given), so the same request builds the same
    middleware stack inline or on a shard.  The plain one-worker
    shape — the paper's — carries a cache only when ``cache`` is
    given, and asks its questions in order on the calling thread.
    """
    plain = (request.workers <= 1 and request.batch_size <= 1
             and not request.coalesce)
    config = EngineConfig(
        max_workers=request.workers,
        retry=RetryPolicy(retries=max(0, request.retries)),
        cache=not plain,
        batch_size=request.batch_size,
        coalesce=request.coalesce)
    return EvaluationEngine(config, cache=cache)


class RunSession:
    """Engine, tracer, span sink, heartbeat, ledger and runner of one
    attempt against ``directory`` (a run or shard directory).

    ``engine`` defaults to :func:`engine_for` the request.  An engine
    books into the session's :attr:`telemetry` for the session's
    lifetime, so :meth:`stats` are this attempt's own however many
    runs a caller's engine has served; on exit it gets its own tracer
    and telemetry back, with the attempt's counts added to the latter.
    ``tracer`` defaults to a fresh :class:`Tracer` (a shard passes one
    that starts in its own id range).  A tracer without a sink gets a
    ``spans.jsonl`` appender for the session's lifetime, and hands out
    only ids above the largest one already in that log; its list then
    keeps none of the attempt's spans.
    """

    def __init__(self, request: RunRequest, directory: str | Path,
                 engine: EvaluationEngine | None = None,
                 tracer: Tracer | None = None,
                 keep_records: bool = True,
                 ledger_type: type[RunLedger] = RunLedger):
        self.request = request
        self.directory = Path(directory)
        self.engine = (engine if engine is not None
                       else engine_for(request))
        self.tracer = tracer if tracer is not None else Tracer()
        #: This attempt's counters.
        self.telemetry = Telemetry()
        self.keep_records = keep_records
        self._ledger_type = ledger_type

    def __enter__(self) -> "RunSession":
        with ExitStack() as stack:
            engine = self.engine
            stack.callback(self._settle, engine, engine.telemetry)
            engine.telemetry = self.telemetry
            if not engine.tracer.enabled:
                stack.callback(setattr, engine, "tracer", engine.tracer)
                engine.tracer = self.tracer
            if self.tracer.sink is None:
                spans_path = self.directory / SPANS_FILENAME
                # A resumed attempt appends to its predecessors' log:
                # keep every id in it distinct.
                self.tracer.skip_past(last_span_id(spans_path))
                self.tracer.sink = stack.enter_context(
                    JsonlSpanSink(spans_path))
                stack.callback(setattr, self.tracer, "sink", None)
            stack.enter_context(
                HeartbeatWriter(self.directory / HEARTBEAT_FILENAME))
            self.ledger = stack.enter_context(
                self._ledger_type(self.directory / LEDGER_FILENAME))
            self.runner = EvaluationRunner(
                variant=self.request.variant,
                keep_records=self.keep_records, engine=engine,
                ledger=self.ledger, tracer=self.tracer,
                trail=self.request.trail)
            self._teardown = stack.pop_all()
        return self

    def __exit__(self, *exc_info) -> None:
        self._teardown.close()

    def _settle(self, engine: EvaluationEngine,
                own: Telemetry) -> None:
        """Hand ``engine`` its own telemetry back, with this attempt's
        counts added."""
        engine.telemetry = own
        own.absorb(self.telemetry)

    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """This attempt's live stats."""
        return self.telemetry.snapshot()
