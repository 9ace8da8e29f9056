"""Crash-safe resume: finish an interrupted run without repeating work.

``resume_run`` replays the run's ledger, then walks the request's cell
plan in the same deterministic order the original execution used:

* a cell with a ``cell-finished`` event is decoded straight from the
  ledger — zero model calls;
* a cell with records but no seal (the crash point) is *re-entered at
  the exact question indices that are missing*: the engine may have
  completed indices out of order before dying, so the holes are an
  arbitrary subset, and only they are re-asked;
* a cell the first attempt never reached runs in full.

Because pools, prompts and the simulated backends are pure functions
of the request, the merged records — part decoded, part freshly asked
— are bit-identical to an uninterrupted run's, at any worker count.
The resumed attempt appends to the *same* ledger (a ``run-started``
event with an incremented attempt count marks the seam), so the file
remains the complete, append-only history of the run.  The cell loop
is :func:`repro.runs.driver.run_attempt`, the one ``execute_run`` runs
over an empty state.
"""

from __future__ import annotations

from repro.engine.scheduler import EvaluationEngine
from repro.obs.tracer import NullTracer, Tracer
from repro.runs.driver import (ModelResolver, RunResult,
                               build_request_pools, plan_cells,
                               run_attempt)
from repro.runs.registry import RunRegistry
from repro.runs.session import RunSession


def resume_run(run_id: str,
               registry: RunRegistry | None = None,
               engine: EvaluationEngine | None = None,
               resolve_model: ModelResolver | None = None,
               keep_records: bool = True,
               durability: str = "cell",
               tracer: "Tracer | NullTracer | None" = None,
               trace: bool = True) -> RunResult:
    """Complete ``run_id``, reusing every record already on disk.

    Resuming an already finished run degenerates to a pure ledger
    load (zero model calls), so the call is idempotent.  A run halted
    by a spend ceiling (``budget-exhausted`` in the ledger) resumes
    through the exact same paths — and deliberately *without*
    re-applying the ceiling, so the completed result is bit-identical
    to an unbudgeted run.  The resumed
    attempt's spans append to the run's existing ``spans.jsonl`` (its
    ``run`` span carries ``resumed``/``attempt`` attributes), exactly
    as its ledger events append to the existing ledger.
    """
    registry = registry if registry is not None else RunRegistry()
    request = registry.request(run_id)
    state = registry.state(run_id)
    pools = build_request_pools(request)
    session = RunSession(request, registry.run_dir(run_id),
                         engine=engine, tracer=tracer, trace=trace,
                         durability=durability,
                         keep_records=keep_records)
    return run_attempt(session, registry, run_id, pools,
                       plan_cells(request, pools), state,
                       resolve_model, resumed=True)
