"""Evaluating, executing, loading and resuming runs of a request.

A :class:`RunRequest` is the plan of a sweep: :func:`plan_cells` lists
its cells (one per model x pool x setting, in a deterministic order).
:func:`evaluate_request` scores them in memory and keeps nothing else;
:func:`execute_run` scores the same cells through an
:class:`repro.core.runner.EvaluationRunner` whose ledger sink streams
each scored question to disk as it completes, so the two give the same
cells and metrics.  ``load_run`` is the inverse of ``execute_run`` — it
rebuilds every completed cell's :class:`PoolResult` from the ledger
alone, with zero model calls, which is what makes a finished sweep
free to re-report and cheap to diff.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.results import PoolResult
from repro.core.runner import EvaluationRunner
from repro.engine.scheduler import EvaluationEngine
from repro.engine.telemetry import EngineStats
from repro.errors import RunError
from repro.llm.base import ChatModel
from repro.llm.prompting import PromptSetting
from repro.llm.registry import get_model
from repro.core.metrics import Metrics
from repro.obs.cost import BudgetGuard, BudgetStop
from repro.obs.history import append_entry, entry_from_result
from repro.questions.model import DatasetKind, level_label
from repro.questions.pools import QuestionPool, build_pools
from repro.runs.ledger import CellState, RunState
from repro.runs.registry import RunRegistry
from repro.runs.request import RunRequest
from repro.runs.session import RunSession, engine_for

#: ``level N-M`` / ``level N-root`` scope suffix of per-level pools.
_LEVEL_SCOPE = re.compile(r"^level (\d+)-")

ModelResolver = Callable[[str], ChatModel]


@dataclass(frozen=True, slots=True)
class CellKey:
    """Identity of one sweep cell: model x pool x setting."""

    model: str
    taxonomy_key: str
    dataset: str
    setting: str
    level: int | None = None

    @property
    def scope(self) -> str:
        return "total" if self.level is None else level_label(self.level)

    @property
    def pool_label(self) -> str:
        return f"{self.taxonomy_key}/{self.dataset}/{self.scope}"

    @property
    def cell_id(self) -> str:
        """The ledger's cell identifier (model|pool label|setting)."""
        return f"{self.model}|{self.pool_label}|{self.setting}"

    @classmethod
    def parse(cls, cell_id: str) -> "CellKey | None":
        """Inverse of :attr:`cell_id`; ``None`` for ad-hoc labels."""
        parts = cell_id.split("|")
        if len(parts) != 3:
            return None
        model, label, setting = parts
        label_parts = label.split("/")
        if len(label_parts) != 3:
            return None
        taxonomy_key, dataset, scope = label_parts
        if scope == "total":
            level = None
        else:
            match = _LEVEL_SCOPE.match(scope)
            if match is None:
                return None
            level = int(match.group(1))
        return cls(model=model, taxonomy_key=taxonomy_key,
                   dataset=dataset, setting=setting, level=level)


@dataclass
class RunResult:
    """Outcome of one evaluated, executed, resumed or loaded run."""

    #: The ledgered run's id; None for a request evaluated in memory.
    run_id: str | None
    request: RunRequest
    cells: dict[CellKey, PoolResult]
    stats: EngineStats | None = None
    #: Questions actually sent to a model by this invocation.
    evaluated: int = 0
    #: Questions served from the ledger by this invocation.
    replayed: int = 0
    #: Cells this invocation re-entered partway (resume only).
    resumed_cells: tuple[str, ...] = field(default=())
    #: Budget-stop payload when a spend ceiling halted the run early
    #: (see :class:`repro.obs.cost.BudgetStop`); ``None`` = ran to
    #: completion.
    budget: dict | None = None

    def matrix(self, setting: str | None = None
               ) -> dict[tuple[str, str], Metrics]:
        """(model, taxonomy) -> metrics over level-combined cells."""
        wanted = setting or self.request.settings[0]
        return {(key.model, key.taxonomy_key): result.metrics
                for key, result in self.cells.items()
                if key.level is None and key.setting == wanted}

    def level_metrics(self, setting: str | None = None
                      ) -> dict[tuple[str, str, int], Metrics]:
        """(model, taxonomy, level) -> metrics over per-level cells."""
        wanted = setting or self.request.settings[0]
        return {(key.model, key.taxonomy_key, key.level): result.metrics
                for key, result in self.cells.items()
                if key.level is not None and key.setting == wanted}


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_cells(request: RunRequest,
               pools: dict[str, object] | None = None
               ) -> list[CellKey]:
    """The request's cell list, in deterministic execution order."""
    if pools is None:
        pools = build_request_pools(request)
    cells: list[CellKey] = []
    for model in request.models:
        for key in request.taxonomy_keys:
            levels = (pools[key].question_levels if request.per_level
                      else [None])
            for setting in request.settings:
                for level in levels:
                    cells.append(CellKey(
                        model=model, taxonomy_key=key,
                        dataset=request.dataset, setting=setting,
                        level=level))
    return cells


def build_request_pools(request: RunRequest) -> dict[str, object]:
    """Question pools per taxonomy (served from the artifact store)."""
    return {key: build_pools(key, sample_size=request.sample_size,
                             seed=request.seed)
            for key in request.taxonomy_keys}


def _pool_for(cell: CellKey, pools: dict[str, object]) -> QuestionPool:
    taxonomy_pools = pools[cell.taxonomy_key]
    kind = DatasetKind(cell.dataset)
    if cell.level is None:
        return taxonomy_pools.total_pool(kind)
    return taxonomy_pools.level_pool(cell.level, kind)


def _sealed_result(cell: CellKey, cell_state: CellState,
                   keep_records: bool) -> PoolResult:
    """A sealed cell decoded from the ledger (zero model calls)."""
    records = cell_state.ordered_records()
    return PoolResult(pool_label=cell.pool_label, model=cell.model,
                      setting=cell.setting, metrics=cell_state.metrics,
                      records=records if keep_records else ())


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def evaluate_request(request: RunRequest,
                     engine: EvaluationEngine | None = None
                     ) -> RunResult:
    """Score every cell of ``request`` in memory, in plan order, with
    the runner a run session would build (variant, trail, and
    :func:`engine_for` the request unless ``engine`` is given): the
    cells equal :func:`execute_run`'s, but nothing is written and no
    records are kept."""
    pools = build_request_pools(request)
    runner = EvaluationRunner(
        variant=request.variant,
        engine=engine if engine is not None else engine_for(request),
        trail=request.trail)
    cells = {cell: runner.evaluate(get_model(cell.model),
                                   _pool_for(cell, pools),
                                   PromptSetting(cell.setting))
             for cell in plan_cells(request, pools)}
    return RunResult(run_id=None, request=request, cells=cells,
                     evaluated=sum(result.metrics.n
                                   for result in cells.values()))


def create_run(request: RunRequest,
               registry: RunRegistry | None = None) -> str:
    """Plan the request and allocate its run directory + manifest."""
    registry = registry if registry is not None else RunRegistry()
    pools = build_request_pools(request)
    return registry.create(request, cells=len(plan_cells(request,
                                                         pools)))


def execute_run(request: RunRequest,
                registry: RunRegistry | None = None,
                run_id: str | None = None,
                engine: EvaluationEngine | None = None,
                resolve_model: ModelResolver | None = None,
                keep_records: bool = True) -> RunResult:
    """Run the full sweep, streaming every event into the ledger.

    A crash (model failure, kill, power loss) leaves the ledger with
    everything completed so far; ``resume_run`` on the same ``run_id``
    finishes the job without repeating any scored question.

    A ``run -> cell -> question`` span tree is streamed to
    ``spans.jsonl`` next to the ledger (each finished span is one
    flushed append, the ledger's crash contract), which is what
    ``repro obs trace <run-id>`` exports.
    """
    registry = registry if registry is not None else RunRegistry()
    pools = build_request_pools(request)
    cells = plan_cells(request, pools)
    if run_id is None:
        run_id = registry.create(request, cells=len(cells))
    session = RunSession(request, registry.run_dir(run_id),
                         engine=engine, keep_records=keep_records)
    return run_attempt(session, registry, run_id, pools, cells,
                       RunState(), resolve_model, resumed=False)


def run_attempt(session: RunSession, registry: RunRegistry,
                run_id: str, pools: dict[str, object],
                cells: list[CellKey], state: RunState,
                resolve_model: ModelResolver | None,
                resumed: bool) -> RunResult:
    """Drive the cell plan over ``state`` inside ``session`` (entered
    and closed here).

    Sealed cells decode straight from ``state``, a partially recorded
    cell re-enters at exactly its missing question indices, and every
    other cell runs in full — over an empty state that is a fresh
    run.  A fresh attempt enforces the request's spend ceilings at
    cell boundaries; a resumed one deliberately does not, so the
    finished run is bit-identical to an unbudgeted one.
    """
    request = session.request
    resolve = resolve_model if resolve_model is not None else get_model
    attempt = state.attempts + 1
    guard = (BudgetGuard() if resumed else
             BudgetGuard(max_cost_usd=request.max_cost_usd,
                         max_tokens=request.max_tokens))
    budget_stop: BudgetStop | None = None
    results: dict[CellKey, PoolResult] = {}
    evaluated = 0
    replayed = 0
    resumed_cells: list[str] = []
    span_attrs = {"resumed": True, "attempt": attempt} if resumed else {}
    with session:
        session.ledger.run_started(run_id, resumed=resumed,
                                   attempt=attempt)
        with session.span("run", run_id=run_id,
                          dataset=request.dataset,
                          workers=request.workers, **span_attrs):
            for cell in cells:
                if guard.enabled:
                    budget_stop = guard.stop_reason(
                        session.stats(), completed_cells=len(results))
                    if budget_stop is not None:
                        break
                pool = _pool_for(cell, pools)
                cell_state = state.cells.get(cell.cell_id)
                if cell_state is not None and cell_state.complete:
                    if cell_state.expected_n != len(pool):
                        raise RunError(
                            f"cell {cell.cell_id} recorded "
                            f"{cell_state.expected_n} questions but "
                            f"the request now plans {len(pool)} — the "
                            f"run predates a generator change and "
                            f"cannot be resumed")
                    replayed += cell_state.expected_n
                    results[cell] = _sealed_result(
                        cell, cell_state, session.keep_records)
                    continue
                done = ({} if cell_state is None else
                        {index: record
                         for index, record in cell_state.records.items()
                         if 0 <= index < len(pool)})
                if done:
                    resumed_cells.append(cell.cell_id)
                replayed += len(done)
                evaluated += len(pool) - len(done)
                results[cell] = session.runner.complete_cell(
                    resolve(cell.model), pool,
                    PromptSetting(cell.setting), done)
        stats = session.stats()
        if budget_stop is not None:
            # Not run-finished: the run stays resumable, and the
            # completed cells' records are already sealed — resume
            # finishes the rest bit-identically to an unbudgeted run.
            session.ledger.budget_exhausted(budget_stop.to_dict(),
                                            stats.to_dict())
        else:
            session.ledger.run_finished(len(cells), stats.to_dict())
    if budget_stop is None:
        # Partial runs never enter the history: their aggregate
        # metrics would skew every regression baseline.
        append_entry(entry_from_result(
            run_id, request.dataset,
            {key.cell_id: result.metrics
             for key, result in results.items()},
            stats=stats, attempts=attempt), registry)
    return RunResult(run_id=run_id, request=request, cells=results,
                     stats=stats, evaluated=evaluated,
                     replayed=replayed,
                     resumed_cells=tuple(resumed_cells),
                     budget=(None if budget_stop is None
                             else budget_stop.to_dict()))


# ----------------------------------------------------------------------
# Loading (zero model calls)
# ----------------------------------------------------------------------
def load_run(run_id: str,
             registry: RunRegistry | None = None,
             keep_records: bool = True,
             state: RunState | None = None) -> RunResult:
    """Rebuild a run's :class:`PoolResult`s from its ledger alone.

    Only completed cells are returned; partially recorded cells need
    :func:`repro.runs.resume.resume_run` to finish first.  No model,
    pool or taxonomy is touched — this is a pure disk read, which is
    what makes every paper table reconstructible offline.  ``state``
    is the run's replayed ledger when the caller already holds it.
    """
    registry = registry if registry is not None else RunRegistry()
    request = registry.request(run_id)
    if state is None:
        state = registry.state(run_id)
    cells: dict[CellKey, PoolResult] = {}
    replayed = 0
    for cell_id, cell_state in state.cells.items():
        if not cell_state.complete:
            continue
        key = CellKey.parse(cell_id)
        if key is None:         # ad-hoc label outside the sweep space
            continue
        replayed += cell_state.expected_n
        cells[key] = _sealed_result(key, cell_state, keep_records)
    stats = (EngineStats.from_dict(state.stats)
             if state.stats else None)
    return RunResult(run_id=run_id, request=request, cells=cells,
                     stats=stats, replayed=replayed)


def coerce_run(run: "RunResult | str",
               registry: RunRegistry | None = None) -> RunResult:
    """Accept a :class:`RunResult` or a run id and return the result."""
    if isinstance(run, RunResult):
        return run
    if isinstance(run, str):
        return load_run(run, registry=registry)
    raise RunError(f"expected RunResult or run id, got {run!r}")
