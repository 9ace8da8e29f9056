"""Token and dollar accounting for evaluation runs.

The paper's scalability study (Figure 7) argues that the real obstacle
to "LLMs as taxonomies" is serving cost — yet until this module the
observability stack measured *time* and never *tokens or dollars*.
Everything here is deterministic by construction:

* :class:`TokenCounter` estimates tokens as ``ceil(len(text) / 4)`` —
  a pure function of the text, so a record's token counts are
  bit-identical whether the question ran at one worker, fanned out,
  or on a shard.  Backends with a real tokenizer register a
  per-model override (keyed by model *name*, which survives the whole
  middleware chain) or expose an optional ``count_tokens(text)``
  method (see :mod:`repro.llm.base`).
* Prices are integer **nano-dollars per token** (:class:`ModelPrice`).
  Integer accumulation is associative, so a sharded run's merged cost
  equals the single-process run's cost bit for bit — float summation
  order could not promise that.  API models carry their public
  2024-era list prices; open-source models are priced from the
  paper's measured GPU-seconds (:func:`repro.llm.costs.cost_estimate`)
  amortized at a documented $/GPU-hour.
* :func:`call_cost_nanos` prices one question.  The runner's
  ``EvaluationRunner.ask`` bills each question once, from its record
  and its provenance trail: ``prompt_tokens × attempts`` prompt tokens
  (every attempt re-sends the prompt) plus the answer's completion
  tokens, and nothing for a cache hit or a coalesced follower.
* :class:`CostLedger` folds a run's ledger records into
  per-(model, taxonomy, setting) cost cells for ``repro obs cost``.
* :class:`BudgetGuard` enforces per-run ``--max-cost-usd`` /
  ``--max-tokens`` ceilings at cell boundaries.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ModelError
from repro.llm.costs import cost_estimate
from repro.obs.export import escape_label_value
from repro.runs.registry import RunRegistry

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.engine.telemetry import EngineStats

NANOS_PER_USD = 1_000_000_000

#: Assumed blended price of one GPU-hour on the paper's testbed
#: (8x RTX 3090 + 4x A100 — a mid-2024 cloud A100 hour).
GPU_HOUR_USD = 2.50

#: Tokens one benchmark question is assumed to move (prompt plus
#: completion) when converting per-question GPU-seconds into a
#: per-token price.  The paper's prompts are one-sentence Yes/No
#: probes; 256 is deliberately round so the derivation is auditable.
NOMINAL_TOKENS_PER_QUESTION = 256

#: Public list prices (USD per 1k tokens, prompt/completion) for the
#: API models the paper evaluated, as of its 2024 evaluation window.
API_PRICES_USD_PER_1K: dict[str, tuple[float, float]] = {
    "GPT-4": (0.03, 0.06),
    "GPT-3.5": (0.0005, 0.0015),
    "Claude-3": (0.003, 0.015),
}

#: Fallback for models outside both tables (custom backends).
DEFAULT_PRICE_USD_PER_1K: tuple[float, float] = (0.001, 0.001)


def nanos_to_usd(nanos: int) -> float:
    """Dollars for an exact nano-dollar amount (display only)."""
    return nanos / NANOS_PER_USD


def usd_to_nanos(usd: float) -> int:
    """Exact nano-dollar amount for a dollar figure."""
    return round(usd * NANOS_PER_USD)


# ----------------------------------------------------------------------
# Token counting
# ----------------------------------------------------------------------
class TokenCounter:
    """Deterministic token estimator with per-model override hooks.

    The default heuristic is ``ceil(len(text) / 4)`` — the usual
    ~4-chars-per-token English rule of thumb.  Overrides are keyed by
    model *name* (the one attribute every middleware wrapper
    preserves), so every engine shape and every shard worker resolves
    the same counter for the same model and the ledger's per-record
    counts stay bit-identical across execution shapes.
    """

    def __init__(self) -> None:
        self._overrides: dict[str, Callable[[str], int]] = {}
        self._lock = threading.Lock()

    def register(self, model_name: str,
                 fn: Callable[[str], int]) -> None:
        """Install a real tokenizer for one model name."""
        with self._lock:
            self._overrides[model_name] = fn

    def unregister(self, model_name: str) -> None:
        with self._lock:
            self._overrides.pop(model_name, None)

    @staticmethod
    def heuristic(text: str) -> int:
        """``ceil(len/4)``: the model-free fallback estimate."""
        return (len(text) + 3) // 4

    def resolve(self, model) -> Callable[[str], int]:
        """The counting function for ``model`` (name or backend).

        Resolution order: a registered per-name override, then a
        callable ``count_tokens`` attribute on the object itself
        (the optional :class:`repro.llm.base.ChatModel` hook), then
        the heuristic.
        """
        name = model if isinstance(model, str) else getattr(
            model, "name", None)
        with self._lock:
            override = self._overrides.get(name)
        if override is not None:
            return override
        hook = getattr(model, "count_tokens", None)
        if callable(hook):
            return hook
        return self.heuristic

    def count(self, text: str, model=None) -> int:
        return self.resolve(model)(text)


#: Process-wide counter the runner and engine share by default.
DEFAULT_TOKEN_COUNTER = TokenCounter()


def count_tokens(text: str, model=None) -> int:
    """Token estimate via the default counter (module-level shim)."""
    return DEFAULT_TOKEN_COUNTER.count(text, model)


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ModelPrice:
    """Per-token price card in integer nano-dollars.

    ``basis`` documents provenance: ``"api-tier"`` (public list
    price), ``"gpu-seconds"`` (derived from the paper's Figure 7
    latency at :data:`GPU_HOUR_USD`), or ``"default"``.
    """

    model: str
    prompt_nanos_per_token: int
    completion_nanos_per_token: int
    basis: str

    @property
    def prompt_usd_per_1k(self) -> float:
        return self.prompt_nanos_per_token * 1000 / NANOS_PER_USD

    @property
    def completion_usd_per_1k(self) -> float:
        return self.completion_nanos_per_token * 1000 / NANOS_PER_USD

    def cost_nanos(self, prompt_tokens: int,
                   completion_tokens: int) -> int:
        """Exact nano-dollar cost of one (attempted) call."""
        return (prompt_tokens * self.prompt_nanos_per_token
                + completion_tokens * self.completion_nanos_per_token)

    def as_row(self) -> dict[str, object]:
        return {
            "model": self.model,
            "prompt_$per1k": f"{self.prompt_usd_per_1k:.5f}",
            "completion_$per1k": f"{self.completion_usd_per_1k:.5f}",
            "basis": self.basis,
        }


def _per_1k_to_nanos(usd_per_1k: float) -> int:
    return round(usd_per_1k / 1000 * NANOS_PER_USD)


_PRICE_CACHE: dict[str, ModelPrice] = {}
_PRICE_LOCK = threading.Lock()


def price_for(model: str) -> ModelPrice:
    """The deterministic price card for one model name.

    API models use their embedded list prices; models in the paper's
    scalability table are priced from measured GPU-seconds per
    question; anything else gets the default tier so custom backends
    are still billed (at a visible, documented rate).
    """
    with _PRICE_LOCK:
        cached = _PRICE_CACHE.get(model)
    if cached is not None:
        return cached
    if model in API_PRICES_USD_PER_1K:
        prompt, completion = API_PRICES_USD_PER_1K[model]
        price = ModelPrice(model, _per_1k_to_nanos(prompt),
                           _per_1k_to_nanos(completion),
                           basis="api-tier")
    else:
        price = _gpu_seconds_price(model)
    with _PRICE_LOCK:
        _PRICE_CACHE[model] = price
    return price


def _gpu_seconds_price(model: str) -> ModelPrice:
    """Price an offline model from the paper's Figure 7 latency."""
    try:
        estimate = cost_estimate(model)
    except ModelError:
        prompt, completion = DEFAULT_PRICE_USD_PER_1K
        return ModelPrice(model, _per_1k_to_nanos(prompt),
                          _per_1k_to_nanos(completion),
                          basis="default")
    per_question_usd = (estimate.seconds_per_question
                        * GPU_HOUR_USD / 3600.0)
    per_token_nanos = round(per_question_usd * NANOS_PER_USD
                            / NOMINAL_TOKENS_PER_QUESTION)
    return ModelPrice(model, per_token_nanos, per_token_nanos,
                      basis="gpu-seconds")


def pricing_table(models) -> list[dict[str, object]]:
    """Price cards for a model list (``obs cost --prices``)."""
    return [price_for(model).as_row() for model in models]


def call_cost_nanos(model: str, prompt_tokens: int,
                    completion_tokens: int) -> int:
    """Exact cost of one call against the model's price card."""
    return price_for(model).cost_nanos(prompt_tokens,
                                       completion_tokens)


# ----------------------------------------------------------------------
# Budget enforcement
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BudgetStop:
    """Why (and where) a budget stopped a run."""

    reason: str
    limit: str
    spent_tokens: int
    spent_cost_nanos: int
    completed_cells: int

    @property
    def spent_cost_usd(self) -> float:
        return nanos_to_usd(self.spent_cost_nanos)

    def to_dict(self) -> dict[str, object]:
        return {"reason": self.reason, "limit": self.limit,
                "spent_tokens": self.spent_tokens,
                "spent_cost_nanos": self.spent_cost_nanos,
                "spent_cost_usd": self.spent_cost_usd,
                "completed_cells": self.completed_cells}


class BudgetGuard:
    """Per-run spend ceiling checked at cell boundaries.

    The driver asks :meth:`stop_reason` with the attempt's live stats
    before starting each cell; a non-``None`` answer means
    "write a ``budget-exhausted`` event and stop here".  Stopping at
    the boundary keeps every completed cell bit-identical to an
    unbudgeted run, which is what lets ``resume_run`` finish the job
    to the same bytes later.
    """

    def __init__(self, max_cost_usd: float | None = None,
                 max_tokens: int | None = None):
        if max_cost_usd is not None and max_cost_usd <= 0:
            raise ValueError("max_cost_usd must be positive")
        if max_tokens is not None and max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        self.max_cost_nanos = (None if max_cost_usd is None
                               else usd_to_nanos(max_cost_usd))
        self.max_tokens = max_tokens

    @property
    def enabled(self) -> bool:
        return (self.max_cost_nanos is not None
                or self.max_tokens is not None)

    def stop_reason(self, stats: "EngineStats | None",
                    completed_cells: int) -> BudgetStop | None:
        """A :class:`BudgetStop` when the ceiling is hit, else None."""
        if stats is None or not self.enabled:
            return None
        tokens = stats.prompt_tokens + stats.completion_tokens
        if (self.max_cost_nanos is not None
                and stats.cost_nanos >= self.max_cost_nanos):
            return BudgetStop(
                reason=(f"cost {nanos_to_usd(stats.cost_nanos):.6f} "
                        f"USD reached max "
                        f"{nanos_to_usd(self.max_cost_nanos):.6f} "
                        f"USD"),
                limit="max_cost_usd", spent_tokens=tokens,
                spent_cost_nanos=stats.cost_nanos,
                completed_cells=completed_cells)
        if (self.max_tokens is not None
                and tokens >= self.max_tokens):
            return BudgetStop(
                reason=(f"{tokens} tokens reached max "
                        f"{self.max_tokens}"),
                limit="max_tokens", spent_tokens=tokens,
                spent_cost_nanos=stats.cost_nanos,
                completed_cells=completed_cells)
        return None


# ----------------------------------------------------------------------
# Per-cell aggregation (``repro obs cost``)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CostCell:
    """Token/cost totals of one (model, taxonomy, setting) cell."""

    model: str
    taxonomy: str
    setting: str
    questions: int
    prompt_tokens: int
    completion_tokens: int
    cost_nanos: int

    @property
    def tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    @property
    def cost_usd(self) -> float:
        return nanos_to_usd(self.cost_nanos)

    def as_row(self) -> dict[str, object]:
        return {
            "model": self.model,
            "taxonomy": self.taxonomy,
            "setting": self.setting,
            "questions": self.questions,
            "prompt_tok": self.prompt_tokens,
            "completion_tok": self.completion_tokens,
            "cost_usd": f"{self.cost_usd:.6f}",
        }

    def to_dict(self) -> dict[str, object]:
        return {"model": self.model, "taxonomy": self.taxonomy,
                "setting": self.setting, "questions": self.questions,
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.completion_tokens,
                "cost_nanos": self.cost_nanos,
                "cost_usd": self.cost_usd}


class CostLedger:
    """A run's ledger records folded into per-cell cost totals.

    Record-level token counts are pure functions of the prompt and
    response text, so the fold is exact and identical no matter how
    the run executed (one worker, fanned out, sharded-and-merged).
    Records written before token accounting existed fold to zero —
    cost unknown, reported as 0.
    """

    def __init__(self, run_id: str, cells: list[CostCell]):
        self.run_id = run_id
        self.cells = cells

    # ------------------------------------------------------------------
    @classmethod
    def from_state(cls, run_id: str, state) -> "CostLedger":
        """Fold a replayed :class:`repro.runs.ledger.RunState`."""
        # Call-time: repro.runs.driver imports this module (BudgetGuard).
        from repro.runs.driver import CellKey
        cells: list[CostCell] = []
        for cell_id in sorted(state.cells):
            cell_state = state.cells[cell_id]
            key = CellKey.parse(cell_id)
            if key is None:
                continue
            _, prompt, completion = cell_state.sums
            cells.append(CostCell(
                model=key.model, taxonomy=key.taxonomy_key,
                setting=key.setting,
                questions=len(cell_state.records),
                prompt_tokens=prompt,
                completion_tokens=completion,
                cost_nanos=call_cost_nanos(key.model, prompt,
                                           completion)))
        return cls(run_id, cells)

    @classmethod
    def from_run(cls, run_id: str, registry=None) -> "CostLedger":
        """Fold a registered run's ledger (pure disk read)."""
        registry = (registry if registry is not None
                    else RunRegistry())
        registry.manifest(run_id)        # raises UnknownRunError
        return cls.from_state(run_id, registry.state(run_id))

    # ------------------------------------------------------------------
    @property
    def total_prompt_tokens(self) -> int:
        return sum(cell.prompt_tokens for cell in self.cells)

    @property
    def total_completion_tokens(self) -> int:
        return sum(cell.completion_tokens for cell in self.cells)

    @property
    def total_cost_nanos(self) -> int:
        return sum(cell.cost_nanos for cell in self.cells)

    @property
    def total_cost_usd(self) -> float:
        return nanos_to_usd(self.total_cost_nanos)

    def rows(self) -> list[dict[str, object]]:
        """Per-cell rows plus a TOTAL row (``format_rows`` shape)."""
        rows = [cell.as_row() for cell in self.cells]
        rows.append({
            "model": "TOTAL", "taxonomy": "", "setting": "",
            "questions": sum(c.questions for c in self.cells),
            "prompt_tok": self.total_prompt_tokens,
            "completion_tok": self.total_completion_tokens,
            "cost_usd": f"{self.total_cost_usd:.6f}",
        })
        return rows

    def to_dict(self) -> dict[str, object]:
        return {
            "run_id": self.run_id,
            "cells": [cell.to_dict() for cell in self.cells],
            "totals": {
                "prompt_tokens": self.total_prompt_tokens,
                "completion_tokens": self.total_completion_tokens,
                "cost_nanos": self.total_cost_nanos,
                "cost_usd": self.total_cost_usd,
            },
        }

    def to_prometheus(self) -> str:
        """Labeled cost series in the text exposition format."""
        lines = [
            "# HELP repro_run_cost_usd accumulated cost per cell",
            "# TYPE repro_run_cost_usd counter",
        ]
        for metric, attr in (
                ("repro_run_cost_usd", "cost_usd"),
                ("repro_run_prompt_tokens_total", "prompt_tokens"),
                ("repro_run_completion_tokens_total",
                 "completion_tokens")):
            if metric != "repro_run_cost_usd":
                lines.append(f"# HELP {metric} accumulated "
                             f"{attr} per cell")
                lines.append(f"# TYPE {metric} counter")
            for cell in self.cells:
                labels = ",".join(
                    f'{key}="{escape_label_value(value)}"'
                    for key, value in (
                        ("model", cell.model),
                        ("taxonomy", cell.taxonomy),
                        ("setting", cell.setting)))
                lines.append(
                    f"{metric}{{{labels}}} {getattr(cell, attr)}")
        return "\n".join(lines) + "\n"
