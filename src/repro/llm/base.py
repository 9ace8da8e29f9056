"""The chat-model interface every backend implements.

Real endpoints (OpenAI, Anthropic, a local HF pipeline) and the
calibrated simulators plug in behind the same two members: a ``name``
and ``generate(prompt) -> str``.  The evaluation harness knows nothing
else about its models.

Backends may additionally implement *optional* members the engine
core negotiates at call time:

* ``generate_batch(prompts) -> list[str]`` — answer several prompts
  in one backend round trip (a vLLM-style continuous-batching server,
  an embedding-cache-backed simulator).  The engine's
  :class:`repro.engine.batching.BatchingModel` groups concurrent
  ``generate`` calls and lands them here when the method exists;
  :func:`call_generate_batch` is the negotiation shim that falls back
  to a per-prompt loop when it does not.
* ``count_tokens(text) -> int`` — the backend's own tokenizer.  The
  cost accounting layer (:mod:`repro.obs.cost`) resolves a counter
  per model — a registered per-name override first, then this hook,
  then the deterministic chars/4 heuristic — so a backend wrapping a
  real tokenizer is billed on its true token counts.

Both are pure capability markers: a backend that implements neither
behaves exactly as before.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable


@runtime_checkable
class ChatModel(Protocol):
    """Minimal LLM interface used by the harness."""

    name: str

    def generate(self, prompt: str) -> str:
        """Return the model's raw text response to ``prompt``."""
        ...


def supports_generate_batch(model: ChatModel) -> bool:
    """Whether ``model`` exposes a callable ``generate_batch``."""
    return callable(getattr(model, "generate_batch", None))


def call_generate_batch(model: ChatModel,
                        prompts: Sequence[str]) -> list[str]:
    """Protocol negotiation: one batch call when the backend supports
    it, a per-prompt loop otherwise.

    Either way the returned list is index-aligned with ``prompts`` —
    the property the batching scheduler's by-submission-index
    collection relies on.
    """
    if supports_generate_batch(model):
        responses = list(model.generate_batch(prompts))
        if len(responses) != len(prompts):
            raise ValueError(
                f"{model.name}: generate_batch returned "
                f"{len(responses)} responses for {len(prompts)} "
                f"prompts")
        return responses
    return [model.generate(prompt) for prompt in prompts]


class BaseChatModel(ABC):
    """Convenience base class with a usage counter.

    Subclasses implement :meth:`_respond`; the public :meth:`generate`
    wraps it with prompt-count bookkeeping that the scalability
    experiment and the tests use.  The counter is guarded by a lock:
    the execution engine calls ``generate`` from many worker threads
    at once, and ``+=`` on a plain int drops increments under
    contention.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("model name must be non-empty")
        self.name = name
        self.prompts_served = 0
        self._served_lock = threading.Lock()

    def generate(self, prompt: str) -> str:
        if not prompt or not prompt.strip():
            raise ValueError("prompt must be non-empty")
        with self._served_lock:
            self.prompts_served += 1
        return self._respond(prompt)

    def generate_batch(self, prompts: Sequence[str]) -> list[str]:
        """Answer several prompts in one call (index-aligned).

        The default implementation validates and counts every prompt
        under one lock acquisition, then delegates to
        :meth:`_respond_batch` — override *that* to vectorize the
        actual inference while keeping the bookkeeping exact.
        """
        prompts = list(prompts)
        for prompt in prompts:
            if not prompt or not prompt.strip():
                raise ValueError("prompt must be non-empty")
        with self._served_lock:
            self.prompts_served += len(prompts)
        return self._respond_batch(prompts)

    @abstractmethod
    def _respond(self, prompt: str) -> str:
        """Produce the response text for one prompt."""

    def _respond_batch(self, prompts: list[str]) -> list[str]:
        """Produce responses for a batch (default: per-prompt loop)."""
        return [self._respond(prompt) for prompt in prompts]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


@dataclass(frozen=True, slots=True)
class StaticResponder:
    """A trivial ChatModel returning a fixed string (test double)."""

    name: str
    response: str

    def generate(self, prompt: str) -> str:
        return self.response
