"""Content-addressed response cache.

Responses are keyed on ``(model name, prompt text)`` — nothing else
reaches a chat endpoint, so nothing else can change the answer of a
deterministic (temperature-0) backend.  The cache is an unbounded
dict under one lock, kept in insertion order, and it round-trips
through JSON the same way ``repro.taxonomy.io`` serializes taxonomies,
so a finished table can be re-run for free: every warm cell is served
from disk and only cold cells cost model calls.

``CachedModel`` is the middleware face of the cache: a ``ChatModel``
wrapper that consults the cache before delegating to the wrapped
backend, and notes the hit or miss on the question's trail, from
which the run's cache counters are folded.
"""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path

from repro.errors import ModelError
from repro.llm.base import ChatModel
from repro.obs.jsonl import replace_text
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.obs.trail import current_trail

_FORMAT_VERSION = 1

_log = logging.getLogger("repro.engine.cache")


class ResponseCache:
    """Thread-safe map of (model, prompt) -> response."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], str] = {}
        #: Keys whose response came from a persisted snapshot rather
        #: than a live backend call this process made — provenance
        #: trails report these hits as ``cache_source="persisted"``.
        self._persisted: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        #: Persistence counters: a corrupt file recovered as empty
        #: is counted here, not lost silently.
        self.saves = 0
        self.loads = 0
        self.corrupt_recoveries = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, model_name: str, prompt: str) -> str | None:
        """The cached response, or ``None``."""
        with self._lock:
            return self._entries.get((model_name, prompt))

    def put(self, model_name: str, prompt: str, response: str) -> None:
        """Store one response."""
        key = (model_name, prompt)
        with self._lock:
            self._entries[key] = response
            self._persisted.discard(key)

    def source(self, model_name: str, prompt: str) -> str | None:
        """Where a cached response came from: ``"persisted"`` (disk
        snapshot), ``"memory"`` (live call this process), or
        ``None``."""
        key = (model_name, prompt)
        with self._lock:
            if key not in self._entries:
                return None
            return "persisted" if key in self._persisted else "memory"

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._persisted.clear()

    def persisted_keys(self) -> set[tuple[str, str]]:
        """Snapshot of keys loaded from a persisted snapshot."""
        with self._lock:
            return set(self._persisted)

    def entries(self) -> list[tuple[str, str, str]]:
        """A ``(model, prompt, response)`` snapshot, insertion
        order."""
        with self._lock:
            return [(model, prompt, response)
                    for (model, prompt), response
                    in self._entries.items()]

    def merge(self, other: "ResponseCache") -> int:
        """Fold ``other``'s entries in; existing keys win.

        First-writer-wins is what makes a multi-way merge
        deterministic regardless of which shard answered a prompt
        first in wall-clock time: callers merge shards in index
        order, so the surviving response for a key depends only on
        the shard order, never on scheduling.  Returns the number of
        entries actually added.
        """
        added = 0
        persisted = other.persisted_keys()
        for model, prompt, response in other.entries():
            key = (model, prompt)
            with self._lock:
                if key in self._entries:
                    continue
                self._entries[key] = response
                if key in persisted:
                    self._persisted.add(key)
                added += 1
        return added

    # ------------------------------------------------------------------
    # Persistence (taxonomy.io-style dict round trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dict."""
        with self._lock:
            return {
                "format_version": _FORMAT_VERSION,
                "entries": [
                    {"model": model, "prompt": prompt,
                     "response": response}
                    for (model, prompt), response
                    in self._entries.items()
                ],
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "ResponseCache":
        """Rebuild a cache from :meth:`to_dict` output."""
        try:
            raw_entries = payload["entries"]
        except (KeyError, TypeError) as exc:
            raise ModelError(
                f"malformed response-cache payload: {exc}") from exc
        cache = cls()
        for raw in raw_entries:
            try:
                cache.put(raw["model"], raw["prompt"], raw["response"])
            except (KeyError, TypeError) as exc:
                raise ModelError(
                    f"malformed response-cache entry: {raw!r}") from exc
        # Everything decoded here predates this process's live calls.
        with cache._lock:
            cache._persisted = set(cache._entries)
        return cache

    def save(self, path: str | Path) -> None:
        """Atomically write the cache as JSON (creating parent dirs).

        Through :func:`repro.obs.jsonl.replace_text`, like every other
        whole document the harness writes: a crash mid-persistence
        leaves the previous file intact instead of a truncated
        document.
        """
        target = replace_text(path, json.dumps(self.to_dict(), indent=1))
        self.saves += 1
        _log.debug("cache-saved path=%s entries=%d", target, len(self))

    @classmethod
    def load(cls, path: str | Path) -> "ResponseCache":
        """Read a cache written by :meth:`save`.

        A missing, truncated or otherwise corrupt file yields an
        *empty* cache rather than an exception: the cache is a
        performance artifact, and losing it must only cost re-queries,
        never abort a run.  The recovery is counted
        (``corrupt_recoveries`` on the returned cache) and logged, so
        the data loss is visible instead of silent.  (Feed
        :meth:`from_dict` directly to get strict validation.)
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            cache = cls.from_dict(payload)
        except (OSError, ValueError, ModelError) as exc:
            cache = cls()
            if not isinstance(exc, FileNotFoundError):
                cache.corrupt_recoveries += 1
                _log.warning("cache-corrupt recovered path=%s "
                             "error=%s", path, type(exc).__name__)
        cache.loads += 1
        return cache


def merge_caches(caches) -> ResponseCache:
    """Fold several caches into a fresh one, earliest-first-wins.

    The shard-run merge path: each worker process persists its *own*
    cache file (no two shards ever write one path, so there is
    nothing to clobber), and the driver folds them — in shard index
    order — into the shared cache after the run.  With ``caches``
    ordered deterministically the merged content is too.
    """
    merged = ResponseCache()
    for cache in caches:
        merged.merge(cache)
    return merged


class CachedModel:
    """ChatModel wrapper serving repeated prompts from the cache."""

    def __init__(self, inner: ChatModel, cache: ResponseCache,
                 tracer: Tracer | NullTracer = NULL_TRACER):
        self.inner = inner
        self.name = inner.name
        self.cache = cache
        self._tracer = tracer

    def generate(self, prompt: str) -> str:
        with self._tracer.span("cache_lookup",
                               model=self.name) as span:
            response = self.cache.get(self.name, prompt)
            span.set(hit=response is not None)
        trail = current_trail()
        if trail is not None:
            trail.cache_hit = response is not None
            if response is not None:
                trail.cache_source = self.cache.source(self.name,
                                                       prompt)
        if response is None:
            response = self.inner.generate(prompt)
            self.cache.put(self.name, prompt, response)
        return response

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CachedModel({self.inner!r})"
