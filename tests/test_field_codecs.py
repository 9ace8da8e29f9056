"""The field-derived record codecs against the hand-written ones.

``EngineStats``, ``HistoryEntry`` and ``Trail`` each declare their
field list once, and their codecs, the history copy and the trail
collector follow from the dataclass fields.  The hand-written versions
those replaced are kept below verbatim as the reference: on any
payload, both must give the same JSON bytes or raise the same
exception class.
"""

from __future__ import annotations

import json
import time
from collections.abc import Mapping
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.metrics import Metrics
from repro.engine.telemetry import EngineStats
from repro.errors import RunError
from repro.obs.history import HistoryEntry, entry_from_result, load_entry
from repro.obs.jsonl import dumps_line
from repro.obs.trail import Trail, TrailContext, trail_to_dict


# ----------------------------------------------------------------------
# The reference codecs, verbatim
# ----------------------------------------------------------------------
class ReferenceStatsCodec:
    """``EngineStats.to_dict`` and ``from_dict``, hand-written."""

    def to_dict(self) -> dict[str, object]:
        """Raw counters, JSON-compatible (run-finished ledger events)."""
        return {
            "records": self.records,
            "calls": self.calls,
            "retries": self.retries,
            "faults": self.faults,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_time_s": self.wall_time_s,
            "busy_time_s": self.busy_time_s,
            "workers": self.workers,
            "latency_p50_s": self.latency_p50_s,
            "latency_p90_s": self.latency_p90_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_min_s": self.latency_min_s,
            "latency_max_s": self.latency_max_s,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "hedged": self.hedged,
            "adaptive_high_water": self.adaptive_high_water,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "cost_nanos": self.cost_nanos,
            "cost_usd": self.cost_usd,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineStats":
        """Rebuild a snapshot persisted by :meth:`to_dict`.

        The histogram fields default to 0.0 — and the batched-engine
        counters to 0 — so ledgers written before they existed still
        load.
        """
        stats = {key: payload[key] for key in (
            "records", "calls", "retries", "faults", "timeouts",
            "cache_hits", "cache_misses", "wall_time_s", "busy_time_s",
            "workers")}
        for key in ("latency_p50_s", "latency_p90_s", "latency_p99_s",
                    "latency_min_s", "latency_max_s"):
            stats[key] = float(payload.get(key, 0.0))
        for key in ("batches", "coalesced", "hedged",
                    "adaptive_high_water", "prompt_tokens",
                    "completion_tokens", "cost_nanos"):
            stats[key] = int(payload.get(key, 0))
        return cls(**stats)


class ReferenceEntryCodec:
    """``HistoryEntry.to_dict`` and ``from_dict``, hand-written."""

    def to_dict(self) -> dict[str, object]:
        return {
            "run_id": self.run_id,
            "finished_at": self.finished_at,
            "dataset": self.dataset,
            "attempts": self.attempts,
            "cells": self.cells,
            "questions": self.questions,
            "accuracy": self.accuracy,
            "wall_time_s": self.wall_time_s,
            "throughput": self.throughput,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "cache_hit_rate": self.cache_hit_rate,
            "retries": self.retries,
            "faults": self.faults,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "hedged": self.hedged,
            "shards": self.shards,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "cost_nanos": self.cost_nanos,
            "cell_accuracy": dict(self.cell_accuracy),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "HistoryEntry":
        try:
            return cls(
                run_id=str(payload["run_id"]),
                finished_at=float(payload["finished_at"]),
                dataset=str(payload.get("dataset", "")),
                attempts=int(payload.get("attempts", 1)),
                cells=int(payload["cells"]),
                questions=int(payload["questions"]),
                accuracy=float(payload["accuracy"]),
                wall_time_s=float(payload.get("wall_time_s", 0.0)),
                throughput=float(payload.get("throughput", 0.0)),
                latency_p50_s=float(payload.get("latency_p50_s", 0.0)),
                latency_p99_s=float(payload.get("latency_p99_s", 0.0)),
                cache_hit_rate=float(payload.get("cache_hit_rate",
                                                 0.0)),
                retries=int(payload.get("retries", 0)),
                faults=int(payload.get("faults", 0)),
                batches=int(payload.get("batches", 0)),
                coalesced=int(payload.get("coalesced", 0)),
                hedged=int(payload.get("hedged", 0)),
                shards=int(payload.get("shards", 1)),
                prompt_tokens=int(payload.get("prompt_tokens", 0)),
                completion_tokens=int(payload.get("completion_tokens",
                                                  0)),
                cost_nanos=int(payload.get("cost_nanos", 0)),
                cell_accuracy={
                    str(cell): float(acc)
                    for cell, acc in dict(
                        payload.get("cell_accuracy") or {}).items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RunError(
                f"malformed history entry: {exc}") from exc


def reference_entry_from_result(run_id: str, dataset: str,
                                cell_metrics: Mapping[str, object],
                                stats=None, attempts: int = 1,
                                finished_at: float | None = None,
                                shards: int = 1) -> HistoryEntry:
    """Fold a completed run into one history entry.

    ``cell_metrics`` maps cell id -> :class:`repro.core.metrics
    .Metrics`; ``stats`` is the run's :class:`EngineStats` snapshot
    (``None`` degrades the perf fields to zero rather than failing —
    the accuracy series must survive stats-less ledgers).
    """
    questions = sum(metrics.n for metrics in cell_metrics.values())
    weighted = sum(metrics.accuracy * metrics.n
                   for metrics in cell_metrics.values())
    return HistoryEntry(
        run_id=run_id,
        finished_at=(time.time() if finished_at is None
                     else finished_at),
        dataset=dataset,
        attempts=max(1, attempts),
        cells=len(cell_metrics),
        questions=questions,
        accuracy=(weighted / questions if questions else 0.0),
        wall_time_s=(stats.wall_time_s if stats else 0.0),
        throughput=(stats.throughput if stats else 0.0),
        latency_p50_s=(stats.latency_p50_s if stats else 0.0),
        latency_p99_s=(stats.latency_p99_s if stats else 0.0),
        cache_hit_rate=(stats.cache_hit_rate if stats else 0.0),
        retries=(stats.retries if stats else 0),
        faults=(stats.faults if stats else 0),
        batches=(getattr(stats, "batches", 0) if stats else 0),
        coalesced=(getattr(stats, "coalesced", 0) if stats else 0),
        hedged=(getattr(stats, "hedged", 0) if stats else 0),
        shards=max(1, shards),
        prompt_tokens=(getattr(stats, "prompt_tokens", 0)
                       if stats else 0),
        completion_tokens=(getattr(stats, "completion_tokens", 0)
                           if stats else 0),
        cost_nanos=(getattr(stats, "cost_nanos", 0) if stats else 0),
        cell_accuracy={cell_id: metrics.accuracy
                       for cell_id, metrics
                       in sorted(cell_metrics.items())},
    )


class ReferenceTrailContext:
    """Mutable collector the middleware layers annotate in place."""

    __slots__ = (
        "attempts", "errors", "injected", "cache_hit", "cache_source",
        "coalesced", "leader_key", "rate_wait_s", "timeout_lost_s",
        "batch", "batch_size", "batch_cut", "replica", "fallbacks",
        "hedged", "hedge_won", "billed_prompt_tokens",
        "billed_completion_tokens", "cost_nanos",
    )

    def __init__(self) -> None:
        self.attempts = 1
        self.errors: list[str] = []
        self.injected = False
        self.cache_hit: bool | None = None
        self.cache_source: str | None = None
        self.coalesced: str | None = None
        self.leader_key: str | None = None
        self.rate_wait_s = 0.0
        self.timeout_lost_s = 0.0
        self.batch: int | None = None
        self.batch_size: int | None = None
        self.batch_cut: str | None = None
        self.replica: int | None = None
        self.fallbacks: list[int] = []
        self.hedged = False
        self.hedge_won = False
        self.billed_prompt_tokens = 0
        self.billed_completion_tokens = 0
        self.cost_nanos = 0

    def note_error(self, name: str, *, injected: bool = False) -> None:
        self.errors.append(name)
        if injected:
            self.injected = True

    def note_cost(self, prompt_tokens: int, completion_tokens: int,
                  nanos: int) -> None:
        self.billed_prompt_tokens += prompt_tokens
        self.billed_completion_tokens += completion_tokens
        self.cost_nanos += nanos

    def freeze(self) -> Trail:
        return Trail(
            attempts=self.attempts,
            errors=tuple(self.errors),
            injected=self.injected,
            cache_hit=self.cache_hit,
            cache_source=self.cache_source,
            coalesced=self.coalesced,
            leader_key=self.leader_key,
            rate_wait_s=self.rate_wait_s,
            timeout_lost_s=self.timeout_lost_s,
            batch=self.batch,
            batch_size=self.batch_size,
            batch_cut=self.batch_cut,
            replica=self.replica,
            fallbacks=tuple(self.fallbacks),
            hedged=self.hedged,
            hedge_won=self.hedge_won,
            billed_prompt_tokens=self.billed_prompt_tokens,
            billed_completion_tokens=self.billed_completion_tokens,
            cost_nanos=self.cost_nanos,
        )


# ----------------------------------------------------------------------
# Payload strategies
# ----------------------------------------------------------------------
#: A value of a field's declared type, by its annotation.
RIGHT = {
    "int": st.integers(-2**40, 2**40),
    "float": st.floats(-1e9, 1e9),
    "str": st.text(max_size=8),
}
#: Anything a JSON payload can hold, including what no field takes.
ANY = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
#: How one field shows up in a payload: mostly well-typed, sometimes
#: absent (an old payload, or a malformed one if the field is
#: required), sometimes of a wrong type.
MODES = ("right",) * 3 + ("absent",) * 2 + ("wrong",)
#: Required fields are mostly there, so most payloads decode.
REQUIRED_MODES = ("right",) * 10 + ("absent", "wrong")


@st.composite
def payloads(draw, owner):
    """A payload of ``owner``'s scalar fields, plus stray keys."""
    payload = {}
    for field in fields(owner):
        if field.type not in RIGHT:
            continue
        mode = draw(st.sampled_from(
            REQUIRED_MODES if field.default is MISSING else MODES))
        if mode != "absent":
            payload[field.name] = draw(
                RIGHT[field.type] if mode == "right" else ANY)
    payload.update(draw(st.dictionaries(st.text(max_size=6), ANY,
                                        max_size=2)))
    return payload


#: A well-typed value by declared type, and one of another type that
#: the declared type coerces.
WELL_TYPED = {"int": 7, "float": 0.25, "str": "x"}
COERCED = {"int": 2.5, "float": 3, "str": 5}


def _fixed(owner, defaulted: dict | None) -> dict:
    """Every required scalar field well-typed, and every defaulted one
    valued from ``defaulted`` by its type (absent when ``None``, as
    in a payload older than those fields)."""
    payload = {}
    for field in fields(owner):
        if field.type not in WELL_TYPED:
            continue
        if field.default is MISSING:
            payload[field.name] = WELL_TYPED[field.type]
        elif defaulted is not None:
            payload[field.name] = defaulted[field.type]
    return payload


def _outcome(decode, encode, payload):
    """``encode(decode(payload))``, or the class of what it raised."""
    try:
        value = decode(payload)
    except Exception as exc:
        return type(exc)
    return encode(value)


# ----------------------------------------------------------------------
# EngineStats
# ----------------------------------------------------------------------
def _reference_stats(payload: dict) -> EngineStats:
    return ReferenceStatsCodec.from_dict.__func__(EngineStats, payload)


stats = st.builds(EngineStats, **{
    field.name: (st.floats(0.0, 1e4) if field.type == "float"
                 else st.integers(0, 2**40))
    for field in fields(EngineStats)})


@settings(max_examples=150, deadline=None)
@given(payload=payloads(EngineStats))
@example(payload=_fixed(EngineStats, WELL_TYPED))
@example(payload=_fixed(EngineStats, None))
@example(payload=_fixed(EngineStats, COERCED))
@example(payload={})
def test_stats_codec_matches_reference(payload):
    assert _outcome(EngineStats.from_dict,
                    lambda value: dumps_line(value.to_dict()),
                    payload) \
        == _outcome(_reference_stats,
                    lambda value: dumps_line(
                        ReferenceStatsCodec.to_dict(value)),
                    payload)


@settings(max_examples=100, deadline=None)
@given(value=stats)
def test_stats_to_dict_matches_reference(value):
    encoded = dumps_line(value.to_dict())
    assert encoded == dumps_line(ReferenceStatsCodec.to_dict(value))
    assert EngineStats.from_dict(json.loads(encoded)) == value


# ----------------------------------------------------------------------
# HistoryEntry
# ----------------------------------------------------------------------
def _reference_entry(payload: Mapping) -> HistoryEntry:
    return ReferenceEntryCodec.from_dict.__func__(HistoryEntry, payload)


def _entry_bytes(to_dict):
    """A ``history.jsonl`` line and an ``obs check`` baseline file."""
    def encode(entry: HistoryEntry) -> tuple[str, str]:
        return (dumps_line(to_dict(entry)),
                json.dumps(to_dict(entry), indent=1) + "\n")
    return encode


BASELINE = (Path(__file__).parent.parent / "benchmarks" / "baselines"
            / "obs_check_baseline.json")
CELL_ACCURACY = st.one_of(
    st.none(), st.dictionaries(st.text(max_size=6), st.floats(0.0, 1.0),
                               max_size=3),
    st.dictionaries(st.text(max_size=6), ANY, max_size=2), ANY)


@st.composite
def entry_payloads(draw):
    payload = draw(payloads(HistoryEntry))
    if draw(st.booleans()):
        payload["cell_accuracy"] = draw(CELL_ACCURACY)
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=st.one_of(entry_payloads(), ANY))
@example(payload={**_fixed(HistoryEntry, WELL_TYPED),
                  "cell_accuracy": {"a": 0.5, "b": 1}})
@example(payload=_fixed(HistoryEntry, None))
@example(payload={**_fixed(HistoryEntry, None), "cell_accuracy": None})
@example(payload=_fixed(HistoryEntry, COERCED))
def test_entry_codec_matches_reference(payload):
    new = _outcome(HistoryEntry.from_dict,
                   _entry_bytes(HistoryEntry.to_dict), payload)
    assert new == _outcome(_reference_entry,
                           _entry_bytes(ReferenceEntryCodec.to_dict),
                           payload)
    assert new is not KeyError      # malformed means RunError


def test_committed_baseline_loads_to_the_same_bytes():
    path = BASELINE.resolve()
    text = path.read_text(encoding="utf-8")
    assert _entry_bytes(HistoryEntry.to_dict)(load_entry(path))[1] \
        == _entry_bytes(ReferenceEntryCodec.to_dict)(
            _reference_entry(json.loads(text)))[1] == text


METRICS = st.builds(Metrics, accuracy=st.floats(0.0, 1.0),
                    miss_rate=st.floats(0.0, 1.0),
                    n=st.integers(0, 500))


@settings(max_examples=120, deadline=None)
@given(value=st.none() | stats,
       cells=st.dictionaries(st.text(max_size=6), METRICS, max_size=4),
       attempts=st.integers(-1, 5), shards=st.integers(-1, 8),
       finished_at=st.floats(0.0, 2e9))
def test_entry_from_result_matches_reference(value, cells, attempts,
                                             shards, finished_at):
    kwargs = dict(stats=value, attempts=attempts,
                  finished_at=finished_at, shards=shards)
    new = entry_from_result("run-01", "hard", cells, **kwargs)
    reference = reference_entry_from_result("run-01", "hard", cells,
                                            **kwargs)
    assert new == reference
    assert _entry_bytes(HistoryEntry.to_dict)(new) \
        == _entry_bytes(ReferenceEntryCodec.to_dict)(reference)


# ----------------------------------------------------------------------
# TrailContext
# ----------------------------------------------------------------------
def _trail_value(default):
    """A strategy for a trail field, by its default."""
    if isinstance(default, tuple):
        return st.lists(st.one_of(st.integers(0, 9), st.text(max_size=4)),
                        max_size=3)
    if default is None:
        return st.one_of(st.none(), st.booleans(), st.integers(0, 64),
                         st.text(max_size=6))
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(0, 10**9)
    return st.floats(0.0, 1e3)


NOTES = st.lists(st.one_of(
    st.tuples(st.just("error"), st.text(max_size=6), st.booleans()),
    st.tuples(st.just("cost"), st.integers(0, 99), st.integers(0, 99),
              st.integers(0, 10**6))), max_size=4)


#: Every trail field set.
TRAIL_VALUES = st.fixed_dictionaries({
    field.name: _trail_value(field.default) for field in fields(Trail)})


@settings(max_examples=120, deadline=None)
@given(values=TRAIL_VALUES, notes=NOTES)
def test_context_freezes_like_reference(values, notes):
    frozen = []
    for context in (TrailContext(), ReferenceTrailContext()):
        for name, value in values.items():
            setattr(context, name,
                    list(value) if isinstance(value, list) else value)
        for note in notes:
            if note[0] == "error":
                context.note_error(note[1], injected=note[2])
            else:
                context.note_cost(*note[1:])
        frozen.append(context.freeze())
    assert frozen[0] == frozen[1]
    assert dumps_line(trail_to_dict(frozen[0])) \
        == dumps_line(trail_to_dict(frozen[1]))


def test_fresh_context_matches_reference():
    context, reference = TrailContext(), ReferenceTrailContext()
    assert context.freeze() == reference.freeze() == Trail()
    assert tuple(TrailContext.__slots__) == ReferenceTrailContext.__slots__
    assert context.errors == [] and context.fallbacks == []
    assert TrailContext().errors is not context.errors
    with pytest.raises(AttributeError):
        context.atempts = 2     # a misspelt attribute still raises
