"""Per-question provenance trails.

A :class:`TrailContext` is opened around every question by the engine
scheduler or the sequential runner, and annotated by every middleware
layer the prompt passes through: coalescing (leader/follower and the
leader's prompt key), cache (hit/miss plus whether the entry came from
a persisted snapshot), retry (attempt count, per-attempt error class,
injected-fault flag), rate limiting and timeouts (time lost waiting),
batching (batch id, size and why the batch was cut) and the backend
pool (replica index, fallback chain, hedging).  The runner's ``ask``
then prices the question on it (billed tokens and nanodollars), and
the run's per-question counters are folded from the finished context
(``Telemetry.observe``).  On a ``--trail`` run the context is also
frozen into an immutable :class:`Trail` and stamped onto
:class:`~repro.core.results.QuestionRecord`, so provenance rides the
ledger and survives shard merges bit-identically.

The codec is compact: :func:`trail_to_dict` omits every default-valued
field, and :func:`trail_from_dict` restores them, so pre-trail ledgers
replay with ``trail=None`` and trail-off runs pay zero ledger bytes.

This module is imported by the engine and the core codec, so it must
stay dependency-free: stdlib only, plus :mod:`repro.errors` (a leaf).
"""
from __future__ import annotations

import hashlib
import re
import threading
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, fields, make_dataclass
from operator import attrgetter
from typing import Any

from repro.errors import ReproError

__all__ = [
    "Trail",
    "TrailContext",
    "TrailQueryError",
    "call_site",
    "call_site_scope",
    "compile_predicate",
    "current_trail",
    "prompt_key",
    "trail_env",
    "trail_from_dict",
    "trail_scope",
    "trail_summary",
    "trail_to_dict",
]


def prompt_key(prompt: str) -> str:
    """Stable short key for a prompt (process-salt-free, unlike hash())."""
    return hashlib.sha1(prompt.encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------------------
# The trail itself
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Trail:
    """Immutable provenance for one scored question.

    Scheduling-independent fields (``attempts``, ``errors``,
    ``injected``, ``cache_hit``, token/cost fields) are deterministic
    per prompt; placement fields (``batch``, ``replica``, wait times)
    only appear when the corresponding layer is configured.
    """

    attempts: int = 1
    errors: tuple[str, ...] = ()
    injected: bool = False
    cache_hit: bool | None = None
    cache_source: str | None = None
    coalesced: str | None = None
    leader_key: str | None = None
    rate_wait_s: float = 0.0
    timeout_lost_s: float = 0.0
    batch: int | None = None
    batch_size: int | None = None
    batch_cut: str | None = None
    replica: int | None = None
    fallbacks: tuple[int, ...] = ()
    hedged: bool = False
    hedge_won: bool = False
    billed_prompt_tokens: int = 0
    billed_completion_tokens: int = 0
    cost_nanos: int = 0


#: Field name -> default, in declaration order (drives the codec).
_TRAIL_DEFAULTS: dict[str, Any] = {f.name: f.default for f in fields(Trail)}

_TUPLE_FIELDS = frozenset(name for name, default in _TRAIL_DEFAULTS.items()
                          if type(default) is tuple)


def trail_to_dict(trail: Trail) -> dict[str, Any]:
    """Compact JSON form: default-valued fields are omitted."""
    payload: dict[str, Any] = {}
    for name, default in _TRAIL_DEFAULTS.items():
        value = getattr(trail, name)
        if value == default:
            continue
        payload[name] = list(value) if name in _TUPLE_FIELDS else value
    return payload


def trail_from_dict(payload: Mapping[str, Any]) -> Trail:
    """Inverse of :func:`trail_to_dict`; unknown keys are ignored."""
    kwargs: dict[str, Any] = {}
    for name, default in _TRAIL_DEFAULTS.items():
        value = payload.get(name, default)
        if name in _TUPLE_FIELDS:
            value = tuple(value)
        kwargs[name] = value
    return Trail(**kwargs)


_trail_values = attrgetter(*_TRAIL_DEFAULTS)
#: Positions of the fields a context collects in a list.
_LIST_POSITIONS = tuple(position for position, name
                        in enumerate(_TRAIL_DEFAULTS)
                        if name in _TUPLE_FIELDS)


class _TrailNotes:
    """What a :class:`TrailContext` does (its attributes follow from
    :class:`Trail`'s fields)."""

    __slots__ = ()

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
        values = list(_trail_values(self))
        for position in _LIST_POSITIONS:
            values[position] = tuple(values[position])
        return Trail(*values)


TrailContext = make_dataclass(
    "TrailContext",
    [(f.name, list, field(default_factory=list, init=False))
     if f.name in _TUPLE_FIELDS
     else (f.name, f.type, field(default=f.default, init=False))
     for f in fields(Trail)],
    bases=(_TrailNotes,), slots=True, eq=False,
    namespace={
        "__module__": __name__,
        "__doc__": """Mutable collector the middleware layers annotate
    in place: one slotted attribute per :class:`Trail` field, starting
    at the trail's default, and a fresh list where the trail holds a
    tuple.""",
    })


# ----------------------------------------------------------------------
# Ambient context (thread-local; each layer notes on the caller's thread)
# ----------------------------------------------------------------------
_STATE = threading.local()


def current_trail() -> TrailContext | None:
    """The trail being collected on this thread, if a runner or an
    engine installed one."""
    return getattr(_STATE, "trail", None)


class trail_scope:
    """``with trail_scope() as trail:`` — install a collector."""

    __slots__ = ("trail", "_previous")

    def __init__(self, trail: TrailContext | None = None) -> None:
        self.trail = TrailContext() if trail is None else trail

    def __enter__(self) -> TrailContext:
        self._previous = getattr(_STATE, "trail", None)
        _STATE.trail = self.trail
        return self.trail

    def __exit__(self, *exc_info: object) -> None:
        _STATE.trail = self._previous


def call_site() -> dict[str, Any]:
    """Question/cell attributes for the in-flight model call, if any."""
    return getattr(_STATE, "site", None) or {}


class call_site_scope:
    """``with call_site_scope(question=uid, cell=...):`` — tag spans.

    Carries the question uid (and cell, when known) down to the
    ``model_call`` spans emitted deep inside the engine, independent
    of whether trail capture is on.
    """

    __slots__ = ("_site", "_previous")

    def __init__(self, **attrs: Any) -> None:
        self._site = {key: value for key, value in attrs.items()
                      if value is not None}

    def __enter__(self) -> None:
        self._previous = getattr(_STATE, "site", None)
        _STATE.site = self._site

    def __exit__(self, *exc_info: object) -> None:
        _STATE.site = self._previous


# ----------------------------------------------------------------------
# Predicate expressions (obs grep) — no eval, tiny recursive descent
# ----------------------------------------------------------------------
class TrailQueryError(ReproError):
    """A --where expression failed to parse."""


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<num>-?\d+(?:\.\d+)?)
      | (?P<str>'[^']*'|"[^"]*")
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>==|!=|<=|>=|<|>|\(|\))
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"true": True, "false": False, "none": None}


def _tokenize(expression: str) -> list[tuple[str, Any]]:
    tokens: list[tuple[str, Any]] = []
    position = 0
    while position < len(expression):
        match = _TOKEN_RE.match(expression, position)
        if match is None:
            if expression[position:].strip():
                raise TrailQueryError(
                    f"bad character in --where at offset {position}: "
                    f"{expression[position:]!r}")
            break
        position = match.end()
        if match.lastgroup == "num":
            text = match.group("num")
            tokens.append(("lit", float(text) if "." in text else int(text)))
        elif match.lastgroup == "str":
            tokens.append(("lit", match.group("str")[1:-1]))
        elif match.lastgroup == "name":
            name = match.group("name")
            lowered = name.lower()
            if lowered in ("and", "or", "not"):
                tokens.append((lowered, name))
            elif lowered in _KEYWORDS:
                tokens.append(("lit", _KEYWORDS[lowered]))
            else:
                tokens.append(("name", name))
        else:
            tokens.append((match.group("op"), match.group("op")))
    return tokens


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

Predicate = Callable[[Mapping[str, Any]], bool]
_Node = Callable[[Mapping[str, Any]], Any]


class _Parser:
    """expr := and-chain ('or' and-chain)* with the usual precedence."""

    def __init__(self, tokens: list[tuple[str, Any]], source: str) -> None:
        self.tokens = tokens
        self.source = source
        self.index = 0

    def peek(self) -> tuple[str, Any] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def take(self) -> tuple[str, Any]:
        token = self.peek()
        if token is None:
            raise TrailQueryError(
                f"unexpected end of --where expression: {self.source!r}")
        self.index += 1
        return token

    def parse(self) -> _Node:
        node = self.or_expr()
        if self.peek() is not None:
            kind, value = self.peek()  # type: ignore[misc]
            raise TrailQueryError(
                f"unexpected {value!r} in --where expression "
                f"{self.source!r}")
        return node

    def or_expr(self) -> _Node:
        node = self.and_expr()
        while self.peek() is not None and self.peek()[0] == "or":
            self.take()
            right = self.and_expr()
            node = (lambda env, a=node, b=right:
                    bool(a(env)) or bool(b(env)))
        return node

    def and_expr(self) -> _Node:
        node = self.not_expr()
        while self.peek() is not None and self.peek()[0] == "and":
            self.take()
            right = self.not_expr()
            node = (lambda env, a=node, b=right:
                    bool(a(env)) and bool(b(env)))
        return node

    def not_expr(self) -> _Node:
        if self.peek() is not None and self.peek()[0] == "not":
            self.take()
            inner = self.not_expr()
            return lambda env, a=inner: not bool(a(env))
        return self.comparison()

    def comparison(self) -> _Node:
        left = self.operand()
        token = self.peek()
        if token is not None and token[0] in _COMPARATORS:
            op = _COMPARATORS[self.take()[0]]
            right = self.operand()
            def compare(env: Mapping[str, Any], a: _Node = left,
                        b: _Node = right,
                        op: Callable[[Any, Any], bool] = op) -> bool:
                try:
                    return bool(op(a(env), b(env)))
                except TypeError:
                    # e.g. None < 3 on a field the run never recorded
                    return False
            return compare
        return left

    def operand(self) -> _Node:
        kind, value = self.take()
        if kind == "lit":
            return lambda env, v=value: v
        if kind == "name":
            return lambda env, n=value: env.get(n)
        if kind == "(":
            node = self.or_expr()
            closing = self.take()
            if closing[0] != ")":
                raise TrailQueryError(
                    f"expected ')' in --where expression {self.source!r}")
            return node
        raise TrailQueryError(
            f"unexpected {value!r} in --where expression {self.source!r}")


def compile_predicate(expression: str) -> Predicate:
    """Compile a --where expression into env -> bool.  No eval."""
    tokens = _tokenize(expression)
    if not tokens:
        raise TrailQueryError("empty --where expression")
    node = _Parser(tokens, expression).parse()
    return lambda env: bool(node(env))


_EMPTY_TRAIL = Trail()


def trail_env(record: Any, *, index: int | None = None,
              cell: str | None = None) -> dict[str, Any]:
    """Flat field environment a predicate evaluates against.

    Record fields plus trail fields; records without a trail (legacy
    ledgers, trail-off runs) see the trail defaults, so predicates
    like ``attempts > 1`` are simply false for them.
    """
    trail = getattr(record, "trail", None) or _EMPTY_TRAIL
    env: dict[str, Any] = {
        "index": index,
        "cell": cell,
        "uid": record.question_uid,
        "model": record.model,
        "setting": record.setting,
        "response": record.response,
        "parsed": record.parsed.value,
        "expected": record.expected.value,
        "correct": record.correct,
        "missed": record.missed,
        "prompt_tokens": record.prompt_tokens,
        "completion_tokens": record.completion_tokens,
        "has_trail": getattr(record, "trail", None) is not None,
        "error_count": len(trail.errors),
    }
    for name in _TRAIL_DEFAULTS:
        env[name] = getattr(trail, name)
    return env


# ----------------------------------------------------------------------
# Per-cell analytics (obs trails)
# ----------------------------------------------------------------------
def trail_summary(records: Iterable[Any]) -> dict[str, Any]:
    """Fold trail analytics over records (JSON-ready, deterministic)."""
    total = 0
    with_trail = 0
    cache_hits = 0
    cache_misses = 0
    persisted_hits = 0
    leaders = 0
    followers = 0
    retried = 0
    injected = 0
    attempt_dist: dict[int, int] = {}
    error_dist: dict[str, int] = {}
    hedged = 0
    hedge_wins = 0
    fallback_calls = 0
    batch_sizes: dict[int, int] = {}
    batch_cuts: dict[str, int] = {}
    rate_wait_s = 0.0
    timeout_lost_s = 0.0
    billed_prompt = 0
    billed_completion = 0
    cost_nanos = 0
    for record in records:
        total += 1
        trail = getattr(record, "trail", None)
        if trail is None:
            continue
        with_trail += 1
        if trail.cache_hit is True:
            cache_hits += 1
            if trail.cache_source == "persisted":
                persisted_hits += 1
        elif trail.cache_hit is False:
            cache_misses += 1
        if trail.coalesced == "leader":
            leaders += 1
        elif trail.coalesced == "follower":
            followers += 1
        attempt_dist[trail.attempts] = attempt_dist.get(trail.attempts, 0) + 1
        if trail.attempts > 1:
            retried += 1
        if trail.injected:
            injected += 1
        for error in trail.errors:
            error_dist[error] = error_dist.get(error, 0) + 1
        if trail.hedged:
            hedged += 1
        if trail.hedge_won:
            hedge_wins += 1
        fallback_calls += len(trail.fallbacks)
        if trail.batch_size is not None:
            batch_sizes[trail.batch_size] = (
                batch_sizes.get(trail.batch_size, 0) + 1)
        if trail.batch_cut is not None:
            batch_cuts[trail.batch_cut] = batch_cuts.get(trail.batch_cut, 0) + 1
        rate_wait_s += trail.rate_wait_s
        timeout_lost_s += trail.timeout_lost_s
        billed_prompt += trail.billed_prompt_tokens
        billed_completion += trail.billed_completion_tokens
        cost_nanos += trail.cost_nanos
    looked_up = cache_hits + cache_misses
    return {
        "questions": total,
        "with_trail": with_trail,
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "persisted_hits": persisted_hits,
            "hit_rate": (cache_hits / looked_up) if looked_up else None,
        },
        "coalesce": {"leaders": leaders, "followers": followers},
        "retry": {
            "retried": retried,
            "injected_faults": injected,
            "attempts": {str(k): attempt_dist[k]
                         for k in sorted(attempt_dist)},
            "errors": {k: error_dist[k] for k in sorted(error_dist)},
        },
        "hedge": {"fired": hedged, "won": hedge_wins,
                  "fallback_calls": fallback_calls},
        "batch": {
            "sizes": {str(k): batch_sizes[k] for k in sorted(batch_sizes)},
            "cuts": {k: batch_cuts[k] for k in sorted(batch_cuts)},
        },
        "waits": {"rate_wait_s": rate_wait_s,
                  "timeout_lost_s": timeout_lost_s},
        "cost": {
            "billed_prompt_tokens": billed_prompt,
            "billed_completion_tokens": billed_completion,
            "cost_nanos": cost_nanos,
        },
    }
