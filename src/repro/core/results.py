"""Result records produced by the evaluation runner.

Besides the in-memory dataclasses this module owns their JSON codec:
the run ledger (:mod:`repro.runs.ledger`) streams every
:class:`QuestionRecord` and :class:`Metrics` to disk as it is
produced, and a record decoded from a ledger must compare equal to —
and score identically to — the record the runner built live.  That is
why :meth:`QuestionRecord.correct` compares answers by value, never by
identity: enum singletons survive a round trip, but plain strings (a
hand-built record, a future codec change) must score the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from repro.core.metrics import Metrics, summarize
from repro.obs.jsonl import dumps_line
from repro.obs.trail import Trail, trail_from_dict, trail_to_dict
from repro.questions.model import Answer


@dataclass(frozen=True, slots=True)
class QuestionRecord:
    """One (model, question) interaction, fully materialized.

    The token counts are pure functions of the prompt and response
    text (``repro.obs.cost.count_tokens``), so a record is
    bit-identical whether it was produced sequentially, through the
    engine, or on a shard — and records persisted before token
    accounting existed decode with both counts at 0.
    """

    question_uid: str
    model: str
    setting: str
    response: str
    parsed: Answer
    expected: Answer
    prompt_tokens: int = 0
    completion_tokens: int = 0
    #: Provenance trail (``--trail`` runs only).  Excluded from
    #: equality: the scored payload is what determinism gates compare,
    #: and placement fields (batch id, replica) legitimately vary with
    #: scheduling.
    trail: Trail | None = field(default=None, compare=False)

    def __reduce__(self):
        # Pickled as its fields and rebuilt by one constructor call,
        # which dumps and loads a shard's handed-back records faster
        # than the dataclass's generated __getstate__/__setstate__.
        return (QuestionRecord, (
            self.question_uid, self.model, self.setting, self.response,
            self.parsed, self.expected, self.prompt_tokens,
            self.completion_tokens, self.trail))

    @property
    def missed(self) -> bool:
        return Answer(self.parsed).is_miss

    @property
    def correct(self) -> bool:
        return (not self.missed) and self.parsed == self.expected


@dataclass(frozen=True, slots=True)
class PoolResult:
    """Aggregated outcome of a model on one question pool."""

    pool_label: str
    model: str
    setting: str
    metrics: Metrics
    records: tuple[QuestionRecord, ...] = field(default=())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.model} on {self.pool_label} "
                f"[{self.setting}]: A={self.metrics.accuracy:.3f} "
                f"M={self.metrics.miss_rate:.3f} (n={self.metrics.n})")


#: Answer value -> whether it is a miss, for plain strings and enum
#: members alike (a member hashes and compares as its value).
_IS_MISS = {answer.value: answer.is_miss for answer in Answer}


def metrics_from_records(records: list[QuestionRecord]) -> Metrics:
    """Score a batch of interaction records in one pass: the counts
    of :attr:`QuestionRecord.correct` and :attr:`QuestionRecord.missed`
    (an unknown ``parsed`` answer raises :class:`ValueError` as they
    do)."""
    correct = missed = 0
    for record in records:
        miss = _IS_MISS.get(record.parsed)
        if miss is None:
            miss = Answer(record.parsed).is_miss
        if miss:
            missed += 1
        elif record.parsed == record.expected:
            correct += 1
    return summarize(correct, missed, len(records))


# ----------------------------------------------------------------------
# JSON codec (ledger events, run registry round trips)
# ----------------------------------------------------------------------
def record_to_dict(record: QuestionRecord) -> dict[str, object]:
    """A JSON-compatible dict; inverse of :func:`record_from_dict`."""
    payload: dict[str, object] = {
        "uid": record.question_uid,
        "model": record.model,
        "setting": record.setting,
        "response": record.response,
        "parsed": Answer(record.parsed).value,
        "expected": Answer(record.expected).value,
        "prompt_tokens": record.prompt_tokens,
        "completion_tokens": record.completion_tokens,
    }
    if record.trail is not None:
        payload["trail"] = trail_to_dict(record.trail)
    return payload


def record_line(cell_id: str, index: int,
                record: QuestionRecord) -> str:
    """The ledger's ``record`` event for ``record``, newline included.

    Byte-equal to ``json.dumps({"event": "record", "cell": cell_id,
    "i": index, **record_to_dict(record)}, separators=(",", ":"))``
    plus a newline, but written straight from the fields: a record
    without a trail whose fields have exactly the types the runner
    gives them (``str``, and ``int`` index and token counts — a
    ``bool`` or an ``IntEnum`` prints differently) skips the dict and
    the encoder.  Anything else goes through the shared encoder.
    """
    prompt_tokens = record.prompt_tokens
    completion_tokens = record.completion_tokens
    if (record.trail is None and type(cell_id) is str
            and type(index) is int
            and type(prompt_tokens) is int
            and type(completion_tokens) is int
            and type(record.question_uid) is str
            and type(record.model) is str
            and type(record.setting) is str
            and type(record.response) is str):
        return (f'{{"event":"record","cell":{_quote(cell_id)},'
                f'"i":{index},"uid":{_quote(record.question_uid)},'
                f'"model":{_quote(record.model)},'
                f'"setting":{_quote(record.setting)},'
                f'"response":{_quote(record.response)},'
                f'"parsed":{_quote(Answer(record.parsed).value)},'
                f'"expected":{_quote(Answer(record.expected).value)},'
                f'"prompt_tokens":{prompt_tokens},'
                f'"completion_tokens":{completion_tokens}}}\n')
    return dumps_line({"event": "record", "cell": cell_id, "i": index,
                       **record_to_dict(record)})


def record_from_dict(payload: dict) -> QuestionRecord:
    """Rebuild a record; decoded records score identically to live ones.

    The token fields default to 0 so ledgers written before token
    accounting existed still decode (and replay bit-identically);
    likewise pre-trail ledgers decode with ``trail=None``.
    """
    return QuestionRecord(
        question_uid=payload["uid"],
        model=payload["model"],
        setting=payload["setting"],
        response=payload["response"],
        parsed=Answer(payload["parsed"]),
        expected=Answer(payload["expected"]),
        prompt_tokens=int(payload.get("prompt_tokens", 0)),
        completion_tokens=int(payload.get("completion_tokens", 0)),
        trail=(trail_from_dict(payload["trail"])
               if "trail" in payload else None),
    )


def metrics_to_dict(metrics: Metrics) -> dict[str, object]:
    """JSON floats round-trip exactly, so decoded metrics are bit-equal."""
    return {"accuracy": metrics.accuracy,
            "miss_rate": metrics.miss_rate,
            "n": metrics.n}


def metrics_from_dict(payload: dict) -> Metrics:
    return Metrics(accuracy=payload["accuracy"],
                   miss_rate=payload["miss_rate"],
                   n=payload["n"])
