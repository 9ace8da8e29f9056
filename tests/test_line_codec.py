"""Property tests: the direct line encoders write ``json.dumps``'s bytes.

The ledger's ``record`` lines and the span log's lines are built
straight from their objects' fields (``repro.core.results.record_line``,
``repro.obs.tracer.Span.to_line``).  ``json.dumps`` of the dict form
stays the reference here, so a field added to a dict form but not to
its line form — or an escape, number or key-order difference — fails.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import QuestionRecord, record_to_dict
from repro.obs.tracer import Span
from repro.obs.trail import Trail
from repro.questions.model import Answer
from repro.runs.ledger import RunLedger, replay_ledger


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 40


class _Seconds(float):
    """A float subclass: json prints it as a float, nothing else."""


def _reference(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


#: Characters a JSON string encoder must escape or spell out.
_SPECIALS = ['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", " ",
             "\ud800", "\udfff", "é", "\U0001f600"]


def _no_surrogate_pair(text: str) -> bool:
    """JSON writes a lone high and a lone low surrogate side by side
    as an escaped pair, which every decoder reads back as the one
    character the pair encodes, so such text cannot round-trip."""
    return not any("\ud800" <= high <= "\udbff" and
                   "\udc00" <= low <= "\udfff"
                   for high, low in zip(text, text[1:]))


texts = st.text(st.one_of(st.characters(exclude_categories=()),
                          st.sampled_from(_SPECIALS)),
                max_size=24).filter(_no_surrogate_pair)
answers = st.sampled_from(list(Answer)).flatmap(
    lambda answer: st.sampled_from([answer, answer.value]))
token_counts = st.one_of(
    st.integers(min_value=0, max_value=2 ** 80),
    st.sampled_from([False, True, _Level.LOW, _Level.HIGH]))
trails = st.one_of(st.none(), st.builds(
    Trail,
    attempts=st.integers(min_value=1, max_value=5),
    errors=st.lists(texts, max_size=2).map(tuple),
    cache_hit=st.one_of(st.none(), st.booleans()),
    rate_wait_s=st.floats(min_value=0.0, max_value=1e6),
    batch=st.one_of(st.none(), st.integers(min_value=0,
                                           max_value=2 ** 40)),
    cost_nanos=st.integers(min_value=0, max_value=2 ** 70)))
records = st.builds(
    QuestionRecord, question_uid=texts, model=texts, setting=texts,
    response=texts, parsed=answers, expected=answers,
    prompt_tokens=token_counts, completion_tokens=token_counts,
    trail=trails)
events = st.lists(
    st.tuples(texts, st.integers(min_value=0, max_value=2 ** 40),
              records),
    min_size=1, max_size=4, unique_by=lambda event: event[:2])


@pytest.fixture(scope="module")
def ledger_paths(tmp_path_factory):
    """A fresh ledger path per call, all in one directory: removing a
    directory per hypothesis example is slow on some mounts."""
    directory = tmp_path_factory.mktemp("line-codec")
    numbers = itertools.count()
    return lambda: directory / f"ledger-{next(numbers)}.jsonl"


@settings(max_examples=150, deadline=None)
@given(events)
def test_record_lines_equal_json_dumps_and_replay(ledger_paths, events):
    path = ledger_paths()
    with RunLedger(path) as ledger:
        written = [ledger.record(cell, index, record)
                   for cell, index, record in events]
    lines = path.read_text(encoding="utf-8").splitlines(True)
    assert lines == [
        _reference({"event": "record", "cell": cell, "i": index,
                    **record_to_dict(record)})
        for cell, index, record in events]
    assert [line + "\n" for line in written] == lines
    state = replay_ledger(path)
    for cell, index, record in events:
        replayed = state.cells[cell].records[index]
        assert replayed == record
        assert replayed.trail == record.trail


@settings(max_examples=100, deadline=None)
@given(records)
def test_pickled_records_keep_every_field(record):
    again = pickle.loads(pickle.dumps(record))
    assert again == record
    assert again.trail == record.trail


_TIMES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, 1e300,
          1700000000.123456]
times = st.one_of(st.floats(), st.sampled_from(_TIMES))
ids = st.integers(min_value=0, max_value=2 ** 64)
attr_values = st.one_of(
    texts, st.integers(min_value=-2 ** 70, max_value=2 ** 70), times,
    st.booleans(), st.none(), st.sampled_from(list(_Level)),
    times.map(_Seconds))
spans = st.builds(
    Span, name=texts, span_id=ids,
    parent_id=st.one_of(st.none(), ids), start_s=times,
    end_s=st.one_of(st.none(), times), thread_id=ids,
    attrs=st.dictionaries(st.one_of(texts, st.integers()), attr_values,
                          max_size=5))


@settings(max_examples=300, deadline=None)
@given(spans)
def test_span_lines_equal_json_dumps(span):
    assert span.to_line() == _reference(span.to_dict())
