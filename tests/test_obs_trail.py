"""Provenance trails: codec, predicates, middleware annotations.

Four concerns, one per class below:

* the ``Trail`` <-> dict codec round-trips every field combination and
  omits defaults (property-based, so the ledger format is pinned by
  construction, not by example);
* pre-trail ledgers (no ``trail`` key on record events) replay through
  ``runs show``, ``runs diff`` and ``obs trails`` unchanged;
* the ``obs grep`` predicate compiler honours precedence, keywords and
  its no-``eval`` error contract;
* each middleware layer annotates the ambient :class:`TrailContext`,
  and the composed retried + hedged story renders through the same
  narrative ``obs why`` prints (the acceptance demonstration).
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _why_trail_lines, main
from repro.core.results import QuestionRecord
from repro.engine.cache import CachedModel, ResponseCache
from repro.engine.config import RetryPolicy
from repro.engine.middleware import (FaultInjectingModel,
                                     RetryingModel)
from repro.engine.pool import BackendPool
from repro.errors import ModelError
from repro.llm.base import BaseChatModel
from repro.llm.registry import get_model
from repro.obs import read_spans_jsonl
from repro.obs.trail import (Trail, TrailContext, TrailQueryError,
                             compile_predicate, current_trail,
                             prompt_key, trail_env, trail_from_dict,
                             trail_scope, trail_summary,
                             trail_to_dict)
from repro.questions.model import Answer
from repro.runs import RunRegistry, RunRequest, execute_run


def _record(uid: str = "q0", parsed: Answer = Answer.YES,
            expected: Answer = Answer.YES,
            trail: Trail | None = None) -> QuestionRecord:
    return QuestionRecord(question_uid=uid, model="GPT-4",
                          setting="zero-shot", response="yes.",
                          parsed=parsed, expected=expected,
                          prompt_tokens=10, completion_tokens=2,
                          trail=trail)


# ----------------------------------------------------------------------
# Codec round trip (property-based)
# ----------------------------------------------------------------------
_ERROR_NAMES = st.sampled_from(
    ["ModelTransientError", "ModelTimeoutError", "ModelError"])

_TRAILS = st.builds(
    Trail,
    attempts=st.integers(min_value=1, max_value=6),
    errors=st.lists(_ERROR_NAMES, max_size=4).map(tuple),
    injected=st.booleans(),
    cache_hit=st.sampled_from([None, True, False]),
    cache_source=st.sampled_from([None, "memory", "persisted"]),
    coalesced=st.sampled_from([None, "leader", "follower"]),
    leader_key=st.one_of(st.none(),
                         st.text("0123456789abcdef",
                                 min_size=12, max_size=12)),
    rate_wait_s=st.floats(min_value=0.0, max_value=5.0,
                          allow_nan=False),
    timeout_lost_s=st.floats(min_value=0.0, max_value=5.0,
                             allow_nan=False),
    batch=st.one_of(st.none(), st.integers(1, 99)),
    batch_size=st.one_of(st.none(), st.integers(1, 64)),
    batch_cut=st.sampled_from([None, "size", "linger", "drain"]),
    replica=st.one_of(st.none(), st.integers(0, 7)),
    fallbacks=st.lists(st.integers(0, 7), max_size=4).map(tuple),
    hedged=st.booleans(),
    hedge_won=st.booleans(),
    billed_prompt_tokens=st.integers(0, 10_000),
    billed_completion_tokens=st.integers(0, 10_000),
    cost_nanos=st.integers(0, 10 ** 12),
)


class TestTrailCodec:
    @settings(max_examples=200, deadline=None)
    @given(trail=_TRAILS)
    def test_round_trip_identity(self, trail):
        assert trail_from_dict(trail_to_dict(trail)) == trail

    @settings(max_examples=100, deadline=None)
    @given(trail=_TRAILS)
    def test_round_trip_survives_json(self, trail):
        wire = json.loads(json.dumps(trail_to_dict(trail)))
        assert trail_from_dict(wire) == trail

    @settings(max_examples=100, deadline=None)
    @given(trail=_TRAILS)
    def test_codec_omits_defaults(self, trail):
        payload = trail_to_dict(trail)
        defaults = trail_to_dict(Trail())
        assert defaults == {}
        for key, value in payload.items():
            assert value != getattr(Trail(), key, object()) or \
                isinstance(value, list)

    def test_empty_dict_decodes_to_default_trail(self):
        assert trail_from_dict({}) == Trail()

    def test_unknown_keys_are_ignored(self):
        decoded = trail_from_dict({"attempts": 3,
                                   "from_the_future": "xyz"})
        assert decoded.attempts == 3
        assert decoded == Trail(attempts=3)

    def test_tuples_survive_list_encoding(self):
        trail = Trail(errors=("A", "B"), fallbacks=(0, 2))
        payload = trail_to_dict(trail)
        assert payload["errors"] == ["A", "B"]
        assert payload["fallbacks"] == [0, 2]
        decoded = trail_from_dict(payload)
        assert decoded.errors == ("A", "B")
        assert decoded.fallbacks == (0, 2)

    def test_prompt_key_is_stable_and_short(self):
        assert prompt_key("hello") == prompt_key("hello")
        assert prompt_key("hello") != prompt_key("world")
        assert len(prompt_key("hello")) == 12


# ----------------------------------------------------------------------
# Legacy ledgers: records without a trail key replay everywhere
# ----------------------------------------------------------------------
class TestLegacyLedgerReplay:
    def _cli(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def _strip_trails(self, ledger_path) -> int:
        """Rewrite a ledger as a pre-trail process would have written
        it: record events lose their ``trail`` key, bytes otherwise
        untouched."""
        stripped = 0
        lines = []
        with open(ledger_path, encoding="utf-8") as stream:
            for line in stream:
                event = json.loads(line)
                if event.get("event") == "record" and \
                        event.pop("trail", None) is not None:
                    stripped += 1
                lines.append(json.dumps(event))
        ledger_path.write_text("\n".join(lines) + "\n",
                               encoding="utf-8")
        return stripped

    def test_stripped_ledger_replays_through_cli(self, capsys,
                                                 tmp_path):
        runs_dir = str(tmp_path / "runs")
        for _ in range(2):
            self._cli(capsys, "run", "--models", "GPT-4",
                      "--taxonomies", "ebay", "--sample", "8",
                      "--trail", "--runs-dir", runs_dir)
        listing = json.loads(self._cli(
            capsys, "runs", "list", "--json", "--runs-dir", runs_dir))
        trailed, legacy = (listing[0]["run_id"],
                           listing[1]["run_id"])

        registry = RunRegistry(runs_dir)
        assert self._strip_trails(registry.ledger_path(legacy)) > 0

        # runs show decodes the stripped records without complaint.
        shown = json.loads(self._cli(
            capsys, "runs", "show", legacy, "--json",
            "--runs-dir", runs_dir))
        assert shown["finished"] is True

        # The determinism diff ignores trails entirely: a trailed run
        # and its trail-stripped twin are *identical*.
        diff = json.loads(self._cli(
            capsys, "runs", "diff", trailed, legacy, "--json",
            "--runs-dir", runs_dir))
        assert diff["identical"] is True

        # obs trails degrades to "no trails", never an error.
        summary = json.loads(self._cli(
            capsys, "obs", "trails", legacy, "--json",
            "--runs-dir", runs_dir))
        assert summary["totals"]["questions"] > 0
        assert summary["totals"]["with_trail"] == 0
        trailed_summary = json.loads(self._cli(
            capsys, "obs", "trails", trailed, "--json",
            "--runs-dir", runs_dir))
        assert trailed_summary["totals"]["with_trail"] == \
            trailed_summary["totals"]["questions"]

        # obs why reports the missing trail instead of failing.
        why = self._cli(capsys, "obs", "why", legacy, "0",
                        "--runs-dir", runs_dir)
        assert "no provenance trail recorded" in why

    def test_in_memory_decode_without_trail_key(self):
        record = _record(trail=Trail(attempts=2))
        from repro.core.results import record_from_dict, \
            record_to_dict
        payload = record_to_dict(record)
        del payload["trail"]
        legacy = record_from_dict(payload)
        assert legacy.trail is None
        assert legacy == record            # trail excluded from eq
        env = trail_env(legacy)
        assert env["has_trail"] is False
        assert env["attempts"] == 1 and env["cache_hit"] is None
        assert env["error_count"] == 0


# ----------------------------------------------------------------------
# Predicate compiler (obs grep --where)
# ----------------------------------------------------------------------
class TestPredicateCompiler:
    ENV = {"attempts": 3, "cache_hit": False, "replica": 1,
           "errors": ("ModelTimeoutError",), "error_count": 1,
           "correct": True, "cell": "GPT-4/ebay/zero-shot",
           "rate_wait_s": 0.25, "batch": None}

    def _match(self, expression: str, env: dict | None = None):
        return compile_predicate(expression)(env if env is not None
                                             else dict(self.ENV))

    def test_comparisons_and_keywords(self):
        assert self._match("attempts > 1")
        assert self._match("attempts >= 3 and attempts <= 3")
        assert self._match("cache_hit == false")
        assert self._match("cache_hit != true")
        assert self._match("batch == none")
        assert self._match("correct == true")
        assert not self._match("attempts < 3")

    def test_and_binds_tighter_than_or(self):
        # false and false or true  ==  (false and false) or true
        assert self._match("attempts < 0 and replica == 9 "
                           "or correct == true")
        # true or false and false  ==  true or (false and false)
        assert self._match("correct == true or attempts < 0 "
                           "and replica == 9")

    def test_not_and_parentheses(self):
        assert self._match("not cache_hit")
        assert self._match("not (attempts < 2)")
        assert not self._match("not (cache_hit == false or "
                               "attempts > 1)")

    def test_string_literals(self):
        assert self._match("cell == 'GPT-4/ebay/zero-shot'")
        assert self._match('cell != "other"')

    def test_unknown_identifier_is_none(self):
        assert self._match("no_such_field == none")
        assert not self._match("no_such_field == 1")

    def test_type_mismatch_comparison_is_false_not_raise(self):
        # replica is None on an untrailed question; ordering against
        # a number must select nothing, not blow up the whole grep.
        assert not self._match("batch > 2")
        assert not self._match("batch < 2")

    @pytest.mark.parametrize("bad", [
        "", "   ", "attempts >", "and attempts", "attempts ~ 1",
        "(attempts > 1", "attempts > 1)", "attempts > 1 extra",
        "== 3", "'unterminated",
    ])
    def test_malformed_expressions_raise(self, bad):
        with pytest.raises(TrailQueryError):
            compile_predicate(bad)

    def test_env_exposes_trail_and_record_fields(self):
        trail = Trail(attempts=2, errors=("ModelTransientError",),
                      cache_hit=False, replica=1, fallbacks=(0,),
                      hedged=True, hedge_won=True, cost_nanos=7)
        env = trail_env(_record(trail=trail), index=4, cell="c")
        assert env["index"] == 4 and env["cell"] == "c"
        assert env["has_trail"] is True
        assert env["attempts"] == 2 and env["error_count"] == 1
        assert env["hedge_won"] is True and env["cost_nanos"] == 7
        matcher = compile_predicate(
            "attempts > 1 and cache_hit == false and hedged")
        assert matcher(env)


# ----------------------------------------------------------------------
# Analytics fold
# ----------------------------------------------------------------------
class TestTrailSummary:
    def test_summary_folds_every_dimension(self):
        records = [
            _record("q0", trail=Trail(cache_hit=False)),
            _record("q1", trail=Trail(cache_hit=True,
                                      cache_source="persisted")),
            _record("q2", trail=Trail(
                attempts=3, errors=("ModelTransientError",) * 2,
                injected=True, cache_hit=False, batch=1,
                batch_size=2, batch_cut="size", rate_wait_s=0.5,
                billed_prompt_tokens=100,
                billed_completion_tokens=10,
                cost_nanos=2_000_000_000)),
            _record("q3", trail=Trail(
                coalesced="follower", leader_key="abc",
                replica=1, fallbacks=(0,), hedged=True,
                hedge_won=True, batch=1, batch_size=2,
                batch_cut="size")),
            _record("q4"),                       # untrailed
        ]
        summary = trail_summary(records)
        assert summary["questions"] == 5
        assert summary["with_trail"] == 4
        assert summary["cache"]["hits"] == 1
        assert summary["cache"]["misses"] == 2
        assert summary["cache"]["persisted_hits"] == 1
        assert summary["cache"]["hit_rate"] == pytest.approx(1 / 3)
        assert summary["coalesce"]["followers"] == 1
        assert summary["retry"]["retried"] == 1
        assert summary["retry"]["injected_faults"] == 1
        assert summary["retry"]["attempts"]["3"] == 1
        assert summary["retry"]["errors"][
            "ModelTransientError"] == 2
        assert summary["hedge"]["fired"] == 1
        assert summary["hedge"]["won"] == 1
        assert summary["hedge"]["fallback_calls"] == 1
        assert summary["batch"]["sizes"]["2"] == 2
        assert summary["batch"]["cuts"]["size"] == 2
        assert summary["waits"]["rate_wait_s"] == \
            pytest.approx(0.5)
        assert summary["cost"]["cost_nanos"] == 2_000_000_000

    def test_summary_of_untrailed_records(self):
        summary = trail_summary([_record(), _record()])
        assert summary["questions"] == 2
        assert summary["with_trail"] == 0
        assert summary["cache"]["hit_rate"] is None


# ----------------------------------------------------------------------
# Middleware annotations (the layers write what they know)
# ----------------------------------------------------------------------
class _Failing(BaseChatModel):
    """Backend that always raises a hard ModelError."""

    def __init__(self, name: str = "GPT-4"):
        super().__init__(name)
        self.calls = 0

    def _respond(self, prompt: str) -> str:
        self.calls += 1
        raise ModelError(f"{self.name}: down")


class _Slow(BaseChatModel):
    """Backend that answers correctly but only after a long sleep."""

    def __init__(self, delay_s: float, name: str = "GPT-4"):
        super().__init__(name)
        self.delay_s = delay_s
        self._inner = get_model(name)

    def _respond(self, prompt: str) -> str:
        time.sleep(self.delay_s)
        return self._inner.generate(prompt)


class TestMiddlewareAnnotations:
    def test_no_ambient_trail_outside_scope(self):
        assert current_trail() is None
        with trail_scope() as ctx:
            assert current_trail() is ctx
        assert current_trail() is None

    def test_cache_layer_annotates_hit_miss_and_source(self,
                                                       tmp_path):
        cache = ResponseCache()
        model = CachedModel(get_model("GPT-4"), cache)
        prompt = "Is headphones a kind of audio? answer yes or no."
        with trail_scope() as ctx:
            model.generate(prompt)
        miss = ctx.freeze()
        assert miss.cache_hit is False and miss.cache_source is None

        with trail_scope() as ctx:
            model.generate(prompt)
        assert ctx.freeze().cache_source == "memory"

        path = tmp_path / "cache.json"
        cache.save(path)
        warmed = CachedModel(get_model("GPT-4"),
                             ResponseCache.load(path))
        with trail_scope() as ctx:
            warmed.generate(prompt)
        hit = ctx.freeze()
        assert hit.cache_hit is True
        assert hit.cache_source == "persisted"

    def test_retry_layer_counts_attempts_and_faults(self):
        flaky = FaultInjectingModel(get_model("GPT-4"),
                                    failure_rate=1.0,
                                    max_consecutive=2)
        model = RetryingModel(flaky, RetryPolicy(retries=3),
                              sleeper=lambda _: None)
        with trail_scope() as ctx:
            model.generate("Is audio a kind of electronics?")
        trail = ctx.freeze()
        assert trail.attempts == 3
        assert trail.errors == ("ModelTransientError",) * 2
        assert trail.injected is True

    def test_pool_fallback_records_replica_order(self):
        pool = BackendPool([_Failing(), get_model("GPT-4")])
        with trail_scope() as ctx:
            pool.generate("Is video a kind of electronics?")
        trail = ctx.freeze()
        assert trail.replica == 1
        assert trail.fallbacks == (0,)
        assert trail.hedged is False

    def test_pool_hedge_records_winner(self):
        pool = BackendPool([_Slow(0.5), get_model("GPT-4")],
                           hedge_delay_s=0.01)
        try:
            with trail_scope() as ctx:
                pool.generate("Is furniture a kind of home?")
        finally:
            pool.close()
        trail = ctx.freeze()
        assert trail.hedged is True
        assert trail.hedge_won is True
        assert trail.replica == 1

    def test_note_cost_accumulates(self):
        ctx = TrailContext()
        ctx.note_cost(10, 2, 500)
        ctx.note_cost(5, 1, 250)
        trail = ctx.freeze()
        assert trail.billed_prompt_tokens == 15
        assert trail.billed_completion_tokens == 3
        assert trail.cost_nanos == 750


# ----------------------------------------------------------------------
# Acceptance: the retried + hedged question, explained
# ----------------------------------------------------------------------
class TestWhyNarrative:
    def test_retried_hedged_story_names_every_cause(self):
        """The composed worst-case question — injected faults forced
        retries, the pool's primary replica failed, a hedge won on the
        fallback — must read back with the attempt count, the error
        classes, the replica order and the batch id all named."""
        pool = BackendPool([_Failing(), get_model("GPT-4")])
        flaky = FaultInjectingModel(pool, failure_rate=1.0,
                                    max_consecutive=2)
        model = RetryingModel(flaky, RetryPolicy(retries=3),
                              sleeper=lambda _: None)
        with trail_scope() as ctx:
            model.generate("Is chairs a kind of furniture?")
            # Batch placement is stamped by the loop-thread
            # dispatcher in production; stamp it the same way here.
            ctx.batch = 2
            ctx.batch_size = 4
            ctx.batch_cut = "size"
            ctx.hedged = True
            ctx.hedge_won = True
        text = "\n".join(_why_trail_lines(
            trail_to_dict(ctx.freeze())))
        assert "3 attempt(s)" in text
        assert "ModelTransientError, ModelTransientError" in text
        assert "(injected)" in text
        assert "replica 1" in text
        assert "replica(s) 0 failed" in text
        assert "the hedge won" in text
        assert "batch #2 of 4 prompt(s)" in text
        assert "flushed on size" in text

    def test_batch_ids_in_trails_match_batch_spans(self, tmp_path):
        """A trail's batch id must cite a real ``batch`` span with
        the same sequence number and size — the join the narrative
        relies on."""
        registry = RunRegistry(str(tmp_path / "runs"))
        result = execute_run(
            RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
                       sample_size=8, workers=4, batch_size=4,
                       trail=True),
            registry=registry)
        spans = read_spans_jsonl(registry.spans_path(result.run_id))
        batch_spans = {span.attrs["seq"]: span.attrs["size"]
                       for span in spans if span.name == "batch"}
        assert batch_spans, "batched run produced no batch spans"
        state = registry.state(result.run_id)
        checked = 0
        for cell in state.cells.values():
            for record in cell.records.values():
                assert record.trail is not None
                assert record.trail.batch in batch_spans
                assert record.trail.batch_size <= \
                    batch_spans[record.trail.batch]
                checked += 1
        assert checked > 0

    def test_obs_why_cites_the_question_span_at_one_worker(
            self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        registry = RunRegistry(runs_dir)
        result = execute_run(
            RunRequest(models=("GPT-4", "LLMs4OL"),
                       taxonomy_keys=("ebay",), sample_size=4,
                       trail=True),
            registry=registry)
        spans = read_spans_jsonl(registry.spans_path(result.run_id))
        cells = {span.span_id: "|".join(
            (span.attrs["model"], span.attrs["label"],
             span.attrs["setting"]))
            for span in spans if span.name == "cell"}
        own = {(cells[span.parent_id], span.attrs["uid"]): span.span_id
               for span in spans if span.name == "question"}
        # Both models ask the same questions: only the cell tells
        # their spans apart.
        assert len(own) == result.evaluated
        for index in range(result.evaluated):
            assert main(["obs", "why", result.run_id, str(index),
                         "--runs-dir", str(runs_dir)]) == 0
            text = capsys.readouterr().out
            words = text.splitlines()[1].split()
            uid, cell = words[0], words[-1]
            assert text.count("question#") == 1
            assert f"question#{own[cell, uid]} " in text
            assert "batch#" not in text

    def test_obs_why_cli_text_for_real_run(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "runs")
        assert main(["run", "--models", "GPT-4", "--taxonomies",
                     "ebay", "--sample", "6", "--trail",
                     "--workers", "2", "--coalesce",
                     "--runs-dir", runs_dir]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--json",
                     "--runs-dir", runs_dir]) == 0
        run_id = json.loads(
            capsys.readouterr().out)[0]["run_id"]
        assert main(["obs", "why", run_id, "0",
                     "--runs-dir", runs_dir]) == 0
        text = capsys.readouterr().out
        assert f"question 0 of run {run_id}" in text
        assert "cache: miss — went to the backend" in text
        assert "coalesced: led prompt" in text
        assert text.count("question#") == 1     # its own span
