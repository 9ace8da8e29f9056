"""The engine's counter book.

:class:`EngineStats` declares every run counter, with the registry
metric each is exported under; :class:`Telemetry` follows from those
fields.  These checks pin the numbers and the Prometheus bytes a fixed
event script produced before the book was derived from the fields
(and before every per-question counter was folded from the question's
trail), and that only the run-level sites in ``src/`` add to it
directly.
"""

from __future__ import annotations

import ast
import hashlib
import random
from pathlib import Path

import pytest

from repro.engine.telemetry import STAT_FIELDS, Telemetry
from repro.obs.export import format_prometheus
from repro.obs.metrics import Histogram
from repro.obs.trail import Trail

SRC = Path(__file__).resolve().parent.parent / "src"

#: The fixed script's snapshot, taken before the counters were
#: declared as fields.
GOLDEN_STATS = {
    "records": 50,
    "calls": 42,
    "retries": 5,
    "faults": 5,
    "timeouts": 2,
    "cache_hits": 8,
    "cache_misses": 17,
    "wall_time_s": 1.25,
    "busy_time_s": 2.1462499999999998,
    "workers": 3,
    "latency_p50_s": 0.03333333333333334,
    "latency_p90_s": 0.125,
    "latency_p99_s": 0.125,
    "latency_min_s": 5e-05,
    "latency_max_s": 0.125,
    "batches": 4,
    "coalesced": 6,
    "hedged": 3,
    "adaptive_high_water": 6,
    "prompt_tokens": 1873,
    "completion_tokens": 83,
    "cost_nanos": 1749500,
    "cost_usd": 0.0017495,
}

#: Its Prometheus text at the same point: line count and sha256.
GOLDEN_PROMETHEUS = (
    75, "3d63a533a25850fb99b83b3f4e930aeea541b8dc6c0eb5c161a3f8fff26c9418")

#: ``# HELP`` and ``# TYPE`` lines of that text, in its order.
GOLDEN_HEADERS = """\
# HELP repro_engine_adaptive_limit_high_water AIMD concurrency window high water
# TYPE repro_engine_adaptive_limit_high_water gauge
# HELP repro_engine_batches_total backend generate_batch dispatches
# TYPE repro_engine_batches_total counter
# HELP repro_engine_cache_hits_total response cache hits
# TYPE repro_engine_cache_hits_total counter
# HELP repro_engine_cache_misses_total response cache misses
# TYPE repro_engine_cache_misses_total counter
# HELP repro_engine_calls_total model invocations reaching a backend
# TYPE repro_engine_calls_total counter
# HELP repro_engine_coalesced_total prompts sharing an identical in-flight call
# TYPE repro_engine_coalesced_total counter
# HELP repro_engine_completion_tokens_total completion tokens returned
# TYPE repro_engine_completion_tokens_total counter
# HELP repro_engine_cost_nanos_total accumulated spend in nano-dollars
# TYPE repro_engine_cost_nanos_total counter
# HELP repro_engine_faults_total transient faults observed
# TYPE repro_engine_faults_total counter
# HELP repro_engine_hedged_total hedge requests launched by a backend pool
# TYPE repro_engine_hedged_total counter
# HELP repro_engine_prompt_tokens_total prompt tokens sent to backends
# TYPE repro_engine_prompt_tokens_total counter
# HELP repro_engine_question_latency_seconds per-question worker seconds
# TYPE repro_engine_question_latency_seconds histogram
# TYPE repro_engine_question_latency_seconds_min gauge
# TYPE repro_engine_question_latency_seconds_max gauge
# HELP repro_engine_records_total questions scored
# TYPE repro_engine_records_total counter
# HELP repro_engine_retries_total re-attempts after faults
# TYPE repro_engine_retries_total counter
# HELP repro_engine_timeouts_total per-call timeouts
# TYPE repro_engine_timeouts_total counter
# HELP repro_engine_wall_seconds_total scheduler wall-clock seconds
# TYPE repro_engine_wall_seconds_total counter
# HELP repro_engine_workers peak worker threads
# TYPE repro_engine_workers gauge
"""


def _trail(i: int) -> Trail:
    """Question ``i``'s finished trail: the even ones are plain billed
    calls, the odd ones cache lookups — 17 billed misses and 8 hits
    (the odd multiples of 3), six of those followers, the last five
    with one fault each (the last two of them timeouts), and the
    three at multiples of 9 hedged."""
    if i % 2 == 0:
        return Trail(billed_prompt_tokens=20 + i,
                     billed_completion_tokens=1 + i % 3,
                     cost_nanos=1_000 * (20 + i))
    if i % 3:
        return Trail(cache_hit=False, billed_prompt_tokens=20 + i,
                     billed_completion_tokens=2, cost_nanos=1_500 * i)
    hit = i // 6                  # 0..7 over the eight hits
    fault = ("ModelTimeoutError" if hit >= 6
             else "ModelTransientError")
    return Trail(cache_hit=True,
                 coalesced="follower" if hit < 6 else None,
                 attempts=2 if hit >= 3 else 1,
                 errors=(fault,) if hit >= 3 else (),
                 hedged=i % 9 == 0)


def _script(telemetry: Telemetry) -> Telemetry:
    """Fifty questions' trails, folded as the runner and the engine
    fold them, plus the run-level facts the batcher and the scheduler
    add."""
    for i in range(50):
        if i % 2:
            if i % 7 == 0:
                telemetry.add(batches=1)
            telemetry.add(adaptive_high_water=int(1.5 + i / 10))
        telemetry.observe(0.00005 * (i + 1) ** 2, _trail(i))
    telemetry.add(wall_time_s=0.75, workers=3)
    telemetry.add(wall_time_s=0.5, workers=2)
    return telemetry


class TestSameNumbers:
    def test_the_script_gives_the_golden_stats(self):
        assert _script(Telemetry()).snapshot().to_dict() == GOLDEN_STATS

    def test_the_script_gives_the_golden_prometheus_bytes(self):
        text = format_prometheus(_script(Telemetry()).registry)
        headers = "".join(line + "\n" for line in text.splitlines()
                          if line.startswith("# "))
        assert headers == GOLDEN_HEADERS
        assert (len(text.splitlines()),
                hashlib.sha256(text.encode()).hexdigest()) \
            == GOLDEN_PROMETHEUS

    def test_an_unknown_field_is_refused(self):
        with pytest.raises(KeyError):
            Telemetry().add(questions=1)
        with pytest.raises(KeyError):
            Telemetry().add(busy_time_s=1.0)   # only observe() adds time


class TestAbsorb:
    def test_two_books_absorb_to_one_that_saw_both(self):
        twice = _script(_script(Telemetry())).snapshot().to_dict()
        book = _script(Telemetry())
        book.absorb(_script(Telemetry()))
        absorbed = book.snapshot().to_dict()
        # Float sums may round differently in another order.
        assert absorbed.pop("busy_time_s") == pytest.approx(
            twice.pop("busy_time_s"))
        assert absorbed == twice

    def test_merged_histogram_quantiles_equal_one_histogram(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(-6, 2) for _ in range(500)]
        whole, left, right = (Histogram("h") for _ in range(3))
        for index, value in enumerate(values):
            whole.observe(value)
            (left if index % 3 else right).observe(value)
        left.merge(right)
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert left.quantile(q) == whole.quantile(q)
        assert (left.count, left.min, left.max, left.bucket_counts()) \
            == (whole.count, whole.min, whole.max,
                whole.bucket_counts())
        assert left.total == pytest.approx(whole.total)

    def test_merging_an_empty_histogram_changes_nothing(self):
        full, empty = Histogram("h"), Histogram("h")
        full.observe(0.5)
        before = full.to_dict()
        full.merge(empty)
        assert full.to_dict() == before
        empty.merge(full)
        assert empty.to_dict() == before

    def test_bounds_must_match(self):
        with pytest.raises(ValueError):
            Histogram("h").merge(Histogram("h", bounds=(1.0,)))


#: The files that book into a :class:`Telemetry`: the sequential
#: loop's and the scheduler's per-question fold, and the run-level
#: facts of the batcher, the scheduler and the run session.
BOOKING_FILES = {"repro/core/runner.py", "repro/engine/batching.py",
                 "repro/engine/scheduler.py", "repro/runs/session.py"}
#: The only fields added directly: no single question's trail holds
#: them.
RUN_LEVEL_FIELDS = {"batches", "adaptive_high_water", "wall_time_s",
                    "workers"}


def _recording_calls():
    """``(file, line, call)`` of every telemetry ``add``/``observe``
    call in ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("add", "observe")
                    and "telemetry" in ast.unparse(
                        node.func.value).lower()):
                yield path.relative_to(SRC), node.lineno, node


class TestRecordingSites:
    def test_every_keyword_names_an_engine_stats_field(self):
        sites = list(_recording_calls())
        # Exactly these files book: a new booking site anywhere fails.
        assert {path.as_posix() for path, _, _ in sites} \
            == BOOKING_FILES
        for path, line, call in sites:
            for keyword in call.keywords:
                assert keyword.arg in STAT_FIELDS, (
                    f"{path}:{line} books {keyword.arg!r}, which is "
                    f"not an EngineStats field")
                # Every per-question counter is folded from a trail.
                assert keyword.arg in RUN_LEVEL_FIELDS, (
                    f"{path}:{line} adds {keyword.arg!r}, which "
                    f"Telemetry.observe folds from the trail")

    def test_every_counted_field_is_exported(self):
        exported = {metric.name for metric
                    in Telemetry().registry.metrics().values()}
        assert len(exported) == 17
