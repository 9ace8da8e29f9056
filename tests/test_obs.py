"""Tests for repro.obs: tracer, metrics, exporters, logs, surfacing.

The acceptance criterion of the observability tentpole lives here:
an executed run's span log must export to valid Chrome ``trace_event``
JSON whose reconstructed ``run -> cell -> question`` tree matches the
ledger's scored-question records exactly, cell for cell.
"""

from __future__ import annotations

import io
import json
import logging
import threading

import pytest

from repro.engine.cache import ResponseCache
from repro.engine.config import EngineConfig, RetryPolicy
from repro.engine.middleware import FaultInjectingModel, RetryingModel
from repro.engine.scheduler import EvaluationEngine
from repro.engine.telemetry import EngineStats, Telemetry
from repro.errors import RunError
from repro.llm.registry import get_model
from repro.obs import (NULL_TRACER, MetricsRegistry, Tracer,
                       chrome_trace, configure_logging)
from repro.obs.export import (JsonlSpanSink, format_prometheus,
                              read_spans_jsonl, registry_from_spans,
                              span_tree, write_spans_jsonl)
from repro.obs.logs import get_logger
from repro.obs.metrics import Counter, Histogram
from repro.obs.report import flame_report, phase_rows, phase_table
from repro.obs.tracer import Span
from repro.obs.trail import Trail
from repro.runs import (RunLedger, RunRegistry, RunRequest,
                        execute_run)
from repro.store.artifacts import ArtifactStore
from repro.store.parallel import build_all_datasets
from repro.cli import main


class FakeClock:
    """Each read advances one second: deterministic span durations."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_parents_and_durations(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("run") as run:
            with tracer.span("cell", model="GPT-4") as cell:
                assert tracer.current_id() == cell.span_id
            with tracer.span("cell") as sibling:
                pass
        spans = {span.name: span for span in tracer.spans()}
        assert len(tracer.spans()) == 3
        assert spans["run"].parent_id is None
        assert cell.parent_id == sibling.parent_id == run.span_id
        assert cell.attrs["model"] == "GPT-4"
        # Fake clock ticks once per start/end read: every span closed.
        assert all(span.duration_s > 0 for span in tracer.spans())
        # Completion order: children before the root.
        assert [span.name for span in tracer.spans()] == \
            ["cell", "cell", "run"]

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "ValueError"
        assert span.end_s is not None

    def test_explicit_parent_crosses_threads(self):
        tracer = Tracer()
        with tracer.span("cell") as cell:
            parent = tracer.current_id()

            def worker():
                # A fresh thread has no open spans...
                assert tracer.current_id() is None
                # ...so nesting under the cell takes the explicit id.
                with tracer.span("question", parent=parent):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        question = next(span for span in tracer.spans()
                        if span.name == "question")
        assert question.parent_id == cell.span_id
        assert question.thread_id != cell.thread_id

    def test_concurrent_spans_from_eight_threads(self):
        tracer = Tracer()
        per_thread = 50

        def worker(tag: int):
            for index in range(per_thread):
                with tracer.span("work", tag=tag, index=index):
                    pass

        threads = [threading.Thread(target=worker, args=(tag,))
                   for tag in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = tracer.spans()
        assert len(spans) == 8 * per_thread
        ids = [span.span_id for span in spans]
        assert len(set(ids)) == len(ids)

    def test_adopt_remaps_ids_and_rehomes_roots(self):
        worker = Tracer(clock=FakeClock())
        with worker.span("taxonomy"):
            with worker.span("encode"):
                pass
        payloads = [span.to_dict() for span in worker.spans()]

        driver = Tracer(clock=FakeClock())
        with driver.span("build") as build:
            pass
        adopted = driver.adopt(payloads, parent=build.span_id)
        by_name = {span.name: span for span in adopted}
        # The worker's ids collide with the driver's; adopt remaps.
        assert {span.span_id for span in driver.spans()} == \
            {span.span_id for span in driver.spans()}
        assert len({span.span_id for span in driver.spans()}) == 3
        assert by_name["taxonomy"].parent_id == build.span_id
        assert by_name["encode"].parent_id == \
            by_name["taxonomy"].span_id

    def test_sink_streams_every_finished_span(self):
        finished: list[Span] = []
        tracer = Tracer(clock=FakeClock(), sink=finished.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [span.name for span in finished] == ["inner", "outer"]

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", parent=7, attr=1) as span:
            span.set(more=2)     # accepted and dropped
            assert span.span_id == 0
        assert NULL_TRACER.spans() == ()
        assert NULL_TRACER.current_id() is None
        assert NULL_TRACER.adopt([{"name": "x"}]) == []

    def test_span_dict_round_trip(self):
        span = Span(name="q", span_id=3, parent_id=1, start_s=1.5,
                    end_s=2.5, thread_id=9, attrs={"uid": "q1"})
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone == span
        assert clone.duration_s == 1.0
        open_span = Span(name="q", span_id=4, parent_id=None,
                         start_s=1.0)
        assert open_span.duration_s == 0.0
        assert Span.from_dict(open_span.to_dict()).end_s is None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_is_monotonic(self):
        counter = Counter("c")
        counter.add(2)
        counter.add(0.5)
        assert counter.value == 2.5
        with pytest.raises(ValueError):
            counter.add(-1)

    def test_histogram_quantiles_and_extremes(self):
        histogram = Histogram("h", bounds=(0.01, 0.1, 1.0))
        for value in ([0.005] * 50 + [0.05] * 30 + [0.5] * 20):
            histogram.observe(value)
        assert histogram.count == 100
        assert histogram.min == 0.005
        assert histogram.max == 0.5
        assert histogram.mean == pytest.approx(0.1175)
        assert sum(histogram.bucket_counts()) == 100
        # p50 lands in the first bucket, bounded by the exact extremes.
        assert 0.005 <= histogram.quantile(0.5) <= 0.01
        # p90/p99 interpolate past the data: clamped to the exact max.
        assert histogram.quantile(0.9) == 0.5
        assert histogram.quantile(0.99) == 0.5

    def test_empty_histogram_is_all_zero(self):
        histogram = Histogram("h")
        assert histogram.quantile(0.99) == 0.0
        assert histogram.count == 0
        assert histogram.min == histogram.max == histogram.mean == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 0.5))

    def test_registry_get_or_create_and_kind_conflict(self):
        registry = MetricsRegistry()
        counter = registry.counter("x", "help text")
        assert registry.counter("x") is counter
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_registry_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("calls").add(3)
        registry.gauge("workers").set_max(8)
        histogram = registry.histogram("lat", bounds=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(2.0)
        clone = MetricsRegistry.from_dict(
            json.loads(json.dumps(registry.to_dict())))
        assert clone.to_dict() == registry.to_dict()
        assert clone.histogram("lat", bounds=(0.1, 1.0)).max == 2.0
        with pytest.raises(ValueError):
            MetricsRegistry.from_dict({"x": {"kind": "mystery"}})

    def test_concurrent_recording_matches_serial_tally(self):
        telemetry = Telemetry()
        threads = 8
        per_thread = 200

        def trail(index: int) -> Trail:
            # Odd questions hit the cache; every tenth one (a miss)
            # took a second attempt, every twentieth after a timeout.
            faults = ()
            if index % 10 == 0:
                faults = ("ModelTimeoutError" if index % 20 == 0
                          else "ModelTransientError",)
            return Trail(cache_hit=index % 2 == 1,
                         attempts=1 + len(faults), errors=faults)

        def worker(tag: int):
            for index in range(per_thread):
                telemetry.observe(0.001 * (index % 7 + 1),
                                  trail(index))

        pool = [threading.Thread(target=worker, args=(tag,))
                for tag in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        telemetry.add(wall_time_s=1.0, workers=threads)
        stats = telemetry.snapshot()
        total = threads * per_thread
        assert stats.records == total
        # Each miss called once, each retried miss once more.
        assert stats.calls == total // 2 + threads * 20
        assert stats.cache_hits == stats.cache_misses == total // 2
        assert stats.retries == stats.faults == threads * 20
        assert stats.timeouts == threads * 10
        assert stats.busy_time_s == pytest.approx(
            sum(0.001 * (index % 7 + 1)
                for index in range(per_thread)) * threads)
        assert stats.latency_min_s == pytest.approx(0.001)
        assert stats.latency_max_s == pytest.approx(0.007)
        assert stats.workers == threads


# ----------------------------------------------------------------------
# EngineStats snapshot compatibility
# ----------------------------------------------------------------------
class TestEngineStats:
    def test_zero_record_snapshot_has_no_division_errors(self):
        stats = Telemetry().snapshot()
        assert stats.records == 0
        assert stats.mean_latency_s == 0.0
        assert stats.utilization == 0.0
        assert stats.cache_hit_rate == 0.0
        assert stats.throughput == 0.0
        assert stats.latency_p50_s == stats.latency_max_s == 0.0
        assert stats.workers == 1
        # The report row renders without raising.
        assert stats.as_row()["p50_ms"] == "0.00"

    def test_to_dict_round_trip_keeps_histogram_fields(self):
        telemetry = Telemetry()
        for value in (0.002, 0.004, 0.4):
            telemetry.observe(value, Trail())
        telemetry.add(wall_time_s=0.5, workers=4)
        stats = telemetry.snapshot()
        assert stats.latency_max_s == pytest.approx(0.4)
        assert stats.latency_p50_s > 0.0
        clone = EngineStats.from_dict(
            json.loads(json.dumps(stats.to_dict())))
        assert clone == stats

    def test_from_dict_tolerates_pre_histogram_ledgers(self):
        legacy = {"records": 5, "calls": 5, "retries": 0, "faults": 0,
                  "timeouts": 0, "cache_hits": 1, "cache_misses": 4,
                  "wall_time_s": 1.0, "busy_time_s": 0.5, "workers": 2}
        stats = EngineStats.from_dict(legacy)
        assert stats.records == 5
        assert stats.latency_p99_s == stats.latency_min_s == 0.0

    def test_as_row_appends_latency_columns_at_end(self):
        row = Telemetry().snapshot().as_row()
        assert list(row)[-2:] == ["p50_ms", "p99_ms"]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_spans() -> list[Span]:
    tracer = Tracer(clock=FakeClock())
    with tracer.span("run", run_id="r1"):
        with tracer.span("cell", model="GPT-4"):
            with tracer.span("question", uid="q0"):
                pass
            with tracer.span("question", uid="q1"):
                pass
    return list(tracer.spans())


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        spans = _sample_spans()
        path = write_spans_jsonl(spans, tmp_path / "spans.jsonl")
        loaded = read_spans_jsonl(path)
        assert list(loaded) == spans
        write_spans_jsonl(spans[:1], path, append=True)
        assert len(read_spans_jsonl(path)) == len(spans) + 1

    def test_sink_streams_to_disk_as_spans_finish(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with JsonlSpanSink(path) as sink:
            tracer = Tracer(clock=FakeClock(), sink=sink)
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
                # inner is already durable while outer is still open.
                assert [span.name
                        for span in read_spans_jsonl(path)] == ["inner"]
        sink.close()             # idempotent
        assert [span.name for span in read_spans_jsonl(path)] == \
            ["inner", "outer"]

    def test_torn_final_line_is_dropped_with_warning(
            self, tmp_path, caplog, propagating_logs):
        spans = _sample_spans()
        path = write_spans_jsonl(spans, tmp_path / "spans.jsonl")
        torn = path.read_text(encoding="utf-8")[:-9]
        path.write_text(torn, encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro"):
            loaded = read_spans_jsonl(path)
        assert len(loaded) == len(spans) - 1
        assert "torn-span-line dropped" in caplog.text

    def test_mid_file_corruption_raises(self, tmp_path):
        path = write_spans_jsonl(_sample_spans(),
                                 tmp_path / "spans.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][:-4]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt span log"):
            read_spans_jsonl(path)

    def test_chrome_trace_shape_and_ordering(self):
        spans = _sample_spans()
        document = chrome_trace(spans)
        events = document["traceEvents"]
        assert len(events) == len(spans)
        assert all(event["ph"] == "X" for event in events)
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps)
        assert timestamps[0] == 0.0         # origin-relative
        assert all(event["dur"] > 0 for event in events)
        # args carry the tree: ids resolve back to parent events.
        ids = {event["args"]["span_id"] for event in events}
        for event in events:
            parent = event["args"]["parent_id"]
            assert parent is None or parent in ids
        question = next(event for event in events
                        if event["name"] == "question")
        assert question["args"]["uid"] in {"q0", "q1"}

    def test_chrome_trace_skips_unfinished_spans(self):
        spans = _sample_spans()
        spans.append(Span(name="open", span_id=99, parent_id=None,
                          start_s=0.0))
        assert len(chrome_trace(spans)["traceEvents"]) == \
            len(spans) - 1

    def test_span_tree_groups_children_in_start_order(self):
        spans = _sample_spans()
        tree = span_tree(spans)
        cell = next(span for span in spans if span.name == "cell")
        assert [span.attrs["uid"]
                for span in tree[cell.span_id]] == ["q0", "q1"]

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_calls_total", "model calls").add(4)
        registry.gauge("repro_workers").set(8)
        histogram = registry.histogram("repro_latency_seconds",
                                       bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        text = format_prometheus(registry)
        assert "# HELP repro_calls_total model calls" in text
        assert "# TYPE repro_calls_total counter" in text
        assert "repro_calls_total 4" in text
        assert "repro_workers 8" in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="1"} 2' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_latency_seconds_count 3" in text
        assert "repro_latency_seconds_min 0.05" in text
        assert "repro_latency_seconds_max 5" in text

    def test_registry_from_spans_folds_durations(self):
        registry = registry_from_spans(_sample_spans())
        metrics = registry.metrics()
        assert metrics["repro_span_question_total"].value == 2
        assert metrics["repro_span_question_seconds"].count == 2
        assert metrics["repro_span_run_total"].value == 1

    def test_prometheus_nonfinite_spellings(self):
        registry = MetricsRegistry()
        registry.gauge("repro_pos").set(float("inf"))
        registry.gauge("repro_neg").set(float("-inf"))
        registry.gauge("repro_nan").set(float("nan"))
        text = format_prometheus(registry)
        assert "repro_pos +Inf" in text
        assert "repro_neg -Inf" in text
        assert "repro_nan NaN" in text
        # Python's repr spellings never leak into the exposition.
        for token in text.split():
            assert token not in ("inf", "-inf", "nan")

    def test_prometheus_min_max_are_their_own_gauge_series(self):
        registry = MetricsRegistry()
        registry.histogram("repro_latency_seconds",
                           bounds=(0.1,)).observe(0.05)
        text = format_prometheus(registry)
        assert "# TYPE repro_latency_seconds_min gauge" in text
        assert "# TYPE repro_latency_seconds_max gauge" in text
        # The histogram family itself never claims the bare
        # suffixed names.
        histogram_block = text.split(
            "# TYPE repro_latency_seconds histogram")[1]
        histogram_block = histogram_block.split("# TYPE")[0]
        assert "_min" not in histogram_block
        assert "_max" not in histogram_block

    def test_prometheus_empty_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.histogram("repro_empty_seconds", bounds=(0.1, 1.0))
        text = format_prometheus(registry)
        assert "repro_empty_seconds_count 0" in text
        assert "# TYPE repro_empty_seconds_min gauge" in text
        for token in text.split():
            assert token not in ("inf", "-inf", "nan")

    def test_prometheus_inf_observation_renders_plus_inf(self):
        registry = MetricsRegistry()
        registry.histogram("repro_latency_seconds",
                           bounds=(0.1,)).observe(float("inf"))
        text = format_prometheus(registry)
        assert "repro_latency_seconds_max +Inf" in text
        assert "inf" not in text.split()


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestReports:
    def test_phase_rows_attribute_self_time(self):
        rows = phase_rows(_sample_spans())
        by_phase = {row["phase"]: row for row in rows}
        assert by_phase["question"]["count"] == 2
        # The run's self time excludes the cell nested inside it.
        run_total = float(str(by_phase["run"]["total_s"]))
        run_self = float(str(by_phase["run"]["self_s"]))
        assert run_self < run_total
        assert by_phase["run"]["share"].endswith("%")

    def test_tables_render_and_degrade_empty(self):
        assert "question" in phase_table(_sample_spans())
        assert "no spans recorded" in phase_table([])
        flame = flame_report(_sample_spans())
        assert "no spans recorded" in flame_report([])
        lines = flame.splitlines()
        assert lines[0] == "Trace flamegraph"
        # Indentation tracks depth: question sits two levels down.
        assert any(line.startswith("    question") for line in lines)
        assert any("x2" in line for line in lines
                   if "question" in line)


# ----------------------------------------------------------------------
# Logging satellite
# ----------------------------------------------------------------------
class TestLogging:
    def test_configure_logging_levels_and_idempotence(self):
        stream = io.StringIO()
        root = configure_logging(1, stream=stream)
        logger = get_logger("engine.middleware")
        logger.info("retry model=GPT-4 attempt=1/3")
        logger.debug("hidden at -v")
        assert "retry model=GPT-4" in stream.getvalue()
        assert "hidden at -v" not in stream.getvalue()

        quiet = io.StringIO()
        configure_logging(-1, stream=quiet)
        logger.warning("suppressed when quiet")
        logger.error("errors always surface")
        assert "suppressed" not in quiet.getvalue()
        assert "errors always surface" in quiet.getvalue()
        # Reconfiguring swaps the handler instead of stacking them.
        assert len(root.handlers) == 1

    def test_retry_and_fault_paths_emit_structured_lines(
            self, caplog, propagating_logs):
        flaky = FaultInjectingModel(get_model("GPT-4"), seed=3,
                                    failure_rate=1.0,
                                    max_consecutive=2)
        model = RetryingModel(flaky, RetryPolicy(retries=2),
                              sleeper=lambda seconds: None)
        with caplog.at_level(logging.INFO, logger="repro"):
            model.generate("Is Sinitic language a type of "
                           "Sino-Tibetan language?")
        assert "fault-injected model=GPT-4" in caplog.text
        assert "retry model=GPT-4 attempt=1/2" in caplog.text

    def test_corrupt_artifact_recovery_logs_once(
            self, tmp_path, caplog, propagating_logs):
        store = ArtifactStore(tmp_path)
        path = store.path_for("ebay", 4, "")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ torn", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert store.load("ebay", 4, "") is None
        assert "artifact-corrupt recovered" in caplog.text
        assert store.stats.invalid == 1

    def test_torn_ledger_line_logs_on_replay(
            self, tmp_path, caplog, propagating_logs):
        from repro.runs import replay_ledger
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.run_started("r1")
            ledger.cell_started("c1", 1)
        torn = path.read_text(encoding="utf-8")[:-7]
        path.write_text(torn, encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro"):
            replay_ledger(path)
        assert "ledger-torn-line dropped" in caplog.text


# ----------------------------------------------------------------------
# Cache persistence counters satellite
# ----------------------------------------------------------------------
class TestCacheCounters:
    def test_save_and_load_bump_the_cache_counters(self, tmp_path):
        cache = ResponseCache()
        cache.put("GPT-4", "p", "r")
        path = tmp_path / "cache.json"
        cache.save(path)
        assert cache.saves == 1
        loaded = ResponseCache.load(path)
        assert len(loaded) == 1
        missing = ResponseCache.load(tmp_path / "missing.json")
        assert loaded.loads == missing.loads == 1
        assert loaded.corrupt_recoveries == 0

    def test_corrupt_load_counts_recovery_and_warns(
            self, tmp_path, caplog, propagating_logs):
        path = tmp_path / "cache.json"
        path.write_text('{"format_version": 1, "entr',
                        encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro"):
            cache = ResponseCache.load(path)
        assert len(cache) == 0
        assert cache.corrupt_recoveries == 1
        assert "cache-corrupt recovered" in caplog.text
        # A merely missing file is not a corruption event.
        absent = ResponseCache.load(tmp_path / "absent.json")
        assert absent.corrupt_recoveries == 0


# ----------------------------------------------------------------------
# Dataset build spans
# ----------------------------------------------------------------------
class TestBuildSpans:
    def test_inline_build_traces_taxonomy_and_encode(self):
        tracer = Tracer()
        build_all_datasets(["ebay"], sample_size=5, store=False,
                           jobs=1, tracer=tracer)
        spans = tracer.spans()
        names = {span.name for span in spans}
        assert {"build", "taxonomy", "encode"} <= names
        build = next(span for span in spans if span.name == "build")
        assert build.parent_id is None
        assert all(span.parent_id == build.span_id
                   for span in spans if span.name != "build")

    def test_parallel_build_adopts_worker_spans(self):
        tracer = Tracer()
        build_all_datasets(["ebay", "glottolog"], sample_size=5,
                           store=False, jobs=2, tracer=tracer)
        spans = tracer.spans()
        build = next(span for span in spans if span.name == "build")
        taxonomy_spans = [span for span in spans
                          if span.name == "taxonomy"]
        encode_spans = [span for span in spans
                        if span.name == "encode"]
        assert {span.attrs["taxonomy"] for span in taxonomy_spans} == \
            {"ebay", "glottolog"}
        # Worker-process roots were re-homed under the driver's build.
        assert all(span.parent_id == build.span_id
                   for span in taxonomy_spans)
        assert {span.attrs["taxonomy"] for span in encode_spans} == \
            {"ebay", "glottolog"}
        ids = [span.span_id for span in spans]
        assert len(set(ids)) == len(ids)

    def test_warm_load_records_hit_spans(self, tmp_path):
        store = ArtifactStore(tmp_path)
        build_all_datasets(["ebay"], sample_size=5, store=store,
                           jobs=1)
        tracer = Tracer()
        build_all_datasets(["ebay"], sample_size=5, store=store,
                           jobs=1, tracer=tracer)
        load = next(span for span in tracer.spans()
                    if span.name == "load")
        assert load.attrs["hit"] is True
        assert not any(span.name == "encode"
                       for span in tracer.spans())


# ----------------------------------------------------------------------
# The acceptance criterion: trace tree == ledger contents
# ----------------------------------------------------------------------
class TestRunTraceAcceptance:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_trace_tree_matches_ledger_records(self, tmp_path,
                                               workers):
        registry = RunRegistry(tmp_path / "runs")
        request = RunRequest(models=("GPT-4",),
                             taxonomy_keys=("ebay",), sample_size=8,
                             workers=workers)
        engine = (EvaluationEngine(EngineConfig(max_workers=workers))
                  if workers > 1 else None)
        result = execute_run(request, registry=registry,
                             engine=engine)
        spans_path = registry.spans_path(result.run_id)
        assert spans_path.exists()
        spans = read_spans_jsonl(spans_path)

        document = chrome_trace(spans)
        events = document["traceEvents"]
        assert events and all(
            set(event) >= {"name", "ph", "ts", "dur", "pid", "tid",
                           "args"}
            for event in events)
        json.dumps(document)     # valid JSON all the way down

        # Rebuild the tree purely from the exported args.
        runs = [e for e in events if e["name"] == "run"]
        assert len(runs) == 1
        run_id = runs[0]["args"]["span_id"]
        assert runs[0]["args"]["run_id"] == result.run_id
        cells = {e["args"]["span_id"]: e for e in events
                 if e["name"] == "cell"}
        assert all(cell["args"]["parent_id"] == run_id
                   for cell in cells.values())
        questions_per_cell: dict[str, int] = {}
        for event in events:
            if event["name"] != "question":
                continue
            cell = cells[event["args"]["parent_id"]]
            cell_id = "|".join((cell["args"]["model"],
                                cell["args"]["label"],
                                cell["args"]["setting"]))
            questions_per_cell[cell_id] = \
                questions_per_cell.get(cell_id, 0) + 1

        state = registry.state(result.run_id)
        assert state.finished
        ledger_counts = {cell_id: len(cell_state.records)
                         for cell_id, cell_state
                         in state.cells.items()}
        assert questions_per_cell == ledger_counts
        assert sum(questions_per_cell.values()) == result.evaluated

        # Every shape writes the same tree: no span per prompt.
        assert {e["name"] for e in events} == {"run", "cell", "question"}


# ----------------------------------------------------------------------
# CLI surfacing
# ----------------------------------------------------------------------
class TestObsCli:
    def _run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    @pytest.fixture()
    def traced_run(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "cli-runs")
        self._run(capsys, "run", "--models", "GPT-4", "--taxonomies",
                  "ebay", "--sample", "8", "--runs-dir", runs_dir)
        listing = json.loads(self._run(
            capsys, "runs", "list", "--json", "--runs-dir", runs_dir))
        return runs_dir, listing[0]["run_id"]

    def test_obs_trace_emits_chrome_json(self, capsys, tmp_path,
                                         traced_run):
        runs_dir, run_id = traced_run
        document = json.loads(self._run(
            capsys, "obs", "trace", run_id, "--runs-dir", runs_dir))
        names = {event["name"] for event in document["traceEvents"]}
        assert {"run", "cell", "question"} <= names

        out = tmp_path / "trace.json"
        message = self._run(capsys, "obs", "trace", run_id, "--out",
                            str(out), "--runs-dir", runs_dir)
        assert "chrome://tracing" in message
        assert json.loads(
            out.read_text(encoding="utf-8"))["traceEvents"]

    def test_obs_metrics_and_report(self, capsys, traced_run):
        runs_dir, run_id = traced_run
        metrics = self._run(capsys, "obs", "metrics", run_id,
                            "--runs-dir", runs_dir)
        assert "# TYPE repro_span_question_seconds histogram" in \
            metrics
        assert 'le="+Inf"' in metrics
        report = self._run(capsys, "obs", "report", run_id,
                           "--runs-dir", runs_dir)
        assert "Where the wall-clock went" in report
        assert "Trace flamegraph" in report

    def test_runs_show_appends_stats_and_phase_table(
            self, capsys, traced_run):
        runs_dir, run_id = traced_run
        shown = self._run(capsys, "runs", "show", run_id,
                          "--runs-dir", runs_dir)
        assert "Engine stats (run-finished snapshot)" in shown
        assert "Where the wall-clock went" in shown

    def test_runs_diff_reports_perf_deltas(self, capsys, traced_run):
        runs_dir, run_id = traced_run
        self._run(capsys, "run", "--models", "GPT-4", "--taxonomies",
                  "ebay", "--sample", "8", "--runs-dir", runs_dir)
        other = json.loads(self._run(
            capsys, "runs", "list", "--json", "--runs-dir",
            runs_dir))[1]["run_id"]
        out = self._run(capsys, "runs", "diff", run_id, other,
                        "--runs-dir", runs_dir)
        assert "wall:" in out and "throughput:" in out
        payload = json.loads(self._run(
            capsys, "runs", "diff", run_id, other, "--json",
            "--runs-dir", runs_dir))
        assert payload["perf"]["wall_a_s"] >= 0.0

    def test_obs_without_span_log_raises_run_error(self, capsys,
                                                   tmp_path):
        runs_dir = str(tmp_path / "cli-runs")
        from repro.runs import create_run
        run_id = create_run(
            RunRequest(models=("GPT-4",), taxonomy_keys=("ebay",),
                       sample_size=6),
            registry=RunRegistry(runs_dir))
        with pytest.raises(RunError, match="no span log"):
            main(["obs", "trace", run_id, "--runs-dir", runs_dir])

    def test_verbosity_flags_tune_the_repro_logger(self, capsys,
                                                   tmp_path):
        runs_dir = str(tmp_path / "empty")
        self._run(capsys, "-v", "runs", "list", "--runs-dir",
                  runs_dir)
        assert logging.getLogger("repro").level == logging.INFO
        self._run(capsys, "-q", "runs", "list", "--runs-dir",
                  runs_dir)
        assert logging.getLogger("repro").level == logging.ERROR
        self._run(capsys, "runs", "list", "--runs-dir", runs_dir)
        assert logging.getLogger("repro").level == logging.WARNING
