"""Command-line interface for the TaxoGlimpse reproduction.

    python -m repro stats
    python -m repro build-datasets --jobs 4
    python -m repro datasets --taxonomies glottolog
    python -m repro table --dataset hard --models GPT-4 LLMs4OL \\
        --taxonomies ebay ncbi --sample 60
    python -m repro levels --taxonomies ncbi --models GPT-4 --sample 80
    python -m repro ask GPT-4 "Is Sinitic language a type of \\
        Sino-Tibetan language? answer with (Yes/No/I don't know)"
    python -m repro case-study --sample 150
    python -m repro popularity
    python -m repro scalability
    python -m repro table --workers 8 --cache /tmp/responses.json
    python -m repro engine-stats --workers 8 --sample 60
    python -m repro run --models GPT-4 --taxonomies ebay --sample 60
    python -m repro run --taxonomies ebay --sample 60 --json
    python -m repro serve --host 0.0.0.0 --port 8080
    python -m repro runs list --json
    python -m repro runs show <run-id>
    python -m repro runs resume <run-id> --workers 8
    python -m repro run --shards 4 --models GPT-4 --taxonomies ebay
    python -m repro runs merge <run-id>
    python -m repro runs gc --dry-run
    python -m repro runs diff <run-id-a> <run-id-b>
    python -m repro watch <run-id> --once --json
    python -m repro obs trace <run-id> --out trace.json
    python -m repro obs metrics <run-id>
    python -m repro obs report <run-id>
    python -m repro obs history --last 10
    python -m repro obs check --baseline <run-id> \\
        --max-accuracy-drop 1.0
    python -m repro run --max-cost-usd 0.05 --models GPT-4 \\
        --taxonomies ebay --sample 60
    python -m repro obs cost <run-id> --json
    python -m repro run --trail --workers 8 --models GPT-4 \\
        --taxonomies ebay --sample 60
    python -m repro obs why <run-id> 17
    python -m repro obs grep <run-id> \\
        --where "attempts>1 and cache_hit==false"
    python -m repro obs trails <run-id> --json

Every command prints the same rows the corresponding paper artifact
reports; ``--sample`` trades fidelity for speed (omit for Cochran
paper-scale sizes).  ``-v``/``-vv`` raise log verbosity (retries,
injected faults, corrupt-artifact recoveries become visible),
``-q`` silences everything below errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro.core.benchmark import TaxoGlimpse
from repro.core.report import format_engine_stats, format_rows
from repro.dist.driver import execute_run_sharded, resume_run_sharded
from repro.dist.gc import DEFAULT_MIN_AGE_S, gc_runs
from repro.dist.merge import merge_run
from repro.dist.status import (render_shard_dashboard, shard_statuses,
                               watch_shards)
from repro.engine.cache import ResponseCache
from repro.engine.scheduler import EvaluationEngine
from repro.engine.telemetry import EngineStats
from repro.data.paper_tables import MODEL_ORDER, TAXONOMY_ORDER
from repro.data.paper_figures import SCALABILITY
from repro.errors import RunError
from repro.experiments.config import ExperimentConfig
from repro.experiments.consistency import probe_consistency
from repro.experiments.errors_analysis import error_breakdown
from repro.experiments.levels import run_levels
from repro.llm.deployment import plan_deployment
from repro.experiments.overall import overall_from_run, overall_request
from repro.experiments.popularity import figure2_rows
from repro.experiments.scalability import (efficiency_summary,
                                           figure7_rows)
from repro.experiments.statistics import table1_rows
from repro.hybrid.case_study import CaseStudyConfig, run_case_study
from repro.llm.prompting import PromptSetting
from repro.llm.registry import get_model
from repro.obs.alerts import AlertEvaluator
from repro.obs.cost import CostLedger
from repro.obs.export import (chrome_trace, format_prometheus,
                              read_spans_jsonl, registry_from_spans)
from repro.obs.history import (Thresholds, check_entries, latest_for,
                               load_entry, read_history, write_entry)
from repro.obs.live import LedgerFollower, render_dashboard, watch_run
from repro.obs.logs import configure_logging
from repro.obs.report import flame_report, phase_table
from repro.obs.trail import compile_predicate, trail_env
from repro.questions.model import DatasetKind
from repro.questions.pools import build_pools
from repro.runs.diff import diff_runs
from repro.runs.driver import evaluate_request, execute_run, load_run
from repro.runs.registry import RunRegistry
from repro.runs.request import RunRequest
from repro.runs.resume import resume_run
from repro.runs.session import engine_for
from repro.serve.views import (dumps_view, iter_question_records,
                               run_cell_rows, run_diff_body,
                               run_result_payload, run_show_body,
                               run_trail_payload, run_trails_body,
                               run_trails_payload, runs_list_payload)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TaxoGlimpse reproduction: benchmark LLMs on "
                    "taxonomies (VLDB 2024)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="raise log verbosity (-v info, -vv "
                             "debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="log errors only")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("stats", help="Table 1 taxonomy statistics")

    datasets = commands.add_parser(
        "datasets", help="Table 4 question-dataset statistics")
    _add_scope(datasets, models=False)

    build = commands.add_parser(
        "build-datasets", help="build (or warm-load) every question "
                               "pool, and the simulated models' ten "
                               "taxonomies, through the artifact store")
    _add_scope(build, models=False)
    build.add_argument("--seed", default="",
                       help="sampling seed (default: paper pools)")
    build.add_argument("--jobs", type=int, default=None,
                       help="worker processes for cold builds "
                            "(default: all cores)")
    build.add_argument("--force", action="store_true",
                       help="rebuild even when warm artifacts exist")
    build.add_argument("--store", default=None, metavar="DIR",
                       help="artifact store directory (default: "
                            "$REPRO_STORE_DIR or ~/.cache/"
                            "repro-taxoglimpse/datasets)")

    table = commands.add_parser(
        "table", help="Tables 5-7 overall results matrix")
    table.add_argument("--dataset", choices=["hard", "easy", "mcq"],
                       default="hard")
    _add_scope(table)
    _add_engine_options(table)

    levels = commands.add_parser(
        "levels", help="Figure 3 per-level accuracy (hard)")
    _add_scope(levels)

    ask = commands.add_parser(
        "ask", help="send one prompt to a simulated model")
    ask.add_argument("model", choices=list(MODEL_ORDER))
    ask.add_argument("prompt")

    case = commands.add_parser(
        "case-study", help="Section 5.3 Amazon replacement study")
    case.add_argument("--sample", type=int, default=None)

    commands.add_parser("popularity",
                        help="Figure 2 popularity ranking")
    commands.add_parser("scalability",
                        help="Figure 7 cost table")

    consistency = commands.add_parser(
        "consistency", help="Is-A asymmetry/transitivity probes")
    consistency.add_argument("--models", nargs="+", default=["GPT-4"],
                             choices=list(MODEL_ORDER),
                             metavar="MODEL")
    consistency.add_argument("--taxonomies", nargs="+",
                             default=["ebay"],
                             choices=list(TAXONOMY_ORDER),
                             metavar="TAXONOMY")
    consistency.add_argument("--edges", type=int, default=60)

    deploy = commands.add_parser(
        "deploy", help="plan open-source models onto the paper's "
                       "GPU testbed")
    deploy.add_argument("--models", nargs="+",
                        default=list(SCALABILITY),
                        choices=list(SCALABILITY), metavar="MODEL")

    errors = commands.add_parser(
        "errors", help="error breakdown for one model/taxonomy cell")
    errors.add_argument("--model", default="GPT-4",
                        choices=list(MODEL_ORDER))
    errors.add_argument("--taxonomy", default="ebay",
                        choices=list(TAXONOMY_ORDER))
    errors.add_argument("--dataset", choices=["hard", "easy", "mcq"],
                        default="hard")
    errors.add_argument("--sample", type=int, default=None)

    engine_stats = commands.add_parser(
        "engine-stats", help="run one cell through the execution "
                             "engine and print its telemetry")
    engine_stats.add_argument("--model", default="GPT-4",
                              choices=list(MODEL_ORDER))
    engine_stats.add_argument("--taxonomy", default="ebay",
                              choices=list(TAXONOMY_ORDER))
    engine_stats.add_argument("--sample", type=int, default=60)
    engine_stats.add_argument(
        "--pool-replicas", type=int, default=1, metavar="N",
        help="serve the cell through a BackendPool of N "
             "response-equivalent replicas of the model (1 = no "
             "pool)")
    engine_stats.add_argument(
        "--hedge-delay", type=float, default=None, metavar="SECONDS",
        help="hedge a slow pool call onto the next replica after "
             "this many seconds (requires --pool-replicas >= 2)")
    _add_engine_options(engine_stats)

    run = commands.add_parser(
        "run", help="execute a sweep through the durable run ledger")
    run.add_argument("--dataset", choices=["hard", "easy", "mcq"],
                     default="hard")
    _add_scope(run)
    run.add_argument("--settings", nargs="+", default=["zero-shot"],
                     choices=[s.value for s in PromptSetting],
                     metavar="SETTING")
    run.add_argument("--seed", default="",
                     help="sampling seed (default: paper pools)")
    run.add_argument("--per-level", action="store_true",
                     help="one cell per question level (Figure 3 "
                          "shape) instead of level-combined pools")
    _add_runs_dir(run)
    _add_engine_options(run)
    run.add_argument("--shards", type=int, default=0, metavar="K",
                     help="split the sweep into K disjoint shards "
                          "executed by independent worker processes "
                          "and deterministically merged (0 = "
                          "single-process)")
    run.add_argument("--local-procs", type=int, default=None,
                     metavar="M",
                     help="worker processes driving --shards "
                          "(default: one per shard, capped at the "
                          "machine's cores; 0 = inline, for "
                          "debugging)")
    run.add_argument("--max-cost-usd", type=float, default=None,
                     metavar="USD",
                     help="stop the run at the next cell boundary "
                          "once the metered spend reaches this many "
                          "dollars (resume later with `runs resume`)")
    run.add_argument("--max-tokens", type=int, default=None,
                     metavar="N",
                     help="stop the run at the next cell boundary "
                          "once this many prompt+completion tokens "
                          "have been metered")
    run.add_argument("--json", action="store_true",
                     help="print the final summary as one JSON "
                          "object instead of the tables")

    serve = commands.add_parser(
        "serve", help="benchmark-as-a-service HTTP API with live "
                      "SSE run streaming")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback only)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--poll-interval", type=float, default=0.25,
                       metavar="SECONDS",
                       help="ledger poll cadence of the shared SSE "
                            "followers")
    serve.add_argument("--job-workers", type=int, default=2,
                       metavar="N",
                       help="background threads executing submitted "
                            "runs")
    _add_runs_dir(serve)

    runs = commands.add_parser(
        "runs", help="inspect, resume and diff ledgered runs")
    runs_commands = runs.add_subparsers(dest="runs_command",
                                        required=True)

    runs_list = runs_commands.add_parser(
        "list", help="every run in the registry")
    runs_list.add_argument("--json", action="store_true",
                           help="machine-readable output")
    _add_runs_dir(runs_list)

    runs_show = runs_commands.add_parser(
        "show", help="manifest and per-cell metrics of one run")
    runs_show.add_argument("run_id")
    runs_show.add_argument("--json", action="store_true",
                           help="machine-readable output")
    runs_show.add_argument("--follow", action="store_true",
                           help="live dashboard instead of the "
                                "static report (alias of `repro "
                                "watch`)")
    _add_runs_dir(runs_show)

    runs_resume = runs_commands.add_parser(
        "resume", help="finish an interrupted run from its ledger")
    runs_resume.add_argument("run_id")
    runs_resume.add_argument("--local-procs", type=int, default=None,
                             metavar="M",
                             help="worker processes when resuming a "
                                  "sharded run (0 = inline)")
    runs_resume.add_argument("--json", action="store_true",
                             help="print the final summary as one "
                                  "JSON object")
    _add_runs_dir(runs_resume)
    _add_engine_options(runs_resume)

    runs_merge = runs_commands.add_parser(
        "merge", help="fold a sharded run's shard ledgers into its "
                      "run ledger (bit-identical to a single-process "
                      "run)")
    runs_merge.add_argument("run_id")
    runs_merge.add_argument("--force", action="store_true",
                            help="re-merge from the shard ledgers "
                                 "even when the run is already "
                                 "finished")
    _add_runs_dir(runs_merge)

    runs_gc = runs_commands.add_parser(
        "gc", help="prune merged-away shard directories, orphaned "
                   "run directories and stale tmp files")
    runs_gc.add_argument("--dry-run", action="store_true",
                         help="report the candidates without "
                              "deleting anything")
    runs_gc.add_argument("--min-age", type=float,
                         default=DEFAULT_MIN_AGE_S, metavar="SECONDS",
                         help="leave crash debris younger than this "
                              "alone (it may be mid-write)")
    runs_gc.add_argument("--json", action="store_true",
                         help="machine-readable report")
    _add_runs_dir(runs_gc)

    runs_diff = runs_commands.add_parser(
        "diff", help="per-cell metric deltas and answer flips "
                     "between two runs")
    runs_diff.add_argument("run_a")
    runs_diff.add_argument("run_b")
    runs_diff.add_argument("--json", action="store_true",
                           help="machine-readable output")
    _add_runs_dir(runs_diff)

    watch = commands.add_parser(
        "watch", help="live dashboard over a (possibly still "
                      "running) run's ledger")
    watch.add_argument("run_id")
    watch.add_argument("--once", action="store_true",
                       help="print a single frame and exit")
    watch.add_argument("--json", action="store_true",
                       help="machine-readable snapshot(s)")
    watch.add_argument("--interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="seconds between ledger polls")
    watch.add_argument("--stall-after", type=float, default=None,
                       metavar="SECONDS",
                       help="flag the run stalled when neither "
                            "ledger nor heartbeat advances for this "
                            "long (default 30)")
    _add_runs_dir(watch)

    obs = commands.add_parser(
        "obs", help="export and inspect a run's span log")
    obs_commands = obs.add_subparsers(dest="obs_command",
                                      required=True)

    obs_trace = obs_commands.add_parser(
        "trace", help="Chrome trace_event JSON for chrome://tracing")
    obs_trace.add_argument("run_id")
    obs_trace.add_argument("--out", default=None, metavar="PATH",
                           help="write the trace JSON to PATH "
                                "instead of stdout")
    _add_runs_dir(obs_trace)

    obs_metrics = obs_commands.add_parser(
        "metrics", help="Prometheus-style text dump of span-derived "
                        "duration histograms")
    obs_metrics.add_argument("run_id")
    _add_runs_dir(obs_metrics)

    obs_report = obs_commands.add_parser(
        "report", help="per-phase wall-clock attribution and ASCII "
                       "flamegraph")
    obs_report.add_argument("run_id")
    obs_report.add_argument("--width", type=int, default=32,
                            help="flamegraph bar width in characters")
    _add_runs_dir(obs_report)

    obs_history = obs_commands.add_parser(
        "history", help="cross-run metric time series "
                        "(history.jsonl)")
    obs_history.add_argument("--last", type=int, default=None,
                             metavar="N",
                             help="only the newest N entries")
    obs_history.add_argument("--json", action="store_true",
                             help="machine-readable output")
    _add_runs_dir(obs_history)

    defaults = Thresholds()
    obs_check = obs_commands.add_parser(
        "check", help="regression gate: a history entry vs a "
                      "baseline, non-zero exit on violation")
    obs_check.add_argument("--baseline", default=None,
                           metavar="RUN_ID",
                           help="baseline = newest history entry of "
                                "this run")
    obs_check.add_argument("--baseline-file", default=None,
                           metavar="PATH",
                           help="baseline = a standalone entry JSON "
                                "(the committed CI baseline)")
    obs_check.add_argument("--run", default=None, metavar="RUN_ID",
                           help="candidate run (default: newest "
                                "history entry)")
    obs_check.add_argument("--max-accuracy-drop", type=float,
                           default=defaults.accuracy_drop_pts,
                           metavar="PTS",
                           help="tolerated accuracy drop in points, "
                                "overall and per cell")
    obs_check.add_argument("--max-throughput-drop", type=float,
                           default=defaults.throughput_drop_pct,
                           metavar="PCT",
                           help="tolerated throughput drop, percent "
                                "of baseline")
    obs_check.add_argument("--max-p99-blowup", type=float,
                           default=defaults.p99_blowup_pct,
                           metavar="PCT",
                           help="tolerated p99 latency increase, "
                                "percent of baseline")
    obs_check.add_argument("--max-cost-blowup", type=float,
                           default=defaults.cost_blowup_pct,
                           metavar="PCT",
                           help="tolerated run-cost increase, "
                                "percent of baseline")
    obs_check.add_argument("--max-cache-hit-drop", type=float,
                           default=defaults.cache_hit_drop_pts,
                           metavar="PTS",
                           help="tolerated cache-hit-rate drop in "
                                "points")
    obs_check.add_argument("--write-baseline", default=None,
                           metavar="PATH",
                           help="write the candidate entry to PATH "
                                "as a baseline file and exit")
    obs_check.add_argument("--json", action="store_true",
                           help="machine-readable report")
    _add_runs_dir(obs_check)

    obs_cost = obs_commands.add_parser(
        "cost", help="per-cell token/cost accounting folded from a "
                     "run's ledger")
    obs_cost.add_argument("run_id")
    obs_cost.add_argument("--json", action="store_true",
                          help="machine-readable output")
    obs_cost.add_argument("--prometheus", action="store_true",
                          help="labeled text-exposition series "
                               "instead of the table")
    _add_runs_dir(obs_cost)

    obs_why = obs_commands.add_parser(
        "why", help="explain one question's provenance trail — "
                    "retries, cache, coalescing, batch, replica, "
                    "cost — with span citations")
    obs_why.add_argument("run_id")
    obs_why.add_argument("index", type=int,
                         help="global question index (cells in plan "
                              "order; `obs grep` prints it)")
    obs_why.add_argument("--json", action="store_true",
                         help="the GET /runs/<id>/trail/<index> "
                              "payload instead of prose")
    _add_runs_dir(obs_why)

    obs_grep = obs_commands.add_parser(
        "grep", help="filter a run's questions by a predicate over "
                     "their trails and outcomes")
    obs_grep.add_argument("run_id")
    obs_grep.add_argument("--where", required=True, metavar="EXPR",
                          help="predicate over trail fields, e.g. "
                               "\"attempts>1 and cache_hit==false\"")
    obs_grep.add_argument("--json", action="store_true",
                          help="matching rows as JSON objects")
    _add_runs_dir(obs_grep)

    obs_trails = obs_commands.add_parser(
        "trails", help="per-cell provenance analytics folded from a "
                       "run's trails")
    obs_trails.add_argument("run_id")
    obs_trails.add_argument("--json", action="store_true",
                            help="the GET /runs/<id>/trails payload")
    _add_runs_dir(obs_trails)
    return parser


def _add_runs_dir(command: argparse.ArgumentParser) -> None:
    command.add_argument("--runs-dir", default=None, metavar="DIR",
                         help="run registry directory (default: "
                              "$REPRO_RUNS_DIR or ~/.cache/"
                              "repro-taxoglimpse/runs)")


def _add_scope(command: argparse.ArgumentParser,
               models: bool = True) -> None:
    if models:
        command.add_argument("--models", nargs="+",
                             default=list(MODEL_ORDER),
                             choices=list(MODEL_ORDER),
                             metavar="MODEL")
    command.add_argument("--taxonomies", nargs="+",
                         default=list(TAXONOMY_ORDER),
                         choices=list(TAXONOMY_ORDER),
                         metavar="TAXONOMY")
    command.add_argument("--sample", type=int, default=None,
                         help="per-level sample size (default: paper "
                              "Cochran sizes)")


def _add_engine_options(command: argparse.ArgumentParser) -> None:
    command.add_argument("--workers", type=int, default=1,
                         help="engine worker threads (1 = sequential)")
    command.add_argument("--retries", type=int, default=3,
                         help="retry budget for transient model "
                              "faults")
    command.add_argument("--cache", default=None, metavar="PATH",
                         help="persist the response cache as JSON at "
                              "PATH (loaded first if it exists)")
    command.add_argument("--batch-size", type=int, default=1,
                         metavar="N",
                         help="group up to N concurrent prompts into "
                              "one backend generate_batch call (1 = "
                              "per-prompt)")
    command.add_argument("--batch-linger", type=float, default=0.002,
                         metavar="SECONDS",
                         help="how long a short batch waits for "
                              "company before flushing")
    command.add_argument("--coalesce", action="store_true",
                         help="identical in-flight prompts share one "
                              "backend call (the cache only helps "
                              "completed calls)")
    command.add_argument("--trail", action="store_true",
                         help="record a per-question provenance "
                              "trail on every record (inspect with "
                              "`repro obs why` / `repro obs grep`)")


def _engine_shape(args: argparse.Namespace) -> dict[str, object]:
    """The :class:`RunRequest` engine fields the shared
    ``--workers``/``--retries``/batching/``--coalesce``/``--trail``
    flags ask for."""
    return {"workers": max(1, args.workers),
            "retries": max(0, args.retries),
            "batch_size": max(1, args.batch_size),
            "coalesce": args.coalesce,
            "trail": args.trail}


def _run_engine(args: argparse.Namespace, request: RunRequest,
                cache: ResponseCache | None = None) -> EvaluationEngine:
    """:func:`engine_for` the request, backed by the ``--cache`` file
    when one is given (any worker count), else by ``cache``."""
    if args.cache:
        cache = ResponseCache.load(args.cache)
    engine = engine_for(request, cache=cache)
    # The linger is a latency knob, not part of the request.
    engine.config = replace(
        engine.config, batch_linger_s=max(0.0, args.batch_linger))
    return engine


def _persist_cache(engine: EvaluationEngine,
                   args: argparse.Namespace) -> None:
    # A --cache file backs the engine at any shape (see _run_engine).
    if args.cache:
        engine.cache.save(args.cache)


def _cmd_stats(_: argparse.Namespace) -> str:
    return format_rows(table1_rows(),
                       title="Table 1: Statistics of taxonomies")


def _cmd_datasets(args: argparse.Namespace) -> str:
    rows = []
    for key in args.taxonomies:
        pools = build_pools(key, sample_size=args.sample)
        for row in pools.statistics():
            rows.append({"taxonomy": key, **row})
    return format_rows(rows, title="Table 4: Statistics of datasets")


def _cmd_build_datasets(args: argparse.Namespace) -> str:
    import time

    from repro.store.artifacts import ArtifactStore, default_store
    from repro.store.parallel import (build_all_datasets,
                                      build_taxonomy_artifacts)

    store = (ArtifactStore(args.store) if args.store
             else default_store() or ArtifactStore())
    keys = list(args.taxonomies)
    rows = []
    started = time.perf_counter()
    built = build_all_datasets(keys, sample_size=args.sample,
                               seed=args.seed, jobs=args.jobs,
                               store=store, force=args.force)
    # The simulated models' oracle probes every registry taxonomy,
    # whatever the scope of the pools.
    taxonomies = build_taxonomy_artifacts(store, jobs=args.jobs,
                                          force=args.force)
    elapsed = time.perf_counter() - started
    for key, pools in built.items():
        rows.append(_artifact_row(
            key, "pools", sum(row["easy"] + row["mcq"]
                              for row in pools.statistics()[:-1]),
            store.path_for(key, args.sample, args.seed)))
    for key, payload in taxonomies.items():
        column = payload["taxonomy"]
        rows.append(_artifact_row(
            key, "taxonomy",
            len(column["ids"]) + len(column.get("titles", ())),
            store.taxonomy_path(key)))
    stats = store.stats
    footer = (f"\n{len(built)} pool and {len(taxonomies)} taxonomy "
              f"artifacts in {elapsed:.2f}s (loads={stats.hits}, "
              f"builds={stats.builds}, "
              f"save_failures={stats.save_failures}, "
              f"store={store.root})")
    return format_rows(rows, title="Dataset artifacts") + footer


def _artifact_row(key: str, kind: str, entries: int, path) -> dict:
    return {"taxonomy": key, "artifact": kind, "entries": entries,
            "file": path.name,
            "kb": path.stat().st_size // 1024 if path.exists() else 0}


def _cmd_table(args: argparse.Namespace) -> str:
    config = ExperimentConfig(sample_size=args.sample,
                              models=tuple(args.models),
                              taxonomy_keys=tuple(args.taxonomies))
    request = replace(overall_request(DatasetKind(args.dataset), config),
                      **_engine_shape(args))
    engine = _run_engine(args, request)
    result = overall_from_run(evaluate_request(request, engine))
    _persist_cache(engine, args)
    title = (f"Overall results on {args.dataset} datasets "
             f"(mean |dA| vs paper = "
             f"{result.mean_abs_accuracy_delta:.3f})")
    table = TaxoGlimpse.format_table(result.matrix(), title=title)
    if args.workers > 1 or args.cache:
        table += "\n" + format_engine_stats(engine.stats())
    return table


def _cmd_levels(args: argparse.Namespace) -> str:
    config = ExperimentConfig(sample_size=args.sample,
                              models=tuple(args.models),
                              taxonomy_keys=tuple(args.taxonomies))
    series = run_levels(config)
    rows = [row for entry in series for row in entry.rows()]
    return format_rows(rows, title="Accuracy per level (hard)")


def _cmd_ask(args: argparse.Namespace) -> str:
    return get_model(args.model).generate(args.prompt)


def _cmd_case_study(args: argparse.Namespace) -> str:
    result = run_case_study(CaseStudyConfig(sample_size=args.sample))
    return format_rows([{
        "precision (paper 0.713)": f"{result.precision:.3f}",
        "recall (paper 0.792)": f"{result.recall:.3f}",
        "saving (paper 59%)":
            f"{result.maintenance_saving * 100:.1f}%",
        "concepts": result.concepts_evaluated,
    }], title="Section 5.3 case study")


def _cmd_popularity(_: argparse.Namespace) -> str:
    return format_rows(figure2_rows(),
                       title="Figure 2: taxonomy popularity")


def _cmd_scalability(_: argparse.Namespace) -> str:
    rows = figure7_rows()
    table = format_rows(rows, title="Figure 7: scalability")
    return table + f"\nscaling exponents: {efficiency_summary()}"


def _cmd_consistency(args: argparse.Namespace) -> str:
    rows = []
    for model_name in args.models:
        model = get_model(model_name)
        for key in args.taxonomies:
            rows.append(probe_consistency(
                model, key, edges=args.edges,
                chains=args.edges).as_row())
    return format_rows(rows, title="Is-A consistency probes")


def _cmd_deploy(args: argparse.Namespace) -> str:
    plan = plan_deployment(list(args.models))
    table = format_rows(plan.as_rows(),
                        title="Deployment plan (paper testbed)")
    if not plan.feasible:
        table += f"\nUNPLACED: {', '.join(plan.unplaced)}"
    return table


def _cmd_errors(args: argparse.Namespace) -> str:
    from repro.core.runner import EvaluationRunner
    pool = build_pools(
        args.taxonomy,
        sample_size=args.sample).total_pool(DatasetKind(args.dataset))
    runner = EvaluationRunner(keep_records=True)
    result = runner.evaluate(get_model(args.model), pool)
    breakdown = error_breakdown(pool.questions, result.records)
    return format_rows(
        [breakdown.as_row()],
        title=f"Error breakdown: {args.model} on {args.taxonomy} "
              f"({args.dataset})")


def _cmd_engine_stats(args: argparse.Namespace) -> str:
    from repro.core.runner import EvaluationRunner
    request = RunRequest(models=(args.model,),
                         taxonomy_keys=(args.taxonomy,),
                         sample_size=args.sample, **_engine_shape(args))
    # The report shows cache traffic at any shape: without --cache, a
    # fresh in-memory cache backs the engine.
    engine = _run_engine(args, request, cache=ResponseCache())
    runner = EvaluationRunner(engine=engine)
    pool = build_pools(
        args.taxonomy,
        sample_size=args.sample).total_pool(DatasetKind.HARD)
    model = get_model(args.model)
    backend_pool = None
    if args.pool_replicas > 1:
        from repro.engine.pool import BackendPool
        # Replicas of one simulated model are response-equivalent by
        # construction, so hedged/fallback dispatch cannot change a
        # record — only the trails, and so the telemetry, show it.
        backend_pool = BackendPool(
            [get_model(args.model)
             for _ in range(args.pool_replicas)],
            hedge_delay_s=args.hedge_delay)
        model = backend_pool
    try:
        result = runner.evaluate(model, pool)
    finally:
        if backend_pool is not None:
            backend_pool.close()
    _persist_cache(engine, args)
    return format_engine_stats(
        engine.stats(),
        title=f"Engine telemetry: {args.model} on {args.taxonomy} "
              f"(n={result.metrics.n}, "
              f"workers={engine.config.max_workers})")


def _registry(args: argparse.Namespace) -> RunRegistry:
    return RunRegistry(args.runs_dir)


def _run_result_report(result, title: str,
                       as_json: bool = False) -> str:
    if as_json:
        return dumps_view(run_result_payload(result))
    if result.request.per_level:
        rows = [{
            "cell": key.cell_id,
            "accuracy": f"{pool_result.metrics.accuracy:.3f}",
            "miss_rate": f"{pool_result.metrics.miss_rate:.3f}",
            "n": pool_result.metrics.n,
        } for key, pool_result in result.cells.items()]
        table = format_rows(rows, title=title)
    else:
        tables = []
        for setting in result.request.settings:
            label = (f"{title} [{setting}]"
                     if len(result.request.settings) > 1 else title)
            tables.append(TaxoGlimpse.format_table(
                result.matrix(setting), title=label))
        table = "\n".join(tables)
    footer = (f"\nrun {result.run_id}: {len(result.cells)} cells, "
              f"{result.evaluated} evaluated, "
              f"{result.replayed} replayed from ledger")
    if result.stats is not None:
        footer += "\n" + format_engine_stats(result.stats)
    if result.budget is not None:
        stop = result.budget
        footer += (f"\nBUDGET EXHAUSTED ({stop['reason']}): stopped "
                   f"at a cell boundary after "
                   f"{stop['completed_cells']} cells, "
                   f"${stop['spent_cost_usd']:.4f} / "
                   f"{stop['spent_tokens']} tokens spent — finish "
                   f"with `repro runs resume {result.run_id}`")
    return table + footer


def _cmd_run(args: argparse.Namespace) -> str:
    request = RunRequest(
        dataset=args.dataset,
        models=tuple(args.models),
        taxonomy_keys=tuple(args.taxonomies),
        settings=tuple(args.settings),
        sample_size=args.sample,
        seed=args.seed,
        per_level=args.per_level,
        max_cost_usd=args.max_cost_usd,
        max_tokens=args.max_tokens,
        **_engine_shape(args),
    )
    if args.shards > 0:
        result = execute_run_sharded(
            request, args.shards, registry=_registry(args),
            procs=args.local_procs, cache_path=args.cache)
        return _run_result_report(
            result,
            title=f"Sharded run (x{args.shards}) on {args.dataset} "
                  f"datasets",
            as_json=args.json)
    engine = _run_engine(args, request)
    result = execute_run(request, registry=_registry(args),
                         engine=engine)
    _persist_cache(engine, args)
    return _run_result_report(
        result, title=f"Ledgered run on {args.dataset} datasets",
        as_json=args.json)


def _cmd_serve(args: argparse.Namespace) -> str:
    from repro.serve.app import ReproServer
    server = ReproServer(root=args.runs_dir, host=args.host,
                         port=args.port,
                         poll_interval_s=args.poll_interval,
                         job_workers=args.job_workers)
    print(f"serving {server.root} on {server.url} "
          f"(Ctrl-C to stop)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.close()
    return f"stopped serving {server.root}"


def _cmd_runs(args: argparse.Namespace) -> str:
    return _RUNS_COMMANDS[args.runs_command](args)


def _cmd_runs_list(args: argparse.Namespace) -> str:
    registry = _registry(args)
    if args.json:
        # Same builder the HTTP API serves from (GET /runs).
        return dumps_view(runs_list_payload(registry))
    summaries = registry.list_runs()
    if not summaries:
        return "no runs in registry"
    return format_rows([summary.as_row() for summary in summaries],
                       title="Ledgered runs")


def _watch(registry: RunRegistry, run_id: str, once: bool = False,
           as_json: bool = False, interval_s: float = 1.0,
           stall_after: float | None = None) -> str:
    """Shared body of ``repro watch`` and ``runs show --follow``."""
    if (registry.shard_count(run_id) > 0
            and not registry.ledger_path(run_id).exists()):
        return _watch_sharded(registry, run_id, once=once,
                              as_json=as_json, interval_s=interval_s,
                              stall_after=stall_after)
    if once:
        progress = LedgerFollower(
            run_id, registry=registry,
            stall_deadline_s=stall_after).poll()
        if as_json:
            return dumps_view(progress.to_dict())
        return render_dashboard(progress)
    render = ((lambda progress: json.dumps(progress.to_dict()))
              if as_json else render_dashboard)
    emit = print if as_json else None    # default: ANSI in-place
    # The dashboard gets a live SLO banner; the JSON stream stays
    # machine-parseable (alert frames live on the serve SSE stream).
    evaluator = None if as_json else AlertEvaluator()
    try:
        progress = watch_run(run_id, registry=registry,
                             interval_s=interval_s,
                             stall_deadline_s=stall_after,
                             render=render, emit=emit,
                             evaluator=evaluator)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return f"\nstopped watching {run_id}"
    return (f"run {run_id} {progress.status}: accuracy "
            f"{progress.accuracy:.3f}, "
            f"{progress.questions_done} questions in "
            f"{progress.elapsed_s:.1f}s")


def _watch_sharded(registry: RunRegistry, run_id: str,
                   once: bool = False, as_json: bool = False,
                   interval_s: float = 1.0,
                   stall_after: float | None = None) -> str:
    """Shard dashboard for a run whose shards are still unmerged."""
    kwargs = ({"stall_deadline_s": stall_after}
              if stall_after is not None else {})
    if once:
        statuses = shard_statuses(run_id, registry=registry, **kwargs)
        if as_json:
            return dumps_view([status.to_dict() for status in statuses])
        return render_shard_dashboard(run_id, statuses)
    try:
        statuses = watch_shards(run_id, registry=registry,
                                interval_s=interval_s,
                                emit=print if as_json else None,
                                **kwargs)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return f"\nstopped watching {run_id}"
    if all(status.status == "finished" for status in statuses):
        return (f"all {len(statuses)} shards finished — run "
                f"`repro runs merge {run_id}` to finish the run")
    return "shards settled: " + ", ".join(
        f"{status.shard:02d}={status.status}" for status in statuses)


def _cmd_watch(args: argparse.Namespace) -> str:
    return _watch(_registry(args), args.run_id, once=args.once,
                  as_json=args.json, interval_s=args.interval,
                  stall_after=args.stall_after)


def _cmd_runs_show(args: argparse.Namespace) -> str:
    registry = _registry(args)
    if args.follow:
        return _watch(registry, args.run_id, as_json=args.json)
    if args.json:
        # Same bytes the HTTP API serves (GET /runs/<id>).
        return run_show_body(registry, args.run_id).decode("utf-8")
    manifest = registry.manifest(args.run_id)
    state = registry.state(args.run_id)
    cell_rows = run_cell_rows(state)
    shards = registry.shard_count(args.run_id)
    shard_rows = (shard_statuses(args.run_id, registry=registry,
                                 merged=state)
                  if shards else [])
    status = "finished" if state.finished else "partial"
    header = (f"run {args.run_id} [{status}, "
              f"attempt {state.attempts}] "
              f"request={json.dumps(manifest['request'])}")
    out = header + "\n" + format_rows(cell_rows, title="Cells")
    if shard_rows:
        out += "\n" + format_rows(
            [status.as_row() for status in shard_rows],
            title=f"Shards (x{shards})")
    if state.stats:
        out += "\n" + format_engine_stats(
            EngineStats.from_dict(state.stats),
            title="Engine stats (run-finished snapshot)")
    spans_path = registry.spans_path(args.run_id)
    if spans_path.exists():
        spans = read_spans_jsonl(spans_path)
        if spans:
            out += "\n" + phase_table(spans)
    return out


def _cmd_runs_resume(args: argparse.Namespace) -> str:
    registry = _registry(args)
    if (registry.shard_count(args.run_id) > 0
            and not registry.state(args.run_id).finished):
        result = resume_run_sharded(args.run_id, registry=registry,
                                    procs=args.local_procs,
                                    cache_path=args.cache)
        return _run_result_report(
            result, title=f"Resumed sharded run {args.run_id}",
            as_json=args.json)
    request = registry.request(args.run_id)
    if args.workers > 1 or args.batch_size > 1 or args.coalesce:
        # Shape flags override the stored engine shape; everything
        # else (trail included) comes from the stored request.
        request = replace(request, **{**_engine_shape(args),
                                      "trail": request.trail})
    engine = _run_engine(args, request)
    result = resume_run(args.run_id, registry=registry,
                        engine=engine)
    _persist_cache(engine, args)
    return _run_result_report(
        result, title=f"Resumed run {args.run_id}",
        as_json=args.json)


def _cmd_runs_merge(args: argparse.Namespace) -> str:
    result = merge_run(args.run_id, registry=_registry(args),
                       force=args.force)
    return _run_result_report(
        result, title=f"Merged run {args.run_id}")


def _cmd_runs_gc(args: argparse.Namespace) -> str:
    report = gc_runs(registry=_registry(args), dry_run=args.dry_run,
                     min_age_s=args.min_age)
    if args.json:
        return dumps_view(report.to_dict())
    verb = "would remove" if report.dry_run else "removed"
    if not report.removed:
        return f"{verb} nothing — registry is clean"
    table = format_rows(
        [candidate.as_row() for candidate in report.removed],
        title="Registry garbage collection")
    return (table + f"\n{verb} {len(report.removed)} path(s), "
            f"{report.bytes_reclaimed} bytes")


def _cmd_runs_diff(args: argparse.Namespace) -> str:
    registry = _registry(args)
    if args.json:
        # Same bytes the HTTP API serves (GET /runs/<a>/diff/<b>).
        return run_diff_body(registry, args.run_a,
                             args.run_b).decode("utf-8")
    diff = diff_runs(load_run(args.run_a, registry=registry),
                     load_run(args.run_b, registry=registry))
    table = format_rows(
        diff.rows(), title=f"Diff {diff.run_a} -> {diff.run_b}")
    footer = (f"\n{len(diff.changed_cells)} changed cells, "
              f"{diff.total_flips} answer flips")
    perf = diff.perf_summary()
    if perf is not None:
        footer += (f"\nwall: {perf['wall_a_s']:.3f}s -> "
                   f"{perf['wall_b_s']:.3f}s "
                   f"({perf['wall_delta_s']:+.3f}s), throughput: "
                   f"{perf['throughput_a']:.1f} -> "
                   f"{perf['throughput_b']:.1f} q/s "
                   f"({perf['throughput_delta']:+.1f}), cost: "
                   f"${perf['cost_a_usd']:.4f} -> "
                   f"${perf['cost_b_usd']:.4f} "
                   f"({perf['cost_delta_usd']:+.4f})")
    if diff.only_in_a:
        footer += f"\nonly in {diff.run_a}: " + \
            ", ".join(diff.only_in_a)
    if diff.only_in_b:
        footer += f"\nonly in {diff.run_b}: " + \
            ", ".join(diff.only_in_b)
    if diff.identical:
        footer += "\nruns are identical"
    return table + footer


def _load_run_spans(args: argparse.Namespace):
    """The run's persisted spans (validates the run id first)."""
    registry = _registry(args)
    registry.manifest(args.run_id)       # raises UnknownRunError
    path = registry.spans_path(args.run_id)
    if not path.exists():
        raise RunError(
            f"run {args.run_id} has no span log ({path}); it was "
            f"executed with tracing disabled")
    return read_spans_jsonl(path)


def _cmd_obs(args: argparse.Namespace) -> str:
    return _OBS_COMMANDS[args.obs_command](args)


def _cmd_obs_trace(args: argparse.Namespace) -> str:
    document = dumps_view(chrome_trace(_load_run_spans(args)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(document + "\n")
        return (f"wrote {args.out} — open it in chrome://tracing "
                f"or https://ui.perfetto.dev")
    return document


def _cmd_obs_metrics(args: argparse.Namespace) -> str:
    registry = registry_from_spans(_load_run_spans(args))
    return format_prometheus(registry).rstrip("\n")


def _cmd_obs_report(args: argparse.Namespace) -> str:
    spans = _load_run_spans(args)
    return (phase_table(spans) + "\n\n"
            + flame_report(spans, width=max(8, args.width)))


def _cmd_obs_history(args: argparse.Namespace) -> str:
    entries = read_history(_registry(args))
    if args.last is not None and args.last >= 0:
        entries = entries[-args.last:] if args.last else []
    if args.json:
        return dumps_view([entry.to_dict() for entry in entries])
    if not entries:
        return "no history entries"
    return format_rows([entry.as_row() for entry in entries],
                       title="Run history (oldest first)")


def _cmd_obs_check(args: argparse.Namespace) -> "str | tuple[str, int]":
    registry = _registry(args)
    entries = read_history(registry)
    candidate = latest_for(entries, run_id=args.run)
    if candidate is None:
        wanted = f" for run {args.run}" if args.run else ""
        raise RunError(f"no history entry{wanted} in "
                       f"{registry.history_path()} — execute a run "
                       f"first")
    if args.write_baseline:
        path = write_entry(candidate, args.write_baseline)
        return (f"wrote baseline {path} "
                f"(run {candidate.run_id}, "
                f"accuracy {candidate.accuracy:.3f})")
    if args.baseline_file:
        baseline = load_entry(args.baseline_file)
    elif args.baseline:
        baseline = latest_for(entries, run_id=args.baseline)
        if baseline is None:
            raise RunError(f"no history entry for baseline run "
                           f"{args.baseline}")
    else:
        raise RunError("pass --baseline <run-id> or "
                       "--baseline-file PATH")
    report = check_entries(baseline, candidate, Thresholds(
        accuracy_drop_pts=args.max_accuracy_drop,
        throughput_drop_pct=args.max_throughput_drop,
        p99_blowup_pct=args.max_p99_blowup,
        cost_blowup_pct=args.max_cost_blowup,
        cache_hit_drop_pts=args.max_cache_hit_drop))
    code = 0 if report.passed else 1
    if args.json:
        return dumps_view(report.to_dict()), code
    table = format_rows(
        report.rows(),
        title=(f"Regression gate: {report.candidate_id} vs "
               f"baseline {report.baseline_id}"))
    verdict = ("PASS" if report.passed
               else f"FAIL: {len(report.failures)} check(s) over "
                    f"the limit")
    return table + "\n" + verdict, code


def _cmd_obs_cost(args: argparse.Namespace) -> str:
    ledger = CostLedger.from_run(args.run_id,
                                 registry=_registry(args))
    if args.json:
        return dumps_view(ledger.to_dict())
    if args.prometheus:
        return ledger.to_prometheus().rstrip("\n")
    if not ledger.cells:
        return (f"run {args.run_id} has no completed cells yet — "
                f"nothing to account")
    return format_rows(ledger.rows(),
                       title=f"Cost accounting: run {args.run_id}")


def _cmd_obs_why(args: argparse.Namespace) -> str:
    # Same builder the HTTP API serves (GET /runs/<id>/trail/<i>).
    payload = run_trail_payload(_registry(args), args.run_id,
                                args.index)
    if args.json:
        return dumps_view(payload)
    outcome = ("correct" if payload["correct"]
               else "missed" if payload["missed"] else "wrong")
    lines = [
        f"question {payload['index']} of run {payload['run_id']}",
        f"  {payload['uid']} — index {payload['cell_index']} of cell "
        f"{payload['cell']}",
        f"  {payload['model']} under {payload['setting']} answered "
        f"{payload['parsed']!r} (expected {payload['expected']!r}): "
        f"{outcome}",
    ]
    trail = payload["trail"]
    if trail is None:
        lines.append("  no provenance trail recorded — execute the "
                     "run with --trail to capture one")
        return "\n".join(lines)
    lines.extend("  " + line for line in _why_trail_lines(trail))
    try:
        spans = _load_run_spans(args)
    except RunError:
        spans = []
    cited = _cited_spans(spans, payload["uid"], payload["cell"])
    if cited:
        lines.append("  spans:")
        for span in cited:
            detail = "".join(
                f" {key}={span.attrs[key]}"
                for key in ("kind", "level", "model", "size")
                if key in span.attrs)
            lines.append(f"    {span.name}#{span.span_id} "
                         f"{span.duration_s * 1e3:.2f}ms{detail}")
    return "\n".join(lines)


def _cited_spans(spans, uid: str, cell: str) -> list:
    """The spans that stand for question ``uid`` of ``cell``: its
    ``question`` span, found under that cell's ``cell`` span (one per
    attempt that asked in it), and each ``batch`` span that names it
    among its members."""
    cells = {span.span_id for span in spans
             if span.name == "cell"
             and "|".join(str(span.attrs.get(key)) for key
                          in ("model", "label", "setting")) == cell}
    return [span for span in spans
            if (span.name == "question" and span.parent_id in cells
                and span.attrs.get("uid") == uid)
            or (span.name == "batch"
                and span.attrs.get("cell") == cell
                and uid in span.attrs.get("members", "").split())]


def _why_trail_lines(trail: dict) -> list[str]:
    """The causal narrative of one trail dict (defaults omitted by
    the codec, hence the ``.get`` defaults)."""
    lines = []
    coalesced = trail.get("coalesced")
    if coalesced == "follower":
        lines.append(f"coalesced: followed the in-flight leader for "
                     f"prompt {trail.get('leader_key')} — no backend "
                     f"call of its own")
    elif coalesced == "leader":
        lines.append(f"coalesced: led prompt "
                     f"{trail.get('leader_key')} for every "
                     f"concurrent duplicate")
    cache_hit = trail.get("cache_hit")
    if cache_hit is True:
        lines.append(f"cache: hit ({trail.get('cache_source')} "
                     f"entry) — answered without a backend call")
    elif cache_hit is False:
        lines.append("cache: miss — went to the backend")
    attempts = trail.get("attempts", 1)
    errors = trail.get("errors", [])
    if attempts > 1 or errors:
        faults = ", ".join(errors) if errors else "no recorded fault"
        injected = (" (injected)" if trail.get("injected") else "")
        lines.append(f"retry: {attempts} attempt(s); faults: "
                     f"{faults}{injected}")
    if trail.get("rate_wait_s", 0.0) > 0:
        lines.append(f"rate limit: waited "
                     f"{trail['rate_wait_s'] * 1e3:.2f}ms for a token")
    if trail.get("timeout_lost_s", 0.0) > 0:
        lines.append(f"timeout: {trail['timeout_lost_s'] * 1e3:.2f}ms "
                     f"lost to deadline overruns")
    if trail.get("batch") is not None:
        lines.append(f"batch: rode batch #{trail['batch']} of "
                     f"{trail.get('batch_size')} prompt(s), flushed "
                     f"on {trail.get('batch_cut')}")
    replica = trail.get("replica")
    fallbacks = trail.get("fallbacks", [])
    if replica is not None or fallbacks:
        hops = (f" after replica(s) "
                f"{', '.join(str(i) for i in fallbacks)} failed"
                if fallbacks else "")
        hedge = ""
        if trail.get("hedged"):
            hedge = (", the hedge won" if trail.get("hedge_won")
                     else ", the primary beat the hedge")
        lines.append(f"pool: answered by replica {replica}{hops}"
                     f"{hedge}")
    if trail.get("cost_nanos", 0) > 0:
        lines.append(f"cost: {trail.get('billed_prompt_tokens', 0)} "
                     f"prompt + "
                     f"{trail.get('billed_completion_tokens', 0)} "
                     f"completion tokens billed, "
                     f"${trail['cost_nanos'] / 1e9:.6f}")
    return lines


def _cmd_obs_grep(args: argparse.Namespace) -> str:
    registry = _registry(args)
    state = registry.state(args.run_id)
    predicate = compile_predicate(args.where)
    total = 0
    matches = []
    for ordinal, cell_id, _, record in iter_question_records(state):
        total += 1
        env = trail_env(record, index=ordinal, cell=cell_id)
        if predicate(env):
            matches.append(env)
    if args.json:
        return json.dumps(matches, indent=1, default=list)
    if not matches:
        return (f"0 of {total} questions in run {args.run_id} match "
                f"{args.where!r}")
    rows = []
    for env in matches:
        rows.append({
            "idx": env["index"],
            "cell": env["cell"],
            "uid": env["uid"],
            "ok": "y" if env["correct"] else "n",
            "attempts": env["attempts"],
            "cache": {True: "hit", False: "miss",
                      None: "-"}[env["cache_hit"]],
            "errors": ",".join(env["errors"]) or "-",
            "replica": ("-" if env["replica"] is None
                        else env["replica"]),
        })
    table = format_rows(
        rows, title=f"{len(matches)} of {total} questions match "
                    f"{args.where!r}")
    return (table + f"\nexplain one with `repro obs why "
                    f"{args.run_id} <idx>`")


def _cmd_obs_trails(args: argparse.Namespace) -> str:
    if args.json:
        # Same bytes the HTTP API serves (GET /runs/<id>/trails).
        return run_trails_body(_registry(args),
                               args.run_id).decode("utf-8")
    payload = run_trails_payload(_registry(args), args.run_id)
    if not payload["cells"]:
        return (f"run {args.run_id} has no recorded questions yet — "
                f"nothing to summarize")
    rows = [_trails_row(cell_id, summary)
            for cell_id, summary in payload["cells"].items()]
    totals = payload["totals"]
    cache = totals["cache"]
    retry = totals["retry"]
    footer = (f"\ntotals: {totals['questions']} questions "
              f"({totals['with_trail']} with trails), cache "
              f"{cache['hits']} hit / {cache['misses']} miss, "
              f"{retry['retried']} retried "
              f"({retry['injected_faults']} injected faults), "
              f"{totals['coalesce']['followers']} coalesced, "
              f"{totals['hedge']['fired']} hedges fired, "
              f"${totals['cost']['cost_nanos'] / 1e9:.4f} billed")
    return format_rows(
        rows, title=f"Provenance trails: run {args.run_id}") + footer


def _trails_row(cell_id: str, summary: dict) -> dict[str, object]:
    hit_rate = summary["cache"]["hit_rate"]
    return {
        "cell": cell_id,
        "questions": summary["questions"],
        "trails": summary["with_trail"],
        "hit_rate": ("-" if hit_rate is None else f"{hit_rate:.3f}"),
        "retried": summary["retry"]["retried"],
        "faults": summary["retry"]["injected_faults"],
        "coalesced": summary["coalesce"]["followers"],
        "hedged": summary["hedge"]["fired"],
        "cost_usd": f"{summary['cost']['cost_nanos'] / 1e9:.4f}",
    }


_OBS_COMMANDS = {
    "trace": _cmd_obs_trace,
    "metrics": _cmd_obs_metrics,
    "report": _cmd_obs_report,
    "history": _cmd_obs_history,
    "check": _cmd_obs_check,
    "cost": _cmd_obs_cost,
    "why": _cmd_obs_why,
    "grep": _cmd_obs_grep,
    "trails": _cmd_obs_trails,
}


_RUNS_COMMANDS = {
    "list": _cmd_runs_list,
    "show": _cmd_runs_show,
    "resume": _cmd_runs_resume,
    "merge": _cmd_runs_merge,
    "gc": _cmd_runs_gc,
    "diff": _cmd_runs_diff,
}


_COMMANDS = {
    "stats": _cmd_stats,
    "datasets": _cmd_datasets,
    "build-datasets": _cmd_build_datasets,
    "table": _cmd_table,
    "levels": _cmd_levels,
    "ask": _cmd_ask,
    "case-study": _cmd_case_study,
    "popularity": _cmd_popularity,
    "scalability": _cmd_scalability,
    "consistency": _cmd_consistency,
    "deploy": _cmd_deploy,
    "errors": _cmd_errors,
    "engine-stats": _cmd_engine_stats,
    "run": _cmd_run,
    "serve": _cmd_serve,
    "runs": _cmd_runs,
    "watch": _cmd_watch,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    configure_logging(-1 if args.quiet else args.verbose)
    try:
        output = _COMMANDS[args.command](args)
        # Gate commands (`obs check`) return (text, exit_code).
        output, code = (output if isinstance(output, tuple)
                        else (output, 0))
        print(output)
    except BrokenPipeError:      # e.g. `repro obs metrics ... | head`
        return 0
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
