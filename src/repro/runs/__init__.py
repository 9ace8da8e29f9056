"""repro.runs — the durable run ledger.

Benchmark campaigns against slow, flaky endpoints need runs that
survive crashes, resume without repeating paid work, and diff against
each other after the fact.  This package is that layer, sitting
between the experiment drivers and the evaluation runner:

* :class:`RunLedger` / :func:`replay_ledger` — an append-only JSONL
  event log per run (run/cell lifecycle + every scored question),
  with atomic locked appends, tiered fsync durability and a replayer
  that tolerates the torn final line a crash leaves behind;
* :class:`RunRequest` — the frozen description of a sweep, content-
  addressed via the same fingerprint machinery as the dataset store;
* :class:`RunRegistry` — the directory of runs (``REPRO_RUNS_DIR``),
  listable and loadable;
* :func:`evaluate_request` / :func:`execute_run` / :func:`resume_run`
  / :func:`load_run` — score a sweep in memory, run it streaming into
  the ledger (the same cells and metrics), finish an interrupted run
  bit-identically (only missing question indices are re-asked), or
  rebuild every :class:`repro.core.results.PoolResult` from disk with
  zero model calls;
* :class:`RunSession` / :func:`engine_for` — the one per-attempt setup
  (engine, tracer + span sink, heartbeat, ledger, runner) that
  execute, resume and shard workers share;
* :func:`diff_runs` — per-cell metric deltas and per-question answer
  flips between any two runs.

Quickstart::

    >>> from repro.runs import RunRequest, execute_run, load_run
    >>> request = RunRequest(models=("GPT-4",),
    ...                      taxonomy_keys=("ebay",), sample_size=20)
    >>> result = execute_run(request)          # streams to the ledger
    >>> again = load_run(result.run_id)        # zero model calls
    >>> again.matrix() == result.matrix()
    True
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.runs.diff": ("CellDiff", "QuestionFlip", "RunDiff", "diff_runs"),
    "repro.runs.driver": ("CellKey", "RunResult", "coerce_run", "create_run",
                          "evaluate_request", "execute_run", "load_run",
                          "plan_cells"),
    "repro.runs.heartbeat": ("HEARTBEAT_FILENAME", "HeartbeatWriter",
                             "pid_alive", "read_heartbeat", "run_status"),
    "repro.runs.ledger": ("LEDGER_FILENAME", "CellState", "RunLedger",
                          "RunState", "replay_ledger"),
    "repro.runs.registry": ("HISTORY_FILENAME", "MANIFEST_FILENAME",
                            "RUNS_ENV", "SPANS_FILENAME", "RunRegistry",
                            "RunSummary", "default_runs_root"),
    "repro.runs.request": ("LEDGER_SCHEMA_VERSION", "RunRequest"),
    "repro.runs.resume": ("resume_run",),
    "repro.runs.session": ("RunSession", "engine_for"),
})
