"""``repro.dist`` — sharded distributed runs with deterministic merge.

The subsystem splits one :class:`repro.runs.request.RunRequest` into K
disjoint shards (:mod:`~repro.dist.planner`), executes each shard in
an independent process with its own ledger/spans/heartbeat/cache
(:mod:`~repro.dist.worker`), folds the shard ledgers into a run whose
metrics, records and tables are bit-identical to a single-process run
(:mod:`~repro.dist.merge`), aggregates K liveness signals into one
status (:mod:`~repro.dist.status`), and prunes the leftovers
(:mod:`~repro.dist.gc`).  ``execute_run_sharded`` /
``resume_run_sharded`` (:mod:`~repro.dist.driver`) are the high-level
entry points ``repro run --shards N`` drives.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.dist.driver": ("execute_run_sharded", "resume_run_sharded"),
    "repro.dist.gc": ("DEFAULT_MIN_AGE_S", "GcCandidate", "GcReport",
                      "gc_runs"),
    "repro.dist.merge": ("merge_run", "merge_shard_caches", "merge_stats"),
    "repro.dist.planner": ("ShardPlan", "ShardTask", "load_shard_plan",
                           "partition_tasks", "plan_shards",
                           "save_shard_plan"),
    "repro.dist.status": ("ShardStatus", "render_shard_dashboard",
                          "shard_statuses", "sharded_run_status",
                          "watch_shards"),
    "repro.dist.worker": ("MERGED_RUN_SPAN_ID", "ShardLedger", "ShardResult",
                          "ShardState", "replay_shard", "run_shard",
                          "shard_entry"),
})
