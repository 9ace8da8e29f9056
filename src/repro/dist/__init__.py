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

from repro.dist.driver import execute_run_sharded, resume_run_sharded
from repro.dist.gc import (DEFAULT_MIN_AGE_S, GcCandidate, GcReport,
                           gc_runs)
from repro.dist.merge import (merge_run, merge_shard_caches,
                              merge_stats)
from repro.dist.planner import (ShardPlan, ShardTask, load_shard_plan,
                                partition_tasks, plan_shards,
                                save_shard_plan)
from repro.dist.status import (ShardStatus, render_shard_dashboard,
                               shard_statuses, sharded_run_status,
                               watch_shards)
from repro.dist.worker import (MERGED_RUN_SPAN_ID, ShardLedger,
                               ShardResult, ShardState, replay_shard,
                               run_shard, shard_entry)

__all__ = [
    "DEFAULT_MIN_AGE_S",
    "GcCandidate",
    "GcReport",
    "MERGED_RUN_SPAN_ID",
    "ShardLedger",
    "ShardPlan",
    "ShardResult",
    "ShardState",
    "ShardStatus",
    "ShardTask",
    "execute_run_sharded",
    "gc_runs",
    "load_shard_plan",
    "merge_run",
    "merge_shard_caches",
    "merge_stats",
    "partition_tasks",
    "plan_shards",
    "render_shard_dashboard",
    "replay_shard",
    "resume_run_sharded",
    "run_shard",
    "save_shard_plan",
    "shard_entry",
    "shard_statuses",
    "sharded_run_status",
    "watch_shards",
]
