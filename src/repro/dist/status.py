"""Status aggregation over a sharded run's K shard directories.

An unmerged sharded run has no top-level ledger or heartbeat — its
truth is spread over K shard directories — so the single-run status
machinery (`attempt_status`, `repro runs list`, `repro watch`) needs
this module to fold K liveness signals into one answer.  Each shard
gets the standard four-state verdict from its own ledger (the pid of
its ``shard-started`` event) + heartbeat and log freshness, plus
``pending`` for a shard whose worker never started
(queued behind the process pool, or orphaned by a dead driver), or
``finished`` for one whose directory ``runs gc`` pruned after the
merge; the run-level fold is pessimistic about death and optimistic
about work:

* any shard ``running``            -> ``running``
* else any shard ``stalled``       -> ``stalled``
* else every shard ``finished``    -> ``unmerged`` (merge will flip
  the run to ``finished``)
* else                             -> ``crashed``
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs.live import _bar
from repro.runs.heartbeat import DEFAULT_STALL_DEADLINE_S, attempt_status
from repro.runs.ledger import RunState
from repro.runs.registry import RunRegistry
from repro.dist.planner import ShardPlan, load_shard_plan
from repro.dist.worker import replay_shard

#: The extra statuses sharded runs introduce beyond the standard four.
SHARD_ONLY_STATUSES = ("pending", "unmerged")


@dataclass(frozen=True, slots=True)
class ShardStatus:
    """One shard's progress + liveness snapshot."""

    shard: int
    status: str
    tasks: int
    questions_done: int
    questions_total: int
    attempts: int

    @property
    def fraction(self) -> float:
        if self.questions_total <= 0:
            return 1.0 if self.status == "finished" else 0.0
        return min(1.0, self.questions_done / self.questions_total)

    def as_row(self) -> dict[str, object]:
        return {
            "shard": self.shard,
            "tasks": self.tasks,
            "questions": (f"{self.questions_done}"
                          f"/{self.questions_total}"),
            "attempts": self.attempts,
            "status": self.status,
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "shard": self.shard,
            "status": self.status,
            "tasks": self.tasks,
            "questions_done": self.questions_done,
            "questions_total": self.questions_total,
            "attempts": self.attempts,
        }


def shard_statuses(run_id: str,
                   registry: RunRegistry | None = None,
                   plan: ShardPlan | None = None,
                   stall_deadline_s: float = DEFAULT_STALL_DEADLINE_S,
                   merged: RunState | None = None) -> list[ShardStatus]:
    """Per-shard snapshots, shard index order.

    A shard whose directory is gone reads ``finished`` when the run's
    own ledger (``merged``, read from the registry if not given) says
    the run finished: ``runs gc`` prunes the shards of merged runs,
    and the merge proved they covered every question.  Such a row
    counts every question done and takes the merged ledger's attempt,
    which the merge wrote as the highest over the shards.
    """
    registry = registry if registry is not None else RunRegistry()
    if plan is None:
        plan = load_shard_plan(registry, run_id)
    statuses: list[ShardStatus] = []
    for shard in range(plan.num_shards):
        ledger_path = registry.shard_ledger_path(run_id, shard)
        heartbeat = registry.shard_heartbeat_path(run_id, shard)
        state = replay_shard(ledger_path, shard)
        total = plan.shard_questions(shard)
        # Count only records inside this shard's own task ranges —
        # a resumed shard replays foreign cell-started events, never
        # foreign records, so the plain sum is already scoped.
        done, attempts = state.recorded_questions, state.attempts
        if not ledger_path.exists() and not heartbeat.exists():
            status = "pending"
            if not registry.shard_dir(run_id, shard).exists():
                if merged is None:
                    merged = registry.state(run_id)
                if merged.finished:
                    status, done, attempts = ("finished", total,
                                              merged.attempts)
        else:
            status = attempt_status(
                state.finished, state.pid, heartbeat, ledger_path,
                registry.shard_spans_path(run_id, shard),
                stall_deadline_s=stall_deadline_s)
        statuses.append(ShardStatus(
            shard=shard, status=status,
            tasks=len(plan.shards[shard]),
            questions_done=done,
            questions_total=total,
            attempts=attempts))
    return statuses


def sharded_run_status(run_id: str,
                       registry: RunRegistry | None = None,
                       stall_deadline_s: float =
                       DEFAULT_STALL_DEADLINE_S) -> str:
    """Fold K shard statuses into one run-level status."""
    statuses = [shard.status for shard in shard_statuses(
        run_id, registry=registry,
        stall_deadline_s=stall_deadline_s)]
    if not statuses:
        return "unmerged"
    if any(status == "running" for status in statuses):
        return "running"
    if any(status == "stalled" for status in statuses):
        return "stalled"
    if all(status == "finished" for status in statuses):
        return "unmerged"
    return "crashed"


# ----------------------------------------------------------------------
# ASCII shard dashboard (``repro watch`` on an unmerged sharded run)
# ----------------------------------------------------------------------
def render_shard_dashboard(run_id: str,
                           statuses: list[ShardStatus]) -> str:
    """One frame: run header plus a progress bar per shard."""
    done = sum(shard.questions_done for shard in statuses)
    total = sum(shard.questions_total for shard in statuses)
    finished = sum(1 for shard in statuses
                   if shard.status == "finished")
    fraction = (done / total) if total else 0.0
    lines = [
        (f"run {run_id} [sharded x{len(statuses)}] — "
         f"{finished}/{len(statuses)} shards finished, "
         f"{done}/{total} questions ({fraction * 100:.1f}%)"),
    ]
    for shard in statuses:
        lines.append(
            f"shard {shard.shard:02d} {_bar(shard.fraction)} "
            f"{shard.questions_done}/{shard.questions_total} "
            f"({shard.tasks} tasks, attempt "
            f"{max(1, shard.attempts)}) {shard.status}")
    if finished == len(statuses):
        lines.append(f"all shards finished — run `repro runs merge "
                     f"{run_id}` to fold them into the run ledger")
    return "\n".join(lines)


def watch_shards(run_id: str,
                 registry: RunRegistry | None = None,
                 interval_s: float = 1.0,
                 stall_deadline_s: float = DEFAULT_STALL_DEADLINE_S,
                 emit=None,
                 until_finished: bool = True) -> list[ShardStatus]:
    """Poll + render the shard dashboard until every shard settles.

    "Settled" means no shard is ``running`` or ``pending`` — finished,
    stalled and crashed are all terminal for a watcher (resume is an
    operator action).  Returns the final snapshot.
    """
    registry = registry if registry is not None else RunRegistry()
    plan = load_shard_plan(registry, run_id)

    def _print(frame: str) -> None:  # pragma: no cover - terminal io
        print("\x1b[H\x1b[2J" + frame, flush=True)

    emit = emit if emit is not None else _print
    while True:
        statuses = shard_statuses(run_id, registry=registry,
                                  plan=plan,
                                  stall_deadline_s=stall_deadline_s)
        emit(render_shard_dashboard(run_id, statuses))
        if until_finished and not any(
                shard.status in ("running", "pending")
                for shard in statuses):
            return statuses
        time.sleep(interval_s)
