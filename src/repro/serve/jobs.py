"""Background execution of submitted runs, with job tracking.

``POST /runs`` must return immediately — a paper-scale sweep takes
minutes to hours — so the server separates *admission* from
*execution*.  Admission happens on the request thread: the
:class:`repro.runs.RunRequest` is validated, its cells are planned
and its run directory + manifest are created, so the response already
carries a resolvable ``run_id`` (the client can open its SSE stream
before the first question is asked).  Execution happens on a bounded
worker pool owned by the :class:`JobManager`; each job drives
:func:`repro.runs.execute_run` (or ``resume_run``), which builds the
engine the request describes, streams every event into the ledger,
and hands back per-job :class:`repro.engine.EngineStats` that the
jobs API exposes once the run completes.

Jobs are in-memory bookkeeping only — the durable truth is the run
ledger, exactly as for CLI runs.  A server restart forgets its job
table but loses no run: ``runs resume`` (or ``POST
/runs/<id>/resume``) finishes anything interrupted.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import RunError
from repro.runs.driver import create_run, execute_run
from repro.runs.registry import RunRegistry
from repro.runs.request import RunRequest
from repro.runs.resume import resume_run

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "finished", "failed")


@dataclass
class Job:
    """One submitted execution, trackable until the server restarts."""

    job_id: str
    kind: str                        # "run" | "resume"
    tenant: str
    run_id: str
    state: str = "queued"
    error: str | None = None
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    evaluated: int = 0
    replayed: int = 0
    cells: int = 0
    #: EngineStats snapshot of the finished execution.
    stats: dict | None = None
    #: Budget-exhausted payload when a spend ceiling stopped the run.
    budget: dict | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "tenant": self.tenant,
            "run_id": self.run_id,
            "state": self.state,
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "evaluated": self.evaluated,
            "replayed": self.replayed,
            "cells": self.cells,
            "stats": self.stats,
            "budget": self.budget,
        }


class JobManager:
    """Bounded worker pool executing runs for the HTTP API."""

    def __init__(self, max_workers: int = 2):
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, max_workers),
            thread_name_prefix="serve-job")
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False

    # ------------------------------------------------------------------
    def _admit(self, kind: str, tenant: str, run_id: str) -> Job:
        with self._lock:
            if self._closed:
                raise RunError("job manager is shutting down")
            job = Job(job_id=f"job-{next(self._ids):04d}", kind=kind,
                      tenant=tenant, run_id=run_id)
            self._jobs[job.job_id] = job
        return job

    def submit_run(self, request: RunRequest, registry: RunRegistry,
                   tenant: str = "") -> Job:
        """Create the run directory now, execute in the background."""
        run_id = create_run(request, registry=registry)
        job = self._admit("run", tenant, run_id)
        self._pool.submit(self._execute, job, registry,
                          lambda: execute_run(request,
                                              registry=registry,
                                              run_id=run_id))
        return job

    def submit_resume(self, run_id: str, registry: RunRegistry,
                      tenant: str = "") -> Job:
        """Finish an interrupted run in the background."""
        registry.manifest(run_id)        # raises UnknownRunError now
        job = self._admit("resume", tenant, run_id)
        self._pool.submit(self._execute, job, registry,
                          lambda: resume_run(run_id,
                                             registry=registry))
        return job

    def _execute(self, job: Job, registry: RunRegistry,
                 action) -> None:
        with self._lock:
            job.state = "running"
            job.started_at = time.time()
        try:
            result = action()
        except BaseException as exc:
            with self._lock:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
            return
        with self._lock:
            job.state = "finished"
            job.finished_at = time.time()
            job.evaluated = result.evaluated
            job.replayed = result.replayed
            job.cells = len(result.cells)
            job.stats = (result.stats.to_dict()
                         if result.stats is not None else None)
            job.budget = result.budget

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self, tenant: str | None = None) -> list[Job]:
        """Jobs (optionally one tenant's), oldest first."""
        with self._lock:
            jobs = list(self._jobs.values())
        if tenant is not None:
            jobs = [job for job in jobs if job.tenant == tenant]
        return sorted(jobs, key=lambda job: job.job_id)

    def active(self) -> int:
        with self._lock:
            return sum(1 for job in self._jobs.values()
                       if job.state in ("queued", "running"))

    def close(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
