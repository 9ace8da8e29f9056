"""The four workloads: what each one asks the program to do.

See ``README.md`` beside this file for why each workload exists and
which layers it stresses or bypasses.
"""

from __future__ import annotations

from dataclasses import replace

WORKLOADS = ("paper_grid", "sharded_grid", "endpoint_grid",
             "served_reads")
#: Workloads that run by hand but are not in ``BENCHMARK.json``: on a
#: shared two-core host ``endpoint_grid``'s throughput follows how late
#: the host wakes its sleeping threads, which drifts by a third over
#: minutes, so two sets of its runs do not agree within any bound.
BY_HAND = ("endpoint_grid",)

#: ROADMAP W1: three models over three taxonomies, hard questions.
GRID_MODELS = ("GPT-4", "LLMs4OL", "Llama-2-7B")
GRID_TAXONOMIES = ("ebay", "ncbi", "google")
#: Sample size of the warm-up sweep that finishes lazy builds.
WARMUP_SAMPLE = 20
#: Timed sweeps per fresh process, after one set-up and warm-up.  A
#: single sweep swings by 15-20% on a shared host; more sweeps per
#: set-up put more of a run's time into the median.  (Each
#: ``sharded_grid`` sweep starts its own shard workers, so its
#: repetitions stay one sweep each.)
SWEEPS = {"paper_grid": 3, "endpoint_grid": 2}
#: Nominal timed seconds of one repetition (its sweeps) on a two-core
#: host; a run of ``--seconds`` makes ``ceil(seconds / REP_SECONDS)``.
REP_SECONDS = {"paper_grid": 5.0, "endpoint_grid": 5.0,
               "sharded_grid": 3.75}
#: Shards (and worker processes) of ``sharded_grid``.
SHARDS = 2
#: Sample size of the two ledgers ``served_reads`` serves.  Far smaller
#: than Cochran, so that every path repeats tens of times in one run
#: and its lower quartile is steady.
SERVED_SAMPLE = 30
#: Model whose answers stand in for the "new endpoint build" of the
#: second served run (served under the GPT-4 name).
SERVED_REBUILD = "Llama-2-7B"


def seed_text(seed: int) -> str:
    return f"perfbench-{seed}"


def grid_request(workload: str, seed: int, sample: int | None = None):
    """The :class:`repro.runs.RunRequest` a grid workload runs."""
    from repro.runs.request import RunRequest
    if workload == "endpoint_grid":
        return RunRequest(models=("GPT-4",), taxonomy_keys=GRID_TAXONOMIES,
                          sample_size=sample, seed=seed_text(seed),
                          workers=2, batch_size=8, coalesce=True,
                          trail=True)
    return RunRequest(models=GRID_MODELS, taxonomy_keys=GRID_TAXONOMIES,
                      sample_size=sample, seed=seed_text(seed))


def served_request(seed: int, sample: int | None = None):
    from repro.runs.request import RunRequest
    return RunRequest(models=("GPT-4",), taxonomy_keys=GRID_TAXONOMIES,
                      sample_size=SERVED_SAMPLE if sample is None
                      else sample,
                      seed=seed_text(seed), trail=True)


def warmup_request(request):
    return replace(request, sample_size=WARMUP_SAMPLE)


def fill_store(requests) -> int:
    """Build every pool the requests need into the artifact store
    (untimed); returns the number of scored questions of the first."""
    from repro.runs.driver import build_request_pools, plan_cells
    counts = []
    for request in requests:
        pools = build_request_pools(request)
        counts.append(sum(
            len(pools[cell.taxonomy_key].total_pool(request.dataset_kind))
            for cell in plan_cells(request, pools)))
    return counts[0]
