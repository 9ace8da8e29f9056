"""The repository's benchmark: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes a separate traced run that wraps each layer's
public functions (see ``layers.py``) and reports the per-layer metrics.
``--workload all`` runs every workload both ways and prints every
metric.  Each run prints a human-readable report, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Work files live in
``.bench_build/perfbench`` at the repository root.  ``README.md``
beside this file says what each workload is for.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Repetitions per grid run: enough for --seconds at the workload's
#: nominal time per repetition (``workloads.REP_SECONDS``), at least
#: MIN_REPS, and none started after BUDGET_S of wall time.  The count
#: does not depend on how fast the host happens to be: the fastest-of
#: figures of ``grid_e2e`` shift with the number of repeats.
MIN_REPS = 2
BUDGET_S = 60.0
CHILD_TIMEOUT_S = 120.0
#: Server launches per served_reads run (setup_s is their median).
SERVER_LAUNCHES = 5
#: served_reads keeps reading past --seconds until it has this many.
MIN_READS = 100
#: Trail indices (drawn from the seed) that /trail/<i> cycles through.
TRAIL_INDICES = 4

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB"}

#: Per-layer metric -> unit.  ``README.md`` gives, for each, the call
#: it wraps and the end-to-end metric and workload it should move.
LAYER_UNITS = {
    "store.loads": "count", "store.load_s": "s", "store.builds": "count",
    "generators.taxonomy_builds": "count",
    "generators.taxonomy_build_s": "s",
    "llm.oracle.resolves": "count", "llm.oracle.resolve_s": "s",
    "llm.oracle.taxonomy_use_ratio": "ratio",
    "llm.prompting.render_s": "s",
    "llm.simulated.calls": "count", "llm.simulated.self_s": "s",
    "llm.parsing.parse_s": "s", "obs.cost.count_s": "s",
    "core.runner.asks": "count", "core.runner.self_s": "s",
    "obs.tracer.spans": "count", "obs.tracer.sink_s": "s",
    "runs.ledger.appends": "count", "runs.ledger.append_s": "s",
    "runs.ledger.fsyncs": "count", "runs.ledger.fsync_s": "s",
    "runs.ledger.bytes_written": "bytes",
    "engine.scheduler.run_s": "s", "engine.scheduler.busy_share": "ratio",
    "engine.batching.round_trips": "count",
    "engine.batching.fill_ratio": "ratio",
    "engine.batching.wait_s": "s",
    "engine.retries": "count", "engine.cache_hit_ratio": "ratio",
    "engine.coalesced": "count",
    "obs.trail.freeze_s": "s", "obs.trail.decode_s": "s",
    "dist.planner.plan_s": "s",
    "dist.worker.busy_s": "s", "dist.worker.skew": "ratio",
    "dist.worker.first_question_s": "s",
    "dist.merge.merge_s": "s",
    "runs.ledger.replays": "count", "runs.ledger.replay_s": "s",
    "runs.ledger.replays_per_read": "ratio",
    "runs.registry.list_s": "s",
    "serve.views.list_p50_ms": "ms", "serve.views.show_p50_ms": "ms",
    "serve.views.diff_p50_ms": "ms", "serve.views.trails_p50_ms": "ms",
    "serve.views.trail_p50_ms": "ms",
    "error_rate": "ratio", "traced_wall_s": "s",
    "unattributed_share": "ratio", "tracing_overhead_s": "s",
}

SERVED_ENDPOINTS = ("list", "show", "diff", "trails", "trail")


class Read(NamedTuple):
    """One answered read of ``served_reads``."""

    endpoint: str
    path: str
    round: int
    ms: float
    ok: bool


@dataclass
class Outcome:
    """One run's result: metrics as (value, unit, samples)."""

    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        unit = E2E_UNITS.get(name) or LAYER_UNITS[name]
        self.metrics[name] = (float(value), unit, samples)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def payload(self) -> dict:
        return {"correct": self.correct, "attempted": max(1, self.attempted),
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit, _) in
                            self.metrics.items()}}


# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_STORE_DIR"] = str(WORK / "store")
    return env


def spawn(spec: dict, scratch: Path) -> dict:
    """Run one ``child.py`` repetition; its JSON result (with
    ``launch``) or ``{"error": ...}``."""
    spec = {"runs_dir": str(scratch / f"runs-{time.time_ns()}"), **spec}
    spec["launch"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{spec['mode']} repetition timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = {"error": f"{spec['mode']} printed no result"}
    if proc.returncode != 0 and "error" not in out:
        out = {"error": f"{spec['mode']} exited {proc.returncode}"}
    if "error" in out:
        sys.stderr.write(proc.stderr[-4000:])
    out["launch"] = spec["launch"]
    return out


def machine_context() -> dict[str, str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": str(os.cpu_count()),
            "python": platform.python_version(),
            "commit": commit or "unknown"}


# ----------------------------------------------------------------------
# Grid workloads (paper_grid, endpoint_grid, sharded_grid)
# ----------------------------------------------------------------------
def grid_reps(workload: str, seed: int, seconds: float, sample,
              scratch: Path, outcome: Outcome, trace: bool) -> list[dict]:
    """Fresh-process repetitions of one grid workload, each checked
    against the sequential reference that repetition 0 computes."""
    import workloads
    request = workloads.grid_request(workload, seed, sample)
    questions = workloads.fill_store(
        [request, workloads.warmup_request(request)])
    expected = ""
    sweeps = workloads.SWEEPS.get(workload, 1)
    count = max(MIN_REPS,
                math.ceil(seconds / workloads.REP_SECONDS[workload]))
    specs = ([{"trace": False}, {"trace": True}] if trace else
             [{"trace": False, "sweeps": sweeps} for _ in range(count)])
    started = time.monotonic()
    reps: list[dict] = []
    for index, extra in enumerate(specs):
        if index >= MIN_REPS and time.monotonic() - started > BUDGET_S:
            break
        spec = {"mode": workload, "seed": seed, "sample": sample,
                "reference": index == 0, **extra}
        out = spawn(spec, scratch)
        if "error" in out:
            outcome.attempted += questions * extra.get("sweeps", 1)
            outcome.failed += questions * extra.get("sweeps", 1)
            outcome.problems.append(out["error"])
            break
        expected = out.get("reference_digest", expected)
        for sweep in out["sweeps"]:
            outcome.attempted += questions
            if sweep["questions"] != questions:
                outcome.problems.append(
                    f"{workload} scored {sweep['questions']} of "
                    f"{questions}")
            if sweep["digest"] != expected:
                outcome.problems.append(
                    f"{workload} records differ from the reference "
                    f"({sweep['digest']} != {expected})")
        reps.append(out)
    return reps


def grid_e2e(reps: list[dict], outcome: Outcome) -> None:
    import checks
    if not reps:
        return
    fastest: dict[str, float] = {}
    for rep in reps:
        checks.keep_fastest(fastest, rep["op_ms"])
    op_ms = list(fastest.values())
    outcome.put("setup_s", statistics.median(
        rep["ready"] - rep["launch"] - rep.get("excluded_s", 0.0)
        for rep in reps), len(reps))
    sweeps = [sweep for rep in reps for sweep in rep["sweeps"]]
    outcome.put("ops_per_s", sweeps[0]["questions"]
                / checks.fastest_wall(sweeps), len(sweeps))
    outcome.put("op_p50_ms", percentile(op_ms, 50), len(op_ms))
    outcome.put("op_p90_ms", percentile(op_ms, 90), len(op_ms))
    outcome.put("peak_rss_mb", statistics.median(
        rep["rss_mb"] for rep in reps), len(reps))


def grid_layers(workload: str, reps: list[dict],
                outcome: Outcome) -> None:
    """Fold the traced repetition into the per-layer metrics."""
    import layers
    import workloads
    if len(reps) < 2:
        return
    base, traced = reps
    fold = layers.Fold()
    fold.absorb(traced["fold"], main=True)
    wall = traced["end"] - traced["window"]
    attributed = fold.attributed_s(main=True)
    workers = []
    for snapshot in traced.get("worker_folds", []):
        fold.absorb(snapshot, main=False)
        worker = layers.Fold()
        worker.absorb(snapshot, main=True)
        workers.append(worker.attributed_s(main=True))
    if workers:
        # The parent blocks on its slowest shard: that shard's
        # attributed time stands in for the parent's wait.
        attributed += max(workers)
    put_fold_layers(fold, outcome, len(workloads.GRID_TAXONOMIES))
    outcome.put("runs.ledger.bytes_written", traced["ledger_bytes"])
    request = workloads.grid_request(workload, 0)
    run_s = fold.seconds("engine.scheduler.run", own=False)
    if run_s:
        ask_s = fold.seconds("core.runner.ask", own=False, main=False)
        outcome.put("engine.scheduler.busy_share",
                    ask_s / (request.workers * run_s))
    if traced.get("round_trips"):
        outcome.put("engine.batching.round_trips", traced["round_trips"])
        outcome.put("engine.batching.fill_ratio",
                    traced["round_trip_prompts"] / traced["round_trips"]
                    / request.batch_size)
        outcome.put("engine.batching.wait_s", max(0.0, fold.seconds(
            "engine.batching.generate", own=False) - traced["in_flight_s"]))
    stats = traced["stats"]
    lookups = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
    outcome.put("engine.retries", stats.get("retries", 0))
    outcome.put("engine.coalesced", stats.get("coalesced", 0))
    outcome.put("engine.cache_hit_ratio",
                stats.get("cache_hits", 0) / lookups if lookups else 0.0)
    shards = traced.get("shards", [])
    if shards:
        busy = [shard["busy_s"] for shard in shards]
        outcome.put("dist.worker.busy_s", sum(busy), len(busy))
        outcome.put("dist.worker.skew", max(busy) / min(busy), len(busy))
        outcome.put("dist.worker.first_question_s", max(
            shard["first_question_s"] for shard in shards), len(shards))
    base_wall = base["end"] - base["window"]
    outcome.put("traced_wall_s", wall)
    outcome.put("unattributed_share", (wall - attributed) / wall)
    outcome.put("tracing_overhead_s", wall - base_wall)


def put_fold_layers(fold, outcome: Outcome, taxonomies: int) -> None:
    """Per-layer metrics every workload reads off its fold."""
    put = outcome.put
    if fold.count("store.build"):
        outcome.problems.append(
            f"{fold.count('store.build')} pool builds on a warm store")
    put("store.loads", fold.count("store.load"))
    put("store.load_s", fold.seconds("store.load"))
    put("store.builds", fold.count("store.build"))
    put("generators.taxonomy_builds",
        fold.count("generators.build_taxonomy"))
    put("generators.taxonomy_build_s",
        fold.seconds("generators.build_taxonomy"))
    put("llm.oracle.resolves", fold.count("llm.oracle.resolve"))
    put("llm.oracle.resolve_s", fold.seconds("llm.oracle.resolve")
        + fold.seconds("llm.oracle.taxonomy"))
    put("llm.oracle.taxonomy_use_ratio",
        taxonomies / len(fold.oracle_keys) if fold.oracle_keys else 0.0)
    put("llm.prompting.render_s", fold.seconds("llm.prompting.render"))
    put("llm.simulated.calls", fold.count("llm.simulated"))
    put("llm.simulated.self_s", fold.seconds("llm.simulated"))
    put("llm.parsing.parse_s", fold.seconds("llm.parsing.parse"))
    put("obs.cost.count_s", fold.seconds("obs.cost.count"))
    put("core.runner.asks", fold.count("core.runner.ask"))
    put("core.runner.self_s", fold.seconds("core.runner.ask"))
    put("obs.tracer.spans", fold.count("obs.tracer.sink"))
    put("obs.tracer.sink_s", fold.seconds("obs.tracer.sink"))
    put("runs.ledger.appends", fold.count("runs.ledger.append"))
    put("runs.ledger.append_s", fold.seconds("runs.ledger.append"))
    put("runs.ledger.fsyncs", fold.count("runs.ledger.fsync"))
    put("runs.ledger.fsync_s", fold.seconds("runs.ledger.fsync"))
    put("engine.scheduler.run_s",
        fold.seconds("engine.scheduler.run", own=False))
    put("obs.trail.freeze_s", fold.seconds("obs.trail.freeze"))
    put("obs.trail.decode_s", fold.seconds("obs.trail.decode"))
    put("dist.planner.plan_s", fold.seconds("dist.planner.plan"))
    put("dist.merge.merge_s", fold.seconds("dist.merge.merge"))
    put("runs.ledger.replays", fold.count("runs.ledger.replay"))
    put("runs.ledger.replay_s", fold.seconds("runs.ledger.replay"))
    put("runs.registry.list_s", fold.seconds("runs.registry.list"))


# ----------------------------------------------------------------------
# served_reads
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, root: Path):
        launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--runs-dir", str(root)],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        watchdog = threading.Timer(30.0, self.proc.kill)
        watchdog.start()
        try:
            match = re.search(r"http://[^:/]+:(\d+)",
                              self.proc.stdout.readline())
            if match is None:
                raise RuntimeError("repro serve did not report its port")
            self.port = int(match.group(1))
            while True:
                try:
                    if fetch(self.port, "/healthz")[0] == 200:
                        break
                except OSError:
                    if self.proc.poll() is not None:
                        raise RuntimeError("repro serve exited before "
                                           "answering /healthz")
                    time.sleep(0.002)
            self.setup_s = time.monotonic() - launched
        except BaseException:
            self.close()
            raise
        finally:
            watchdog.cancel()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def fetch(port: int, path: str,
          conn: http.client.HTTPConnection | None = None):
    own = conn is None
    conn = conn or http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        if own:
            conn.close()


def served_paths(runs: list[str], questions: int, seed: int
                 ) -> list[tuple[str, str]]:
    """(endpoint, path) cycle: four views, then one trail per index."""
    first, second = runs
    rng = random.Random(seed)
    indices = rng.sample(range(questions), min(TRAIL_INDICES, questions))
    paths = []
    for index in indices:
        paths += [("list", "/runs"), ("show", f"/runs/{first}"),
                  ("diff", f"/runs/{first}/diff/{second}"),
                  ("trails", f"/runs/{first}/trails"),
                  ("trail", f"/runs/{first}/trail/{index}")]
    return paths


def expected_bodies(root: Path, runs: list[str],
                    paths: list[tuple[str, str]]) -> dict[str, bytes]:
    """What the ``serve.views`` builders produce for each path."""
    from repro.runs.registry import RunRegistry
    from repro.serve import views
    registry = RunRegistry(root)
    first, second = runs
    bodies = {}
    for endpoint, path in paths:
        if path in bodies:
            continue
        if endpoint == "list":
            payload = views.runs_list_payload(registry)
        elif endpoint == "show":
            payload = views.run_show_payload(registry, first)
        elif endpoint == "diff":
            payload = views.run_diff_payload(registry, first, second)
        elif endpoint == "trails":
            payload = views.run_trails_payload(registry, first)
        else:
            payload = views.run_trail_payload(
                registry, first, int(path.rsplit("/", 1)[1]))
        bodies[path] = json.dumps(payload, indent=1).encode("utf-8")
    return bodies


def read_loop(port: int, paths, expected, seconds: float,
              clients: int = 2, min_reads: int = MIN_READS,
              limit: int | None = None) -> list[Read]:
    """Closed loop in rounds: each of ``clients`` connections sends the
    round's read at once, and the next round starts when every one has
    been answered; for ``seconds`` (and until ``min_reads``), or
    exactly ``limit`` rounds.

    Rounds keep the two clients' reads overlapping the same way every
    time, so a read's latency does not depend on where the other
    client happens to be in its cycle."""
    reads: list[Read] = []
    lock = threading.Lock()
    deadline = time.monotonic() + seconds
    hard_stop = deadline + 3 * seconds + 30
    state = {"round": -1, "stop": False}

    def next_round() -> None:
        now = time.monotonic()
        state["round"] += 1
        if limit is not None:
            state["stop"] = state["round"] >= limit
        else:
            state["stop"] = now >= hard_stop or (
                now >= deadline and len(reads) >= min_reads)

    barrier = threading.Barrier(clients, action=next_round, timeout=60)

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while True:
                barrier.wait()
                if state["stop"]:
                    return
                number = state["round"]
                endpoint, path = paths[number % len(paths)]
                started = time.perf_counter()
                try:
                    status, body = fetch(port, path, conn)
                    ok = status == 200 and body == expected[path]
                except (OSError, http.client.HTTPException):
                    ok = False
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=30)
                elapsed = (time.perf_counter() - started) * 1000.0
                with lock:
                    reads.append(Read(endpoint, path, number, elapsed, ok))
        except threading.BrokenBarrierError:
            return
        finally:
            # A client that stops early must not leave the others
            # waiting for it.
            barrier.abort()
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return reads


def served_reads(seed: int, seconds: float, sample, scratch: Path,
                 outcome: Outcome, trace: bool) -> None:
    import layers
    import workloads
    root = scratch / "served"
    workloads.fill_store([workloads.served_request(seed, sample)])
    prep = spawn({"mode": "served_prep", "seed": seed, "sample": sample,
                  "runs_dir": str(root)}, scratch)
    if "error" in prep:
        outcome.attempted += 1
        outcome.failed += 1
        outcome.problems.append(prep["error"])
        return
    paths = served_paths(prep["runs"], prep["questions"], seed)
    expected = expected_bodies(root, prep["runs"], paths)
    if trace:
        return served_traced(root, paths, expected, seconds, outcome)
    setups = []
    server = None
    try:
        for _ in range(SERVER_LAUNCHES):
            if server is not None:
                server.close()
            server = Server(root)
            setups.append(server.setup_s)
        reads = read_loop(server.port, paths, expected, seconds)
        rss = layers.process_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.close()
    count_reads(reads, outcome)
    latencies, round_ms = fast_reads(reads)
    outcome.put("setup_s", statistics.median(setups), len(setups))
    outcome.put("ops_per_s", len(reads) / round_ms * 1000.0, len(reads))
    outcome.put("op_p50_ms", percentile(latencies, 50), len(latencies))
    outcome.put("op_p90_ms", percentile(latencies, 90), len(latencies))
    outcome.put("peak_rss_mb", rss)


def fast_reads(reads: list[Read]) -> tuple[list[float], float]:
    """Each read's latency as the lower quartile of its path's reads,
    and the rounds' wall time put together the same way: each round
    counts at the lower quartile of its path's round times (a round
    lasts until its last read is answered).

    A slow phase of the host slows whole seconds of a run; a lower
    quartile over a path's many repeats keeps only the quick ones, yet
    needs far fewer repeats than a fastest-of figure to be steady."""
    rounds: dict[int, list[Read]] = {}
    for read in reads:
        rounds.setdefault(read.round, []).append(read)
    latencies: dict[str, list[float]] = {}
    round_times: dict[str, list[float]] = {}
    for members in rounds.values():
        path = members[0].path
        latencies.setdefault(path, []).extend(read.ms for read in members)
        round_times.setdefault(path, []).append(
            max(read.ms for read in members))
    quick = {path: lower_quartile(values)
             for path, values in latencies.items()}
    quick_round = {path: lower_quartile(values)
                   for path, values in round_times.items()}
    return ([quick[read.path] for read in reads],
            sum(quick_round[members[0].path] for members in rounds.values()))


def lower_quartile(values: list[float]) -> float:
    return (statistics.quantiles(values, n=4)[0] if len(values) > 1
            else values[0])


def count_reads(reads, outcome: Outcome) -> None:
    outcome.attempted += len(reads)
    bad = sum(1 for read in reads if not read.ok)
    outcome.failed += bad
    if bad:
        outcome.problems.append(f"{bad} reads failed or differed from "
                                f"the serve.views builders")


def served_traced(root: Path, paths, expected, seconds: float,
                  outcome: Outcome) -> None:
    """In-process server so the wrappers see its calls: one fixed read
    sequence untraced, the same traced, then the closed loop traced."""
    import layers
    from repro.serve import ReproServer
    fold = layers.Fold()
    server = ReproServer(root=root, port=0).start()
    try:
        started = time.perf_counter()
        base = read_loop(server.port, paths, expected, 0, clients=1,
                         limit=len(paths))
        base_wall = time.perf_counter() - started
        fold.install()
        started = time.perf_counter()
        traced = read_loop(server.port, paths, expected, 0, clients=1,
                           limit=len(paths))
        wall = time.perf_counter() - started
        attributed = fold.attributed_s(main=None)
        loop = read_loop(server.port, paths, expected, seconds)
    finally:
        fold.uninstall()
        server.close()
    reads = base + traced + loop
    count_reads(reads, outcome)
    put_fold_layers(fold, outcome, 0)
    outcome.put("runs.ledger.replays_per_read",
                fold.count("runs.ledger.replay") / len(traced + loop))
    for endpoint in SERVED_ENDPOINTS:
        latencies = [read.ms for read in loop if read.endpoint == endpoint]
        outcome.put(f"serve.views.{endpoint}_p50_ms",
                    percentile(latencies, 50), len(latencies))
    outcome.put("traced_wall_s", wall)
    outcome.put("unattributed_share", (wall - attributed) / wall)
    outcome.put("tracing_overhead_s", wall - base_wall)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sample=None) -> Outcome:
    outcome = Outcome()
    scratch = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        if workload == "served_reads":
            served_reads(seed, seconds, sample, scratch, outcome, trace)
        else:
            reps = grid_reps(workload, seed, seconds, sample, scratch,
                             outcome, trace)
            if trace:
                grid_layers(workload, reps, outcome)
            else:
                grid_e2e(reps, outcome)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    names = LAYER_UNITS if trace else E2E_UNITS
    for name in names:
        if name not in outcome.metrics:
            if trace:
                outcome.put(name, 0.0, 0)
            else:
                outcome.problems.append(f"no value for {name}")
    if trace:
        outcome.put("error_rate",
                    outcome.failed / outcome.attempted
                    if outcome.attempted else 1.0, outcome.attempted)
    return outcome


def report(workload: str, trace: bool, outcome: Outcome,
           context: dict[str, str]) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"# {workload}: {kind} | " + " ".join(
        f"{key}={value}" for key, value in context.items()))
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"{workload:14s} {name:34s} {value:14.6g} {unit:6s} "
              f"n={samples}")
    print(f"{workload:14s} attempted={outcome.attempted} "
          f"failed={outcome.failed} correct={outcome.correct}")
    for problem in outcome.problems:
        print(f"{workload:14s} CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(REPRO_STORE_DIR=str(WORK / "store"))
    context = machine_context()
    if args.workload != "all":
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        report(args.workload, bool(args.trace), outcome, context)
        print(json.dumps(outcome.payload()))
        return 0
    summary = {"correct": True, "attempted": 0, "failed": 0,
               "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            outcome = run_workload(workload, args.seed, args.seconds,
                                   trace)
            report(workload, trace, outcome, context)
            body = outcome.payload()
            summary["correct"] &= body["correct"]
            summary["attempted"] += body["attempted"]
            summary["failed"] += body["failed"]
            summary["metrics"].update(
                {f"{workload}/{name}": metric
                 for name, metric in body["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
