#!/usr/bin/env bash
# Local CI mirror: the tier-1 test suite, then the whole suite again
# under `python -X dev`, the perfbench harness tests, every script in
# examples/, the five paper benches (Tables 5-7, Figures 3-4) at their
# fast scale, ten benchmark smokes (engine throughput, engine
# batching, dataset pipeline, run ledger, shard scaling, tracing, live
# follower, cost metering, serve fan-out, trail capture), the `obs
# check` regression gate, the trail analytics of its run, a check that
# the record, telemetry and trail books agree on that run and on the
# same request run by two coalescing workers (which the same `obs
# check` gate holds too), and a byte-for-byte regeneration of
# EXPERIMENTS.md.  A tier-1 failure stops the script;
# every later step runs even when an earlier one failed, and the
# script exits non-zero naming each step that did.
set -uo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q || exit 1

FAILED=()

# step NAME COMMAND...: run one step and note it when it fails.
step() {
    local name="$1"
    shift
    echo "== $name =="
    "$@" || FAILED+=("$name")
}

step "the whole suite again in dev mode (a leaked socket or file fails)" \
    python -X dev -m pytest -q \
    -W error::ResourceWarning \
    -W error::pytest.PytestUnraisableExceptionWarning
step "benchmark harness tests" python3 -m pytest perfbench -q

examples() {
    # Nothing else runs them, yet they call the public API by name.
    local example failed=0
    for example in examples/*.py; do
        echo "-- $example"
        python "$example" > /dev/null || failed=1
    done
    return "$failed"
}

step "every example runs" examples
step "paper benches (Tables 5-7, Figures 3-4)" \
    python -m pytest -q benchmarks/bench_table5_hard.py \
    benchmarks/bench_table6_easy.py benchmarks/bench_table7_mcq.py \
    benchmarks/bench_figure3_levels.py benchmarks/bench_figure4_prompting.py
step "engine throughput smoke" \
    python benchmarks/bench_engine_throughput.py
step "engine batching smoke (speedup + exact-calls + identity gates)" \
    python benchmarks/bench_engine_batching.py
step "dataset pipeline smoke" \
    python benchmarks/bench_dataset_build.py --smoke
step "run ledger smoke" python benchmarks/bench_run_ledger.py --smoke
step "shard scaling smoke (equality + speedup gates)" \
    python benchmarks/bench_shard_scaling.py --smoke
step "tracing overhead smoke" python benchmarks/bench_obs_overhead.py
step "live-follower overhead smoke" \
    python benchmarks/bench_watch_overhead.py
step "cost metering smoke (overhead + budget determinism gates)" \
    python benchmarks/bench_cost_overhead.py
step "serve SSE fan-out smoke (overhead + p99 latency gates)" \
    python benchmarks/bench_serve_load.py
step "trail capture smoke (overhead + bit-identity gates)" \
    python benchmarks/bench_trail_overhead.py

GATE_DIR="$(mktemp -d)"
trap 'rm -rf "$GATE_DIR"' EXIT

obs_check() {
    # The newest run under the runs root $1 against the committed
    # baseline.  Accuracy and cost are deterministic (seeded pools,
    # simulated models, fixed price cards), so the gate is tight on
    # them; throughput/p99 are machine-dependent, so those thresholds
    # only catch order-of-magnitude blowups.  The cache-hit-rate
    # column fails on a >10-point drop — a silently disabled cache
    # layer shows up here before it shows up as a cost blowup.
    REPRO_RUNS_DIR="$1" python -m repro obs check \
        --baseline-file benchmarks/baselines/obs_check_baseline.json \
        --max-accuracy-drop 0.5 --max-throughput-drop 95 \
        --max-p99-blowup 10000 --max-cost-blowup 20 \
        --max-cache-hit-drop 10
}

gate() {
    # --trail on the gate run: trail-on records are bit-identical to
    # trail-off ones (bench_trail_overhead proves it), so the gate
    # metrics are unchanged — and the run doubles as the provenance
    # analytics artifact below.
    REPRO_RUNS_DIR="$GATE_DIR" python -m repro run \
        --models GPT-4 LLMs4OL --taxonomies ebay --sample 24 --trail \
        > /dev/null || return
    obs_check "$GATE_DIR"
}

gate_run() {
    # The newest run under the runs root $1 (the gate's by default).
    REPRO_RUNS_DIR="${1:-$GATE_DIR}" python -m repro runs list --json \
        | python -c 'import json,sys; print(json.load(sys.stdin)[0]["run_id"])'
}

trails() {
    local run
    run="$(gate_run)" || return
    REPRO_RUNS_DIR="$GATE_DIR" python -m repro obs trails "$run"
}

books() {
    # The gate run is sequential with no cache hits or retries, so the
    # records (watch, obs cost), the telemetry (runs show) and the
    # trails (obs trails) must give the same questions, tokens and
    # cost.
    local run
    run="$(gate_run)" || return
    REPRO_RUNS_DIR="$GATE_DIR" python scripts/books_agree.py "$run"
}

books_engine() {
    # The same request, two workers coalescing in-flight duplicates:
    # its trails show no cache hit, follower or retry, so the same
    # four books must agree on it too, and the same baseline holds
    # it to the gate run's accuracy and cost, whatever its shape.
    local runs="$GATE_DIR/engine" run
    REPRO_RUNS_DIR="$runs" python -m repro run \
        --models GPT-4 LLMs4OL --taxonomies ebay --sample 24 --trail \
        --workers 2 --coalesce > /dev/null || return
    run="$(gate_run "$runs")" || return
    REPRO_RUNS_DIR="$runs" python scripts/books_agree.py "$run" \
        && obs_check "$runs"
}

experiments() {
    # Every paper-scale table and figure is deterministic, so the
    # regenerated record must equal the committed one byte for byte.
    python scripts/generate_experiments_md.py "$GATE_DIR/EXPERIMENTS.md" \
        && diff "$GATE_DIR/EXPERIMENTS.md" EXPERIMENTS.md
}

step "regression gate (obs check vs committed baseline)" gate
step "provenance trail analytics (gate run)" trails
step "the gate run's books agree (watch, obs cost, runs show, obs trails)" books
step "the books agree on the gate request run by 2 coalescing workers" \
    books_engine
step "EXPERIMENTS.md regenerates byte for byte" experiments

if ((${#FAILED[@]})); then
    echo "check.sh: ${#FAILED[@]} step(s) failed:"
    printf '  - %s\n' "${FAILED[@]}"
    exit 1
fi
echo "check.sh: all green"
