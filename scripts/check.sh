#!/usr/bin/env bash
# Local CI mirror: the tier-1 test suite plus short smokes of the
# engine throughput and dataset pipeline benchmarks.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== benchmark harness tests =="
python3 -m pytest perfbench -q

echo "== engine throughput smoke =="
python benchmarks/bench_engine_throughput.py

echo "== engine batching smoke (speedup + exact-calls + identity gates) =="
python benchmarks/bench_engine_batching.py

echo "== dataset pipeline smoke =="
python benchmarks/bench_dataset_build.py --smoke

echo "== run ledger smoke =="
python benchmarks/bench_run_ledger.py --smoke

echo "== shard scaling smoke (equality + speedup gates) =="
python benchmarks/bench_shard_scaling.py --smoke

echo "== tracing overhead smoke =="
python benchmarks/bench_obs_overhead.py

echo "== live-follower overhead smoke =="
python benchmarks/bench_watch_overhead.py

echo "== cost metering smoke (overhead + budget determinism gates) =="
python benchmarks/bench_cost_overhead.py

echo "== serve SSE fan-out smoke (overhead + p99 latency gates) =="
python benchmarks/bench_serve_load.py

echo "== trail capture smoke (overhead + bit-identity gates) =="
python benchmarks/bench_trail_overhead.py

echo "== regression gate (obs check vs committed baseline) =="
GATE_DIR="$(mktemp -d)"
trap 'rm -rf "$GATE_DIR"' EXIT
# --trail on the gate run: trail-on records are bit-identical to
# trail-off ones (bench_trail_overhead proves it), so the gate
# metrics are unchanged — and the run doubles as the provenance
# analytics artifact below.
REPRO_RUNS_DIR="$GATE_DIR" python -m repro run \
    --models GPT-4 LLMs4OL --taxonomies ebay --sample 24 --trail \
    > /dev/null
# Accuracy and cost are deterministic (seeded pools, simulated
# models, fixed price cards), so the gate is tight on them;
# throughput/p99 are machine-dependent, so those thresholds only
# catch order-of-magnitude blowups.  The cache-hit-rate column fails
# on a >10-point drop — a silently disabled cache layer shows up
# here before it shows up as a cost blowup.
REPRO_RUNS_DIR="$GATE_DIR" python -m repro obs check \
    --baseline-file benchmarks/baselines/obs_check_baseline.json \
    --max-accuracy-drop 0.5 --max-throughput-drop 95 \
    --max-p99-blowup 10000 --max-cost-blowup 20 \
    --max-cache-hit-drop 10

echo "== provenance trail analytics (gate run) =="
GATE_RUN="$(REPRO_RUNS_DIR="$GATE_DIR" python -m repro runs list --json \
    | python -c 'import json,sys; print(json.load(sys.stdin)[0]["run_id"])')"
REPRO_RUNS_DIR="$GATE_DIR" python -m repro obs trails "$GATE_RUN"

echo "check.sh: all green"
