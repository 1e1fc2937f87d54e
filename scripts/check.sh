#!/usr/bin/env bash
# Full pre-merge gate: warning-clean Release build, the whole test suite, and
# a traced example run whose JSONL output must parse and whose invariants
# must hold (docs/OBSERVABILITY.md). A fault-injection run (outage + loss +
# churn + pushout; docs/ROBUSTNESS.md) must also keep the invariants clean,
# and the end-to-end benchmark (perfbench/) must pass its selftest and build.
# Set SANITIZE=1 to additionally run the ASan+UBSan sweep (scripts/sanitize.sh)
# and TSAN=1 for the ThreadSanitizer sweep of src/rt/ (scripts/tsan.sh).
# Set PERF=1 for the perf-regression gate (docs/PERFORMANCE.md): the three
# perf benches run with the allocation guard and throughput floor enforced,
# and sim throughput must clear 1.5x the committed pre-optimisation baseline.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${BUILD_DIR:-build-check}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release -DSFQ_WERROR=ON
cmake --build "$BUILD" -j"$(nproc)"
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

# perfbench (perfbench/README.md) fills in the rt option structs, so a src/
# API change can break it: run its selftest and build the benchmark binary,
# both under $BUILD/perfbench.
CARGO_TARGET_DIR="$BUILD" python3 perfbench/run.py --selftest
cmake --build "$BUILD/perfbench" --target sfq_perfbench -j"$(nproc)"
echo "perfbench selftest and build OK"

# Traced run: every event line must be valid JSON, zero invariant violations
# (non-zero exit from --check), and the metrics dump must be valid JSON.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
"$BUILD/examples/sfq_lab" --check --trace "$out/run.jsonl" \
    --metrics "$out/run.metrics.json" examples/configs/single_switch.conf

test -s "$out/run.jsonl"
if command -v python3 >/dev/null; then
  python3 - "$out/run.jsonl" "$out/run.metrics.json" <<'EOF'
import json, sys
n = 0
with open(sys.argv[1]) as f:
    for line in f:
        json.loads(line)
        n += 1
assert n > 0, "empty trace"
m = json.load(open(sys.argv[2]))
# The simulator reports through the telemetry plane: the document is the
# /metrics.json one, with the first hop's queue delay at shard 0.
h = m["histograms"]["rt.queue_delay"][0]
for key in ("count", "p50_s", "p99_s", "max_s"):
    assert key in h, (key, sorted(h))
assert h["count"] > 0 and 0 < h["p50_s"] <= h["p99_s"] <= h["max_s"], h
assert "sched.drops.buffer_limit" in m["counters"]
assert m["gauges"]["sim.events_executed"][0] > 0, m["gauges"]
print(f"trace OK: {n} JSONL lines, metrics OK: "
      f"{len(m['counters'])} counters, {len(m['histograms'])} histograms")
EOF
else
  echo "python3 not found - skipping JSONL parse check"
fi

# Faulted run: link outage, brown-out, random loss, and flow churn on a
# pushout-policy port. All losses must surface as counted drops; the online
# invariant checker must stay clean (non-zero exit otherwise).
"$BUILD/examples/sfq_lab" --check examples/configs/faulty_link.conf \
    > "$out/faulty.txt"
grep -q "drops by cause:" "$out/faulty.txt"
echo "fault gate OK: $(grep 'drops by cause:' "$out/faulty.txt" | head -1)"

# Chaos gate: a fixed seed block through the differential sim checks
# (determinism, invariants, Theorem-1/2 oracles) plus live-engine
# capture->replay seeds, including fault-injected rt seeds (dispatcher
# pauses + clock jumps/skews + overload burst; the engine must self-heal
# and keep the ledger conserved — docs/ROBUSTNESS.md) and shard-kill seeds
# (a seeded mid-load kill under failover: fence, rehome, cold restart and
# rehome back through the sharded root thread, with the migration ledger
# exact). A failure writes the minimized repro .conf to $out and names the
# seed to replay.
"$BUILD/examples/sfq_chaos" run --seeds 64 --rt 8 --rt-faults 8 --rt-kill 4 \
  --out "$out"
echo "chaos gate OK"

if [[ "${PERF:-0}" == "1" ]]; then
  # Perf gate: zero steady-state heap allocations on the SFQ hot path, a
  # packets/s floor, and >= 1.5x the committed pre-PR baseline
  # (bench/baselines/). Benches are built in this Release tree.
  baseline=""
  if command -v python3 >/dev/null && \
     [[ -f bench/baselines/BENCH_sim_throughput.baseline.json ]]; then
    baseline=$(python3 -c '
import json
recs = json.load(open("bench/baselines/BENCH_sim_throughput.baseline.json"))
print(next(r["value"] for r in recs
           if r["scenario"] == "SFQ/4"
           and r["metric"] == "steady_pkts_per_sec"))')
  fi
  export SFQ_PERF_GATE=1
  export BENCH_DIR="$out"
  [[ -n "$baseline" ]] && export SFQ_PERF_BASELINE_PPS="$baseline"
  "$BUILD/bench/bench_sim_throughput" --benchmark_filter=NONE
  "$BUILD/bench/bench_scheduler_perf" --benchmark_filter=NONE
  "$BUILD/bench/bench_rt_engine"
  echo "perf gate OK"
fi

if [[ "${SANITIZE:-0}" == "1" ]]; then
  scripts/sanitize.sh
fi

if [[ "${TSAN:-0}" == "1" ]]; then
  scripts/tsan.sh
fi

echo "check.sh: all gates passed"
