#!/usr/bin/env bash
# ThreadSanitizer sweep over the concurrent code (src/rt/): Debug build with
# -fsanitize=thread, the rt test binaries, and an sfq_serve smoke run that
# exercises multi-producer ingress, the dispatcher, live stats reads, and
# stop() from the main thread. Any data-race report fails the run.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${TSAN_BUILD_DIR:-build-tsan}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$BUILD" -j"$(nproc)" --target sfq_tests sfq_serve

export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1

ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure \
  -R 'SpscRing|Ingress|RtEngine|ShardedEngine|ShardRouter|ShardFailover|Telemetry|CalendarQueue|FlowTable|SfqWheel'

# Smoke (every sfq_serve run goes through ShardedEngine): 4 producers paced
# at moderate overload on one shard, traced and invariant-checked (SyncSink
# path: the sinks hang off shard 0's dispatcher), then a second unpaced
# blast run (offer_wait/backpressure path), then a stats run that races the
# root thread's stats step (console + HTTP exposition) against the
# dispatcher and producers, then a 4-shard run that races 4 dispatchers and
# the root thread (rebalance + stats steps) against the producers
# (cross-shard routing + per-shard ledgers under TSAN), and a shard-failover
# run whose one root thread supervises (fence, harvest, rehome, cold
# restart, rehome back), rebalances and publishes against dispatchers and
# producers while shard 1 is killed mid-run, and finally an SFQ-W run
# driving the timestamp-wheel ready core (+ flow GC reclaim paths) under the
# same multi-producer ingress races.
"$BUILD/examples/sfq_serve" --producers 4 --flows 4 --duration 0.3 \
  --rate 20e6 --load 1.5 --buffer 128 --policy pushout \
  --check --trace "$BUILD/tsan_trace.jsonl" > /dev/null
"$BUILD/examples/sfq_serve" --producers 4 --flows 4 --duration 0.05 \
  --rate 1e12 --unpaced --buffer 0 > /dev/null
"$BUILD/examples/sfq_serve" --producers 4 --flows 4 --duration 0.4 \
  --rate 20e6 --load 1.2 --buffer 256 --stats-interval 0.1 \
  --stats-port 0 > /dev/null 2>&1
"$BUILD/examples/sfq_serve" --shards 4 --producers 4 --flows 8 \
  --duration 0.5 --rate 20e6 --load 2.5 --buffer 64 --shed \
  --stats-interval 0.1 --stats-port 0 > /dev/null 2>&1
"$BUILD/examples/sfq_serve" --shards 4 --producers 2 --flows 8 \
  --duration 0.8 --rate 20e6 --load 2.5 --buffer 128 --policy pushout \
  --stats-interval 0.2 --stats-port 0 --stall-timeout 0.1 \
  --failover --fault-kill 0.25,1 > /dev/null 2>&1
"$BUILD/examples/sfq_serve" --sched SFQ-W --producers 4 --flows 4 \
  --duration 0.3 --rate 20e6 --load 1.5 --buffer 128 \
  --policy pushout > /dev/null

echo "tsan.sh: TSAN clean"
