// Differential checking: run one scenario through two paths and report the
// first divergence event-by-event (docs/CHAOS.md).
//
// Sim side (check_sim):
//   * determinism  — the same spec simulated twice must produce byte-identical
//                    trace streams (every field of every event);
//   * invariants   — the recorded stream must satisfy the discipline's
//                    InvariantChecker profile (tag order, v(t) monotonicity,
//                    S/F arithmetic, fault-aware conservation), with the
//                    scenario seed baked into every violation message;
//   * fairness     — for SFQ/SCFQ scenarios, the empirical Theorem-1 ratio
//                    from run_experiment must stay within the analytic bound;
//   * throughput   — delivery never exceeds link capacity, and the first
//                    hop is exactly work-conserving: its recorded trace
//                    never leaves the link idle while packets are queued
//                    (check_work_conservation).
//
// Rt side (check_rt):
//   * the live RtEngine records the exact scheduler-op sequence its
//     dispatcher performed (rt::CaptureOp); the replay applies the identical
//     sequence to a freshly built scheduler single-threaded and every
//     dequeue/pushout must return the same packet with bit-identical tags.
//     A divergence means the threaded pipeline corrupted scheduler state (or
//     the discipline is not a pure function of its input sequence).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/experiment.h"
#include "obs/trace.h"

namespace sfq::chaos {

struct CheckResult {
  bool ok = true;
  std::string kind;    // "", or determinism|invariant|fairness|throughput|
                       // rt-divergence|rt-stall|error
  std::string detail;  // first failure, event-by-event where applicable

  void fail(std::string k, std::string d) {
    if (!ok) return;  // keep the first failure
    ok = false;
    kind = std::move(k);
    detail = std::move(d);
  }
};

// Exact work-conservation oracle over one link's recorded trace: every
// kTxEnd that leaves backlog, and every kEnqueue onto an idle link, must be
// followed by a kTxStart at the same instant, before any other link-level
// event (kEnqueue, kTxEnd, kDrop). Fails with kind "throughput".
CheckResult check_work_conservation(const std::vector<obs::TraceEvent>& events);

// Simulator-side differential + oracle checks for one scenario.
CheckResult check_sim(const config::ExperimentSpec& spec, uint64_t seed);

// Live-engine capture -> single-threaded replay. The spec must be
// rt-compatible (single hop, no faults; see GeneratorOptions::rt_compatible).
// `packets` caps the total offered packets so a seed stays sub-second.
CheckResult check_rt(const config::ExperimentSpec& spec, uint64_t seed,
                     std::size_t packets = 1500);

struct RtCheckOptions {
  std::size_t packets = 1500;
  // Fault-injected mode (docs/ROBUSTNESS.md): derive an rt-layer fault plan
  // from the seed (generate_rt_faults — dispatcher pauses, clock jumps and
  // skews), arm the stall watchdog with an effectively unlimited restart
  // budget, and force overload admission control on, so the blast doubles as
  // an overload burst against the shedding gate. On top of the usual
  // capture->replay equivalence, the checker then demands that every
  // detected stall healed (recoveries match, transmission resumed, the
  // engine did not end permanently stalled) and that the telemetry plane's
  // per-cause ledger — kShed included — still mirrors the engine's own
  // counters bit-exactly after the recoveries.
  bool inject_faults = false;
  // Sharded mode (docs/REALTIME.md sharding section): route the same offered
  // load through a ShardedEngine with this many dispatcher shards, capture
  // every shard's op sequence independently and replay each against a fresh
  // scheduler, check the summed cross-shard ledger identities, and — on
  // clean unlimited-buffer runs — sample the drain and hold the hierarchical
  // (eq.-65) cross-shard fairness bound at the root. 1 = the single-engine
  // path. Specs the sharded engine cannot split (HSFQ / class hierarchies)
  // fall back to 1 shard automatically.
  std::size_t shards = 1;
  // Shard-kill failover mode (docs/ROBUSTNESS.md "Shard failover"; needs
  // shards > 1): derive a shard-kill fault from the seed
  // (generate_shard_kill), run with the shard supervisor enabled, and demand
  // that the failover completed (>= 1 recorded), that the summed ledger
  // stays exact across the migration epoch — including the migrated_in ==
  // migrated_out settlement — and that every shard's capture transcript
  // (kRemove/kRejoin residency ops included) still replays bit-exactly.
  bool kill_shard = false;
};
CheckResult check_rt(const config::ExperimentSpec& spec, uint64_t seed,
                     const RtCheckOptions& opts);

// Old-core vs new-core differential (docs/PERFORMANCE.md, "The flow-scale
// core"): run the same SFQ spec once on the exact IndexedHeap core and once
// on the SFQ-W timestamp wheel (auto quantum), then hold the wheel run to
//   * the SFQ-W invariant profile — start tags served in order up to one
//     quantization window, exact vtime monotonicity, exact per-flow tag
//     chains, fault-aware conservation;
//   * the Theorem-1 fairness oracle with the derived 2*quantum slack
//     (via run_experiment's widened bound), same premises as check_sim;
//   * per-flow served bits within the analytic cross-core tolerance of the
//     heap run (clean single-hop no-drop specs only: drop decisions cascade,
//     so lossy runs are covered by the invariant profile alone).
// The spec must use scheduler SFQ (the wheel twin is derived internally).
CheckResult check_wheel(const config::ExperimentSpec& spec, uint64_t seed);

}  // namespace sfq::chaos
