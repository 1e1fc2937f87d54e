// Shard supervisor: supervised failover with fairness-preserving flow
// rehoming (docs/ROBUSTNESS.md, "Shard failover").
//
// A shard whose dispatcher dies permanently — watchdog restart budget
// exhausted, or an RtFaultPlan shard-kill fault — used to strand every flow
// routed to it. The supervisor turns that partial failure into a bounded
// fairness perturbation:
//
//   1. FENCE    the dead shard (its engine already stopped accepting; the
//               first root tick after its dispatcher thread exited) and
//               HARVEST its exact per-flow backlog via
//               RtEngine::harvest_flows (counted migrated_out).
//   2. REHOME   its resident flows onto survivors via the router's
//               rendezvous remap (ShardRouter::rehome — minimal movement),
//               flip the now-versioned routing table, re-weight the H-SFQ
//               root shares W_k, and adopt the harvested backlog on each
//               destination dispatcher (RtEngine::adopt_flows — counted
//               migrated_in; the SFQ rejoin rule re-anchors each migrated
//               flow's start tag to max(v_dest(t), its previous finish on
//               the destination)).
//   3. RESTART  the dead shard cold — a fresh RtEngine epoch over the SAME
//               scheduler, so tag history survives — under a separate
//               shard-level restart budget, on the first tick after a fixed
//               backoff, and rehome the flows back on success.
//
// Every step keeps the summed conservation identities exact
// (in == out + backlog + removed + migrated-in-flight; the migrated_in /
// migrated_out terms cancel once an epoch settles), and the survivors'
// cross-shard Theorem-1 gap stays within
//
//   fairness_bound(f, m) + migration_slack,
//   migration_slack = max over epochs of
//       [ delta * R / W_live  +  max_{f moved} l_f^max / w_f ]
//
// where delta is the stalled->resident migration latency, R the link rate
// and W_live the surviving weight (derivation in docs/ROBUSTNESS.md;
// asserted live by sfq_serve --failover and scripts/soak.sh --kill-shard).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/types.h"
#include "obs/telemetry/telemetry.h"

namespace sfq::rt {

class ShardedEngine;

// One completed failover epoch, for post-run verdicts and tests.
struct FailoverEvent {
  std::size_t shard = 0;       // the shard that died
  std::size_t flows_moved = 0;  // flows rehomed away (not counting the return)
  uint64_t packets_moved = 0;   // harvested backlog packets adopted elsewhere
  double latency = 0.0;         // first stalled tick -> flows resident on
                                // survivors (s)
  double slack = 0.0;           // this epoch's migration_slack term (s)
  bool restarted = false;       // cold restart succeeded, flows rehomed back
};

// Owned by ShardedEngine (options.failover); a step of the engine's root
// thread, not a thread of its own. poll() runs once per root tick, so all
// mutation of routing, root weights and engine epochs happens on that
// thread, sequenced with the rebalance and stats steps — producers only
// read the atomics it publishes.
class ShardSupervisor {
 public:
  explicit ShardSupervisor(ShardedEngine& owner);

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  // One supervision step at root time `now` (the engine's wall axis): note
  // newly stalled shards, fence and evacuate those whose dispatcher has
  // exited, and cold-restart those whose backoff has expired.
  void poll(Time now);

  // Engine epochs one shard can run through: the first, plus the cold
  // restarts its shard-level restart budget allows (one).
  static std::size_t max_epochs();

  // Completed failovers (fence -> rehome settled).
  uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  // Flows migrated, counting both the evacuation and any rehome-back.
  uint64_t flows_rehomed() const {
    return flows_rehomed_.load(std::memory_order_relaxed);
  }
  // Worst per-epoch migration slack (seconds; the extra fairness-bound term
  // a window overlapping a migration may legitimately carry). 0 before any
  // failover.
  double migration_slack() const {
    return migration_slack_.load(std::memory_order_relaxed);
  }
  // True when recovery is impossible: every shard is dead, or a migration
  // step failed with no survivor left to retry on. This — not a single dead
  // shard — is what ShardedEngine::stalled() reports under failover.
  bool wedged() const { return wedged_.load(std::memory_order_acquire); }

  // Epoch log, one entry per fence (restarted turns true on a later tick);
  // read after stop().
  const std::vector<FailoverEvent>& events() const { return events_; }

 private:
  void fence(std::size_t k);
  void restart(std::size_t k);
  bool evacuate(std::size_t k, double& out_reanchor, std::size_t& flows_moved,
                uint64_t& packets_moved);
  void reweight();
  bool rehome_back(std::size_t k);
  void publish_shard_gauges();

  ShardedEngine& owner_;

  std::vector<char> alive_;                    // root-thread state
  std::vector<uint32_t> restarts_used_;        // per-shard budget cursor
  // Root time of the first tick that saw the live epoch stalled: the fence
  // waits for the dispatcher to exit, and the migration latency runs from
  // here. Root time at which a fenced shard's cold restart is due; the
  // restart completes the shard's latest event. Both +inf when unset.
  std::vector<Time> stalled_since_;
  std::vector<Time> restart_due_;
  std::vector<std::vector<FlowId>> residents_; // current flows per shard
  std::vector<FailoverEvent> events_;
  // One counter-cell block per shard (single-writer: the root thread).
  std::vector<obs::telemetry::Telemetry::Writer> writers_;

  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> flows_rehomed_{0};
  std::atomic<double> migration_slack_{0.0};
  std::atomic<bool> wedged_{false};
};

}  // namespace sfq::rt
