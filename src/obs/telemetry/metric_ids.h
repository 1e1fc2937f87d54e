// Static metric-id table for the hot-path telemetry plane
// (docs/OBSERVABILITY.md).
//
// PR 1's MetricsRegistry keys metrics by std::string and looks them up in a
// std::map — fine for end-of-run dumps, unusable at millions of events per
// second. Here every metric is a compile-time id into fixed arrays, so the
// record path is an index computation plus one relaxed atomic op and the
// name only materialises at exposition time. Shard is a first-class label
// dimension from day one: the sharded multi-core engine (ROADMAP item 1)
// reports through the same ids with one cell block per shard.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/trace.h"  // DropCause

namespace sfq::obs::telemetry {

// Monotone counters. Order of the drop causes mirrors obs::DropCause
// (kBufferLimit..kFlowRemoved) so drop_counter() is pure arithmetic.
enum class CounterId : uint16_t {
  kIngressPushed = 0,  // packets that crossed a producer ring
  kIngressDrops,       // ring full / offer after stop
  kAccepted,           // entered the discipline
  kTransmitted,        // completed transmissions
  kTxBits,             // completed transmission payload, bits
  kAbandoned,          // ring items discarded by stop(kAbandon) / watchdog
  kDropBufferLimit,    // seven-cause taxonomy (docs/ROBUSTNESS.md)
  kDropUnknownFlow,
  kDropFaultLoss,
  kDropCorrupt,
  kDropPushout,
  kDropFlowRemoved,
  kDropShed,        // overload admission gate (weighted-fair shedding)
  kStalls,          // stall-watchdog trips
  kRecoveries,      // stall episodes the watchdog healed (service resumed)
  kOfferRetries,    // producer backpressure retries (LoadGen backoff)
  kOfferAbandoned,  // offers given up after retries / per-packet deadline
  kShardFailovers,  // completed shard failovers (fence -> rehome settled)
  kFlowsRehomed,    // flows migrated between shards (both directions)
  kMigratedIn,      // packets adopted from another shard's engine
  kMigratedOut,     // packets evicted/harvested to another shard's engine
  kCount,
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(CounterId::kCount);

// Instantaneous values, written by whichever thread owns the stage (the
// dispatcher at exit, the stats thread periodically).
enum class GaugeId : uint16_t {
  kBacklogPackets = 0,  // accepted - transmitted - post-enqueue drops
  kServiceLagMax,       // worst pacing lateness so far (s)
  kFairnessGap,         // Theorem-1 monitor: worst |dW_f/r_f - dW_m/r_m|
                        // over the last stats window (s)
  kFairnessGapMax,      // worst window gap seen this run (s)
  kFairnessBound,       // analytic bound l_f/r_f + l_m/r_m for the worst pair
  kOverloadState,       // overload state machine: 0 Normal, 1 Shedding,
                        // 2 Critical (docs/ROBUSTNESS.md)
  // Sharded-engine root aggregation (docs/REALTIME.md sharding section).
  // Written at shard 0 by the ShardedEngine stats thread; the per-shard
  // variants above carry the shard label of the dispatcher they describe.
  kRootFairnessGap,     // worst cross-shard normalized-service gap (s)
  kRootFairnessGapMax,  // worst root gap seen this run (s)
  kRootFairnessBound,   // hierarchical (eq.-65) bound for the worst pair
  kOverloadWorst,       // max overload state across shards
  kShardStalled,        // per shard: 1 while the dispatcher is permanently
                        // dead (killed or budget-exhausted), else 0
  kLastStallStage,      // per shard: StallStage of the latest stall as a
                        // number (-1 none .. 3 killed), live during the run
  kCount,
};
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(GaugeId::kCount);

// Log-linear latency histograms (nanosecond domain; see histogram.h).
enum class HistId : uint16_t {
  kQueueDelay = 0,  // enqueue (producer stamp) -> transmit complete
  kIngressDwell,    // producer stamp -> dispatcher inject
  kServiceLag,      // completion lateness vs the pacing deadline
  kStageDrain,      // profiling scopes (off by default; profile.h)
  kStageSchedule,
  kStageTransmit,
  kStageSimEvent,
  kMigrationLatency,  // shard failover: fence -> flows resident (s)
  kCount,
};
inline constexpr std::size_t kHistCount =
    static_cast<std::size_t>(HistId::kCount);

// Dotted names, consistent with the PR-1 registry catalogue so bridged
// snapshots land under predictable keys.
constexpr const char* name(CounterId id) {
  constexpr const char* kNames[kCounterCount] = {
      "rt.ingress_pushed", "rt.ingress_drops",
      "rt.accepted",       "rt.transmitted",
      "rt.tx_bits",        "rt.abandoned",
      "sched.drops.buffer_limit", "sched.drops.unknown_flow",
      "sched.drops.fault_loss",   "sched.drops.corrupt",
      "sched.drops.pushout",      "sched.drops.flow_removed",
      "sched.drops.shed",
      "rt.stalls",         "rt.recoveries",
      "rt.offer_retries",  "rt.offer_abandoned",
      "rt.shard_failovers", "rt.flows_rehomed",
      "rt.migrated_in",    "rt.migrated_out",
  };
  return kNames[static_cast<std::size_t>(id)];
}

constexpr const char* name(GaugeId id) {
  constexpr const char* kNames[kGaugeCount] = {
      "rt.backlog_packets", "rt.service_lag_max", "fairness.gap",
      "fairness.gap_max",   "fairness.bound",     "rt.overload_state",
      "fairness.root_gap",  "fairness.root_gap_max",
      "fairness.root_bound", "rt.overload_state_worst",
      "rt.shard_stalled",   "rt.last_stall_stage",
  };
  return kNames[static_cast<std::size_t>(id)];
}

constexpr const char* name(HistId id) {
  constexpr const char* kNames[kHistCount] = {
      "rt.queue_delay",   "rt.ingress_dwell",   "rt.service_lag",
      "rt.stage.drain",   "rt.stage.schedule",  "rt.stage.transmit",
      "sim.stage.event",  "rt.migration_latency",
  };
  return kNames[static_cast<std::size_t>(id)];
}

// Prometheus metric names (exposition.cc): [a-zA-Z_:][a-zA-Z0-9_:]*, with
// the conventional _total suffix on counters and _seconds on latency
// histograms.
constexpr const char* prometheus_name(CounterId id) {
  constexpr const char* kNames[kCounterCount] = {
      "sfq_ingress_pushed_total", "sfq_ingress_drops_total",
      "sfq_accepted_total",       "sfq_transmitted_total",
      "sfq_tx_bits_total",        "sfq_abandoned_total",
      "sfq_drops_buffer_limit_total", "sfq_drops_unknown_flow_total",
      "sfq_drops_fault_loss_total",   "sfq_drops_corrupt_total",
      "sfq_drops_pushout_total",      "sfq_drops_flow_removed_total",
      "sfq_drops_shed_total",
      "sfq_stalls_total",         "sfq_recoveries_total",
      "sfq_offer_retries_total",  "sfq_offer_abandoned_total",
      "sfq_shard_failovers_total", "sfq_flows_rehomed_total",
      "sfq_migrated_in_total",    "sfq_migrated_out_total",
  };
  return kNames[static_cast<std::size_t>(id)];
}

constexpr const char* prometheus_name(GaugeId id) {
  constexpr const char* kNames[kGaugeCount] = {
      "sfq_backlog_packets",      "sfq_service_lag_max_seconds",
      "sfq_fairness_gap_seconds", "sfq_fairness_gap_max_seconds",
      "sfq_fairness_bound_seconds", "sfq_overload_state",
      "sfq_fairness_root_gap_seconds",
      "sfq_fairness_root_gap_max_seconds",
      "sfq_fairness_root_bound_seconds",
      "sfq_overload_state_worst",
      "sfq_shard_stalled",        "sfq_last_stall_stage",
  };
  return kNames[static_cast<std::size_t>(id)];
}

constexpr const char* prometheus_name(HistId id) {
  constexpr const char* kNames[kHistCount] = {
      "sfq_queue_delay_seconds",    "sfq_ingress_dwell_seconds",
      "sfq_service_lag_seconds",    "sfq_stage_drain_seconds",
      "sfq_stage_schedule_seconds", "sfq_stage_transmit_seconds",
      "sfq_sim_event_seconds",      "sfq_migration_latency_seconds",
  };
  return kNames[static_cast<std::size_t>(id)];
}

// Maps a taxonomy cause to its counter. kNone has no counter; callers only
// pass real causes.
constexpr CounterId drop_counter(DropCause cause) {
  return static_cast<CounterId>(
      static_cast<std::size_t>(CounterId::kDropBufferLimit) +
      (static_cast<std::size_t>(cause) -
       static_cast<std::size_t>(DropCause::kBufferLimit)));
}

static_assert(drop_counter(DropCause::kBufferLimit) ==
              CounterId::kDropBufferLimit);
static_assert(drop_counter(DropCause::kFlowRemoved) ==
              CounterId::kDropFlowRemoved);
static_assert(drop_counter(DropCause::kShed) == CounterId::kDropShed);

}  // namespace sfq::obs::telemetry
