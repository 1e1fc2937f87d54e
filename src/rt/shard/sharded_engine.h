// Sharded multi-core RT engine (docs/REALTIME.md, "Sharding" section).
//
//   producer threads --SPSC rings--> dispatcher 0 --> scheduler 0 --> R*W0/W
//                    --SPSC rings--> dispatcher 1 --> scheduler 1 --> R*W1/W
//                    ...                 (one full RtEngine per shard)
//
// The single-dispatcher RtEngine serializes every packet through one thread;
// ShardedEngine partitions the flow table across N dispatcher shards with a
// stable flow->shard hash (rt/shard/shard_router.h) and composes them under
// an H-SFQ root: each shard is a virtual server whose service rate is its
// weight-sum fraction R*W_k/W of the link. The paper's eq. 65 makes an
// SFQ-scheduled virtual server itself Fluctuation Constrained, so Theorem 1
// recurses — the cross-shard gap between flows f (on shard A) and m (on
// shard B) over an interval where both stay backlogged and every shard is
// busy is bounded by
//
//   l_f/w_f + l_m/w_m + slack(A) + slack(B),
//   slack(k) = (l_k^max + sum_{g in k} l_g^max) / W_k
//
// (units: bits per unit weight, the axis of stats::sfq_fairness_bound).
// Same-shard pairs keep the plain Theorem-1 bound.
//
// Each shard is a complete PR-3/PR-7 engine — its own scheduler, ingress
// rings, overload machine, and watchdog — so every robustness plane stays
// lock-free and shard-local. The H-SFQ root is one thread whose step
// (root_step) supervises (failover on: rt/shard/shard_supervisor.h fences
// dead shards, rehomes their flows and cold-restarts them), then
// rebalances R over busy shards (more than one shard), then publishes the
// live stats when due — the only publisher: per-shard fairness gauges
// under each shard's label, root gauges (fairness.root_gap / root_bound) at
// shard 0. Beyond the root, the only cross-shard coupling is the versioned
// routing table. Every shard and engine epoch reads one wall-clock origin.
//
// Flow registration is UNIFIED: every flow is registered on every shard's
// scheduler (shard-local id == global id), with non-resident flows
// immediately deactivated (remove_flow). A misrouted packet lands as a
// kUnknownFlow drop; a migrated flow is adopted by re-activating it
// (rejoin_flow — the paper's tag re-anchoring), so failover needs no id
// remapping and tag history survives wherever a flow has ever lived.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.h"
#include "obs/telemetry/stats_server.h"
#include "obs/telemetry/telemetry.h"
#include "rt/engine.h"
#include "rt/ingress_target.h"
#include "rt/shard/shard_router.h"
#include "rt/shard/shard_supervisor.h"

namespace sfq::rt {

// Global flow table entry: ShardedEngine owns flow registration (unlike
// RtEngine, which takes a pre-registered scheduler) because every flow must
// be registered on every shard and left active only on its home shard.
struct ShardFlow {
  double weight = 1.0;
  double max_packet_bits = 0.0;  // l_f^max, drives the fairness bounds
  std::string name;
};

struct ShardedEngineOptions {
  std::size_t shards = 2;
  // Aggregate link rate R (bits/s), split across shards by weight-sum
  // fraction. Required > 0.
  double link_rate = 0.0;
  // Per-shard engine template: producers/ring_capacity/buffer_limit/
  // overload/watchdog/fault_plan apply to EVERY shard (buffer_limit is
  // per shard). telemetry_shard is overridden: shard k reports under
  // label k.
  EngineOptions engine;
  // Live stats publication (requires set_telemetry; docs/OBSERVABILITY.md).
  // The root thread publishes every `stats_interval` seconds (finite, >= 0),
  // updates the per-shard backlog / pacing-lag / stall / Theorem-1 fairness
  // gauges and the root gauges, snapshots the plane, publishes the
  // Prometheus + JSON renderings and prints one root console line plus one
  // line per shard. 0 disables the thread unless `stats_port` asks for the
  // endpoint, in which case it publishes every 0.5 s without printing.
  double stats_interval = 0.0;
  // Localhost HTTP exposition port, in [-1, 65535]: -1 (default) = no
  // endpoint, 0 = bind an ephemeral port (stats_endpoint_port() reports
  // it), else the literal port. GET /metrics serves Prometheus text,
  // /metrics.json JSON.
  int stats_port = -1;
  // Shard-targeted rt faults: `plan` is appended to the engine template's
  // fault_plan for shard `shard` only (chaos shard-kill scenarios and
  // sfq_serve --fault-kill AT,SHARD ride through this).
  struct ShardFault {
    std::size_t shard = 0;
    RtFaultPlan plan;
  };
  std::vector<ShardFault> shard_faults;
  // Shard failover (rt/shard/shard_supervisor.h): when on, a dead shard is
  // fenced, its flows rehomed onto survivors and a cold restart attempted,
  // instead of wedging the run (off: ShardedEngine::stalled() turns true).
  bool failover = false;
};

class ShardedEngine : public IngressTarget {
 public:
  // Builds shard k's scheduler; `rate_share` is the shard's fraction of
  // link_rate (useful for disciplines that take an assumed capacity). Flows
  // are registered by ShardedEngine afterwards: EVERY flow on EVERY shard in
  // ascending global-id order (local id == global id), with non-resident
  // flows deactivated — replay tooling rebuilds a shard by repeating that
  // walk. The discipline must support remove_flow/rejoin_flow (all the
  // library's per-flow disciplines do) for deactivation and failover.
  using SchedulerFactory =
      std::function<std::unique_ptr<Scheduler>(std::size_t shard,
                                               double rate_share)>;

  // Throws std::invalid_argument on malformed options (rt::validate on the
  // engine template, plus the sharding fields); try_create is the no-throw
  // path.
  ShardedEngine(const SchedulerFactory& factory, std::vector<ShardFlow> flows,
                ShardedEngineOptions opts);
  static std::unique_ptr<ShardedEngine> try_create(
      const SchedulerFactory& factory, std::vector<ShardFlow> flows,
      ShardedEngineOptions opts, std::string* error = nullptr);
  ~ShardedEngine() override;  // stop(kAbandon) if still running

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Producer API (rt/ingress_target.h): routes by the packet's flow id to
  // its current shard and offers the packet unchanged (shard-local ids are
  // global ids) to that shard's ring for slot i. Unknown ids route by hash
  // and land as kUnknownFlow drops on the target shard, keeping the
  // seven-cause ledger exact. note_* hooks resolve against the shard
  // producer i's most recent attempt routed to (per-producer slot state;
  // slots are single-threaded by contract).
  bool offer(std::size_t i, Packet p) override;
  bool offer_wait(std::size_t i, Packet p) override;
  OfferStatus try_offer(std::size_t i, const Packet& p) override;
  void note_offer_retry(std::size_t i) override;
  void note_offer_abandoned(std::size_t i) override;

  // Attaches the telemetry plane to every shard engine: shard k's cells,
  // histograms and gauges carry label k (TelemetryOptions::shards must be
  // >= shards()). Attach before start(); nullptr detaches.
  void set_telemetry(obs::telemetry::Telemetry* plane);
  // Differential-replay capture: (*out)[k] receives shard k's operation
  // sequence. Attach before start(); read only after stop() returned.
  void set_capture(std::vector<std::vector<CaptureOp>>* out);

  // One run per engine. stop() first ends supervision (a failover step in
  // flight finishes), then stops every shard concurrently (kDrain lets each
  // shard serve out its backlog in parallel) while the root keeps
  // rebalancing, then settles the root thread: its final publication
  // matches the summed ledger and the rate cells return to static shares.
  void start();
  void stop(StopMode mode = StopMode::kDrain);
  bool running() const { return running_.load(std::memory_order_acquire); }
  bool accepting() const override;
  // Without failover: any shard watchdog-stopped permanently. With failover
  // enabled, a dead shard is the supervisor's to handle — stalled() then
  // reports only an unrecoverable run (ShardSupervisor::wedged: no survivor
  // left, or a migration step failed terminally).
  bool stalled() const;
  // Live epoch of shard k died permanently (killed / budget-exhausted) and
  // has not been restarted (rt.shard_stalled gauge mirrors this).
  bool shard_stalled(std::size_t k) const;
  int overload_state() const;  // max (worst) across shards

  // Shard 0's time axis; every epoch of every shard shares its origin.
  Time now() const override { return live(0).now(); }
  std::size_t producers() const override { return opts_.engine.producers; }

  // Summed ledger across shards AND engine epochs (a restarted shard's
  // retired epoch keeps its frozen ledger). Exact after stop(): every
  // identity the single-engine EngineStats documents holds for the sums
  // because each epoch's ledger is exact, every offer lands on exactly one
  // engine, and migrated_in == migrated_out once all migrations settled.
  // max_service_lag is the max, overload_state the max, last_stall_stage
  // the most recent shard diagnosis.
  EngineStats stats() const;
  EngineStats shard_stats(std::size_t k) const;

  std::size_t shards() const { return shards_.size(); }
  // Current (versioned) routing: supervisor remaps flip these atomically.
  std::size_t shard_of(FlowId global) const {
    return shard_of_[global].load(std::memory_order_acquire);
  }
  // Primary (hash) placement, before any failover remap.
  std::size_t home_shard_of(FlowId global) const { return home_of_[global]; }
  std::size_t flow_count() const { return home_of_.size(); }
  // Bumped on every routing remap (failover evacuation or rehome-back).
  uint64_t route_version() const {
    return route_version_.load(std::memory_order_acquire);
  }
  Scheduler& scheduler(std::size_t k) { return *shards_[k]->sched; }
  // Live engine epoch of shard k (the restarted engine after a failover).
  RtEngine& engine(std::size_t k) { return live(k); }
  const RtEngine& engine(std::size_t k) const { return live(k); }
  // Engine epochs of shard k, oldest first; back() is the live one.
  std::size_t engine_epochs(std::size_t k) const {
    return shards_[k]->epoch_count.load(std::memory_order_acquire);
  }

  // Failover plumbing (all 0/false when failover is disabled).
  bool failover_enabled() const { return supervisor_ != nullptr; }
  uint64_t shard_failovers() const {
    return supervisor_ ? supervisor_->failovers() : 0;
  }
  uint64_t flows_rehomed() const {
    return supervisor_ ? supervisor_->flows_rehomed() : 0;
  }
  // Worst per-epoch migration slack (seconds): the extra term windows
  // overlapping a migration may add to fairness_bound (see
  // shard_supervisor.h for the derivation).
  double migration_slack() const {
    return supervisor_ ? supervisor_->migration_slack() : 0.0;
  }
  const ShardSupervisor* supervisor() const { return supervisor_.get(); }

  // Per-flow service in global flow-id order, summed over every shard and
  // epoch, so wall-clock fairness checks read one coherent axis across
  // shards.
  double flow_tx_bits(FlowId global) const;
  std::vector<double> service_snapshot() const;

  // H-SFQ bound plumbing. shard_weight(k) = W_k; shard_slack(k) is the
  // eq.-65 virtual-server term (l_k^max + sum_g l_g^max)/W_k;
  // fairness_bound(f, m) returns the Theorem-1 bound for same-shard pairs
  // and adds both shards' slack for cross-shard pairs (global flow ids).
  // All three track the CURRENT residency — the supervisor re-weights W_k
  // and recomputes slack on every migration.
  double shard_weight(std::size_t k) const {
    return shards_[k]->weight_sum.load(std::memory_order_acquire);
  }
  double shard_slack(std::size_t k) const {
    return shards_[k]->slack.load(std::memory_order_acquire);
  }
  double fairness_bound(FlowId f, FlowId m) const;

  // Port the root stats endpoint bound (0 when disabled).
  uint16_t stats_endpoint_port() const {
    return stats_server_ ? stats_server_->port() : 0;
  }

 private:
  friend class ShardSupervisor;  // fences/harvests/restarts shards

  struct Shard {
    std::unique_ptr<Scheduler> sched;
    // Engine epochs over `sched`, oldest first: a cold restart pushes a
    // fresh RtEngine and flips `live`; retired epochs stay alive so their
    // frozen ledgers keep summing and raw pointers held by producers stay
    // valid. Mutated only by the root thread's supervise step (or
    // construction);
    // readers go through `live` / `epoch_count`.
    std::vector<std::unique_ptr<RtEngine>> epochs;
    std::atomic<RtEngine*> live{nullptr};
    std::atomic<std::size_t> epoch_count{0};
    std::vector<FlowId> global_ids;    // primary-resident flows (home set)
    std::atomic<double> weight_sum{0.0};  // W_k over current residents
    std::atomic<double> slack{0.0};       // eq.-65 slack, current residents
    std::atomic<double> rate{0.0};        // static share R*W_k/W_live
    // Rebalance handle into the live epoch's AtomicRate profile.
    std::atomic<std::atomic<double>*> rate_cell{nullptr};
  };
  // Producer slot i's most recently routed shard; written and read only by
  // producer i (slots are single-threaded), padded so neighbouring
  // producers never share a cache line.
  struct alignas(64) LastShard {
    std::size_t shard = 0;
  };

  std::size_t route(const Packet& p, std::size_t i);
  RtEngine& live(std::size_t k) const {
    return *shards_[k]->live.load(std::memory_order_acquire);
  }
  // Builds an engine epoch over shard k's scheduler at the given rate.
  // Every epoch takes the template's and the shard-targeted clock faults;
  // only `initial` epochs take their pauses and kills (on the shared clock
  // axis a restart epoch would re-fire the kill at once otherwise).
  std::unique_ptr<RtEngine> make_engine_epoch(std::size_t k, double rate,
                                              bool initial);
  // The root thread: root_step every root_tick_ seconds until stop()
  // settles it, then the static rate shares and the final publication.
  void root_loop();
  // One root tick at root time `now`: supervise, rebalance, then publish
  // if a publication is due. Called with root_mu_ held.
  void root_step(Time now);
  void rebalance();
  void publish_stats();

  ShardedEngineOptions opts_;
  ShardRouter router_;
  // Versioned routing table: producers read it per packet, the supervisor
  // flips entries during a failover remap. home_of_ keeps the primary
  // (hash) placement for rehome-back decisions and replay tooling.
  std::unique_ptr<std::atomic<uint32_t>[]> shard_of_;
  std::vector<std::size_t> home_of_;
  std::atomic<uint64_t> route_version_{0};
  std::vector<double> flow_weight_;    // global flow table (immutable)
  std::vector<double> flow_max_bits_;
  double total_weight_ = 0.0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<LastShard> last_shard_;
  WallClock wall_;  // time origin of every shard, epoch and the root

  obs::telemetry::Telemetry* tele_ = nullptr;
  // set_capture target, remembered so a restarted epoch re-attaches to the
  // same per-shard op stream (the capture stays one continuous transcript
  // across a migration epoch).
  std::vector<std::vector<CaptureOp>>* capture_out_ = nullptr;
  std::unique_ptr<ShardSupervisor> supervisor_;

  // The root thread (root_thread_, declared last) holds root_mu_ while it
  // runs a step and sleeps on root_cv_ for root_tick_ seconds between
  // steps; stop() clears supervising_ under the lock (so a failover step in
  // flight finishes first) and later sets root_stop_.
  std::unique_ptr<obs::telemetry::StatsServer> stats_server_;
  std::mutex root_mu_;
  std::condition_variable root_cv_;
  bool root_stop_ = false;
  bool supervising_ = false;
  double root_tick_ = 0.0;         // 0: no step to run, no thread
  double publish_interval_ = 0.0;  // 0: no publication step
  Time next_publish_ = 0.0;
  std::vector<double> prev_service_;  // publication window start
  std::vector<char> rebal_busy_;  // sized once: a tick allocates nothing

  bool started_ = false;
  std::mutex stop_mu_;
  std::atomic<bool> running_{false};
  std::thread root_thread_;
};

}  // namespace sfq::rt
