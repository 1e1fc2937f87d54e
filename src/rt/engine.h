#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.h"
#include "net/rate_profile.h"
#include "net/scheduled_server.h"  // OverloadPolicy
#include "obs/telemetry/telemetry.h"
#include "obs/trace.h"
#include "rt/clock.h"
#include "rt/fault_clock.h"
#include "rt/ingress.h"
#include "rt/ingress_target.h"

namespace sfq::rt {

struct EngineOptions {
  std::size_t producers = 1;
  // Per-producer SPSC ring capacity (rounded up to a power of two), at most
  // 2^24 slots (kMaxRingCapacity in rt/validate.cc).
  std::size_t ring_capacity = 1 << 14;
  // Cap on scheduler backlog (excluding the packet in transmission);
  // 0 = infinite. Overflow resolves via `overload_policy` into the same
  // per-cause drop taxonomy as the simulated server.
  std::size_t buffer_limit = 0;
  net::OverloadPolicy overload_policy = net::OverloadPolicy::kTailDrop;
  // Stall watchdog: if the engine has obligations (a transmission in flight
  // or scheduler backlog) but makes no service progress (no transmission
  // started or completed) for this many wall-clock seconds, it counts a
  // stall and tries to recover — see `restart_budget`. Must exceed the
  // longest legitimate packet transmission time. 0 (default) disables.
  double stall_timeout = 0.0;
  // Watchdog escalation (docs/ROBUSTNESS.md): on each stall the dispatcher
  // diagnoses the wedged stage (EngineStats::last_stall_stage), re-arms
  // itself — re-pacing a stale in-flight transmission deadline against the
  // current clock — and retries. Service progress after a stall counts a
  // recovery and resets the budget; `restart_budget` consecutive fruitless
  // restarts escalate to a permanent stop (accepting off, ring leftovers
  // counted `abandoned`, backlog left visible — the pre-PR-7 behavior).
  uint32_t restart_budget = 3;
  // Overload admission control (docs/ROBUSTNESS.md): when true and
  // `buffer_limit` > 0, a Normal -> Shedding -> Critical state machine
  // watches scheduler occupancy with hysteresis and, while shedding, gates
  // arrivals through per-flow token buckets refilled in proportion to flow
  // weight from the measured service rate. Drops distribute weighted-fair
  // (cause kShed), so the Theorem-1 gap over *admitted* traffic stays
  // bounded while the engine is pushed past capacity. The thresholds, the
  // Critical rate factor and the bucket depth are constants in engine.cc.
  bool admission_control = false;
  // rt-layer fault plan (clock jumps/skew, scripted dispatcher pauses);
  // empty by default. Chaos wires generated plans through this.
  RtFaultPlan fault_plan;
  // Shard label this engine's telemetry cells, gauges and histograms carry:
  // 0 for a lone engine; ShardedEngine gives shard k's engine label k.
  std::size_t telemetry_shard = 0;
};

// One scheduler-touching operation the dispatcher performed, in order. With
// set_capture(), the engine records the exact call sequence it drove the
// discipline through — enqueue/dequeue/transmit-complete/pushout, each with
// the wall-clock stamp the call used — and the chaos harness replays it
// against a fresh single-threaded scheduler instance, comparing every
// dequeue's packet and tags bit-for-bit (replay_transcript in
// src/chaos/differential.cc). Divergence means the threaded pipeline
// corrupted scheduler state (or the discipline is not a pure function of
// its input sequence).
struct CaptureOp {
  enum class Kind : uint8_t {
    kEnqueue,   // packet as offered (tags unset); t = dispatcher inject time
    kDequeue,   // packet as returned (tags stamped); t = dequeue time
    kComplete,  // transmission completed; t = completion time
    kPushout,   // victim evicted under overload; t = eviction time
    // Migration epoch markers (shard failover, docs/ROBUSTNESS.md). Only
    // packet.flow is meaningful; the replay applies remove_flow/rejoin_flow
    // so the op stream stays a complete state transcript across a rehome.
    kRemove,    // flow evicted/harvested off this scheduler; t = removal time
    kRejoin,    // flow adopted onto this scheduler; t = rejoin time
  };
  Kind kind = Kind::kEnqueue;
  Packet packet;
  Time t = 0.0;
};

// OfferStatus lives in rt/ingress_target.h with the IngressTarget interface
// both RtEngine and the sharded engine implement.

// Dispatcher stage the watchdog diagnosed as wedged (EngineStats).
enum class StallStage : int8_t {
  kNone = -1,
  kDrain = 0,     // no obligations visible, yet no progress (ingress wedge)
  kSchedule = 1,  // scheduler backlogged but dequeue yields nothing
  kTransmit = 2,  // transmission in flight whose deadline never arrives
  kKilled = 3,    // RtFaultPlan shard-kill fault fired (dispatcher died)
};
const char* to_string(StallStage s);

// How stop() treats work still queued when it is called.
enum class StopMode {
  // Stop accepting, then serve everything already pushed: rings drain into
  // the scheduler and the backlog transmits to empty (still paced).
  kDrain,
  // Stop accepting, let the in-flight transmission finish, count leftover
  // ring items as `abandoned` and leave the scheduler backlog in place
  // (reported via stats().backlog).
  kAbandon,
};

// A view of the engine's ledger: the sum of its per-thread counter cells
// (one block per producer plus the dispatcher's), which an attached
// telemetry plane reports too — every count is written once, in one cell.
// Relaxed: safe to take from any thread while the engine runs, and the
// engine counts whether or not a plane is attached. The ledger it satisfies
// (exactly, once stop() returned):
//
//   offers                         == ingress_pushed + ingress_drops
//   ingress_pushed + migrated_in   == accepted + pre-enqueue drops + abandoned
//   accepted                       == transmitted + backlog
//                                     + post-enqueue drops + migrated_out
//
// where pre-enqueue causes are kUnknownFlow/kBufferLimit/kShed and
// post-enqueue causes are kPushout/kFlowRemoved (see docs/ROBUSTNESS.md).
// migrated_in/migrated_out count packets that crossed a shard-failover
// rehome: summed over engines they cancel once every migration settles, so
// the global identity is exact including migrated packets.
struct EngineStats {
  uint64_t ingress_pushed = 0;
  uint64_t ingress_drops = 0;  // ring full, or offer() after stop
  uint64_t accepted = 0;       // entered the discipline
  uint64_t transmitted = 0;
  double tx_bits = 0.0;
  uint64_t abandoned = 0;  // ring items discarded by stop(kAbandon)
  uint64_t drops[obs::kDropCauseCount] = {};  // engine drops, by cause
  // Shard-failover migration ledger: packets adopted from / evicted to
  // another engine (see adopt_flows/evict_flows/harvest_flows).
  uint64_t migrated_in = 0;
  uint64_t migrated_out = 0;
  uint64_t backlog = 0;  // accepted - transmitted - post drops - migrated_out
  // Worst observed lateness of a transmission-complete callback versus the
  // pacing deadline the rate profile set (dispatcher scheduling jitter).
  double max_service_lag = 0.0;
  // Stall-watchdog trips (EngineOptions::stall_timeout). stalls counts every
  // detected no-progress window; recoveries counts the episodes that healed
  // (service resumed after a restart). stalls > recoveries with the engine
  // stopped means the restart budget ran out (RtEngine::stalled()).
  uint64_t stalls = 0;
  uint64_t recoveries = 0;
  // Stage diagnosis of the most recent stall (kNone if never stalled).
  StallStage last_stall_stage = StallStage::kNone;
  // Overload state machine position: 0 Normal, 1 Shedding, 2 Critical.
  // Always 0 when admission control is off.
  int overload_state = 0;

  uint64_t dropped() const {
    uint64_t n = 0;
    for (uint64_t d : drops) n += d;
    return n;
  }
  // Sums another engine's (or epoch's) counts into this one: counters add,
  // the lag, stall stage and overload state keep the worst / latest.
  EngineStats& operator+=(const EngineStats& o);
};

// Wall-clock real-time service engine: runs any Scheduler discipline against
// std::chrono::steady_clock instead of simulated time.
//
//   producer threads --SPSC rings--> dispatcher thread --> scheduler --> link
//
// The dispatcher is the only thread that touches the scheduler, the rate
// profile and the tracer, so every discipline in the library works unchanged
// and unlocked; concurrency lives entirely in the lock-free ingress layer
// and the atomic counters. Transmissions are paced by the RateProfile: a
// dequeued packet occupies the link until profile->finish_time(start, bits)
// on the wall clock, and on_transmit_complete fires when that deadline
// passes — the real-time analogue of ScheduledServer's completion event.
//
// See docs/REALTIME.md for the architecture and for which paper guarantees
// carry over to wall-clock operation.
class RtEngine : public IngressTarget {
 public:
  // Flows must be registered on `sched` before start(); the flow table must
  // not change while the engine runs. Throws std::invalid_argument on
  // malformed options (rt::validate); servers assembling options from
  // untrusted input use try_create for the no-throw path. `base` is the
  // wall clock the engine's time axis reads (t = 0 at its construction by
  // default); a ShardedEngine hands every shard and epoch the same one.
  RtEngine(Scheduler& sched, std::unique_ptr<net::RateProfile> profile,
           EngineOptions opts = {}, WallClock base = WallClock{});
  // No-throw factory mirroring config::try_parse: nullptr + a message in
  // *error (when non-null) instead of an exception. The profile is consumed
  // only on success.
  static std::unique_ptr<RtEngine> try_create(
      Scheduler& sched, std::unique_ptr<net::RateProfile>& profile,
      EngineOptions opts = {}, std::string* error = nullptr);
  ~RtEngine() override;  // stop(kAbandon) if still running

  RtEngine(const RtEngine&) = delete;
  RtEngine& operator=(const RtEngine&) = delete;

  // Producer API (rt/ingress_target.h): thread `i` in [0, producers) offers
  // a packet. The wall clock stamps the arrival. offer: false => counted
  // ingress drop (ring full, or the engine is not accepting). offer_wait:
  // spins (yielding) while the ring is full; false once the engine stops
  // accepting. try_offer: a full ring returns kBackpressure and counts
  // NOTHING — the caller still owns the packet and must resolve the attempt
  // via a later successful try_offer, note_offer_abandoned, or
  // offer()/offer_wait(). LoadGen's retry/backoff path rides on this.
  bool offer(std::size_t i, Packet p) override;
  bool offer_wait(std::size_t i, Packet p) override;
  OfferStatus try_offer(std::size_t i, const Packet& p) override;
  // Ledger hooks for retry loops. note_offer_retry only counts
  // rt.offer_retries. note_offer_abandoned resolves a backpressured attempt
  // as given up: it counts an ingress drop (so
  // `offers == ingress_pushed + ingress_drops` stays exact) plus
  // rt.offer_abandoned.
  void note_offer_retry(std::size_t i) override;
  void note_offer_abandoned(std::size_t i) override;

  // Attach before start(); events fire on the dispatcher thread. Wrap sinks
  // you want to read mid-run in rt::SyncSink.
  void set_tracer(obs::Tracer* tracer);

  // Attaches the lock-free telemetry plane (docs/OBSERVABILITY.md): the
  // plane reads the engine's counter cells (its ledger, with everything
  // counted so far) under EngineOptions::telemetry_shard and keeps them
  // after the engine is destroyed; the engine records the
  // enqueue->transmit latency, ingress dwell and service-lag histograms and
  // the gauges on the hot path. Attach before start(); nullptr stops the
  // histograms and gauges, while a plane attached earlier still reads the
  // counts. The plane must outlive the engine's run. Periodic publication
  // (live gauges, HTTP endpoint, console) belongs to ShardedEngine.
  void set_telemetry(obs::telemetry::Telemetry* plane);
  obs::telemetry::Telemetry* telemetry() const { return tele_; }

  // Differential-replay capture: records every scheduler-touching operation
  // into `out` (dispatcher thread only; appended in execution order). Attach
  // before start() and read only after stop() returned. nullptr detaches.
  void set_capture(std::vector<CaptureOp>* out);

  // One run per engine: start() may be called once; a second call throws.
  void start();
  // Idempotent; blocks until the dispatcher exits. See StopMode. For an
  // exact drain ledger, stop producers (e.g. LoadGen::join) before stop():
  // a push racing stop(kDrain) may or may not be served.
  void stop(StopMode mode = StopMode::kDrain);
  bool running() const { return running_.load(std::memory_order_acquire); }
  bool accepting() const override {
    return accepting_.load(std::memory_order_acquire);
  }
  // True once the stall watchdog exhausted its restart budget and stopped
  // the dispatcher permanently; the engine no longer accepts or serves.
  // Recovered stalls (stats().recoveries) do NOT set this.
  bool stalled() const { return stalled_.load(std::memory_order_acquire); }
  // Current overload state (0 Normal / 1 Shedding / 2 Critical).
  int overload_state() const {
    return ov_state_.load(std::memory_order_relaxed);
  }

  Time now() const override { return clock_.now(); }
  const FaultClock& clock() const { return clock_; }
  Scheduler& scheduler() { return sched_; }
  const Ingress& ingress() const { return ingress_; }
  std::size_t producers() const override { return ingress_.producers(); }

  EngineStats stats() const;

  // --- Shard-failover migration hooks (docs/ROBUSTNESS.md) ---------------
  // One flow's movable state: the id plus its harvested backlog in exact
  // service order. Tag state is NOT carried — the destination scheduler
  // re-anchors the flow's start tag via the rejoin rule
  // (start = max(v_dest(t), previous finish recorded at the destination)).
  struct Migration {
    FlowId flow = kInvalidFlow;
    std::vector<Packet> backlog;
  };
  // adopt_flows / evict_flows execute on the dispatcher thread (queued as
  // control ops between batches; the caller blocks until done) so the
  // scheduler stays single-threaded. adopt_flows re-activates each flow
  // (rejoin rule) and enqueues its backlog — counted migrated_in, then
  // accepted or dropped (kBufferLimit/kPushout) exactly like an arrival,
  // but never shed: admitted traffic must not be shed twice. Returns false
  // when the dispatcher is gone (stopped/stalled/killed) and nothing was
  // applied. evict_flows deactivates each flow and returns its backlog in
  // service order (counted migrated_out); flows with no local state yield
  // an entry with an empty backlog so the caller can still rejoin them.
  bool adopt_flows(std::vector<Migration>& flows);
  bool evict_flows(const std::vector<FlowId>& flows,
                   std::vector<Migration>& out);
  // Fenced harvest: same as evict_flows, but callable only once the
  // dispatcher has exited (killed / watchdog-stopped / stop() returned) —
  // the supervisor strips a dead shard single-threadedly. Throws
  // std::logic_error if the dispatcher is still live.
  std::vector<Migration> harvest_flows(const std::vector<FlowId>& flows);
  // True once the dispatcher thread has exited for any reason (the
  // supervisor's liveness probe; stop() may not have been called yet).
  bool dispatcher_done() const {
    return dispatcher_done_.load(std::memory_order_acquire);
  }

  // Cumulative transmitted bits per flow (relaxed; monotone per flow), for
  // wall-clock fairness measurement: sample W_f at coarse instants and check
  // |dW_f/r_f - dW_m/r_m| against the Theorem-1 bound over any window where
  // both flows stayed backlogged.
  double flow_tx_bits(FlowId f) const;
  std::vector<double> service_snapshot() const;

 private:
  void run();
  // Admits one arrival at `now` (>= slot.arrival), reading it where it lies
  // in its ingress ring; the caller pops the slot afterwards.
  void inject(const IngressSlot& slot, Time now);
  void drop(const Packet& p, Time now, obs::DropCause cause);
  void complete(const Packet& p, Time now, Time deadline);
  FlowId longest_queue() const;
  void publish_final_gauges();
  // Overload machine (dispatcher thread only; docs/ROBUSTNESS.md).
  void overload_tick(Time now);
  void set_overload_state(int state, Time now);
  bool shed_admits(const Packet& p, Time now);
  // Watchdog (dispatcher thread only). Returns false when the restart
  // budget is exhausted and the dispatcher must exit permanently.
  bool watchdog_stall(Time now, Time raw_now);
  // Permanent-death path shared by budget exhaustion and the kill fault:
  // stop accepting, abandon ring leftovers, latch stalled_ + the stage.
  void permanent_stop(StallStage stage);
  // Control-op plumbing (adopt/evict) and the post-exit cleanup that fails
  // any waiters once the dispatcher is gone.
  struct ControlOp;
  bool submit_control(ControlOp& op);
  void serve_control_ops();
  void dispatcher_exit_cleanup();
  void exec_adopt(std::vector<Migration>& flows);
  void exec_evict(const std::vector<FlowId>& flows,
                  std::vector<Migration>& out);
  // Recompute the shedding weight shares over currently-active flows
  // (migration changes the resident set; dispatcher thread only).
  void recompute_shed_shares();

  Scheduler& sched_;
  std::unique_ptr<net::RateProfile> profile_;
  EngineOptions opts_;
  FaultClock clock_;
  Ingress ingress_;
  std::thread dispatcher_;

  obs::Tracer* tracer_ = nullptr;
  bool trace_on_ = false;
  std::vector<CaptureOp>* capture_ = nullptr;  // dispatcher-thread writes

  // Telemetry plane wiring (set_telemetry): histograms and gauges. tele_on_
  // is latched before start() so the hot path pays one predictable branch
  // when detached. Counters do not depend on it: the plane reads the
  // engine's own cells (ledger below).
  obs::telemetry::Telemetry* tele_ = nullptr;
  bool tele_on_ = false;
  // Dispatcher-owned latency histograms, resolved once at set_telemetry():
  // single-writer recording (relaxed load+store, no locked RMW) keeps the
  // per-packet cost inside the <=5% bench_telemetry_overhead budget. The
  // headline enqueue->transmit histogram records every packet (its count
  // mirrors the transmitted ledger exactly); the two secondary histograms
  // (ingress dwell, service lag) are 1-in-2^kTeleSampleShift sampled — their
  // quantiles are statistically unaffected and the saving funds the budget.
  static constexpr uint32_t kTeleSampleShift = 3;  // sample 1 in 8
  obs::telemetry::LockFreeHistogram* h_dwell_ = nullptr;
  obs::telemetry::LockFreeHistogram* h_qdelay_ = nullptr;
  obs::telemetry::LockFreeHistogram* h_lag_ = nullptr;
  // Dispatcher-only sampling counters, written per packet: they start a
  // cache line so they never share one with the fields above.
  alignas(kCacheLineBytes) uint32_t dwell_tick_ = 0;
  uint32_t lag_tick_ = 0;

  // The link: at most one transmission is ever in flight, so one slot holds
  // it — the packet and the wall-clock deadline at which it frees the link.
  // Dispatcher thread only.
  struct InFlight {
    bool busy = false;
    Time deadline = 0.0;
    Packet packet;
  };
  InFlight link_;

  bool started_ = false;
  std::mutex stop_mu_;
  std::atomic<bool> running_{false};
  // Producers read accepting_ and their cell pointer on every offer: both
  // sit on a cache line of their own, away from link_ above and the fields
  // below, which the dispatcher writes per packet.
  alignas(kCacheLineBytes) std::atomic<bool> accepting_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<StopMode> stop_mode_{StopMode::kDrain};

  // The ledger: one counter cell block per producer (prod_cells_[i], written
  // only by producer thread i: pushes, ingress drops, retries) and one for
  // the dispatcher (everything downstream of the rings; once the dispatcher
  // has exited, harvest_flows' caller). Each block has one writer at a time
  // and lines of its own. Created with the engine, so counts made
  // before set_telemetry()/start() are kept; a plane attaches the same
  // blocks and shares their ownership. stats() sums them.
  std::vector<std::shared_ptr<obs::telemetry::CounterCells>> prod_cells_;
  std::shared_ptr<obs::telemetry::CounterCells> disp_cells_;

  alignas(kCacheLineBytes) std::atomic<double> max_service_lag_{0.0};
  std::atomic<bool> stalled_{false};
  // Single-writer (dispatcher) per-flow service totals, one flat array sized
  // at start() (a vector of atomics is never resized, only replaced whole).
  std::vector<std::atomic<double>> flow_bits_;

  // Watchdog escalation state (dispatcher thread; atomics are for stats()).
  std::atomic<int8_t> last_stall_stage_{
      static_cast<int8_t>(StallStage::kNone)};
  uint32_t consecutive_stalls_ = 0;   // restarts since the last progress
  bool recovery_pending_ = false;     // a stall fired; progress will heal it
  Time last_progress_raw_ = 0.0;      // watchdog runs on the raw clock so
                                      // fault-injected jumps cannot blind it
  std::size_t next_pause_ = 0;        // cursor into fault_plan.pauses
  std::size_t next_kill_ = 0;         // cursor into fault_plan.kills

  // Pacing chain (dispatcher thread only): the instant the in-flight/last
  // transmission frees the link while service has been continuously busy;
  // +inf when the link went idle (or after a stall), meaning "no continuity
  // — pace the next packet from now". Keeping the chain on this absolute
  // grid stops per-wakeup dispatcher latency from compounding into a
  // rate deficit that scales with packets/s (which skews cross-shard
  // fairness against high-rate shards).
  Time link_free_ = std::numeric_limits<double>::infinity();

  // Migration control ops: callers park an op and block; the dispatcher
  // executes it between batches so the scheduler stays single-threaded.
  // dispatcher_done_ turns true when the dispatcher exits (any path) and
  // fails all current and future waiters.
  std::mutex ctrl_mu_;
  std::condition_variable ctrl_cv_;
  std::vector<ControlOp*> ctrl_queue_;
  std::atomic<bool> ctrl_pending_{false};
  std::atomic<bool> dispatcher_done_{false};

  // Overload machine state (latched at start(); dispatcher thread owns the
  // buckets, ov_state_ is relaxed-readable from anywhere).
  bool ov_on_ = false;
  std::atomic<int> ov_state_{0};  // 0 Normal, 1 Shedding, 2 Critical
  std::vector<double> ov_share_;  // weight_f / sum(weights)
  std::vector<double> ov_cap_;    // bucket depth, bits (kShedBurst * l_max)
  std::vector<double> ov_tokens_;
  std::vector<Time> ov_refill_;   // per-flow last lazy-refill instant
  // Measured service rate (bits/s), EWMA over ~50 ms windows, seeded from
  // the rate profile's nominal rate; drives bucket refill while shedding.
  double ov_rate_ewma_ = 0.0;
  double ov_window_bits_ = 0.0;
  Time ov_window_start_ = 0.0;
};

}  // namespace sfq::rt
