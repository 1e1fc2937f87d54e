#include "rt/engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "rt/validate.h"

namespace sfq::rt {

namespace tel = obs::telemetry;

namespace {

// Arrivals drained per dispatcher iteration before the transmission deadline
// is re-checked. Bounds how late a completion can fire under arrival floods
// without giving up batching on the ingress merge.
constexpr int kDrainBatch = 64;

// Transmissions completed+started per iteration when their deadlines have
// already passed. A fast link (finish times in nanoseconds) would otherwise
// be throttled to one packet per loop, far below what the discipline can
// sustain; a batch keeps service and ingress draining interleaved fairly.
constexpr int kServiceBatch = 64;

// Idle strategy: yield this many times (lets producers run, which matters on
// small machines where everything shares cores), then sleep in short naps so
// an idle engine does not burn a core.
constexpr int kIdleYields = 16;
constexpr auto kIdleSleep = std::chrono::microseconds(50);

// Longest nap toward a transmission deadline (seconds): rings are still
// drained at this interval while a long transmission is in flight.
constexpr double kMaxNap = 1e-3;

// Overload machine (docs/ROBUSTNESS.md), on scheduler occupancy
// backlog / buffer_limit with hysteresis: Normal -> Shedding at kShedEnter,
// Shedding -> Normal at kShedExit, Shedding -> Critical at kShedCritical.
constexpr double kShedEnter = 0.85;
constexpr double kShedExit = 0.50;
constexpr double kShedCritical = 0.97;
// Critical multiplies the admitted rate by this factor (< 1) to force the
// backlog down; Shedding admits at the full measured service rate.
constexpr double kShedCriticalFactor = 0.7;
// Token-bucket depth, in units of the flow's max packet size (the burst a
// freshly refilled flow may admit back-to-back while shedding).
constexpr double kShedBurst = 4.0;

// Token-bucket depth fallback for flows registered without a max packet
// size: one MTU-ish packet (1500 bytes) as the burst unit.
constexpr double kShedDefaultPacketBits = 12000.0;

// How far behind the wall clock the pacing chain may start the next packet
// while the link has been continuously busy. The dispatcher sleeps toward
// each deadline and wakes up to the timer slack (~50 us) past it; pacing
// from `now` would discard that link time on every wake-up, a rate deficit
// that systematically starves high-rate shards. Back-dating within this
// window makes the dispatcher a fluctuation-constrained server whose delta is
// its wake-up lateness, while anything longer (a fault pause, a stall, a
// descheduled core) stays genuinely lost link time.
constexpr Time kPacingCatchup = 1e-3;

// Single-writer counter update: only the dispatcher writes, so a load+store
// pair (not a locked fetch_add) is race-free and keeps doubles exact.
template <typename T>
void add_single_writer(std::atomic<T>& a, T by,
                       std::memory_order order = std::memory_order_relaxed) {
  a.store(a.load(std::memory_order_relaxed) + by, order);
}

// Throws on malformed options before any member they size (the ingress
// rings) is built.
EngineOptions validated(EngineOptions opts) {
  if (auto err = validate(opts)) throw std::invalid_argument(*err);
  return opts;
}

}  // namespace

const char* to_string(StallStage s) {
  switch (s) {
    case StallStage::kNone: return "none";
    case StallStage::kDrain: return "drain";
    case StallStage::kSchedule: return "schedule";
    case StallStage::kTransmit: return "transmit";
    case StallStage::kKilled: return "killed";
  }
  return "?";
}

// Migration control op: parked by adopt_flows/evict_flows, executed by the
// dispatcher between batches, completion signalled back through ctrl_cv_.
struct RtEngine::ControlOp {
  enum class Kind { kAdopt, kEvict };
  Kind kind = Kind::kAdopt;
  std::vector<Migration>* adopt = nullptr;     // kAdopt input (consumed)
  const std::vector<FlowId>* evict = nullptr;  // kEvict input
  std::vector<Migration>* out = nullptr;       // kEvict output
  bool done = false;
  bool ok = false;
};

RtEngine::RtEngine(Scheduler& sched, std::unique_ptr<net::RateProfile> profile,
                   EngineOptions opts, WallClock base)
    : sched_(sched),
      profile_(std::move(profile)),
      opts_(validated(std::move(opts))),
      clock_(base),
      ingress_(opts_.producers, opts_.ring_capacity),
      disp_cells_(std::make_shared<tel::CounterCells>(opts_.telemetry_shard)) {
  if (!profile_) throw std::invalid_argument("RtEngine: null rate profile");
  clock_.set_plan(opts_.fault_plan);
  prod_cells_.reserve(ingress_.producers());
  for (std::size_t i = 0; i < ingress_.producers(); ++i)
    prod_cells_.push_back(
        std::make_shared<tel::CounterCells>(opts_.telemetry_shard));
}

std::unique_ptr<RtEngine> RtEngine::try_create(
    Scheduler& sched, std::unique_ptr<net::RateProfile>& profile,
    EngineOptions opts, std::string* error) {
  if (!profile) {
    if (error) *error = "RtEngine: null rate profile";
    return nullptr;
  }
  if (auto err = validate(opts)) {
    if (error) *error = *err;
    return nullptr;
  }
  return std::make_unique<RtEngine>(sched, std::move(profile), opts);
}

RtEngine::~RtEngine() {
  if (running()) stop(StopMode::kAbandon);
}

void RtEngine::set_tracer(obs::Tracer* tracer) {
  if (running()) throw std::logic_error("RtEngine: set_tracer while running");
  tracer_ = tracer;
  trace_on_ = tracer != nullptr && tracer->active();
  sched_.set_tracer(tracer);
}

void RtEngine::set_telemetry(tel::Telemetry* plane) {
  if (running())
    throw std::logic_error("RtEngine: set_telemetry while running");
  tele_ = plane;
  tele_on_ = plane != nullptr;
  h_dwell_ = h_qdelay_ = h_lag_ = nullptr;
  if (tele_ == nullptr) return;
  tele_->attach(disp_cells_);
  for (const auto& cells : prod_cells_) tele_->attach(cells);
  const std::size_t shard = opts_.telemetry_shard;
  h_dwell_ = &tele_->hist(tel::HistId::kIngressDwell, shard);
  h_qdelay_ = &tele_->hist(tel::HistId::kQueueDelay, shard);
  h_lag_ = &tele_->hist(tel::HistId::kServiceLag, shard);
}

bool RtEngine::offer(std::size_t i, Packet p) {
  const bool pushed = accepting_.load(std::memory_order_acquire) &&
                      ingress_.push(i, p, clock_.now());
  prod_cells_[i]->inc(pushed ? tel::CounterId::kIngressPushed
                             : tel::CounterId::kIngressDrops);
  return pushed;
}

bool RtEngine::offer_wait(std::size_t i, Packet p) {
  for (;;) {
    if (!accepting_.load(std::memory_order_acquire)) {
      prod_cells_[i]->inc(tel::CounterId::kIngressDrops);
      return false;
    }
    // Packet is trivially copyable; retry with a fresh timestamp each spin
    // so the ingress stamp reflects when the push actually succeeded. A
    // full ring counts nothing: the packet is still this producer's.
    if (ingress_.push(i, p, clock_.now())) {
      prod_cells_[i]->inc(tel::CounterId::kIngressPushed);
      return true;
    }
    std::this_thread::yield();
  }
}

OfferStatus RtEngine::try_offer(std::size_t i, const Packet& p) {
  if (!accepting_.load(std::memory_order_acquire)) return OfferStatus::kClosed;
  // Backpressure is the caller's to resolve — the attempt only lands in the
  // ledger once it ends in a push or an abandon.
  if (ingress_.push(i, p, clock_.now())) {
    prod_cells_[i]->inc(tel::CounterId::kIngressPushed);
    return OfferStatus::kAccepted;
  }
  return OfferStatus::kBackpressure;
}

void RtEngine::note_offer_retry(std::size_t i) {
  prod_cells_[i]->inc(tel::CounterId::kOfferRetries);
}

void RtEngine::note_offer_abandoned(std::size_t i) {
  prod_cells_[i]->inc(tel::CounterId::kIngressDrops);
  prod_cells_[i]->inc(tel::CounterId::kOfferAbandoned);
}

void RtEngine::start() {
  if (started_) throw std::logic_error("RtEngine: start() called twice");
  started_ = true;
  const std::size_t n = sched_.flows().size();
  flow_bits_ = std::vector<std::atomic<double>>(n);
  // Latch the overload machine: active only when admission control is on AND
  // occupancy is measurable (finite buffer). Shares and bucket depths are
  // derived from the immutable flow table; the refill rate seeds from the
  // profile's nominal rate and then tracks the measured service rate.
  ov_on_ = opts_.admission_control && opts_.buffer_limit > 0 && n > 0;
  if (ov_on_) {
    ov_share_.resize(n);
    ov_cap_.resize(n);
    ov_tokens_.resize(n);
    ov_refill_.assign(n, 0.0);
    for (FlowId f = 0; f < n; ++f) {
      const double lmax = sched_.flows().spec(f).max_packet_bits;
      ov_cap_[f] =
          kShedBurst * (lmax > 0.0 ? lmax : kShedDefaultPacketBits);
      ov_tokens_[f] = ov_cap_[f];
    }
    // Shares cover the *active* flow set: a sharded deployment registers
    // every flow on every shard but activates only the resident ones, and
    // migration moves flows between shards mid-run (recomputed after each
    // adopt/evict on the dispatcher).
    recompute_shed_shares();
    const Time ft = profile_->finish_time(0.0, 1e6);
    ov_rate_ewma_ = ft > 0.0 ? 1e6 / ft : 0.0;
  }
  accepting_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  dispatcher_ = std::thread([this] {
    run();
    // Whatever ended the run (stop(), the watchdog or a kill fault), fail
    // any parked migration control ops, then leave the gauges describing
    // the final state for post-run snapshots.
    dispatcher_exit_cleanup();
    if (tele_on_) publish_final_gauges();
  });
}

void RtEngine::stop(StopMode mode) {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  accepting_.store(false, std::memory_order_release);
  stop_mode_.store(mode, std::memory_order_relaxed);
  stop_requested_.store(true, std::memory_order_release);
  if (dispatcher_.joinable()) dispatcher_.join();
  running_.store(false, std::memory_order_release);
}

void RtEngine::run() {
  // Clock reads are per batch, not per packet: the drain batch and the serve
  // batch each read once and renew the reading only where a stale one would
  // bend the semantics (see the comments at each read).
  int idle_streak = 0;
  const bool watchdog = opts_.stall_timeout > 0.0;
  // Watchdog bookkeeping: the last instant a transmission started or
  // completed, on the RAW clock axis — fault-injected jumps and skews must
  // not be able to blind the watchdog. Draining rings is deliberately not
  // progress — a scheduler that accepts packets but never serves them is
  // exactly the wedge the watchdog exists to catch.
  last_progress_raw_ = clock_.raw_now();
  if (ov_on_) ov_window_start_ = clock_.now();

  for (;;) {
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    const bool abandon =
        stopping && stop_mode_.load(std::memory_order_relaxed) ==
                        StopMode::kAbandon;

    // 0. Scripted dispatcher pauses (fault plan): the dispatcher stops dead
    //    for the scripted duration, modelling a GC-like stop-the-world.
    //    Triggers live on the raw axis so clock jumps cannot reorder them.
    //    Only stop(kAbandon) cuts a pause short — a freeze is a freeze.
    {
      const auto& pauses = clock_.plan().pauses;
      if (next_pause_ < pauses.size() &&
          clock_.raw_now() >= pauses[next_pause_].at) {
        const Time until = clock_.raw_now() + pauses[next_pause_].duration;
        ++next_pause_;
        while (clock_.raw_now() < until) {
          if (stop_requested_.load(std::memory_order_acquire) &&
              stop_mode_.load(std::memory_order_relaxed) == StopMode::kAbandon)
            break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }

    // 0a. Scripted shard-kill fault: the dispatcher dies permanently at the
    //     scripted raw time — the adversary the shard supervisor trains
    //     against. The ledger closes exactly like an exhausted restart
    //     budget: ring leftovers become `abandoned`, the scheduler backlog
    //     stays visible (and harvestable) in stats().backlog.
    {
      const auto& kills = clock_.plan().kills;
      if (next_kill_ < kills.size() &&
          clock_.raw_now() >= kills[next_kill_].at) {
        ++next_kill_;
        permanent_stop(StallStage::kKilled);
        return;
      }
    }

    // 0b. Stall watchdog, at the top of the loop so a wedge (or the pause we
    //     just slept through) is observed before drain/serve can make
    //     progress. On detection the dispatcher diagnoses the stage and
    //     restarts itself within the budget (docs/ROBUSTNESS.md); only an
    //     exhausted budget exits permanently.
    if (watchdog) {
      const Time raw = clock_.raw_now();
      if (!link_.busy && sched_.empty()) {
        last_progress_raw_ = raw;  // idle: no obligations, nothing to watch
      } else if (raw - last_progress_raw_ > opts_.stall_timeout) {
        if (!watchdog_stall(clock_.now(), raw)) return;
      }
    }

    // 0c. Overload state machine: one occupancy reading per loop drives the
    //     Normal/Shedding/Critical transitions (hysteresis in overload_tick).
    if (ov_on_) overload_tick(clock_.now());

    // 0d. Migration control ops (shard failover): adopt/evict requests from
    //     the supervisor execute here so only this thread ever touches the
    //     scheduler. One relaxed-ish load on the common path.
    if (ctrl_pending_.load(std::memory_order_acquire)) serve_control_ops();

    // 1. Drain a bounded batch of arrivals, earliest ingress stamp first,
    //    each read in place in its ring slot. An abandoning engine leaves
    //    ring items where they are (step 4 counts them) instead of feeding a
    //    backlog nobody will serve. The batch shares one clock reading,
    //    renewed only when a head was stamped after it, so enqueue times stay
    //    monotone and never fall below the packet's arrival. Consumed slots
    //    go back to the producers once, at the end of the batch.
    int drained = 0;
    if (!abandon) {
      Time now = -std::numeric_limits<double>::infinity();  // not read yet
      std::size_t ring = 0;
      while (drained < kDrainBatch) {
        const IngressSlot* slot = ingress_.peek_earliest(ring);
        if (slot == nullptr) break;
        if (slot->arrival > now) now = clock_.now();
        inject(*slot, now);
        ingress_.pop(ring);
        ++drained;
      }
      ingress_.release();
    }

    // 2. Serve: complete due transmissions and start the next one, up to a
    //    batch — a fast link turns over many packets per loop iteration.
    //    Work-conserving on the wall clock: the link is busy from dequeue
    //    until the profile's finish time. The batch shares one clock
    //    reading. While the pacing chain trails it, deadlines fall due
    //    without another read; a deadline still ahead earns one re-read, so
    //    a chain that just restarted from `now` is not left waiting a whole
    //    loop (which would let it drift kPacingCatchup behind the clock).
    int served = 0;
    uint64_t served_bits = 0;
    bool progressed = false;
    Time now = clock_.now();
    bool reread = false;
    while (served < kServiceBatch) {
      if (link_.busy) {
        if (now < link_.deadline) {
          if (reread) break;
          reread = true;
          now = clock_.now();
          if (now < link_.deadline) break;  // deadline in the future
        }
        link_.busy = false;
        complete(link_.packet, now, link_.deadline);
        served_bits += static_cast<uint64_t>(link_.packet.length_bits);
        progressed = true;
        ++served;
      }
      if (abandon) break;
      const std::optional<Packet> next = sched_.dequeue(now);
      if (!next) {
        // Nothing queued and nothing in flight: the link is genuinely idle,
        // so the pacing chain's continuity ends here — the next packet
        // paces from its own `now`.
        link_free_ = std::numeric_limits<double>::infinity();
        break;
      }
      if (capture_ != nullptr)
        capture_->push_back({CaptureOp::Kind::kDequeue, *next, now});
      if (trace_on_) [[unlikely]]
        tracer_->emit(obs::make_event(obs::TraceEventType::kTxStart, *next,
                                      now, /*vtime=*/0.0,
                                      sched_.backlog_packets()));
      // Pace from the previous finish, not from `now`: clamp keeps the
      // chain within kPacingCatchup of the wall clock (and maps the
      // idle/+inf sentinel to `now`), so per-wakeup latency does not
      // compound into a rate deficit.
      const Time start = std::clamp(link_free_, now - kPacingCatchup, now);
      link_free_ = profile_->finish_time(start, next->length_bits);
      link_.packet = *next;
      link_.deadline = link_free_;
      link_.busy = true;
      progressed = true;
    }
    if (progressed) {
      if (watchdog) last_progress_raw_ = clock_.raw_now();
      consecutive_stalls_ = 0;
      if (recovery_pending_) {
        // A stall episode healed: the restart actually restored service.
        recovery_pending_ = false;
        disp_cells_->inc(tel::CounterId::kRecoveries);
      }
    }
    // Service-rate EWMA feeding the shedding buckets: fold each ~10 ms
    // window of served bits into the estimate.
    if (ov_on_ && served_bits > 0) {
      ov_window_bits_ += static_cast<double>(served_bits);
      const Time dt = now - ov_window_start_;
      if (dt >= 0.01) {
        const double sample = ov_window_bits_ / dt;
        ov_rate_ewma_ = ov_rate_ewma_ <= 0.0
                            ? sample
                            : ov_rate_ewma_ + 0.2 * (sample - ov_rate_ewma_);
        ov_window_bits_ = 0.0;
        ov_window_start_ = now;
      }
    }

    // 4. Exit checks.
    if (stopping && !link_.busy) {
      if (abandon) {
        disp_cells_->inc(tel::CounterId::kAbandoned, ingress_.discard_all());
        return;
      }
      if (drained == 0 && ingress_.empty() && sched_.empty()) return;
    }

    // 5. Wait strategy.
    if (link_.busy) {
      if (drained > 0) {
        idle_streak = 0;
        continue;  // more arrivals may already be waiting
      }
      // Sleep until the deadline, never spin toward it. The wake-up lands up
      // to the timer slack late; the next serve batch completes everything
      // that fell due meanwhile and back-dates each start within
      // kPacingCatchup, so the lateness costs latency, not link rate.
      const Time wait = link_.deadline - clock_.now();
      if (wait <= 0.0) continue;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(wait, kMaxNap)));
    } else if (drained == 0) {
      if (++idle_streak <= kIdleYields)
        std::this_thread::yield();
      else
        std::this_thread::sleep_for(kIdleSleep);
    } else {
      idle_streak = 0;
    }
  }
}

bool RtEngine::watchdog_stall(Time now, Time raw_now) {
  disp_cells_->inc(tel::CounterId::kStalls);
  // Diagnose: which stage owns the wedge. A pending transmission whose
  // deadline never arrives is a transmit wedge; a backlogged scheduler that
  // yields nothing is a schedule wedge; otherwise the ingress/drain side
  // holds obligations the loop cannot see.
  StallStage stage = StallStage::kDrain;
  if (link_.busy)
    stage = StallStage::kTransmit;
  else if (!sched_.empty())
    stage = StallStage::kSchedule;
  last_stall_stage_.store(static_cast<int8_t>(stage),
                          std::memory_order_relaxed);

  if (consecutive_stalls_ < opts_.restart_budget) {
    ++consecutive_stalls_;
    recovery_pending_ = true;
    // Re-arm. A transmit wedge means the pacing deadline failed to arrive
    // for a whole stall window, so a deadline still in the future was paced
    // against a clock reading that faults have since invalidated (a backward
    // jump freezes the engine axis, leaving `now` parked just short of a
    // near deadline indefinitely): re-pace it to complete now. The packet is
    // still transmitted and counted — nothing leaves the ledger during a
    // restart. A deadline already due needs no help; the serve pass below
    // completes it.
    if (stage == StallStage::kTransmit && link_.deadline > now)
      link_.deadline = now;
    // A stall window is not scheduling jitter: break the pacing chain so
    // the restart paces from its own `now` instead of back-dating into the
    // wedge it just recovered from.
    link_free_ = std::numeric_limits<double>::infinity();
    last_progress_raw_ = raw_now;
    return true;
  }

  // Restart budget exhausted: permanent stop (the pre-recovery behavior).
  // Scheduler backlog stays visible in stats().backlog, ring leftovers
  // become `abandoned`, and both conservation identities still balance.
  permanent_stop(stage);
  return false;
}

void RtEngine::permanent_stop(StallStage stage) {
  last_stall_stage_.store(static_cast<int8_t>(stage),
                          std::memory_order_relaxed);
  accepting_.store(false, std::memory_order_release);
  disp_cells_->inc(tel::CounterId::kAbandoned, ingress_.discard_all());
  stalled_.store(true, std::memory_order_release);
}

void RtEngine::overload_tick(Time now) {
  const double occ = static_cast<double>(sched_.backlog_packets()) /
                     static_cast<double>(opts_.buffer_limit);
  switch (ov_state_.load(std::memory_order_relaxed)) {
    case 0:
      if (occ >= kShedEnter) set_overload_state(1, now);
      break;
    case 1:
      if (occ >= kShedCritical)
        set_overload_state(2, now);
      else if (occ <= kShedExit)
        set_overload_state(0, now);
      break;
    case 2:
      // Hysteresis: Critical relaxes to Shedding below the *enter* mark, and
      // only Shedding can return to Normal (at the exit mark) — residual
      // capacity re-opens gradually, not with a thundering herd.
      if (occ < kShedEnter) set_overload_state(1, now);
      break;
  }
}

void RtEngine::set_overload_state(int state, Time now) {
  const int prev = ov_state_.exchange(state, std::memory_order_relaxed);
  if (prev == state) return;
  if (prev == 0) {
    // Entering Shedding from Normal: full buckets with fresh refill clocks,
    // so the burst allowance dates from the transition instant.
    for (std::size_t f = 0; f < ov_tokens_.size(); ++f) {
      ov_tokens_[f] = ov_cap_[f];
      ov_refill_[f] = now;
    }
  }
  if (tele_on_)
    tele_->set_gauge(tel::GaugeId::kOverloadState, static_cast<double>(state),
                     opts_.telemetry_shard);
}

bool RtEngine::shed_admits(const Packet& p, Time now) {
  // Flows outside the latched table (disciplines that accept unregistered
  // flows) have no weight share; the gate waves them through.
  if (p.flow >= ov_tokens_.size()) return true;
  const double factor = ov_state_.load(std::memory_order_relaxed) == 2
                            ? kShedCriticalFactor
                            : 1.0;
  // Lazy refill: flow f earns its weighted-fair share of the measured
  // service rate. Admission only requires a non-negative balance, so one
  // packet of overdraft is allowed — matching SFQ's own one-packet
  // granularity — and the debit keeps drops proportional to the deficit.
  double& tok = ov_tokens_[p.flow];
  tok = std::min(ov_cap_[p.flow],
                 tok + (now - ov_refill_[p.flow]) * ov_share_[p.flow] *
                           ov_rate_ewma_ * factor);
  ov_refill_[p.flow] = now;
  if (tok < 0.0) return false;
  tok -= p.length_bits;
  return true;
}

void RtEngine::inject(const IngressSlot& slot, Time now) {
  const Packet p = slot.to_packet();
  if (tele_on_ && (++dwell_tick_ & ((1u << kTeleSampleShift) - 1)) == 0)
    h_dwell_->record_seconds_single_writer(now - p.arrival);
  const FlowTable& table = sched_.flows();
  const bool registered = p.flow < table.size();
  if (registered ? !table.active(p.flow)
                 : sched_.requires_registered_flows()) {
    drop(p, now, obs::DropCause::kUnknownFlow);
    return;
  }
  // Overload admission gate (docs/ROBUSTNESS.md): while shedding, arrivals
  // pass per-flow token buckets refilled weighted-fair from the measured
  // service rate. Sits before capture, so a shed packet never reaches the
  // discipline and chaos replay stays bit-exact.
  if (ov_on_ && ov_state_.load(std::memory_order_relaxed) != 0 &&
      !shed_admits(p, now)) {
    drop(p, now, obs::DropCause::kShed);
    return;
  }
  if (opts_.buffer_limit != 0 &&
      sched_.backlog_packets() >= opts_.buffer_limit) {
    bool made_room = false;
    if (opts_.overload_policy == net::OverloadPolicy::kPushout) {
      const FlowId victim = longest_queue();
      if (victim != kInvalidFlow) {
        if (std::optional<Packet> evicted = sched_.pushout(victim, now)) {
          if (capture_ != nullptr)
            capture_->push_back({CaptureOp::Kind::kPushout, *evicted, now});
          drop(*evicted, now, obs::DropCause::kPushout);
          made_room = true;
        }
      }
    }
    if (!made_room) {
      drop(p, now, obs::DropCause::kBufferLimit);
      return;
    }
  }
  // p.arrival was stamped on the producer thread: time spent in the ingress
  // ring counts as queueing, which keeps delay metrics honest.
  if (capture_ != nullptr)
    capture_->push_back({CaptureOp::Kind::kEnqueue, p, now});
  if (!sched_.enqueue(p, now)) {
    // The discipline's own admit gate refused the packet (counted and traced
    // there); mirror it in the engine ledger like ScheduledServer does.
    disp_cells_->drop(obs::DropCause::kUnknownFlow);
    return;
  }
  disp_cells_->inc(tel::CounterId::kAccepted);
  if (trace_on_) [[unlikely]] {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kEnqueue;
    e.flow = p.flow;
    e.seq = p.seq;
    e.length_bits = p.length_bits;
    e.t = now;
    e.arrival = p.arrival;
    e.backlog = sched_.backlog_packets();
    tracer_->emit(e);
  }
}

void RtEngine::drop(const Packet& p, Time now, obs::DropCause cause) {
  disp_cells_->drop(cause);
  if (trace_on_) [[unlikely]]
    tracer_->emit(obs::make_event(obs::TraceEventType::kDrop, p, now,
                                  /*vtime=*/0.0, sched_.backlog_packets(),
                                  cause));
}

void RtEngine::complete(const Packet& p, Time now, Time deadline) {
  if (capture_ != nullptr)
    capture_->push_back({CaptureOp::Kind::kComplete, p, now});
  sched_.on_transmit_complete(p, now);
  // Counted at the completion itself, not per serve batch: stats().backlog
  // then reaches 0 as soon as the last packet completes, and the chaos
  // harness's drain-window fairness sampler reads backlog > 0 as "this
  // shard stayed busy".
  disp_cells_->inc(tel::CounterId::kTransmitted);
  disp_cells_->inc(tel::CounterId::kTxBits,
                   static_cast<uint64_t>(p.length_bits));
  if (p.flow < flow_bits_.size())
    add_single_writer(flow_bits_[p.flow], p.length_bits,
                      std::memory_order_release);
  const double lag = now - deadline;
  if (lag > max_service_lag_.load(std::memory_order_relaxed))
    max_service_lag_.store(lag, std::memory_order_relaxed);
  // The enqueue->transmit histogram records every packet; service lag is
  // sampled (see kTeleSampleShift).
  if (tele_on_) {
    h_qdelay_->record_seconds_single_writer(now - p.arrival);
    if ((++lag_tick_ & ((1u << kTeleSampleShift) - 1)) == 0)
      h_lag_->record_seconds_single_writer(lag);
  }
  if (trace_on_) [[unlikely]]
    tracer_->emit(obs::make_event(obs::TraceEventType::kTxEnd, p, now,
                                  /*vtime=*/0.0, sched_.backlog_packets()));
}

FlowId RtEngine::longest_queue() const {
  FlowId best = kInvalidFlow;
  double best_bits = 0.0;
  const std::size_t n = sched_.flows().size();
  for (FlowId f = 0; f < n; ++f) {
    const double b = sched_.backlog_bits(f);
    if (b > best_bits) {  // strict: ties resolve to the lowest flow id
      best_bits = b;
      best = f;
    }
  }
  return best;
}

EngineStats RtEngine::stats() const {
  std::array<uint64_t, tel::kCounterCount> c{};
  for (const auto& cells : prod_cells_) cells->add_to(c);
  disp_cells_->add_to(c);
  auto count = [&c](tel::CounterId id) {
    return c[static_cast<std::size_t>(id)];
  };
  EngineStats s;
  s.ingress_pushed = count(tel::CounterId::kIngressPushed);
  s.ingress_drops = count(tel::CounterId::kIngressDrops);
  s.accepted = count(tel::CounterId::kAccepted);
  s.transmitted = count(tel::CounterId::kTransmitted);
  s.tx_bits = static_cast<double>(count(tel::CounterId::kTxBits));
  s.abandoned = count(tel::CounterId::kAbandoned);
  for (std::size_t i = 0; i < obs::kDropCauseCount; ++i) {
    const auto cause = static_cast<obs::DropCause>(i);
    if (cause != obs::DropCause::kNone)
      s.drops[i] = count(tel::drop_counter(cause));
  }
  s.migrated_in = count(tel::CounterId::kMigratedIn);
  s.migrated_out = count(tel::CounterId::kMigratedOut);
  const uint64_t done = s.transmitted + count(tel::CounterId::kDropPushout) +
                        count(tel::CounterId::kDropFlowRemoved) +
                        s.migrated_out;
  s.backlog = s.accepted > done ? s.accepted - done : 0;
  s.max_service_lag = max_service_lag_.load(std::memory_order_relaxed);
  s.stalls = count(tel::CounterId::kStalls);
  s.recoveries = count(tel::CounterId::kRecoveries);
  s.last_stall_stage =
      static_cast<StallStage>(last_stall_stage_.load(std::memory_order_relaxed));
  s.overload_state = ov_state_.load(std::memory_order_relaxed);
  return s;
}

EngineStats& EngineStats::operator+=(const EngineStats& o) {
  ingress_pushed += o.ingress_pushed;
  ingress_drops += o.ingress_drops;
  accepted += o.accepted;
  transmitted += o.transmitted;
  tx_bits += o.tx_bits;
  abandoned += o.abandoned;
  for (std::size_t c = 0; c < obs::kDropCauseCount; ++c) drops[c] += o.drops[c];
  migrated_in += o.migrated_in;
  migrated_out += o.migrated_out;
  backlog += o.backlog;
  max_service_lag = std::max(max_service_lag, o.max_service_lag);
  stalls += o.stalls;
  recoveries += o.recoveries;
  if (o.last_stall_stage != StallStage::kNone)
    last_stall_stage = o.last_stall_stage;
  overload_state = std::max(overload_state, o.overload_state);
  return *this;
}

void RtEngine::set_capture(std::vector<CaptureOp>* out) {
  if (running()) throw std::logic_error("RtEngine: set_capture while running");
  capture_ = out;
}

bool RtEngine::adopt_flows(std::vector<Migration>& flows) {
  ControlOp op;
  op.kind = ControlOp::Kind::kAdopt;
  op.adopt = &flows;
  return submit_control(op);
}

bool RtEngine::evict_flows(const std::vector<FlowId>& flows,
                           std::vector<Migration>& out) {
  ControlOp op;
  op.kind = ControlOp::Kind::kEvict;
  op.evict = &flows;
  op.out = &out;
  return submit_control(op);
}

std::vector<RtEngine::Migration> RtEngine::harvest_flows(
    const std::vector<FlowId>& flows) {
  if (started_ && !dispatcher_done_.load(std::memory_order_acquire))
    throw std::logic_error("RtEngine: harvest_flows on a live dispatcher");
  std::vector<Migration> out;
  exec_evict(flows, out);
  return out;
}

bool RtEngine::submit_control(ControlOp& op) {
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    if (dispatcher_done_.load(std::memory_order_acquire) ||
        !running_.load(std::memory_order_acquire))
      return false;
    ctrl_queue_.push_back(&op);
    ctrl_pending_.store(true, std::memory_order_release);
  }
  std::unique_lock<std::mutex> lock(ctrl_mu_);
  ctrl_cv_.wait(lock, [&] {
    return op.done || dispatcher_done_.load(std::memory_order_acquire);
  });
  return op.done && op.ok;
}

void RtEngine::serve_control_ops() {
  for (;;) {
    ControlOp* op = nullptr;
    {
      std::lock_guard<std::mutex> lock(ctrl_mu_);
      if (ctrl_queue_.empty()) {
        ctrl_pending_.store(false, std::memory_order_release);
        return;
      }
      op = ctrl_queue_.front();
      ctrl_queue_.erase(ctrl_queue_.begin());
    }
    if (op->kind == ControlOp::Kind::kAdopt)
      exec_adopt(*op->adopt);
    else
      exec_evict(*op->evict, *op->out);
    // The resident flow set changed; the shedding shares must follow it or
    // migrated flows would be admitted at a dead shard's share (zero).
    recompute_shed_shares();
    {
      std::lock_guard<std::mutex> lock(ctrl_mu_);
      op->ok = true;
      op->done = true;
    }
    ctrl_cv_.notify_all();
  }
}

void RtEngine::dispatcher_exit_cleanup() {
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    dispatcher_done_.store(true, std::memory_order_release);
    ctrl_queue_.clear();  // waiters see dispatcher_done_ and report failure
    ctrl_pending_.store(false, std::memory_order_release);
  }
  ctrl_cv_.notify_all();
}

void RtEngine::exec_adopt(std::vector<Migration>& flows) {
  const Time now = clock_.now();
  for (Migration& m : flows) {
    const FlowTable& table = sched_.flows();
    if (m.flow < table.size() && !table.active(m.flow)) {
      // Rejoin rule (paper §3.1): the flow's start tag re-anchors to
      // max(v(t) here, the finish tag it last recorded on THIS scheduler) —
      // virtual times of different shards are incomparable, so the source
      // shard's tags are deliberately left behind.
      if (capture_ != nullptr) {
        Packet marker;
        marker.flow = m.flow;
        capture_->push_back({CaptureOp::Kind::kRejoin, marker, now});
      }
      sched_.rejoin_flow(m.flow, now);
    }
    for (Packet& p : m.backlog) {
      disp_cells_->inc(tel::CounterId::kMigratedIn);
      // Arrival path minus the shed gate: traffic the source shard already
      // admitted must not be shed a second time. Buffer pressure still
      // resolves through the configured overload policy so the destination
      // ledger stays exact under taildrop AND pushout.
      if (opts_.buffer_limit != 0 &&
          sched_.backlog_packets() >= opts_.buffer_limit) {
        bool made_room = false;
        if (opts_.overload_policy == net::OverloadPolicy::kPushout) {
          const FlowId victim = longest_queue();
          if (victim != kInvalidFlow) {
            if (std::optional<Packet> evicted = sched_.pushout(victim, now)) {
              if (capture_ != nullptr)
                capture_->push_back(
                    {CaptureOp::Kind::kPushout, *evicted, now});
              drop(*evicted, now, obs::DropCause::kPushout);
              made_room = true;
            }
          }
        }
        if (!made_room) {
          drop(p, now, obs::DropCause::kBufferLimit);
          continue;
        }
      }
      if (capture_ != nullptr)
        capture_->push_back({CaptureOp::Kind::kEnqueue, p, now});
      if (!sched_.enqueue(std::move(p), now)) {
        disp_cells_->drop(obs::DropCause::kUnknownFlow);
        continue;
      }
      disp_cells_->inc(tel::CounterId::kAccepted);
    }
    m.backlog.clear();
  }
}

void RtEngine::exec_evict(const std::vector<FlowId>& flows,
                          std::vector<Migration>& out) {
  const Time now = clock_.now();
  for (FlowId f : flows) {
    Migration m;
    m.flow = f;
    if (f < sched_.flows().size() && sched_.flows().active(f)) {
      if (capture_ != nullptr) {
        Packet marker;
        marker.flow = f;
        capture_->push_back({CaptureOp::Kind::kRemove, marker, now});
      }
      m.backlog = sched_.remove_flow(f, now);
      disp_cells_->inc(tel::CounterId::kMigratedOut, m.backlog.size());
    }
    out.push_back(std::move(m));
  }
}

void RtEngine::recompute_shed_shares() {
  if (!ov_on_) return;
  const FlowTable& table = sched_.flows();
  double total_w = 0.0;
  const std::size_t n = std::min<std::size_t>(table.size(), ov_share_.size());
  for (FlowId f = 0; f < n; ++f)
    if (table.active(f)) total_w += table.weight(f);
  for (FlowId f = 0; f < n; ++f)
    ov_share_[f] = (total_w > 0.0 && table.active(f))
                       ? table.weight(f) / total_w
                       : 0.0;
}

double RtEngine::flow_tx_bits(FlowId f) const {
  return f < flow_bits_.size() ? flow_bits_[f].load(std::memory_order_acquire)
                               : 0.0;
}

std::vector<double> RtEngine::service_snapshot() const {
  std::vector<double> out(flow_bits_.size());
  for (std::size_t f = 0; f < flow_bits_.size(); ++f)
    out[f] = flow_bits_[f].load(std::memory_order_acquire);
  return out;
}

void RtEngine::publish_final_gauges() {
  // Runs on the dispatcher as its last act, so post-run snapshots (chaos
  // conservation checks, the end-of-run /metrics.json) see the settled
  // backlog whether or not a stats publisher is running.
  const std::size_t shard = opts_.telemetry_shard;
  const EngineStats es = stats();
  tele_->set_gauge(tel::GaugeId::kBacklogPackets,
                   static_cast<double>(es.backlog), shard);
  tele_->set_gauge(tel::GaugeId::kServiceLagMax, es.max_service_lag, shard);
}

}  // namespace sfq::rt
