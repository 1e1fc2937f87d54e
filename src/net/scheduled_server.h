#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/scheduler.h"
#include "net/rate_profile.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "stats/link_stats.h"
#include "stats/service_recorder.h"

namespace sfq::net {

// What to do with an arrival when the buffer is full.
enum class OverloadPolicy {
  kTailDrop,  // drop the arrival (cause buffer_limit)
  kPushout,   // evict the tail of the longest per-flow queue (cause pushout),
              // then admit the arrival; falls back to tail drop when the
              // discipline cannot undo an enqueue
};

// An output link: a scheduler (queueing discipline) drained by a rate
// profile. Work-conserving and non-preemptive: whenever the link goes idle
// and the scheduler is non-empty, the next packet begins transmission and
// finishes at profile->finish_time(now, length).
//
// The server is the degradation boundary: faults (injected loss/corruption),
// overload (buffer limit + policy), and churn (remove/rejoin) all resolve
// here into counted, traced drops — never into exceptions from the hot path.
//
// As a sim::EventTarget the server consumes typed events: its own
// kServiceComplete (scheduled by try_start; the in-flight packet lives in
// the event queue's packet slab, not in a closure), kArrival from upstream
// hops (network/mesh propagation), and kChurnLeave/kChurnJoin from the fault
// injector. None of these allocate in steady state.
class ScheduledServer : public sim::EventTarget {
 public:
  using DepartureFn = std::function<void(const Packet&, Time departure)>;
  using DropFn = std::function<void(const Packet&, Time)>;
  // Returns a drop cause to discard the arriving packet (fault injection:
  // kFaultLoss / kCorrupt), or nullopt to let it through.
  using FaultFilter = std::function<std::optional<obs::DropCause>(const Packet&, Time)>;

  ScheduledServer(sim::Simulator& sim, Scheduler& sched,
                  std::unique_ptr<RateProfile> profile);

  ScheduledServer(const ScheduledServer&) = delete;
  ScheduledServer& operator=(const ScheduledServer&) = delete;

  // Packet arrival. Stamps p.arrival = now. Returns false if dropped (fault
  // filter, a flow never registered or currently removed, or buffer overflow);
  // the drop cause is counted and reported through the trace stream.
  bool inject(Packet p);

  // Removes `f` mid-run: queued packets are flushed and counted as drops with
  // cause flow_removed; subsequent arrivals for `f` drop as unknown_flow until
  // rejoin_flow. Returns the number of packets flushed.
  std::size_t remove_flow(FlowId f);
  void rejoin_flow(FlowId f);

  void set_departure(DepartureFn fn) { on_departure_ = std::move(fn); }
  void set_drop(DropFn fn) { on_drop_ = std::move(fn); }
  void set_fault_filter(FaultFilter fn) { fault_filter_ = std::move(fn); }
  void set_recorder(stats::ServiceRecorder* rec) { recorder_ = rec; }
  void set_link_stats(stats::LinkStats* ls) { link_stats_ = ls; }

  // Attaches a packet-lifecycle tracer to this server *and* its scheduler:
  // the server emits enqueue/tx_start/tx_end/drop events, the scheduler
  // emits tag/dequeue/vtime events into the same stream. Tracer::active()
  // is latched here, so attach sinks before the tracer.
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    trace_on_ = tracer != nullptr && tracer->active();
    sched_.set_tracer(tracer);
  }

  // Cap on queued packets (excluding the one in transmission); 0 = infinite.
  void set_buffer_limit(std::size_t packets) { buffer_limit_ = packets; }
  void set_overload_policy(OverloadPolicy p) { overload_policy_ = p; }

  Scheduler& scheduler() { return sched_; }
  RateProfile& profile() { return *profile_; }
  // Swaps the drain profile (fault injection: outages and degradation wrap
  // the original profile). Transmissions already in flight keep the finish
  // time computed when they started.
  void set_profile(std::unique_ptr<RateProfile> profile) {
    profile_ = std::move(profile);
  }
  // Takes ownership of the current profile, e.g. to wrap it. The caller must
  // set_profile() a replacement before the next transmission starts.
  std::unique_ptr<RateProfile> release_profile() { return std::move(profile_); }
  bool busy() const { return busy_; }
  uint64_t drops() const { return drops_; }
  // Per-cause breakdown of drops().
  uint64_t drops(obs::DropCause cause) const {
    const auto i = static_cast<std::size_t>(cause);
    return i < obs::kDropCauseCount ? cause_drops_[i] : 0;
  }

 private:
  void on_event(const sim::Event& ev, Time now) override;
  void complete_transmission(const Packet& p, Time start, Time finish);
  void try_start();
  bool drop(Packet&& p, Time now, obs::DropCause cause);
  // Longest per-flow queue by queued bits (ties to the lowest flow id), or
  // kInvalidFlow when nothing is queued.
  FlowId longest_queue() const;

  sim::Simulator& sim_;
  Scheduler& sched_;
  std::unique_ptr<RateProfile> profile_;
  DepartureFn on_departure_;
  DropFn on_drop_;
  FaultFilter fault_filter_;
  stats::ServiceRecorder* recorder_ = nullptr;
  stats::LinkStats* link_stats_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  bool trace_on_ = false;  // tracer_ set AND it has a consuming sink
  std::size_t buffer_limit_ = 0;
  OverloadPolicy overload_policy_ = OverloadPolicy::kTailDrop;
  bool busy_ = false;
  uint64_t drops_ = 0;
  uint64_t cause_drops_[obs::kDropCauseCount] = {};
};

}  // namespace sfq::net
