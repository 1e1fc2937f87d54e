#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "core/scheduler.h"
#include "net/rate_profile.h"
#include "sim/simulator.h"
#include "stats/service_recorder.h"

namespace sfq::net {

// A link shared by a strict-priority class and a scheduled class: the
// high-priority FIFO always wins (non-preemptively); the low-priority
// scheduler sees whatever capacity is left.
//
// This is the Figure 1 setup: a VBR video flow is given priority, so to the
// two TCP flows the output link *is* a variable-rate server, and the
// difference between WFQ and SFQ becomes visible. It is also the leaky-bucket
// residual-capacity construction of §2.3 (residual service is FC(C−ρ, σ)).
class PriorityServer : public sim::EventTarget {
 public:
  using DepartureFn = std::function<void(const Packet&, Time departure)>;

  PriorityServer(sim::Simulator& sim, Scheduler& low_sched,
                 std::unique_ptr<RateProfile> profile);

  PriorityServer(const PriorityServer&) = delete;
  PriorityServer& operator=(const PriorityServer&) = delete;

  void inject_high(Packet p);
  void inject_low(Packet p);

  void set_high_departure(DepartureFn fn) { on_high_dep_ = std::move(fn); }
  void set_low_departure(DepartureFn fn) { on_low_dep_ = std::move(fn); }
  void set_low_recorder(stats::ServiceRecorder* rec) { recorder_ = rec; }

  Scheduler& low_scheduler() { return low_sched_; }
  double high_backlog_bits() const;

 private:
  // Completion events discriminate the band via Event::aux.
  static constexpr uint32_t kLowBand = 0;
  static constexpr uint32_t kHighBand = 1;

  void on_event(const sim::Event& ev, Time now) override;
  void try_start();

  sim::Simulator& sim_;
  Scheduler& low_sched_;
  std::unique_ptr<RateProfile> profile_;
  std::deque<Packet> high_q_;
  DepartureFn on_high_dep_;
  DepartureFn on_low_dep_;
  stats::ServiceRecorder* recorder_ = nullptr;
  bool busy_ = false;
};

}  // namespace sfq::net
