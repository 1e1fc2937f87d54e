#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/scheduler.h"
#include "net/rate_profile.h"
#include "sim/simulator.h"
#include "stats/service_recorder.h"

namespace sfq::net {

// A link shared by N strict-priority bands, each with its own queueing
// discipline; band 0 always wins, non-preemptively. Generalizes
// PriorityServer (§2.3's two-level construction): band k sees the residual
// capacity left by bands 0..k-1, so if those are leaky-bucket bounded with
// aggregate (sigma, rho), band k's virtual server is FC(C - rho, sigma) and
// all the paper's theorems apply per band.
class MultiPriorityServer : public sim::EventTarget {
 public:
  using DepartureFn = std::function<void(std::size_t band, const Packet&,
                                         Time departure)>;

  MultiPriorityServer(sim::Simulator& sim,
                      std::vector<std::unique_ptr<Scheduler>> bands,
                      std::unique_ptr<RateProfile> profile);

  MultiPriorityServer(const MultiPriorityServer&) = delete;
  MultiPriorityServer& operator=(const MultiPriorityServer&) = delete;

  // Packet arrival into band `band` (0 = highest priority). Flow ids are
  // local to the band's scheduler.
  void inject(std::size_t band, Packet p);

  void set_departure(DepartureFn fn) { on_departure_ = std::move(fn); }
  void set_recorder(std::size_t band, stats::ServiceRecorder* rec);

  Scheduler& band(std::size_t i) { return *bands_.at(i); }
  std::size_t band_count() const { return bands_.size(); }
  bool busy() const { return busy_; }

 private:
  void on_event(const sim::Event& ev, Time now) override;  // aux = band
  void try_start();

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Scheduler>> bands_;
  std::vector<stats::ServiceRecorder*> recorders_;
  std::unique_ptr<RateProfile> profile_;
  DepartureFn on_departure_;
  bool busy_ = false;
};

}  // namespace sfq::net
