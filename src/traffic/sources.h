#pragma once

#include <functional>
#include <random>
#include <vector>

#include "core/packet.h"
#include "core/splitmix.h"
#include "sim/simulator.h"

namespace sfq::traffic {

// Base of all open-loop sources: emits packets into a user-supplied sink
// (usually ScheduledServer::inject) between start() and the configured stop
// time. Each source owns its per-flow sequence numbering.
class Source : public sim::EventTarget {
 public:
  using EmitFn = std::function<void(Packet)>;

  Source(sim::Simulator& sim, FlowId flow, EmitFn emit)
      : sim_(sim), flow_(flow), emit_(std::move(emit)) {}
  virtual ~Source() = default;

  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  // Begin emitting at `at`, stop at `until` (packets scheduled strictly
  // before `until`).
  void run(Time at, Time until);

  FlowId flow() const { return flow_; }
  uint64_t emitted() const { return seq_; }

 protected:
  // Next emission after `now`; kTimeInfinity ends the source. `bits_out`
  // receives the size of the packet to send at that time.
  virtual Time next_emission(Time now, double& bits_out) = 0;

  // Time of the first emission once run(at, ...) is called; defaults to the
  // regular recurrence. CBR overrides this so its first packet leaves at
  // exactly `at`.
  virtual Time first_emission(Time at, double& bits_out) {
    return next_emission(at, bits_out);
  }

  void emit_packet(double bits);
  sim::Simulator& sim() { return sim_; }

 private:
  void on_event(const sim::Event& ev, Time now) override;
  void tick(Time scheduled, double bits);
  void schedule_tick(Time when, double bits);

  sim::Simulator& sim_;
  FlowId flow_;
  EmitFn emit_;
  uint64_t seq_ = 0;
  Time until_ = 0.0;
};

// Constant bit rate: fixed-size packets at fixed spacing.
class CbrSource final : public Source {
 public:
  CbrSource(sim::Simulator& sim, FlowId flow, EmitFn emit, double rate,
            double packet_bits)
      : Source(sim, flow, std::move(emit)),
        interval_(packet_bits / rate),
        packet_bits_(packet_bits) {}

 protected:
  Time next_emission(Time now, double& bits_out) override {
    bits_out = packet_bits_;
    return now + interval_;
  }
  Time first_emission(Time at, double& bits_out) override {
    bits_out = packet_bits_;
    return at;
  }

 private:
  Time interval_;
  double packet_bits_;
};

// Poisson arrivals of fixed-size packets with the given average rate.
class PoissonSource final : public Source {
 public:
  PoissonSource(sim::Simulator& sim, FlowId flow, EmitFn emit, double rate,
                double packet_bits, uint64_t seed)
      : Source(sim, flow, std::move(emit)),
        packet_bits_(packet_bits),
        rng_(seed),
        gap_(rate / packet_bits) {}

 protected:
  Time next_emission(Time now, double& bits_out) override {
    bits_out = packet_bits_;
    return now + gap_(rng_);
  }

 private:
  double packet_bits_;
  SplitMix64 rng_;
  std::exponential_distribution<double> gap_;
};

// Markov on-off source: exponential ON periods emitting CBR at `peak_rate`,
// exponential OFF periods silent.
class OnOffSource final : public Source {
 public:
  OnOffSource(sim::Simulator& sim, FlowId flow, EmitFn emit, double peak_rate,
              double packet_bits, Time mean_on, Time mean_off, uint64_t seed)
      : Source(sim, flow, std::move(emit)),
        interval_(packet_bits / peak_rate),
        packet_bits_(packet_bits),
        rng_(seed),
        on_dist_(1.0 / mean_on),
        off_dist_(1.0 / mean_off) {}

 protected:
  Time next_emission(Time now, double& bits_out) override;

 private:
  Time interval_;
  double packet_bits_;
  SplitMix64 rng_;
  std::exponential_distribution<double> on_dist_;
  std::exponential_distribution<double> off_dist_;
  Time on_until_ = -1.0;  // <0: need to draw a new ON period
};

// Replays an explicit (time, bits) list — used by the unit tests that build
// the paper's Example 1 / Example 2 arrival patterns exactly.
class TraceSource final : public Source {
 public:
  struct Item {
    Time t;
    double bits;
  };
  TraceSource(sim::Simulator& sim, FlowId flow, EmitFn emit,
              std::vector<Item> items)
      : Source(sim, flow, std::move(emit)), items_(std::move(items)) {}

 protected:
  Time next_emission(Time now, double& bits_out) override {
    (void)now;
    if (next_ >= items_.size()) return kTimeInfinity;
    bits_out = items_[next_].bits;
    return items_[next_++].t;
  }

 private:
  std::vector<Item> items_;
  std::size_t next_ = 0;
};

}  // namespace sfq::traffic
