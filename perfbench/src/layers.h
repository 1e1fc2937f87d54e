// Traced-run instrumentation. Every layer is timed from outside, by
// decorating the public interfaces the engines and the simulator call:
// Scheduler, net::RateProfile and obs::TraceSink. Untraced runs use none of
// this.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "measure.h"
#include "net/rate_profile.h"
#include "obs/trace.h"

namespace perfbench {

// Span layers, in the order the spans file names them.
enum Layer : uint32_t {
  kPacket = 0,      // root: producer offer -> transmit complete
  kOffer,           // producer's offer call
  kSchedEnqueue,
  kSchedDequeue,
  kSchedComplete,
  kPacingFinish,    // RateProfile::finish_time
  kLayerCount,
};
inline constexpr const char* kLayerNames[kLayerCount] = {
    "packet", "ingress.offer", "sched.enqueue", "sched.dequeue",
    "sched.complete", "pacing.finish_time"};

// Spans of 1-in-kEvery packets (by seq), kept in memory and written when the
// run ends. Single-writer per log; each thread that records owns one.
class SpanLog {
 public:
  static constexpr uint64_t kEvery = 64;
  static bool sampled(uint64_t seq) { return seq % kEvery == 0; }

  // Holds up to `room` spans; later ones are dropped, never allocated.
  explicit SpanLog(std::size_t room = 1 << 16) { spans_.reserve(room); }
  void add(uint64_t id, Layer layer, double t0, double t1) {
    if (spans_.size() < spans_.capacity())  // never allocate mid-run
      spans_.push_back({id, layer, t0, t1});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Count and total wall time of calls into one layer. Written by the one
// thread that makes the calls; atomics (relaxed load+store, no RMW) only so
// the measuring thread may snapshot mid-run.
struct CallStat {
  std::atomic<uint64_t> calls{0};
  std::atomic<double> ns{0.0};
  void add(double dt_s) {
    calls.store(calls.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    ns.store(ns.load(std::memory_order_relaxed) + dt_s * 1e9,
             std::memory_order_relaxed);
  }
  struct Snap {
    uint64_t calls = 0;
    double ns = 0.0;
    Snap operator-(const Snap& o) const { return {calls - o.calls, ns - o.ns}; }
    Snap operator+(const Snap& o) const { return {calls + o.calls, ns + o.ns}; }
    // Mean ns per call as timed from outside (one clock read included).
    double mean_ns() const {
      return calls ? ns / static_cast<double>(calls) : 0.0;
    }
  };
  Snap snap() const {
    return {calls.load(std::memory_order_relaxed),
            ns.load(std::memory_order_relaxed)};
  }
};

// Single-writer counter readable from another thread.
struct Counter {
  std::atomic<double> v{0.0};
  void add(double x) {
    v.store(v.load(std::memory_order_relaxed) + x, std::memory_order_relaxed);
  }
  double get() const { return v.load(std::memory_order_relaxed); }
};

// Scheduler decorator: forwards every virtual to `inner` and times each
// call. Scheduler::flows() is non-virtual and engines read it directly, so
// the decorator mirrors flow registration and churn into its own base table.
class TimedScheduler final : public sfq::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sfq::Scheduler> inner, const SpanClock& clock,
                 SpanLog* spans)
      : inner_(std::move(inner)), clock_(clock), spans_(spans) {}

  sfq::FlowId add_flow(double weight, double max_packet_bits,
                       std::string name) override {
    const sfq::FlowId id = inner_->add_flow(weight, max_packet_bits, name);
    const sfq::FlowId mine = flows_.add(weight, max_packet_bits, std::move(name));
    if (id != mine) throw std::logic_error("TimedScheduler: flow id mismatch");
    return id;
  }
  bool enqueue(sfq::Packet p, sfq::Time now) override {
    const uint64_t seq = p.seq;
    const double t0 = clock_.now();
    const bool ok = inner_->enqueue(std::move(p), now);
    const double t1 = clock_.now();
    enqueue_.add(t1 - t0);
    note_span(seq, kSchedEnqueue, t0, t1);
    backlog_sum_.add(static_cast<double>(inner_->backlog_packets()));
    return ok;
  }
  std::optional<sfq::Packet> dequeue(sfq::Time now) override {
    const double t0 = clock_.now();
    std::optional<sfq::Packet> p = inner_->dequeue(now);
    const double t1 = clock_.now();
    dequeue_.add(t1 - t0);
    if (p) {
      last_dequeued_ = p->seq;
      note_span(p->seq, kSchedDequeue, t0, t1);
    } else {
      empty_dequeues_.add(1.0);
    }
    return p;
  }
  void on_transmit_complete(const sfq::Packet& p, sfq::Time now) override {
    const double t0 = clock_.now();
    inner_->on_transmit_complete(p, now);
    const double t1 = clock_.now();
    complete_.add(t1 - t0);
    note_span(p.seq, kSchedComplete, t0, t1);
  }
  std::vector<sfq::Packet> remove_flow(sfq::FlowId f, sfq::Time now) override {
    const double t0 = clock_.now();
    std::vector<sfq::Packet> out = inner_->remove_flow(f, now);
    flows_.set_active(f, false);
    churn_.add(clock_.now() - t0);
    return out;
  }
  void rejoin_flow(sfq::FlowId f, sfq::Time now) override {
    const double t0 = clock_.now();
    inner_->rejoin_flow(f, now);
    flows_.set_active(f, true);
    churn_.add(clock_.now() - t0);
  }
  std::optional<sfq::Packet> pushout(sfq::FlowId f, sfq::Time now) override {
    return inner_->pushout(f, now);
  }
  bool empty() const override { return inner_->empty(); }
  std::size_t backlog_packets() const override {
    return inner_->backlog_packets();
  }
  double backlog_bits(sfq::FlowId f) const override {
    return inner_->backlog_bits(f);
  }
  std::string name() const override { return inner_->name(); }
  sfq::VirtualTime quantization_window() const override {
    return inner_->quantization_window();
  }
  bool requires_registered_flows() const override {
    return inner_->requires_registered_flows();
  }

  sfq::Scheduler& inner() { return *inner_; }

  // Everything the decorator measured, as plain values.
  struct Snap {
    CallStat::Snap enqueue, dequeue, complete, churn;
    double empty_dequeues = 0.0;
    double backlog_sum = 0.0;
    Snap operator-(const Snap& o) const {
      return {enqueue - o.enqueue, dequeue - o.dequeue,
              complete - o.complete, churn - o.churn,
              empty_dequeues - o.empty_dequeues, backlog_sum - o.backlog_sum};
    }
    Snap operator+(const Snap& o) const {
      return {enqueue + o.enqueue, dequeue + o.dequeue,
              complete + o.complete, churn + o.churn,
              empty_dequeues + o.empty_dequeues, backlog_sum + o.backlog_sum};
    }
    double total_ns() const {
      return enqueue.ns + dequeue.ns + complete.ns + churn.ns;
    }
    double backlog_mean() const {
      return enqueue.calls ? backlog_sum / static_cast<double>(enqueue.calls)
                           : 0.0;
    }
  };
  Snap snap() const {
    return {enqueue_.snap(),         dequeue_.snap(),
            complete_.snap(),        churn_.snap(),
            empty_dequeues_.get(),   backlog_sum_.get()};
  }
  // Seq of the packet most recently handed out (pacing spans attach to it).
  uint64_t last_dequeued() const { return last_dequeued_; }

 private:
  void note_span(uint64_t seq, Layer layer, double t0, double t1) {
    if (spans_ != nullptr && SpanLog::sampled(seq))
      spans_->add(seq, layer, t0, t1);
  }

  std::unique_ptr<sfq::Scheduler> inner_;
  const SpanClock& clock_;
  SpanLog* spans_;
  CallStat enqueue_, dequeue_, complete_, churn_;
  Counter empty_dequeues_;
  Counter backlog_sum_;
  uint64_t last_dequeued_ = 0;
};

// RateProfile decorator timing finish_time (the pacing computation).
class TimedRate final : public sfq::net::RateProfile {
 public:
  TimedRate(std::unique_ptr<sfq::net::RateProfile> inner,
            const SpanClock& clock, const TimedScheduler* sched,
            SpanLog* spans)
      : inner_(std::move(inner)), clock_(clock), sched_(sched), spans_(spans) {}

  sfq::Time finish_time(sfq::Time start, double bits) override {
    const double t0 = clock_.now();
    const sfq::Time t = inner_->finish_time(start, bits);
    const double t1 = clock_.now();
    stat_.add(t1 - t0);
    if (spans_ != nullptr && sched_ != nullptr &&
        SpanLog::sampled(sched_->last_dequeued()))
      spans_->add(sched_->last_dequeued(), kPacingFinish, t0, t1);
    return t;
  }
  double work(sfq::Time t1, sfq::Time t2) override {
    return inner_->work(t1, t2);
  }
  double average_rate() const override { return inner_->average_rate(); }

  CallStat::Snap snap() const { return stat_.snap(); }

 private:
  std::unique_ptr<sfq::net::RateProfile> inner_;
  const SpanClock& clock_;
  const TimedScheduler* sched_;
  SpanLog* spans_;
  CallStat stat_;
};

// The per-layer metrics, in print order. Every traced run prints all of
// them: the values measured, 0 for layers the workload does not have.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
extern const LayerMetricSpec kLayerMetrics[];
void finish_layer_metrics(Result& r, const std::vector<Metric>& measured);

// Scheduler and rate-profile metrics of a traced rig: `packets` delivered
// while the decorators recorded `sd` and `rd`, `busy_ns` the thread time
// (dispatcher CPU, or simulator wall) those packets took.
void add_sched_layers(std::vector<Metric>& layers,
                      const TimedScheduler::Snap& sd, const CallStat::Snap& rd,
                      double packets, double busy_ns);

// Adds the host diagnostics to the report and to `layers`.
void add_host_diagnostics(Result& r, std::vector<Metric>& layers,
                          double steal, uint64_t invol,
                          const std::vector<double>& calib);

// Writes spans as CSV (id,layer,t0_s,t1_s). Returns false on I/O failure.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

// Per-packet root self time (root minus its children), over every sampled
// packet that has a root span; returns the samples in seconds.
std::vector<double> packet_self_times(const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
