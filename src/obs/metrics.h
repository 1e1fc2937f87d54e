// Named counters / gauges / histograms with text and JSON dumps, plus a
// TraceSink that aggregates a packet-lifecycle trace stream into a registry
// (per-flow delay histograms, backlog gauge, virtual-time lag, drops by
// cause). See docs/OBSERVABILITY.md for the metric name catalogue.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/telemetry/histogram.h"
#include "obs/trace.h"

namespace sfq::obs {

class Counter {
 public:
  void inc(uint64_t n = 1) { v_ += n; }
  uint64_t value() const { return v_; }

 private:
  uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

// Name -> metric map with deterministic (sorted) dump order. Accessors
// create on first use, so instrumentation sites never pre-register.
// Histograms are the telemetry plane's log-linear LockFreeHistogram (record
// with record_seconds); dumps summarize them with the same quantile routine
// and, in JSON, the same per-histogram object as telemetry::to_json.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  telemetry::LockFreeHistogram& histogram(const std::string& name) {
    return histograms_.try_emplace(name).first->second;
  }

  bool has_counter(const std::string& name) const {
    return counters_.count(name) != 0;
  }
  bool has_gauge(const std::string& name) const {
    return gauges_.count(name) != 0;
  }
  bool has_histogram(const std::string& name) const {
    return histograms_.count(name) != 0;
  }

  // "name value" lines (histograms expand to _count/_mean/_p50/_p99/_max).
  void dump_text(std::ostream& out) const;
  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void dump_json(std::ostream& out) const;
  std::string text() const;
  std::string json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, telemetry::LockFreeHistogram> histograms_;
};

// Aggregates a trace stream. Flow labels come from `flow_names` when
// provided ("flow<id>" otherwise). Metrics populated:
//   sched.enqueued / sched.dequeued / sched.tx_packets        counters
//   sched.tx_bits                                             counter
//   sched.drops.<cause>                                       counters
//     one per DropCause: buffer_limit, unknown_flow, fault_loss,
//     corrupt, pushout, flow_removed, shed — all seven are materialized
//     at construction so clean runs report explicit zeros
//   sched.backlog_packets                                     gauge
//   sched.vtime / sched.vtime_lag                             gauges
//   flow.<label>.enqueued / .tx_packets / .drops              counters
//   flow.<label>.tx_bits                                      counter
//   flow.<label>.delay                                        histogram (s)
class MetricsSink final : public TraceSink {
 public:
  explicit MetricsSink(MetricsRegistry& reg,
                       std::vector<std::string> flow_names = {});

  void on_event(const TraceEvent& e) override;

 private:
  const std::string& flow_label(FlowId f);

  MetricsRegistry& reg_;
  std::vector<std::string> names_;
  VirtualTime max_finish_tag_ = 0.0;
};

}  // namespace sfq::obs
