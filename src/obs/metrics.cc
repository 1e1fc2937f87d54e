#include "obs/metrics.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/telemetry/exposition.h"

namespace sfq::obs {

void MetricsRegistry::dump_text(std::ostream& out) const {
  for (const auto& [name, c] : counters_) out << name << " " << c.value() << "\n";
  for (const auto& [name, g] : gauges_) out << name << " " << g.value() << "\n";
  for (const auto& [name, h] : histograms_) {
    const telemetry::HistogramSnapshot s = h.snapshot();
    out << name << "_count " << s.count << "\n";
    out << name << "_mean " << s.mean_s() << "\n";
    out << name << "_p50 " << s.quantile_s(0.50) << "\n";
    out << name << "_p99 " << s.quantile_s(0.99) << "\n";
    out << name << "_max " << s.max_s() << "\n";
  }
}

void MetricsRegistry::dump_json(std::ostream& out) const {
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << c.value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << g.value();
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ",";
    first = false;
    std::string summary;
    telemetry::append_histogram_json(summary, h.snapshot());
    out << "\"" << json_escape(name) << "\":" << summary;
  }
  out << "}}";
}

std::string MetricsRegistry::text() const {
  std::ostringstream ss;
  dump_text(ss);
  return ss.str();
}

std::string MetricsRegistry::json() const {
  std::ostringstream ss;
  ss.precision(17);
  dump_json(ss);
  return ss.str();
}

MetricsSink::MetricsSink(MetricsRegistry& reg,
                         std::vector<std::string> flow_names)
    : reg_(reg), names_(std::move(flow_names)) {
  // Materialize the drop counters up front so a clean run still reports
  // them (as zeros) instead of omitting the names.
  reg_.counter("sched.drops.buffer_limit");
  reg_.counter("sched.drops.unknown_flow");
  reg_.counter("sched.drops.fault_loss");
  reg_.counter("sched.drops.corrupt");
  reg_.counter("sched.drops.pushout");
  reg_.counter("sched.drops.flow_removed");
  reg_.counter("sched.drops.shed");
}

const std::string& MetricsSink::flow_label(FlowId f) {
  if (f >= names_.size()) names_.resize(f + 1);
  std::string& label = names_[f];
  if (label.empty()) label = "flow" + std::to_string(f);
  return label;
}

void MetricsSink::on_event(const TraceEvent& e) {
  switch (e.type) {
    case TraceEventType::kEnqueue:
      reg_.counter("sched.enqueued").inc();
      reg_.counter("flow." + flow_label(e.flow) + ".enqueued").inc();
      reg_.gauge("sched.backlog_packets").set(static_cast<double>(e.backlog));
      break;
    case TraceEventType::kTag:
      if (e.finish_tag > max_finish_tag_) max_finish_tag_ = e.finish_tag;
      break;
    case TraceEventType::kDequeue:
      reg_.counter("sched.dequeued").inc();
      reg_.gauge("sched.backlog_packets").set(static_cast<double>(e.backlog));
      reg_.gauge("sched.vtime").set(e.vtime);
      // How far the virtual clock trails the newest tag assigned: the
      // backlog expressed in the virtual-time domain.
      reg_.gauge("sched.vtime_lag")
          .set(std::max(0.0, max_finish_tag_ - e.vtime));
      break;
    case TraceEventType::kTxStart:
      break;
    case TraceEventType::kTxEnd: {
      const std::string& label = flow_label(e.flow);
      reg_.counter("sched.tx_packets").inc();
      reg_.counter("sched.tx_bits").inc(static_cast<uint64_t>(e.length_bits));
      reg_.counter("flow." + label + ".tx_packets").inc();
      reg_.counter("flow." + label + ".tx_bits")
          .inc(static_cast<uint64_t>(e.length_bits));
      reg_.histogram("flow." + label + ".delay")
          .record_seconds(e.t - e.arrival);
      break;
    }
    case TraceEventType::kDrop:
      reg_.counter(std::string("sched.drops.") + to_string(e.drop_cause)).inc();
      reg_.counter("flow." + flow_label(e.flow) + ".drops").inc();
      break;
    case TraceEventType::kVtime:
      reg_.gauge("sched.vtime").set(e.vtime);
      reg_.gauge("sched.vtime_lag")
          .set(std::max(0.0, max_finish_tag_ - e.vtime));
      break;
  }
}

}  // namespace sfq::obs
