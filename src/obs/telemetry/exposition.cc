#include "obs/telemetry/exposition.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace sfq::obs::telemetry {

namespace {

// Cumulative bucket edges for the Prometheus rendering: decades from 1 µs
// to 100 s. The JSON rendering carries interpolated quantiles instead, so
// the coarse edges only affect scrape-side aggregation.
constexpr double kLeEdges[] = {1e-6, 1e-5, 1e-4, 1e-3,
                               1e-2, 1e-1, 1.0,  1e1,  1e2};

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

void append_u64(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

// Appends {"count":N,"sum_s":..,"mean_s":..,"p50_s":..,"p90_s":..,
// "p99_s":..,"max_s":..} for one histogram snapshot.
void append_histogram_json(std::string& out, const HistogramSnapshot& hs) {
  out += "{\"count\":";
  append_u64(out, hs.count);
  out += ",\"sum_s\":";
  append_double(out, static_cast<double>(hs.sum_ns) * 1e-9);
  out += ",\"mean_s\":";
  append_double(out, hs.mean_s());
  out += ",\"p50_s\":";
  append_double(out, hs.quantile_s(0.50));
  out += ",\"p90_s\":";
  append_double(out, hs.quantile_s(0.90));
  out += ",\"p99_s\":";
  append_double(out, hs.quantile_s(0.99));
  out += ",\"max_s\":";
  append_double(out, hs.max_s());
  out += "}";
}

}  // namespace

std::string to_prometheus(const TelemetrySnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    const CounterId id = static_cast<CounterId>(c);
    out += "# TYPE ";
    out += prometheus_name(id);
    out += " counter\n";
    for (std::size_t sh = 0; sh < snap.shards; ++sh) {
      out += prometheus_name(id);
      out += "{shard=\"";
      append_u64(out, sh);
      out += "\"} ";
      append_u64(out, snap.counter(id, sh));
      out += "\n";
    }
  }
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    const GaugeId id = static_cast<GaugeId>(g);
    out += "# TYPE ";
    out += prometheus_name(id);
    out += " gauge\n";
    for (std::size_t sh = 0; sh < snap.shards; ++sh) {
      out += prometheus_name(id);
      out += "{shard=\"";
      append_u64(out, sh);
      out += "\"} ";
      append_double(out, snap.gauge(id, sh));
      out += "\n";
    }
  }
  for (std::size_t h = 0; h < kHistCount; ++h) {
    const HistId id = static_cast<HistId>(h);
    out += "# TYPE ";
    out += prometheus_name(id);
    out += " histogram\n";
    for (std::size_t sh = 0; sh < snap.shards; ++sh) {
      const HistogramSnapshot& hs = snap.hist(id, sh);
      char shard_label[32];
      std::snprintf(shard_label, sizeof shard_label, "{shard=\"%zu\"", sh);
      for (double edge : kLeEdges) {
        out += prometheus_name(id);
        out += "_bucket";
        out += shard_label;
        out += ",le=\"";
        append_double(out, edge);
        out += "\"} ";
        append_u64(out, hs.empty() ? 0
                                   : hs.cumulative_below(
                                         LockFreeHistogram::to_nanos(edge)));
        out += "\n";
      }
      out += prometheus_name(id);
      out += "_bucket";
      out += shard_label;
      out += ",le=\"+Inf\"} ";
      append_u64(out, hs.count);
      out += "\n";
      out += prometheus_name(id);
      out += "_sum";
      out += shard_label;
      out += "} ";
      append_double(out, static_cast<double>(hs.sum_ns) * 1e-9);
      out += "\n";
      out += prometheus_name(id);
      out += "_count";
      out += shard_label;
      out += "} ";
      append_u64(out, hs.count);
      out += "\n";
    }
  }
  return out;
}

std::string to_json(const TelemetrySnapshot& snap) {
  std::string out;
  out.reserve(4096);
  out += "{\"epoch\":";
  append_u64(out, snap.epoch);
  out += ",\"shards\":";
  append_u64(out, snap.shards);
  out += ",\"counters\":{";
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    const CounterId id = static_cast<CounterId>(c);
    if (c) out += ",";
    out += "\"";
    out += name(id);
    out += "\":{\"total\":";
    append_u64(out, snap.counter_total(id));
    out += ",\"shard\":[";
    for (std::size_t sh = 0; sh < snap.shards; ++sh) {
      if (sh) out += ",";
      append_u64(out, snap.counter(id, sh));
    }
    out += "]}";
  }
  out += "},\"gauges\":{";
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    const GaugeId id = static_cast<GaugeId>(g);
    if (g) out += ",";
    out += "\"";
    out += name(id);
    out += "\":[";
    for (std::size_t sh = 0; sh < snap.shards; ++sh) {
      if (sh) out += ",";
      append_double(out, snap.gauge(id, sh));
    }
    out += "]";
  }
  out += "},\"histograms\":{";
  for (std::size_t h = 0; h < kHistCount; ++h) {
    const HistId id = static_cast<HistId>(h);
    if (h) out += ",";
    out += "\"";
    out += name(id);
    out += "\":[";
    for (std::size_t sh = 0; sh < snap.shards; ++sh) {
      if (sh) out += ",";
      append_histogram_json(out, snap.hist(id, sh));
    }
    out += "]";
  }
  out += "}}";
  return out;
}

}  // namespace sfq::obs::telemetry
