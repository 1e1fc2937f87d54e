#include "layers.h"

#include <cstdio>
#include <map>

namespace perfbench {

const LayerMetricSpec kLayerMetrics[] = {
    {"ingress.offer_ns", "ns"},
    {"ingress.full_per_pkt", "count"},
    {"ingress.dwell_p50_us", "us"},
    {"ingress.dwell_p99_us", "us"},
    {"dispatcher.cpu_ns_per_pkt", "ns"},
    {"dispatcher.self_ns_per_pkt", "ns"},
    {"dispatcher.unattributed_share", "ratio"},
    {"dispatcher.idle_share", "ratio"},
    {"dispatcher.ctx_switches_per_kpkt", "count"},
    {"pacing.finish_time_ns", "ns"},
    {"pacing.lag_p99_us", "us"},
    {"overload.shed_per_pkt", "ratio"},
    {"sched.enqueue_ns", "ns"},
    {"sched.dequeue_ns", "ns"},
    {"sched.complete_ns", "ns"},
    {"sched.share", "ratio"},
    {"sched.churn_ns", "ns"},
    {"sched.empty_dequeue_per_pkt", "count"},
    {"sched.backlog_mean_pkts", "count"},
    {"sim.events_per_pkt", "count"},
    {"sim.self_ns_per_pkt", "ns"},
    {"sim.pending_events_max", "count"},
    {"shard.offer_ns", "ns"},
    {"shard.dispatcher_cpu_ns_per_pkt", "ns"},
    {"shard.imbalance", "ratio"},
    {"alloc.per_pkt", "count"},
    {"trace.overhead", "ratio"},
    {"host.steal_ms", "ms"},
    {"host.invol_ctx_switches", "count"},
    {"host.calib_ns", "ns"},
};

void finish_layer_metrics(Result& r, const std::vector<Metric>& measured) {
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    Metric m{spec.name, 0.0, spec.unit, 0};
    for (const Metric& x : measured)
      if (x.name == spec.name) m = {spec.name, x.value, spec.unit, x.samples};
    r.metrics.push_back(m);
  }
}

void add_sched_layers(std::vector<Metric>& layers,
                      const TimedScheduler::Snap& sd, const CallStat::Snap& rd,
                      double packets, double busy_ns) {
  const double n = std::max(1.0, packets);
  const auto samples = static_cast<uint64_t>(packets);
  const std::vector<Metric> m = {
      {"pacing.finish_time_ns", rd.mean_ns(), "ns", rd.calls},
      {"sched.enqueue_ns", sd.enqueue.mean_ns(), "ns",
       sd.enqueue.calls},
      {"sched.dequeue_ns", sd.dequeue.mean_ns(), "ns",
       sd.dequeue.calls},
      {"sched.complete_ns", sd.complete.mean_ns(), "ns",
       sd.complete.calls},
      {"sched.churn_ns", sd.churn.mean_ns(), "ns", sd.churn.calls},
      {"sched.share", busy_ns > 0.0 ? sd.total_ns() / busy_ns : 0.0,
       "ratio", samples},
      {"sched.empty_dequeue_per_pkt", sd.empty_dequeues / n, "count",
       samples},
      {"sched.backlog_mean_pkts", sd.backlog_mean(), "count",
       sd.enqueue.calls}};
  layers.insert(layers.end(), m.begin(), m.end());
}

void add_host_diagnostics(Result& r, std::vector<Metric>& layers,
                          double steal, uint64_t invol,
                          const std::vector<double>& calib) {
  const std::vector<Metric> host = {
      {"host.steal_ms", steal, "ms", 1},
      {"host.invol_ctx_switches", static_cast<double>(invol), "count", 1},
      {"host.calib_ns", median(calib), "ns", calib.size()}};
  for (const Metric& m : host) {
    r.diagnostics.push_back(m);
    layers.push_back(m);
  }
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,layer,t0_s,t1_s\n");
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans())
      std::fprintf(f, "%llu,%s,%.9f,%.9f\n",
                   static_cast<unsigned long long>(s.id), kLayerNames[s.layer],
                   s.t0, s.t1);
  return std::fclose(f) == 0;
}

std::vector<double> packet_self_times(const std::vector<const SpanLog*>& logs) {
  // The root span is stitched from two ends recorded on different threads:
  // the producer's offer span opens it, the completion marker closes it.
  std::map<uint64_t, std::vector<Span>> by_id;
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans()) by_id[s.id].push_back(s);
  std::vector<double> out;
  for (auto& [id, spans] : by_id) {
    const Span* offer = nullptr;
    const Span* done = nullptr;
    for (const Span& s : spans) {
      if (s.layer == kOffer) offer = &s;
      if (s.layer == kPacket) done = &s;
    }
    if (offer == nullptr || done == nullptr) continue;
    const Span root{id, kPacket, offer->t0, done->t1};
    std::vector<Span> children;
    for (const Span& s : spans)
      if (s.layer != kPacket) children.push_back(s);
    out.push_back(self_time(root, std::move(children)));
  }
  return out;
}

}  // namespace perfbench
