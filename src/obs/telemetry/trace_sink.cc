#include "obs/telemetry/trace_sink.h"

#include <algorithm>

namespace sfq::obs::telemetry {

void TraceSink::set_vtime(VirtualTime v) {
  plane_.set_gauge(GaugeId::kVtime, v);
  plane_.set_gauge(GaugeId::kVtimeLag, std::max(0.0, max_finish_tag_ - v));
}

void TraceSink::on_event(const TraceEvent& e) {
  switch (e.type) {
    case TraceEventType::kEnqueue:
      writer_.inc(CounterId::kAccepted);
      plane_.set_gauge(GaugeId::kBacklogPackets,
                       static_cast<double>(e.backlog));
      break;
    case TraceEventType::kTag:
      max_finish_tag_ = std::max(max_finish_tag_, e.finish_tag);
      break;
    case TraceEventType::kDequeue:
      plane_.set_gauge(GaugeId::kBacklogPackets,
                       static_cast<double>(e.backlog));
      set_vtime(e.vtime);
      break;
    case TraceEventType::kTxStart:
      break;
    case TraceEventType::kTxEnd:
      writer_.inc(CounterId::kTransmitted);
      writer_.inc(CounterId::kTxBits, static_cast<uint64_t>(e.length_bits));
      plane_.record_seconds(HistId::kQueueDelay, e.t - e.arrival);
      break;
    case TraceEventType::kDrop:
      writer_.drop(e.drop_cause);
      break;
    case TraceEventType::kVtime:
      set_vtime(e.vtime);
      break;
  }
}

}  // namespace sfq::obs::telemetry
