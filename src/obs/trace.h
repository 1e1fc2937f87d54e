// Packet-lifecycle tracing (docs/OBSERVABILITY.md).
//
// Every theorem this repo reproduces is a statement about per-packet tags and
// timestamps, so the scheduler/server hot paths can emit a structured event
// stream: tag assignment, dequeue decisions, transmission start/end, drops
// (with cause) and virtual-time updates. Sinks consume the stream:
//
//   * RingBufferSink  — last-N events in memory, for tests and post-mortems,
//   * JsonlSink       — one JSON object per line, for offline analysis,
//   * NullSink        — swallows everything (benchmark parity),
//   * telemetry::TraceSink — records into a telemetry plane, the metrics
//                       model the rt engines report through
//                       (obs/telemetry/trace_sink.h),
//   * InvariantChecker— validates SFQ semantics online (obs/invariant_checker.h).
//
// Cost model: components hold a `Tracer*` that is nullptr by default, and
// every hook is a single predictable branch when tracing is off — cheap
// enough to keep compiled into the hot path unconditionally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/packet.h"
#include "core/types.h"

namespace sfq::obs {

enum class TraceEventType : uint8_t {
  kEnqueue = 0,  // server accepted the packet (stamped arrival)
  kTag,          // scheduler assigned start/finish tags
  kDequeue,      // scheduler picked the packet for transmission
  kTxStart,      // transmission began on the link
  kTxEnd,        // transmission completed
  kDrop,         // server rejected the packet (see DropCause)
  kVtime,        // virtual time changed outside a dequeue (busy-period jump)
};

enum class DropCause : uint8_t {
  kNone = 0,
  kBufferLimit,   // queue cap reached (tail drop)
  kUnknownFlow,   // packet for a flow never registered (or currently removed)
  kFaultLoss,     // injected probabilistic loss (fault plan)
  kCorrupt,       // injected corruption, detected and discarded
  kPushout,       // evicted from the longest queue to admit a new arrival
  kFlowRemoved,   // flushed when its flow left the scheduler (churn)
  kShed,          // refused by the overload admission gate (weighted-fair
                  // load shedding; rt engine only — docs/ROBUSTNESS.md)
};
inline constexpr std::size_t kDropCauseCount = 8;

const char* to_string(TraceEventType t);
const char* to_string(DropCause c);

// One structured event. Packet-borne fields are copied out so sinks never
// hold references into scheduler state.
struct TraceEvent {
  TraceEventType type = TraceEventType::kEnqueue;
  DropCause drop_cause = DropCause::kNone;
  FlowId flow = kInvalidFlow;
  uint64_t seq = 0;           // per-flow packet sequence number
  double length_bits = 0.0;
  Time t = 0.0;               // simulation time of the event
  Time arrival = 0.0;         // packet arrival at the server (0 before inject)
  VirtualTime start_tag = 0.0;
  VirtualTime finish_tag = 0.0;
  VirtualTime vtime = 0.0;    // scheduler virtual time after the event
  uint64_t backlog = 0;       // queued packets after the event
};

// Fills the packet-borne fields of an event.
TraceEvent make_event(TraceEventType type, const Packet& p, Time t,
                      VirtualTime vtime, uint64_t backlog,
                      DropCause cause = DropCause::kNone);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& e) = 0;
  // Called once when the traced run ends (flush files, final checks).
  virtual void finish() {}
  // Sinks that provably discard every event return true so the tracer can
  // skip event construction altogether (Tracer::active()).
  virtual bool discards_events() const { return false; }
};

// Swallows events. Exists so a sink slot can always be filled; hooks gate on
// Tracer::active(), so a tracer with only null sinks costs the same as no
// tracer at all.
class NullSink final : public TraceSink {
 public:
  void on_event(const TraceEvent&) override {}
  bool discards_events() const override { return true; }
};

// Fan-out dispatcher. Sinks are non-owning by default; `own` transfers
// lifetime to the tracer.
class Tracer {
 public:
  void add_sink(TraceSink* sink);
  void own(std::unique_ptr<TraceSink> sink);

  void emit(const TraceEvent& e) {
    ++emitted_;
    for (TraceSink* s : sinks_) s->on_event(e);
  }

  // Forwards to every sink once, at end of run. Idempotent per call site;
  // callers decide when the run is over.
  void finish();

  // True once a sink that actually consumes events is attached. Hooks check
  // this before building an event, so null-sink-only tracers cost one branch.
  bool active() const { return active_; }

  uint64_t emitted() const { return emitted_; }
  std::size_t sink_count() const { return sinks_.size(); }

 private:
  std::vector<TraceSink*> sinks_;
  std::vector<std::unique_ptr<TraceSink>> owned_;
  uint64_t emitted_ = 0;
  bool active_ = false;
};

// Keeps the most recent `capacity` events; older ones are overwritten.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void on_event(const TraceEvent& e) override;

  // Oldest -> newest among retained events.
  std::vector<TraceEvent> events() const;
  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const { return size_; }
  uint64_t seen() const { return seen_; }
  uint64_t overwritten() const { return seen_ - size_; }

 private:
  std::vector<TraceEvent> buf_;
  std::size_t next_ = 0;  // next write slot
  std::size_t size_ = 0;  // retained events (<= capacity)
  uint64_t seen_ = 0;
};

// Escapes a string for inclusion inside a JSON string literal (quotes,
// backslashes, control characters).
std::string json_escape(const std::string& s);

// One compact JSON object per event. `meta` lines carry run context (flow
// names, scheduler) with full string escaping.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& out);           // caller keeps the stream
  explicit JsonlSink(const std::string& path);     // sink owns an ofstream

  // Writes {"type":"meta","key":K,"value":V}; call before events for header
  // context (scheduler name, flow names).
  void meta(const std::string& key, const std::string& value);

  void on_event(const TraceEvent& e) override;
  void finish() override;  // flush

  uint64_t lines() const { return lines_; }

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_;
  uint64_t lines_ = 0;
};

}  // namespace sfq::obs
