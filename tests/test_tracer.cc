// Tracer / sink plumbing (src/obs/trace.h): fan-out routing, ring-buffer
// wraparound accounting, and JSONL formatting incl. string escaping.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/sfq_scheduler.h"
#include "obs/telemetry/telemetry.h"
#include "obs/telemetry/trace_sink.h"
#include "obs/trace.h"

namespace sfq {
namespace {

using obs::RingBufferSink;
using obs::TraceEvent;
using obs::TraceEventType;
using obs::Tracer;

TraceEvent ev(TraceEventType type, uint64_t seq, FlowId flow = 0) {
  TraceEvent e;
  e.type = type;
  e.flow = flow;
  e.seq = seq;
  return e;
}

// A sink that just counts, to observe routing.
class CountingSink final : public obs::TraceSink {
 public:
  void on_event(const TraceEvent&) override { ++events; }
  void finish() override { ++finishes; }
  int events = 0;
  int finishes = 0;
};

// --- Fan-out routing ------------------------------------------------------

TEST(Tracer, RoutesEveryEventToEverySink) {
  Tracer tracer;
  CountingSink a, b;
  tracer.add_sink(&a);
  tracer.add_sink(&b);
  auto owned = std::make_unique<CountingSink>();
  CountingSink* c = owned.get();
  tracer.own(std::move(owned));

  for (uint64_t i = 0; i < 5; ++i) tracer.emit(ev(TraceEventType::kTag, i));
  tracer.finish();

  EXPECT_EQ(tracer.emitted(), 5u);
  EXPECT_EQ(tracer.sink_count(), 3u);
  for (const CountingSink* s : {&a, &b, c}) {
    EXPECT_EQ(s->events, 5);
    EXPECT_EQ(s->finishes, 1);
  }
}

TEST(Tracer, SchedulerHooksAreNoOpsWithoutTracer) {
  // The default (untraced) path must not crash or allocate a tracer.
  SfqScheduler s;
  EXPECT_EQ(s.tracer(), nullptr);
  FlowId f = s.add_flow(1.0);
  Packet p;
  p.flow = f;
  p.seq = 1;
  p.length_bits = 100.0;
  s.enqueue(std::move(p), 0.0);
  auto out = s.dequeue(0.0);
  ASSERT_TRUE(out);
  EXPECT_EQ(s.tracer(), nullptr);
}

TEST(Tracer, SchedulerEmitsTagAndDequeueEvents) {
  SfqScheduler s;
  Tracer tracer;
  RingBufferSink ring(16);
  tracer.add_sink(&ring);
  s.set_tracer(&tracer);

  FlowId f = s.add_flow(1.0);
  Packet p;
  p.flow = f;
  p.seq = 7;
  p.length_bits = 2.0;
  s.enqueue(std::move(p), 0.0);
  auto out = s.dequeue(0.0);
  ASSERT_TRUE(out);

  const auto events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, TraceEventType::kTag);
  EXPECT_EQ(events[0].seq, 7u);
  EXPECT_DOUBLE_EQ(events[0].start_tag, 0.0);
  EXPECT_DOUBLE_EQ(events[0].finish_tag, 2.0);
  EXPECT_EQ(events[0].backlog, 1u);
  EXPECT_EQ(events[1].type, TraceEventType::kDequeue);
  EXPECT_EQ(events[1].backlog, 0u);
}

// --- Ring buffer ----------------------------------------------------------

TEST(RingBufferSink, KeepsEverythingBelowCapacity) {
  RingBufferSink ring(8);
  for (uint64_t i = 0; i < 5; ++i)
    ring.on_event(ev(TraceEventType::kEnqueue, i));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.seen(), 5u);
  EXPECT_EQ(ring.overwritten(), 0u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].seq, i);
}

TEST(RingBufferSink, WrapsAroundKeepingNewestInOrder) {
  RingBufferSink ring(4);
  for (uint64_t i = 0; i < 11; ++i)
    ring.on_event(ev(TraceEventType::kEnqueue, i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.seen(), 11u);
  EXPECT_EQ(ring.overwritten(), 7u);
  const auto events = ring.events();  // oldest -> newest
  ASSERT_EQ(events.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].seq, 7 + i);
}

// --- JSONL ----------------------------------------------------------------

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonlSink, WritesOneObjectPerLineWithEscapedMeta) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  sink.meta("scheduler", "SFQ \"quoted\"\nname");

  TraceEvent e = ev(TraceEventType::kDrop, 3, /*flow=*/2);
  e.drop_cause = obs::DropCause::kBufferLimit;
  e.t = 1.5;
  e.length_bits = 800.0;
  sink.on_event(e);
  sink.finish();
  EXPECT_EQ(sink.lines(), 2u);

  std::istringstream lines(out.str());
  std::string meta_line, drop_line, extra;
  ASSERT_TRUE(std::getline(lines, meta_line));
  ASSERT_TRUE(std::getline(lines, drop_line));
  EXPECT_FALSE(std::getline(lines, extra));

  EXPECT_EQ(meta_line,
            "{\"type\":\"meta\",\"key\":\"scheduler\","
            "\"value\":\"SFQ \\\"quoted\\\"\\nname\"}");
  EXPECT_NE(drop_line.find("\"type\":\"drop\""), std::string::npos);
  EXPECT_NE(drop_line.find("\"cause\":\"buffer_limit\""), std::string::npos);
  EXPECT_NE(drop_line.find("\"flow\":2"), std::string::npos);
  EXPECT_NE(drop_line.find("\"seq\":3"), std::string::npos);
  EXPECT_EQ(drop_line.front(), '{');
  EXPECT_EQ(drop_line.back(), '}');
}

TEST(JsonlSink, RoundTripsTimestampsAtFullPrecision) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  TraceEvent e = ev(TraceEventType::kDequeue, 1);
  e.t = 0.1 + 0.2;  // 0.30000000000000004
  sink.on_event(e);
  EXPECT_NE(out.str().find("0.30000000000000004"), std::string::npos);
}

// --- telemetry::TraceSink drop taxonomy ------------------------------------

TEST(TelemetryTraceSink, EmitsAllDropCauses) {
  namespace tel = obs::telemetry;
  tel::Telemetry plane;
  tel::TraceSink sink(plane);
  const obs::DropCause causes[] = {
      obs::DropCause::kBufferLimit, obs::DropCause::kUnknownFlow,
      obs::DropCause::kFaultLoss,   obs::DropCause::kCorrupt,
      obs::DropCause::kPushout,     obs::DropCause::kFlowRemoved,
      obs::DropCause::kShed,
  };
  // A clean run reports every cause counter as an explicit zero —
  // including shed, the overload-admission cause.
  const tel::TelemetrySnapshot clean = plane.snapshot();
  for (obs::DropCause c : causes)
    EXPECT_EQ(clean.counter(tel::drop_counter(c), 0), 0u) << obs::to_string(c);
  for (obs::DropCause c : causes) {
    TraceEvent e = ev(TraceEventType::kDrop, 1, /*flow=*/0);
    e.drop_cause = c;
    sink.on_event(e);
    sink.on_event(e);
  }
  const tel::TelemetrySnapshot snap = plane.snapshot();
  for (obs::DropCause c : causes) {
    const tel::CounterId id = tel::drop_counter(c);
    EXPECT_EQ(snap.counter(id, 0), 2u) << obs::to_string(c);
    EXPECT_EQ(std::string(tel::name(id)),
              std::string("sched.drops.") + obs::to_string(c));
  }
}

TEST(TelemetryTraceSink, MapsLifecycleEventsToRtIds) {
  namespace tel = obs::telemetry;
  tel::Telemetry plane;
  tel::TraceSink sink(plane);
  TraceEvent e = ev(TraceEventType::kEnqueue, 1);
  e.backlog = 3;
  sink.on_event(e);
  e = ev(TraceEventType::kTag, 1);
  e.finish_tag = 5.0;
  sink.on_event(e);
  e = ev(TraceEventType::kDequeue, 1);
  e.vtime = 2.0;
  e.backlog = 2;
  sink.on_event(e);
  e = ev(TraceEventType::kTxEnd, 1);
  e.length_bits = 1200.0;
  e.arrival = 1.0;
  e.t = 1.25;
  sink.on_event(e);

  const tel::TelemetrySnapshot snap = plane.snapshot();
  EXPECT_EQ(snap.counter(tel::CounterId::kAccepted, 0), 1u);
  EXPECT_EQ(snap.counter(tel::CounterId::kTransmitted, 0), 1u);
  EXPECT_EQ(snap.counter(tel::CounterId::kTxBits, 0), 1200u);
  EXPECT_EQ(snap.gauge(tel::GaugeId::kBacklogPackets, 0), 2.0);
  EXPECT_EQ(snap.gauge(tel::GaugeId::kVtime, 0), 2.0);
  EXPECT_EQ(snap.gauge(tel::GaugeId::kVtimeLag, 0), 3.0);
  const auto& delay = snap.hist(tel::HistId::kQueueDelay, 0);
  EXPECT_EQ(delay.count, 1u);
  EXPECT_NEAR(delay.max_s(), 0.25, 0.25 * 0.04);

  // A busy-period jump to the max finish tag closes the lag.
  e = ev(TraceEventType::kVtime, 0);
  e.vtime = 5.0;
  sink.on_event(e);
  EXPECT_EQ(plane.gauge(tel::GaugeId::kVtime), 5.0);
  EXPECT_EQ(plane.gauge(tel::GaugeId::kVtimeLag), 0.0);
}

}  // namespace
}  // namespace sfq
