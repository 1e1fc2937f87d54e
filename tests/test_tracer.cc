// Tracer / sink plumbing (src/obs/trace.h): fan-out routing, ring-buffer
// wraparound accounting, and JSONL formatting incl. string escaping.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/sfq_scheduler.h"
#include "obs/metrics.h"
#include "obs/telemetry/exposition.h"
#include "obs/telemetry/telemetry.h"
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

// --- Registry histograms share the telemetry renderer --------------------

// The JSON object that follows `key` in `json`, up to its closing brace
// (histogram summaries hold no nested objects).
std::string object_after(const std::string& json, const std::string& key) {
  const std::size_t k = json.find(key);
  if (k == std::string::npos) return {};
  const std::size_t open = json.find('{', k + key.size());
  const std::size_t close = json.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return {};
  return json.substr(open, close - open + 1);
}

TEST(RegistryHistogram, JsonObjectMatchesTelemetryRenderer) {
  // One bucket layout, one quantile routine, one renderer: the same samples
  // recorded into a registry histogram and a telemetry HistId render to the
  // same JSON summary object, byte for byte.
  namespace tel = obs::telemetry;
  obs::MetricsRegistry reg;
  tel::Telemetry plane;
  for (double s : {3e-9, 40e-9, 2.5e-6, 180e-6, 1.2e-3, 1.25e-3, 0.4, 7.0}) {
    reg.histogram("flow.voice.delay").record_seconds(s);
    plane.hist(tel::HistId::kQueueDelay, 0).record_seconds(s);
  }
  const std::string from_reg =
      object_after(reg.json(), "\"flow.voice.delay\":");
  const std::string from_plane = object_after(
      tel::to_json(plane.snapshot()),
      std::string("\"") + tel::name(tel::HistId::kQueueDelay) + "\":[");
  ASSERT_FALSE(from_reg.empty());
  EXPECT_EQ(from_reg, from_plane);
  EXPECT_NE(from_reg.find("\"count\":8,"), std::string::npos) << from_reg;
  for (const char* key : {"\"p50_s\":", "\"p99_s\":", "\"max_s\":"})
    EXPECT_NE(from_reg.find(key), std::string::npos) << key;
}

// --- MetricsSink drop taxonomy ---------------------------------------------

TEST(MetricsSink, EmitsAllDropCauses) {
  obs::MetricsRegistry reg;
  obs::MetricsSink sink(reg);
  // Every cause counter is materialized as a zero up front — including
  // shed, the overload-admission cause.
  for (const char* name :
       {"sched.drops.buffer_limit", "sched.drops.unknown_flow",
        "sched.drops.fault_loss", "sched.drops.corrupt",
        "sched.drops.pushout", "sched.drops.flow_removed",
        "sched.drops.shed"}) {
    EXPECT_EQ(reg.counter(name).value(), 0u) << name;
  }
  const obs::DropCause causes[] = {
      obs::DropCause::kBufferLimit, obs::DropCause::kUnknownFlow,
      obs::DropCause::kFaultLoss,   obs::DropCause::kCorrupt,
      obs::DropCause::kPushout,     obs::DropCause::kFlowRemoved,
      obs::DropCause::kShed,
  };
  for (obs::DropCause c : causes) {
    TraceEvent e = ev(TraceEventType::kDrop, 1, /*flow=*/0);
    e.drop_cause = c;
    sink.on_event(e);
    sink.on_event(e);
  }
  for (obs::DropCause c : causes) {
    const std::string name = std::string("sched.drops.") + obs::to_string(c);
    EXPECT_EQ(reg.counter(name).value(), 2u) << name;
  }
}

}  // namespace
}  // namespace sfq
