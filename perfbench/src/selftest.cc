// Unit tests for the benchmark's own helpers: window statistics, span
// arithmetic and the traced-run Scheduler decorator.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/sfq_scheduler.h"
#include "layers.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sfq::FlowId;
using sfq::Packet;

double sorted_reference(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

TEST(WindowStats, QuantileMatchesSortedReference) {
  uint64_t s = 7;
  for (std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 1001u}) {
    std::vector<double> v(n);
    for (double& x : v) x = std::floor(unit_draw(s) * 50.0);  // with ties
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      std::vector<double> w = v;
      EXPECT_EQ(quantile(w, q), sorted_reference(v, q)) << n << " " << q;
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(quantile(empty, 0.5), 0.0);
}

TEST(WindowStats, MedianAndMinimum) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(min_of({3.0, 1.0, 2.0}), 1.0);
  EXPECT_EQ(min_of({}), 0.0);
}

TEST(WindowStats, HistDeltaIsBucketwiseDifference) {
  sfq::obs::telemetry::HistogramSnapshot a, b;
  a.counts = {1, 2, 3};
  a.count = 6;
  a.sum_ns = 60;
  b.counts = {1, 5, 4};
  b.count = 10;
  b.sum_ns = 100;
  const auto d = hist_delta(a, b);
  EXPECT_EQ(d.counts, (std::vector<uint64_t>{0, 3, 1}));
  EXPECT_EQ(d.count, 4u);
  EXPECT_EQ(d.sum_ns, 40u);
  EXPECT_EQ(hist_delta({}, b).count, 10u);  // nothing recorded before
}

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren) {
  const Span parent{1, kPacket, 0.0, 10.0};
  EXPECT_DOUBLE_EQ(self_time(parent, {}), 10.0);
  EXPECT_DOUBLE_EQ(self_time(parent, {{1, kOffer, 1.0, 3.0},
                                      {1, kSchedEnqueue, 5.0, 6.0}}),
                   7.0);
  // Overlap counts once; children are clipped to the parent.
  EXPECT_DOUBLE_EQ(self_time(parent, {{1, kSchedDequeue, 2.0, 4.0},
                                      {1, kOffer, 1.0, 3.0},
                                      {1, kPacingFinish, 8.0, 12.0},
                                      {1, kSchedComplete, -1.0, 0.5}}),
                   10.0 - (0.5 + 3.0 + 2.0));
  // A child nested in another adds nothing.
  EXPECT_DOUBLE_EQ(self_time(parent, {{1, kOffer, 1.0, 9.0},
                                      {1, kSchedEnqueue, 2.0, 3.0}}),
                   2.0);
  // A child wholly outside the parent is ignored.
  EXPECT_DOUBLE_EQ(self_time(parent, {{1, kOffer, 11.0, 12.0}}), 10.0);
}

TEST(Spans, PacketSelfTimesStitchRootFromOfferAndCompletion) {
  SpanLog producer, dispatcher;
  producer.add(64, kOffer, 1.0, 2.0);
  dispatcher.add(64, kSchedEnqueue, 3.0, 4.0);
  dispatcher.add(64, kPacket, 9.0, 9.0);  // completion marker
  dispatcher.add(128, kSchedEnqueue, 3.0, 4.0);  // no root: skipped
  const std::vector<double> self = packet_self_times({&producer, &dispatcher});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_DOUBLE_EQ(self[0], (9.0 - 1.0) - 1.0 - 1.0);
}

// The decorator must not change a single scheduling decision.
TEST(TimedSchedulerTest, DequeueSequenceMatchesBareSfq) {
  constexpr int kFlows = 12;
  sfq::SfqScheduler bare;
  SpanClock clk;
  SpanLog log;
  TimedScheduler timed(std::make_unique<sfq::SfqScheduler>(), clk, &log);
  uint64_t s = 42;
  for (int f = 0; f < kFlows; ++f) {
    const double w = 1e6 * static_cast<double>(1 + mix64(s) % 8);
    EXPECT_EQ(bare.add_flow(w, 12000.0, {}), timed.add_flow(w, 12000.0, {}));
  }
  std::vector<bool> away(kFlows, false);
  std::optional<Packet> in_service_bare, in_service_timed;
  double now = 0.0;
  uint64_t seq = 0, dequeued = 0;
  for (int step = 0; step < 20000; ++step) {
    now += 1e-5 * unit_draw(s);
    const uint64_t op = mix64(s) % 10;
    if (op < 5) {
      Packet p;
      p.flow = static_cast<FlowId>(mix64(s) % kFlows);
      p.seq = ++seq;
      p.length_bits = 1000.0 + static_cast<double>(mix64(s) % 11000);
      p.arrival = now;
      EXPECT_EQ(bare.enqueue(p, now), timed.enqueue(p, now));
    } else if (op < 9) {
      if (in_service_bare) {
        bare.on_transmit_complete(*in_service_bare, now);
        timed.on_transmit_complete(*in_service_timed, now);
      }
      in_service_bare = bare.dequeue(now);
      in_service_timed = timed.dequeue(now);
      ASSERT_EQ(in_service_bare.has_value(), in_service_timed.has_value());
      if (in_service_bare) {
        ++dequeued;
        EXPECT_EQ(in_service_bare->flow, in_service_timed->flow);
        EXPECT_EQ(in_service_bare->seq, in_service_timed->seq);
        EXPECT_EQ(in_service_bare->start_tag, in_service_timed->start_tag);
        EXPECT_EQ(in_service_bare->finish_tag, in_service_timed->finish_tag);
      }
    } else {
      const auto f = static_cast<FlowId>(mix64(s) % kFlows);
      if (away[f]) {
        bare.rejoin_flow(f, now);
        timed.rejoin_flow(f, now);
      } else {
        EXPECT_EQ(bare.remove_flow(f, now).size(),
                  timed.remove_flow(f, now).size());
      }
      away[f] = !away[f];
      EXPECT_EQ(timed.flows().active(f), bare.flows().active(f));
    }
    ASSERT_EQ(bare.backlog_packets(), timed.backlog_packets());
  }
  EXPECT_GT(dequeued, 4000u);
  const TimedScheduler::Snap snap = timed.snap();
  EXPECT_EQ(snap.enqueue.calls + 0, static_cast<uint64_t>(seq));
  EXPECT_GT(snap.churn.calls, 0u);
  EXPECT_FALSE(log.spans().empty());
}

}  // namespace
}  // namespace perfbench
