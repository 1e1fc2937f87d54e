// SFQ-W (SfqCore::kWheel): the timestamp-wheel ready core. Contracts under
// test (docs/PERFORMANCE.md, "The flow-scale core"):
//   * with a quantum below the inter-tag spacing, the wheel reproduces the
//     exact heap schedule packet for packet;
//   * with any quantum, served start tags regress by less than one
//     quantization window and v(t) stays monotone;
//   * per-flow service over a full drain is identical to the heap core
//     (work conservation is not affected by quantization);
//   * flow-id GC: churned ids retire, become reclaimable once v(t) passes
//     their F_prev, recycle through add_flow, and a rejoin cancels the
//     pending retirement;
//   * factory + config surface: "SFQ-W" requires a positive quantum, the
//     wheel requires FIFO tie-break, quantization_window() reports the
//     quantum, and the config layer derives quantum = l_max / C by default.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <vector>

#include "config/experiment.h"
#include "core/scheduler_factory.h"
#include "core/sfq_scheduler.h"
#include "core/splitmix.h"

namespace sfq {
namespace {

Packet mk(FlowId f, uint64_t seq, double bits) {
  Packet p;
  p.flow = f;
  p.seq = seq;
  p.length_bits = bits;
  return p;
}

SfqScheduler make_wheel(double quantum, bool gc = false) {
  SfqOptions o;
  o.core = SfqCore::kWheel;
  o.wheel_quantum = quantum;
  o.flow_gc = gc;
  return SfqScheduler(o);
}

// Random backlogged workload pushed through both cores; returns the two
// dequeue sequences (flow ids in service order).
struct CoreRun {
  std::vector<FlowId> order;
  std::vector<double> start_tags;
  std::vector<double> flow_bits;
};

CoreRun drive(SfqScheduler& s, uint64_t seed, std::size_t flows,
              std::size_t ops) {
  std::vector<FlowId> ids;
  for (std::size_t f = 0; f < flows; ++f)
    ids.push_back(s.add_flow(100.0 * (1 + f % 3), 400.0));
  CoreRun run;
  run.flow_bits.assign(flows, 0.0);
  SplitMix64 rng(seed);
  uint64_t seq = 1;
  for (std::size_t i = 0; i < ops; ++i) {
    // 2 enqueues : 1 dequeue keeps a growing backlog; drain at the end.
    const FlowId f = ids[rng() % ids.size()];
    const double bits = 100.0 * (1 + rng() % 8);
    s.enqueue(mk(f, seq++, bits), 0.0);
    if (i % 2 == 0) {
      std::optional<Packet> p = s.dequeue(0.0);
      if (p) {
        run.order.push_back(p->flow);
        run.start_tags.push_back(p->start_tag);
        run.flow_bits[p->flow] += p->length_bits;
        s.on_transmit_complete(*p, 0.0);
      }
    }
  }
  while (std::optional<Packet> p = s.dequeue(0.0)) {
    run.order.push_back(p->flow);
    run.start_tags.push_back(p->start_tag);
    run.flow_bits[p->flow] += p->length_bits;
    s.on_transmit_complete(*p, 0.0);
  }
  return run;
}

TEST(SfqWheel, TinyQuantumReproducesTheHeapTagSequence) {
  // With one tick far below the smallest tag increment (100 bits / 300 ≈
  // 0.33 vs), quantization cannot merge distinct tags, so the wheel serves
  // the exact same start-tag sequence as the heap and every flow receives
  // identical service. (Within a group of equal tags the two cores may
  // still order packets differently — the heap breaks ties by global
  // arrival order, the wheel by when each flow's head entered the bucket —
  // so per-packet order equality is deliberately not asserted.)
  for (const uint64_t seed : {11ull, 22ull, 33ull}) {
    SfqScheduler heap{SfqOptions{}};
    SfqScheduler wheel = make_wheel(1e-4);
    const CoreRun a = drive(heap, seed, 6, 4000);
    const CoreRun b = drive(wheel, seed, 6, 4000);
    ASSERT_EQ(a.start_tags.size(), b.start_tags.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.start_tags.size(); ++i) {
      // Tolerance, not exact equality: the two cores maintain v(t) through
      // different expressions (assignment vs monotone max), so 1-ulp
      // differences seep into the max(v, F_prev) tag chains.
      ASSERT_NEAR(a.start_tags[i], b.start_tags[i], 1e-9)
          << "seed " << seed << " index " << i;
    }
    ASSERT_EQ(a.flow_bits, b.flow_bits) << "seed " << seed;
  }
}

TEST(SfqWheel, CoarseQuantumKeepsOrderSlackAndServiceExact) {
  // A deliberately coarse quantum: schedules may differ, but (1) served
  // start tags never regress by a full window, (2) total service per flow
  // over the complete drain matches the heap exactly (same packets served).
  const double quantum = 2.0;
  for (const uint64_t seed : {5ull, 6ull}) {
    SfqScheduler heap{SfqOptions{}};
    SfqScheduler wheel = make_wheel(quantum);
    const CoreRun a = drive(heap, seed, 6, 4000);
    const CoreRun b = drive(wheel, seed, 6, 4000);
    double high = 0.0;
    for (const double tag : b.start_tags) {
      EXPECT_GT(tag, high - quantum - 1e-9);
      if (tag > high) high = tag;
    }
    ASSERT_EQ(a.flow_bits, b.flow_bits) << "seed " << seed;
    ASSERT_EQ(a.order.size(), b.order.size());
  }
}

TEST(SfqWheel, VtimeStaysMonotoneAcrossIntraBucketRegressions) {
  SfqScheduler wheel = make_wheel(5.0);
  const FlowId a = wheel.add_flow(100.0, 400.0);
  const FlowId b = wheel.add_flow(100.0, 400.0);
  uint64_t seq = 1;
  double last_v = 0.0;
  for (int i = 0; i < 50; ++i) {
    wheel.enqueue(mk(a, seq++, 400.0), 0.0);
    wheel.enqueue(mk(b, seq++, 100.0), 0.0);
    while (std::optional<Packet> p = wheel.dequeue(0.0)) {
      EXPECT_GE(wheel.vtime(), last_v);
      last_v = wheel.vtime();
      wheel.on_transmit_complete(*p, 0.0);
    }
  }
}

TEST(SfqWheel, ReportsQuantizationWindowAndName) {
  SfqScheduler wheel = make_wheel(0.25);
  EXPECT_EQ(wheel.name(), "SFQ-W");
  EXPECT_DOUBLE_EQ(wheel.quantization_window(), 0.25);
  SfqScheduler heap{SfqOptions{}};
  EXPECT_EQ(heap.name(), "SFQ");
  EXPECT_DOUBLE_EQ(heap.quantization_window(), 0.0);
}

TEST(SfqWheel, RejectsNonFifoTieBreakAndMissingQuantum) {
  SfqOptions bad;
  bad.core = SfqCore::kWheel;
  bad.wheel_quantum = 1.0;
  bad.tie_break = TieBreak::kLowWeightFirst;
  EXPECT_THROW(SfqScheduler{bad}, std::invalid_argument);

  SchedulerOptions so;  // factory: SFQ-W without a quantum is an error
  EXPECT_THROW(make_scheduler("SFQ-W", so), std::invalid_argument);
  so.sfq_wheel_quantum = 0.01;
  const auto sched = make_scheduler("SFQ-W", so);
  EXPECT_EQ(sched->name(), "SFQ-W");
  EXPECT_DOUBLE_EQ(sched->quantization_window(), 0.01);
}

TEST(SfqWheel, GcRecyclesIdsOnceTagSafe) {
  SfqScheduler s = make_wheel(0.5, /*gc=*/true);
  const FlowId keeper = s.add_flow(100.0, 400.0);
  const FlowId churn = s.add_flow(100.0, 400.0);

  // Give the churned flow history: serve one packet so F_prev > 0. Queue a
  // keeper packet before completing it, so the scheduler never goes fully
  // empty (the end-of-busy-period rule would jump v(t) straight to F_prev).
  s.enqueue(mk(churn, 1, 400.0), 0.0);
  std::optional<Packet> p = s.dequeue(0.0);
  ASSERT_TRUE(p);
  s.enqueue(mk(keeper, 2, 400.0), 0.0);
  s.on_transmit_complete(*p, 0.0);
  const double f_prev = s.last_finish_tag(churn);
  ASSERT_GT(f_prev, 0.0);

  s.remove_flow(churn, 0.0);
  EXPECT_EQ(s.gc_pending(), 1u);

  // v(t) has not reached F_prev yet: a new flow must NOT reuse the id.
  ASSERT_LT(s.vtime(), f_prev);
  const FlowId fresh = s.add_flow(100.0, 400.0);
  EXPECT_NE(fresh, churn);
  EXPECT_EQ(s.gc_pending(), 1u);

  // Run the keeper until v(t) passes F_prev, then the next add reclaims.
  uint64_t seq = 10;
  while (s.vtime() < f_prev) {
    s.enqueue(mk(keeper, seq++, 400.0), 0.0);
    p = s.dequeue(0.0);
    ASSERT_TRUE(p);
    s.on_transmit_complete(*p, 0.0);
  }
  const FlowId recycled = s.add_flow(100.0, 400.0);
  EXPECT_EQ(recycled, churn);
  EXPECT_EQ(s.gc_pending(), 0u);

  // The recycled flow starts a fresh tag chain at v(t) — identical to the
  // paper's rejoin rule since F_prev <= v(t) held at reclaim time.
  s.enqueue(mk(recycled, 1, 400.0), 0.0);
  p = s.dequeue(0.0);
  ASSERT_TRUE(p);
  EXPECT_GE(p->start_tag, f_prev);
  EXPECT_DOUBLE_EQ(p->start_tag, s.vtime());
  s.on_transmit_complete(*p, 0.0);
}

TEST(SfqWheel, RejoinCancelsPendingRetirement) {
  SfqScheduler s = make_wheel(0.5, /*gc=*/true);
  s.add_flow(100.0, 400.0);
  const FlowId f = s.add_flow(100.0, 400.0);
  s.remove_flow(f, 0.0);
  EXPECT_EQ(s.gc_pending(), 1u);
  s.rejoin_flow(f, 0.0);  // the sharded engine parks ids this way
  EXPECT_EQ(s.gc_pending(), 0u);
  EXPECT_TRUE(s.flows().active(f));
  // The id must survive subsequent adds (no reclaim happened).
  const FlowId next = s.add_flow(100.0, 400.0);
  EXPECT_NE(next, f);
}

TEST(SfqWheel, RepeatedRemovalIsIdempotent) {
  SfqScheduler s = make_wheel(0.5, /*gc=*/true);
  s.add_flow(100.0, 400.0);
  const FlowId f = s.add_flow(100.0, 400.0);
  s.remove_flow(f, 0.0);
  s.rejoin_flow(f, 0.0);
  s.remove_flow(f, 0.0);  // retire again after a rejoin: exactly one entry
  EXPECT_EQ(s.gc_pending(), 1u);
  const FlowId recycled = s.add_flow(100.0, 400.0);  // F_prev = 0 <= v
  EXPECT_EQ(recycled, f);
  EXPECT_EQ(s.gc_pending(), 0u);
}

TEST(SfqWheel, ConfigDerivesQuantumAndWidensTheFairnessBound) {
  // The config layer: `scheduler SFQ-W` defaults the quantum to l_max / C,
  // an explicit `quantum=` overrides, and run_experiment reports the window
  // and folds 2*window into the fairness bound.
  const std::string text = R"(
scheduler SFQ-W
link rate=1Mbps
duration 3s
flow name=a kind=greedy packet=500B weight=250Kbps
flow name=b kind=greedy packet=250B weight=750Kbps
)";
  std::istringstream in(text);
  config::ExperimentSpec spec = config::ExperimentSpec::parse(in);
  EXPECT_EQ(spec.scheduler, "SFQ-W");
  // l_max = 500 B = 4000 bits over the 1 Mb/s link.
  EXPECT_DOUBLE_EQ(config::sfq_wheel_quantum(spec), 4000.0 / 1e6);

  spec.sfq_quantum = 0.1;
  EXPECT_DOUBLE_EQ(config::sfq_wheel_quantum(spec), 0.1);
  const std::string round = spec.serialize();
  EXPECT_NE(round.find("scheduler SFQ-W quantum="), std::string::npos);
  std::istringstream in2(round);
  EXPECT_DOUBLE_EQ(config::ExperimentSpec::parse(in2).sfq_quantum, 0.1);

  spec.sfq_quantum = 0.0;
  const config::ExperimentResult res = config::run_experiment(spec);
  EXPECT_DOUBLE_EQ(res.quantization_window, 4000.0 / 1e6);
  // Overloaded greedy flows: Theorem 1 + the 2*window slack must hold, and
  // the weighted shares come out as configured.
  EXPECT_LE(res.worst_fairness_ratio, 1.0 + 1e-9);
  ASSERT_EQ(res.flows.size(), 2u);
  EXPECT_NEAR(res.flows[0].throughput, 250e3, 15e3);
  EXPECT_NEAR(res.flows[1].throughput, 750e3, 15e3);
}

TEST(SfqWheel, ConfigRejectsQuantumOnOtherSchedulersAndBadValues) {
  {
    std::istringstream in(std::string(
        "scheduler SFQ quantum=10ms\nlink rate=1Mbps\nduration 1s\n"
        "flow name=a kind=cbr rate=100Kbps packet=500B\n"));
    EXPECT_THROW(config::ExperimentSpec::parse(in), std::invalid_argument);
  }
  {
    std::istringstream in(std::string(
        "scheduler SFQ-W quantum=0s\nlink rate=1Mbps\nduration 1s\n"
        "flow name=a kind=cbr rate=100Kbps packet=500B\n"));
    EXPECT_THROW(config::ExperimentSpec::parse(in), std::invalid_argument);
  }
}

}  // namespace
}  // namespace sfq
