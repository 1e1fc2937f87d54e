#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "core/sfq_scheduler.h"
#include "harness.h"
#include "net/rate_profile.h"
#include "qos/bounds.h"
#include "stats/fairness.h"

namespace sfq {
namespace {

Packet mk(FlowId f, uint64_t seq, double bits, double rate = 0.0) {
  Packet p;
  p.flow = f;
  p.seq = seq;
  p.length_bits = bits;
  p.rate = rate;
  return p;
}

// --- Tag arithmetic (eqs. 4-5) ------------------------------------------

TEST(SfqTags, StartAndFinishTagsFollowEq4And5) {
  SfqScheduler s;
  FlowId f0 = s.add_flow(1.0);
  FlowId f1 = s.add_flow(2.0);

  s.enqueue(mk(f0, 1, 2.0), 0.0);  // S=0, F=2
  s.enqueue(mk(f0, 2, 2.0), 0.0);  // S=2, F=4
  s.enqueue(mk(f1, 1, 2.0), 0.0);  // S=0, F=1
  s.enqueue(mk(f1, 2, 2.0), 0.0);  // S=1, F=2

  EXPECT_DOUBLE_EQ(s.last_finish_tag(f0), 4.0);
  EXPECT_DOUBLE_EQ(s.last_finish_tag(f1), 2.0);

  // Service order by start tag, FIFO on ties: f0p1(S0), f1p1(S0), f1p2(S1),
  // f0p2(S2).
  auto p1 = s.dequeue(0.0);
  ASSERT_TRUE(p1);
  EXPECT_EQ(p1->flow, f0);
  EXPECT_DOUBLE_EQ(p1->start_tag, 0.0);
  EXPECT_DOUBLE_EQ(p1->finish_tag, 2.0);
  EXPECT_DOUBLE_EQ(s.vtime(), 0.0);
  s.on_transmit_complete(*p1, 1.0);

  auto p2 = s.dequeue(1.0);
  ASSERT_TRUE(p2);
  EXPECT_EQ(p2->flow, f1);
  EXPECT_DOUBLE_EQ(p2->start_tag, 0.0);
  s.on_transmit_complete(*p2, 2.0);

  auto p3 = s.dequeue(2.0);
  ASSERT_TRUE(p3);
  EXPECT_EQ(p3->flow, f1);
  EXPECT_DOUBLE_EQ(p3->start_tag, 1.0);
  EXPECT_DOUBLE_EQ(s.vtime(), 1.0);
  s.on_transmit_complete(*p3, 3.0);

  auto p4 = s.dequeue(3.0);
  ASSERT_TRUE(p4);
  EXPECT_EQ(p4->flow, f0);
  EXPECT_DOUBLE_EQ(p4->start_tag, 2.0);
  s.on_transmit_complete(*p4, 4.0);

  // Busy period over: v jumps to the max finish tag serviced (= 4).
  EXPECT_DOUBLE_EQ(s.vtime(), 4.0);
  EXPECT_TRUE(s.empty());
}

TEST(SfqTags, ArrivalToIdleFlowUsesCurrentVirtualTime) {
  SfqScheduler s;
  FlowId f0 = s.add_flow(1.0);
  FlowId f1 = s.add_flow(1.0);

  // f0 builds virtual time while f1 idles.
  for (int j = 1; j <= 4; ++j) s.enqueue(mk(f0, j, 1.0), 0.0);
  for (int j = 0; j < 3; ++j) {
    auto p = s.dequeue(0.0);
    ASSERT_TRUE(p);
    s.on_transmit_complete(*p, 0.0);
  }
  EXPECT_DOUBLE_EQ(s.vtime(), 2.0);  // start tag of 3rd packet

  // f1's first packet starts at v, not at 0: no banked credit from idling.
  s.enqueue(mk(f1, 1, 1.0), 0.0);
  auto p = s.dequeue(0.0);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->flow, f1);
  EXPECT_DOUBLE_EQ(p->start_tag, 2.0);
}

TEST(SfqTags, BusyPeriodEndJumpsToMaxFinish) {
  SfqScheduler s;
  FlowId f0 = s.add_flow(1.0);
  s.enqueue(mk(f0, 1, 5.0), 0.0);  // S=0 F=5
  auto p = s.dequeue(0.0);
  ASSERT_TRUE(p);
  EXPECT_DOUBLE_EQ(s.vtime(), 0.0);
  s.on_transmit_complete(*p, 1.0);
  EXPECT_DOUBLE_EQ(s.vtime(), 5.0);

  // Next busy period: a returning flow cannot reuse its old start tags.
  s.enqueue(mk(f0, 2, 1.0), 2.0);
  auto q = s.dequeue(2.0);
  ASSERT_TRUE(q);
  EXPECT_DOUBLE_EQ(q->start_tag, 5.0);
}

TEST(SfqTags, GeneralizedPerPacketRates) {
  // Eq. 36: F = S + l / r_f^j when the packet carries its own rate.
  SfqScheduler s;
  FlowId f = s.add_flow(1.0);
  s.enqueue(mk(f, 1, 10.0, /*rate=*/5.0), 0.0);  // S=0, F=2
  s.enqueue(mk(f, 2, 10.0, /*rate=*/2.0), 0.0);  // S=2, F=7
  EXPECT_DOUBLE_EQ(s.last_finish_tag(f), 7.0);
  auto p = s.dequeue(0.0);
  ASSERT_TRUE(p);
  EXPECT_DOUBLE_EQ(p->finish_tag, 2.0);
}

TEST(SfqTags, UnknownFlowIsCountedDrop) {
  SfqScheduler s;
  s.enqueue(mk(99, 1, 1.0), 0.0);  // never registered: dropped, not thrown
  EXPECT_EQ(s.unknown_flow_drops(), 1u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.dequeue(0.0));
}

TEST(SfqTags, VirtualTimeIsMonotone) {
  SfqScheduler s;
  FlowId f0 = s.add_flow(1.0);
  FlowId f1 = s.add_flow(3.0);
  double last_v = 0.0;
  uint64_t seq0 = 0, seq1 = 0;
  for (int round = 0; round < 50; ++round) {
    s.enqueue(mk(f0, ++seq0, 1.0 + round % 3), 0.0);
    s.enqueue(mk(f1, ++seq1, 2.0), 0.0);
    if (round % 2 == 0) {
      auto p = s.dequeue(0.0);
      ASSERT_TRUE(p);
      EXPECT_GE(s.vtime(), last_v);
      last_v = s.vtime();
      s.on_transmit_complete(*p, 0.0);
    }
  }
  while (auto p = s.dequeue(0.0)) {
    EXPECT_GE(s.vtime(), last_v);
    last_v = s.vtime();
    s.on_transmit_complete(*p, 0.0);
  }
}

// --- Tie-break policies ---------------------------------------------------

TEST(SfqTieBreak, LowWeightFirstFavorsInteractiveFlows) {
  SfqScheduler s(TieBreak::kLowWeightFirst);
  FlowId heavy = s.add_flow(10.0);
  FlowId light = s.add_flow(1.0);
  s.enqueue(mk(heavy, 1, 1.0), 0.0);  // S=0
  s.enqueue(mk(light, 1, 1.0), 0.0);  // S=0
  auto p = s.dequeue(0.0);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->flow, light);
}

TEST(SfqTieBreak, HighWeightFirst) {
  SfqScheduler s(TieBreak::kHighWeightFirst);
  FlowId heavy = s.add_flow(10.0);
  FlowId light = s.add_flow(1.0);
  s.enqueue(mk(light, 1, 1.0), 0.0);
  s.enqueue(mk(heavy, 1, 1.0), 0.0);
  auto p = s.dequeue(0.0);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->flow, heavy);
}

TEST(SfqTieBreak, FifoBreaksByArrival) {
  SfqScheduler s(TieBreak::kFifo);
  FlowId a = s.add_flow(1.0);
  FlowId b = s.add_flow(1.0);
  s.enqueue(mk(b, 1, 1.0), 0.0);
  s.enqueue(mk(a, 1, 1.0), 0.0);
  auto p = s.dequeue(0.0);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->flow, b);
}

// --- Lemmas 1 & 2 (service vs virtual time) -------------------------------

TEST(SfqLemmas, ServiceBoundsInVirtualTime) {
  // Run a backlogged two-flow system and check
  //   r_f (v2 - v1) - l^max <= W_f <= r_f (v2 - v1) + l^max
  // across the busy period, sampling v at each dequeue.
  SfqScheduler s;
  const double w0 = 1.0, w1 = 3.0, len = 2.0;
  FlowId f0 = s.add_flow(w0);
  FlowId f1 = s.add_flow(w1);
  for (int j = 1; j <= 60; ++j) {
    s.enqueue(mk(f0, j, len), 0.0);
    s.enqueue(mk(f1, j, len), 0.0);
  }
  const double v1 = s.vtime();
  double served0 = 0.0, served1 = 0.0;
  for (int k = 0; k < 60; ++k) {
    auto p = s.dequeue(0.0);
    ASSERT_TRUE(p);
    const double v2 = s.vtime();
    // Check the bounds *before* counting this packet (W counts completed
    // service).
    EXPECT_GE(served0, w0 * (v2 - v1) - len - 1e-9);
    EXPECT_LE(served0, w0 * (v2 - v1) + len + 1e-9);
    EXPECT_GE(served1, w1 * (v2 - v1) - len - 1e-9);
    EXPECT_LE(served1, w1 * (v2 - v1) + len + 1e-9);
    (p->flow == f0 ? served0 : served1) += p->length_bits;
    s.on_transmit_complete(*p, 0.0);
  }
}

// --- Theorem 1: fairness on servers of any rate profile -------------------

struct FairnessCase {
  const char* name;
  double w0, w1;
  double l0, l1;
  std::unique_ptr<net::RateProfile> (*profile)();
};

std::unique_ptr<net::RateProfile> constant_profile() {
  return std::make_unique<net::ConstantRate>(1000.0);
}
std::unique_ptr<net::RateProfile> fc_profile() {
  return std::make_unique<net::FcOnOffRate>(1000.0, 400.0, 0.5);
}
std::unique_ptr<net::RateProfile> ebf_profile() {
  net::EbfRandomRate::Params p;
  p.average = 1000.0;
  p.on_rate = 2500.0;
  p.mean_pause = 0.02;
  p.mean_run = 0.03;
  p.seed = 99;
  return std::make_unique<net::EbfRandomRate>(p);
}
std::unique_ptr<net::RateProfile> step_profile() {
  // Capacity drops to 20% mid-run, then recovers — Example-2 style.
  return std::make_unique<net::PiecewiseConstantRate>(
      std::vector<net::PiecewiseConstantRate::Segment>{
          {0.0, 1000.0}, {2.0, 200.0}, {5.0, 1500.0}});
}

// A named server profile. PrintTo gives the case a stable name: printing the
// bare factory pointer would name it by its load address, which changes from
// run to run.
struct ServerProfile {
  const char* name;
  std::unique_ptr<net::RateProfile> (*make)();
};
void PrintTo(const ServerProfile& p, std::ostream* os) { *os << p.name; }

class SfqFairnessOverServers : public ::testing::TestWithParam<ServerProfile> {
};

TEST_P(SfqFairnessOverServers, TheoremOneHoldsOnAnyServer) {
  SfqScheduler s;
  const double w0 = 100.0, w1 = 300.0;
  const double l0 = 40.0, l1 = 64.0;
  auto r = test::run_workload(
      s, GetParam().make(),
      {{w0, l0, test::Kind::kGreedy}, {w1, l1, test::Kind::kGreedy}}, 8.0);

  const double h = stats::empirical_fairness(r->recorder, r->ids[0], w0,
                                             r->ids[1], w1);
  const double bound = qos::sfq_fairness_bound(l0, w0, l1, w1);
  EXPECT_LE(h, bound + 1e-9);
  // The flows really competed: both served substantially.
  EXPECT_GT(r->recorder.served_bits(r->ids[0]), 0.0);
  EXPECT_GT(r->recorder.served_bits(r->ids[1]), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Profiles, SfqFairnessOverServers,
                         ::testing::Values(
                             ServerProfile{"constant", &constant_profile},
                             ServerProfile{"fc", &fc_profile},
                             ServerProfile{"ebf", &ebf_profile},
                             ServerProfile{"step", &step_profile}));

// Randomized many-flow fairness sweep.
class SfqFairnessRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SfqFairnessRandom, AllPairsWithinTheoremOne) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> wdist(10.0, 500.0);
  std::uniform_real_distribution<double> ldist(16.0, 96.0);
  const int n = 3 + static_cast<int>(rng() % 5);

  SfqScheduler s;
  std::vector<test::FlowCfg> cfgs;
  for (int i = 0; i < n; ++i)
    cfgs.push_back(
        {wdist(rng), ldist(rng), test::Kind::kGreedy});
  auto r = test::run_workload(s, std::make_unique<net::ConstantRate>(2000.0),
                              cfgs, 6.0, GetParam());

  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double h = stats::empirical_fairness(
          r->recorder, r->ids[i], cfgs[i].weight, r->ids[j], cfgs[j].weight);
      const double bound = qos::sfq_fairness_bound(
          cfgs[i].packet_bits, cfgs[i].weight, cfgs[j].packet_bits,
          cfgs[j].weight);
      EXPECT_LE(h, bound + 1e-9)
          << "pair (" << i << "," << j << ") seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SfqFairnessRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Theorems 2 & 4 on an FC server ---------------------------------------

TEST(SfqGuarantees, TheoremTwoThroughputOnFcServer) {
  const double C = 1000.0, delta = 300.0;
  SfqScheduler s;
  const double w0 = 400.0, w1 = 600.0, len = 50.0;
  auto r = test::run_workload(
      s, std::make_unique<net::FcOnOffRate>(C, delta, 0.5),
      {{w0, len, test::Kind::kGreedy}, {w1, len, test::Kind::kGreedy}}, 10.0);

  const double sum_lmax = len + len;
  // Check over a grid of interval lengths within the backlogged window.
  for (double t2 = 0.5; t2 <= 9.5; t2 += 0.5) {
    ASSERT_TRUE(r->recorder.backlogged_throughout(r->ids[0], 0.0, t2));
    const double w = r->recorder.served_bits(r->ids[0], 0.0, t2);
    const double bound = qos::sfq_fc_throughput_lower_bound(
        {C, delta}, w0, sum_lmax, len, 0.0, t2);
    EXPECT_GE(w, bound - 1e-6) << "t2=" << t2;
  }
}

TEST(SfqGuarantees, TheoremFourDelayOnFcServer) {
  const double C = 1000.0, delta = 200.0;
  SfqScheduler s;
  const double len = 50.0;
  // sum of weights <= C as the theorem requires.
  std::vector<test::FlowCfg> cfgs = {
      {300.0, len, test::Kind::kPoisson, 250.0},
      {400.0, len, test::Kind::kPoisson, 350.0},
      {300.0, len, test::Kind::kGreedy},
  };
  auto r = test::run_workload(
      s, std::make_unique<net::FcOnOffRate>(C, delta, 0.5), cfgs, 10.0, 17);

  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const double sum_other = 2.0 * len;  // two other flows, same l^max
    const Time beta =
        qos::sfq_fc_delay_term({C, delta}, sum_other, len);
    EXPECT_LE(r->max_eat_lateness[i], beta + 1e-9) << "flow " << i;
  }
}

}  // namespace
}  // namespace sfq
