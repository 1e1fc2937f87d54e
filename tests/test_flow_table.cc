// FlowTable (src/core/flow_table.*): the flat flow registry behind every
// scheduler. Pins the three behaviours this PR fixed:
//   * flow-id recycling — reclaim() returns slots to a free list, so churn
//     no longer grows the table (the flow-id leak: before, remove_flow just
//     deactivated and every add grew the slot vector forever);
//   * incremental aggregates — total_weight()/total_max_packet_bits()/
//     sum_other_max_packets() are O(1) maintained values (formerly O(n)
//     scans per call) and must stay exactly consistent with a manual scan
//     under arbitrary add/reclaim/set_active interleavings;
//   * the unified out-of-range contract — active()/contains() total and
//     non-throwing for ANY id (kInvalidFlow included), spec()/weight()/
//     set_active() throwing std::out_of_range for any non-live id (formerly
//     active() silently returned false past the end while spec() threw,
//     and a dead slot's stale spec was readable).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "core/flow_table.h"
#include "core/splitmix.h"
#include "core/sfq_scheduler.h"

namespace sfq {
namespace {

// ---- Satellite 1: the flow-id leak -----------------------------------------

TEST(FlowTable, ChurnCyclesDoNotGrowTheTable) {
  // 100k add/reclaim cycles against a 4-flow steady population. With the
  // free list, the slot universe stays at its high-water mark (5); the
  // pre-fix behaviour grew it by one slot per cycle (~100k slots).
  FlowTable t;
  for (int i = 0; i < 4; ++i) t.add(10.0, 100.0);
  for (int cycle = 0; cycle < 100'000; ++cycle) {
    const FlowId id = t.add(5.0, 50.0);
    t.reclaim(id);
  }
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.live_count(), 4u);
}

TEST(FlowTable, ReclaimIsLifoAndDeterministic) {
  FlowTable t;
  const FlowId a = t.add(1.0);
  const FlowId b = t.add(2.0);
  const FlowId c = t.add(3.0);
  t.reclaim(a);
  t.reclaim(c);
  // LIFO free list: the most recently reclaimed id comes back first.
  EXPECT_EQ(t.add(4.0), c);
  EXPECT_EQ(t.add(5.0), a);
  EXPECT_EQ(t.add(6.0), 3u);  // free list empty: extend the universe
  EXPECT_TRUE(t.contains(b));
  EXPECT_EQ(t.size(), 4u);
}

TEST(SfqSchedulerGc, BoundedTableAfter100kChurnCycles) {
  // End-to-end flavour of the same fix: SFQ with flow_gc removes and
  // re-registers a flow 100k times. Retired ids become reclaimable once
  // v(t) >= their F_prev (immediately here: the churned flow never queues a
  // packet), so the table stays at its high-water mark instead of leaking
  // one id per cycle.
  SfqOptions opts;
  opts.flow_gc = true;
  SfqScheduler sched(opts);
  sched.add_flow(100.0, 60.0);  // a bystander that stays put
  FlowId id = sched.add_flow(100.0, 60.0);
  for (int cycle = 0; cycle < 100'000; ++cycle) {
    sched.remove_flow(id, 0.0);
    const FlowId fresh = sched.add_flow(100.0, 60.0);
    ASSERT_EQ(fresh, id) << "cycle " << cycle;  // recycled, not leaked
    id = fresh;
  }
  EXPECT_EQ(sched.flows().size(), 2u);
  EXPECT_EQ(sched.gc_pending(), 0u);
}

// ---- Satellite 2: incremental aggregates -----------------------------------

// Manual scan over the slot vector — the pre-fix definition of the
// aggregates, kept here as the oracle.
double scan_total_weight(const FlowTable& t) {
  double sum = 0.0;
  for (const FlowSpec& s : t.slots())
    if (s.id != kInvalidFlow && s.active) sum += s.weight;
  return sum;
}
double scan_total_max_packet_bits(const FlowTable& t) {
  double sum = 0.0;
  for (const FlowSpec& s : t.slots())
    if (s.id != kInvalidFlow && s.active) sum += s.max_packet_bits;
  return sum;
}

TEST(FlowTable, AggregatesMatchScanUnderRandomChurn) {
  FlowTable t;
  std::vector<FlowId> live;
  SplitMix64 rng(42);
  for (int op = 0; op < 50'000; ++op) {
    const unsigned pick = rng() % 100;
    if (pick < 40 || live.empty()) {
      const double w = 1.0 + static_cast<double>(rng() % 1000);
      const double l = static_cast<double>(rng() % 16) * 100.0;
      live.push_back(t.add(w, l));
    } else if (pick < 60) {
      const std::size_t k = rng() % live.size();
      t.reclaim(live[k]);
      live[k] = live.back();
      live.pop_back();
    } else {
      const FlowId f = live[rng() % live.size()];
      t.set_active(f, rng() % 2 == 0);
    }
    if (op % 1000 == 0) {
      // The incremental values drift by at most a few ulps between the
      // periodic exact rebuilds; the tolerance below is far tighter than
      // anything an admission check (sum r_n <= C) could resolve.
      ASSERT_NEAR(t.total_weight(), scan_total_weight(t),
                  1e-6 * (1.0 + scan_total_weight(t)))
          << "op " << op;
      ASSERT_NEAR(t.total_max_packet_bits(), scan_total_max_packet_bits(t),
                  1e-6 * (1.0 + scan_total_max_packet_bits(t)))
          << "op " << op;
    }
  }
  // After the dust settles the relationship sum_other = total - own must
  // hold exactly for every live flow (it is computed from the same value).
  for (const FlowId f : live) {
    if (t.active(f)) {
      EXPECT_DOUBLE_EQ(t.sum_other_max_packets(f),
                       t.total_max_packet_bits() - t.spec(f).max_packet_bits);
    }
  }
}

TEST(FlowTable, DepartedFlowReleasesItsAggregateShare) {
  FlowTable t;
  const FlowId a = t.add(30.0, 300.0);
  const FlowId b = t.add(10.0, 100.0);
  EXPECT_DOUBLE_EQ(t.total_weight(), 40.0);
  EXPECT_DOUBLE_EQ(t.sum_other_max_packets(a), 100.0);
  t.set_active(b, false);
  EXPECT_DOUBLE_EQ(t.total_weight(), 30.0);
  EXPECT_DOUBLE_EQ(t.total_max_packet_bits(), 300.0);
  // An inactive flow contributes nothing — including to its own exclusion.
  EXPECT_DOUBLE_EQ(t.sum_other_max_packets(b), 300.0);
  t.set_active(b, true);
  EXPECT_DOUBLE_EQ(t.total_weight(), 40.0);
  t.reclaim(b);
  EXPECT_DOUBLE_EQ(t.total_weight(), 30.0);
  EXPECT_DOUBLE_EQ(t.total_max_packet_bits(), 300.0);
}

// ---- Satellite 3: the unified out-of-range contract ------------------------

TEST(FlowTable, QueriesAreTotalAndAccessorsThrowForNonLiveIds) {
  FlowTable t;
  const FlowId a = t.add(1.0, 10.0);
  const FlowId dead = t.add(2.0, 20.0);
  t.reclaim(dead);

  // Total, non-throwing queries — any id whatsoever.
  EXPECT_TRUE(t.contains(a));
  EXPECT_TRUE(t.active(a));
  EXPECT_FALSE(t.contains(dead));
  EXPECT_FALSE(t.active(dead));
  EXPECT_FALSE(t.contains(t.size()));
  EXPECT_FALSE(t.active(t.size()));
  EXPECT_FALSE(t.contains(t.size() + 1000));
  EXPECT_FALSE(t.contains(kInvalidFlow));
  EXPECT_FALSE(t.active(kInvalidFlow));

  // Throwing accessors — out_of_range for every class of non-live id.
  EXPECT_THROW(t.spec(dead), std::out_of_range);
  EXPECT_THROW(t.weight(dead), std::out_of_range);
  EXPECT_THROW(t.set_active(dead, true), std::out_of_range);
  EXPECT_THROW(t.spec(t.size()), std::out_of_range);
  EXPECT_THROW(t.weight(t.size() + 7), std::out_of_range);
  EXPECT_THROW(t.spec(kInvalidFlow), std::out_of_range);
  EXPECT_THROW(t.set_active(kInvalidFlow, false), std::out_of_range);

  // A dead slot is invisible through slots() iteration guards too.
  for (const FlowSpec& s : t.slots()) {
    if (s.id == kInvalidFlow) {
      EXPECT_FALSE(s.active);
    }
  }
}

TEST(FlowTable, KeyIndexSurvivesReclaimAndRejectsDuplicates) {
  FlowTable t;
  const FlowId a = t.add(1.0);
  const FlowId b = t.add(2.0);
  t.bind_key(1111, a);
  t.bind_key(2222, b);
  EXPECT_EQ(t.find(1111), a);
  EXPECT_EQ(t.find(2222), b);
  EXPECT_EQ(t.find(3333), kInvalidFlow);

  EXPECT_THROW(t.bind_key(1111, b), std::invalid_argument);  // key taken
  EXPECT_THROW(t.bind_key(4444, a), std::invalid_argument);  // flow keyed
  EXPECT_THROW(t.bind_key(5555, kInvalidFlow), std::out_of_range);

  t.reclaim(a);  // unbinds automatically
  EXPECT_EQ(t.find(1111), kInvalidFlow);
  const FlowId reused = t.add(3.0);
  EXPECT_EQ(reused, a);
  EXPECT_EQ(t.find(1111), kInvalidFlow);  // the recycled id is NOT the old key
  t.bind_key(1111, reused);               // ...but the key is free to rebind
  EXPECT_EQ(t.find(1111), reused);
}

TEST(FlowTable, KeyIndexHandlesCollisionChurnAtScale) {
  // Thousands of bind/unbind cycles through reclaim stress the linear-probe
  // backward-shift deletion: every surviving key must stay findable.
  FlowTable t;
  t.reserve(512);
  std::vector<std::pair<uint64_t, FlowId>> bound;
  SplitMix64 rng(7);
  for (int op = 0; op < 20'000; ++op) {
    if (bound.size() < 256 && (bound.empty() || rng() % 3 != 0)) {
      const uint64_t key = rng() | 1;
      const FlowId id = t.add(1.0);
      t.bind_key(key, id);
      bound.emplace_back(key, id);
    } else {
      const std::size_t k = rng() % bound.size();
      t.reclaim(bound[k].second);
      bound[k] = bound.back();
      bound.pop_back();
    }
    if (op % 500 == 0) {
      for (const auto& [key, id] : bound)
        ASSERT_EQ(t.find(key), id) << "op " << op;
    }
  }
  for (const auto& [key, id] : bound) ASSERT_EQ(t.find(key), id);
}

}  // namespace
}  // namespace sfq
