// Multi-producer ingress (rt/ingress.h): the dispatcher's earliest-stamp
// merge over P rings, the lowest-index tie-break capture/replay relies on,
// in-place peek/pop across ring wraparound, the slot's contents, batched
// slot release, the abandon count, and a two-producer run of the in-place
// consumer (the case scripts/tsan.sh exists for).
#include "rt/ingress.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

namespace sfq::rt {
namespace {

Packet make_packet(FlowId flow, uint64_t seq) {
  Packet p{};
  p.flow = flow;
  p.seq = seq;
  p.length_bits = 512.0;
  return p;
}

// Drains every visible item through peek_earliest/pop, recording
// (stamp, ring, seq) in merge order.
std::vector<std::tuple<Time, std::size_t, uint64_t>> drain(Ingress& in) {
  std::vector<std::tuple<Time, std::size_t, uint64_t>> out;
  std::size_t ring = 0;
  while (const IngressSlot* p = in.peek_earliest(ring)) {
    out.emplace_back(p->arrival, ring, p->seq);
    in.pop(ring);
  }
  return out;
}

TEST(Ingress, MergesByEarliestStampOverOneToEightRings) {
  for (std::size_t producers = 1; producers <= 8; ++producers) {
    SCOPED_TRACE(producers);
    constexpr std::size_t kPerRing = 64;
    Ingress in(producers, kPerRing);
    std::mt19937 rng(static_cast<uint32_t>(producers));
    // Stamps from a small integer grid: each producer's are non-decreasing
    // (a producer stamps its own pushes in order) and collide across rings.
    std::vector<std::tuple<Time, std::size_t, uint64_t>> expect;
    for (std::size_t i = 0; i < producers; ++i) {
      Time t = 0.0;
      for (uint64_t k = 0; k < kPerRing; ++k) {
        t += static_cast<double>(rng() % 3);
        ASSERT_TRUE(in.push(i, make_packet(0, k), t));
        expect.emplace_back(t, i, k);
      }
    }
    // The merge is a k-way merge of sorted runs with ties to the lowest
    // ring: exactly the (stamp, ring, per-ring order) sort.
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(drain(in), expect);
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(in.total_pushed(), producers * kPerRing);
  }
}

TEST(Ingress, EqualStampsGoToTheLowestRing) {
  Ingress in(4, 4);
  for (std::size_t i = 4; i-- > 0;)  // push highest ring first
    ASSERT_TRUE(in.push(i, make_packet(static_cast<FlowId>(i), 0), 1.0));
  std::size_t ring = 99;
  const IngressSlot* head = in.peek_earliest(ring);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(ring, 0u);
  EXPECT_EQ(head->flow, 0u);
  const auto order = drain(in);
  ASSERT_EQ(order.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(std::get<1>(order[i]), i);

  // An earlier stamp on a higher ring still wins over a later one below it.
  ASSERT_TRUE(in.push(0, make_packet(0, 1), 3.0));
  ASSERT_TRUE(in.push(3, make_packet(3, 1), 2.0));
  ASSERT_NE(in.peek_earliest(ring), nullptr);
  EXPECT_EQ(ring, 3u);
}

TEST(Ingress, InPlacePeekAndPopAcrossWraparound) {
  Ingress in(2, 4);
  ASSERT_EQ(in.ring_capacity(), 4u);
  std::size_t ring = 99;
  EXPECT_EQ(in.peek_earliest(ring), nullptr);
  EXPECT_EQ(ring, 99u);  // untouched when nothing is visible
  uint64_t seq[2] = {0, 0};
  uint64_t next[2] = {0, 0};
  Time t = 0.0;
  // 3 in, 3 out per round: the free-running indices pass the 4-slot ring
  // many times over, so heads sit at every slot position.
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 3; ++k) {
      const std::size_t i = static_cast<std::size_t>((round + k) % 2);
      t += 1.0;
      ASSERT_TRUE(in.push(i, make_packet(static_cast<FlowId>(i), seq[i]++), t));
    }
    for (int k = 0; k < 3; ++k) {
      const IngressSlot* head = in.peek_earliest(ring);
      ASSERT_NE(head, nullptr);
      // The head is read where it lies: peeking again yields the same slot
      // until pop() releases it.
      EXPECT_EQ(in.peek_earliest(ring), head);
      EXPECT_EQ(head->flow, ring);
      EXPECT_EQ(head->seq, next[ring]++);
      EXPECT_EQ(head->length_bits, 512.0);
      in.pop(ring);
    }
    EXPECT_EQ(in.peek_earliest(ring), nullptr);
  }
  EXPECT_EQ(in.total_pushed(), 150u);
  EXPECT_EQ(in.total_drops(), 0u);
}

TEST(Ingress, PushStampsArrivalAndCountsFullRings) {
  Ingress in(1, 2);
  Packet p = make_packet(5, 1);
  p.arrival = -7.0;  // overwritten: the producer-side stamp is the arrival
  ASSERT_TRUE(in.push(0, p, 0.25));
  ASSERT_TRUE(in.push(0, p, 0.5));
  EXPECT_FALSE(in.push(0, p, 0.75));                       // counted
  EXPECT_FALSE(in.push(0, p, 1.0, /*count_full=*/false));  // not counted
  in.count_drop(0);
  EXPECT_EQ(in.pushed(0), 2u);
  EXPECT_EQ(in.drops(0), 2u);
  std::size_t ring = 0;
  const IngressSlot* head = in.peek_earliest(ring);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->arrival, 0.25);
}

// The slot carries exactly what rt reads: flow, seq, length and rate
// round-trip, and arrival is the push stamp, whatever the packet held.
TEST(Ingress, SlotRoundTripsTheFieldsRtReads) {
  Ingress in(1, 4);
  Packet p = make_packet(7, 42);
  p.length_bits = 1234.5;
  p.rate = 2.5e6;
  p.arrival = -1.0;
  p.start_tag = 9.0;  // scheduler-owned; not carried
  p.hops = 3;         // simulator-owned; not carried
  ASSERT_TRUE(in.push(0, p, 0.125));
  std::size_t ring = 99;
  const IngressSlot* slot = in.peek_earliest(ring);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(ring, 0u);
  EXPECT_EQ(slot->flow, 7u);
  EXPECT_EQ(slot->seq, 42u);
  EXPECT_EQ(slot->length_bits, 1234.5);
  EXPECT_EQ(slot->rate, 2.5e6);
  EXPECT_EQ(slot->arrival, 0.125);
}

// pop() does not hand the slot back: the dispatcher's empty() already reads
// the rings as drained, while the producer still finds the popped slots
// taken until release().
TEST(Ingress, EmptyRightAfterDrainingBeforeRelease) {
  Ingress in(2, 4);
  ASSERT_TRUE(in.push(1, make_packet(1, 0), 1.0));
  ASSERT_TRUE(in.push(0, make_packet(0, 0), 2.0));
  ASSERT_TRUE(in.push(0, make_packet(0, 1), 3.0));
  // Ring 0's last head is the batch's last pop, so no later peek catches up
  // with ring 0's tail (which would release it).
  std::size_t ring = 0;
  for (const std::size_t expect : {1u, 0u, 0u}) {
    ASSERT_NE(in.peek_earliest(ring), nullptr);
    EXPECT_EQ(ring, expect);
    in.pop(ring);
  }
  EXPECT_TRUE(in.empty());
  // Ring 0 holds two popped, unreleased slots: two of its four are free.
  EXPECT_TRUE(in.push(0, make_packet(0, 2), 4.0));
  EXPECT_TRUE(in.push(0, make_packet(0, 3), 4.0));
  EXPECT_FALSE(in.push(0, make_packet(0, 4), 4.0));
  EXPECT_FALSE(in.empty());
  in.release();
  EXPECT_TRUE(in.push(0, make_packet(0, 4), 5.0));
  EXPECT_EQ(in.drops(0), 1u);
}

TEST(Ingress, DiscardAllCountsEveryVisibleItem) {
  Ingress in(3, 8);
  EXPECT_EQ(in.discard_all(), 0u);
  for (uint64_t k = 0; k < 5; ++k) ASSERT_TRUE(in.push(0, make_packet(0, k), 1.0));
  for (uint64_t k = 0; k < 8; ++k) ASSERT_TRUE(in.push(2, make_packet(2, k), 1.0));
  std::size_t ring = 0;
  ASSERT_NE(in.peek_earliest(ring), nullptr);
  in.pop(ring);  // one consumed normally first
  EXPECT_EQ(in.discard_all(), 12u);
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(in.peek_earliest(ring), nullptr);
  // The rings are reusable afterwards, and the push ledger is untouched.
  ASSERT_TRUE(in.push(1, make_packet(1, 0), 2.0));
  EXPECT_EQ(in.discard_all(), 1u);
  EXPECT_EQ(in.total_pushed(), 14u);
}

TEST(Ingress, ConcurrentProducersKeepPerRingOrder) {
  constexpr std::size_t kProducers = 2;
  constexpr uint64_t kPerProducer = 20000;
  Ingress in(kProducers, 64);  // small rings: producers wrap and block often
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < kProducers; ++i) {
    producers.emplace_back([&in, i] {
      for (uint64_t k = 0; k < kPerProducer; ++k) {
        const Packet p = make_packet(static_cast<FlowId>(i), k);
        while (!in.push(i, p, static_cast<Time>(k), /*count_full=*/false))
          std::this_thread::yield();
      }
    });
  }
  uint64_t next[kProducers] = {};
  uint64_t got = 0;
  std::size_t ring = 0;
  while (got < kProducers * kPerProducer) {
    const IngressSlot* head = in.peek_earliest(ring);
    if (head == nullptr) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(head->flow, ring);
    ASSERT_EQ(head->seq, next[ring]);
    ASSERT_EQ(head->arrival, static_cast<Time>(next[ring]));
    ++next[ring];
    in.pop(ring);
    ++got;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(in.total_pushed(), kProducers * kPerProducer);
  EXPECT_EQ(in.total_drops(), 0u);
}

}  // namespace
}  // namespace sfq::rt
