// CalendarQueue (src/core/calendar_queue.h): the hierarchical timestamp
// wheel behind the SFQ-W flow-scale core. Contract under test: pops come out
// in exactly (quantized tick, admission order) — i.e. the wheel equals an
// exact priority queue keyed by (floor(tag/quantum), insertion seq). The
// randomized differential drives both structures through the same mixed
// push/update/erase/pop stream, overflow band included, and demands
// identical pop sequences.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/calendar_queue.h"
#include "core/splitmix.h"

namespace sfq {
namespace {

constexpr double kQuantum = 0.5;

// Exact reference model: ordered by (tick, admission seq). std::map keeps it
// obviously-correct; the wheel must match it pop for pop.
class RefModel {
 public:
  explicit RefModel(double quantum) : quantum_(quantum) {}

  void push(uint32_t id, double tag, uint64_t seq) {
    const uint64_t tick = tag <= 0.0 ? 0 : static_cast<uint64_t>(tag / quantum_);
    order_.emplace(std::make_pair(tick, seq), id);
    by_id_[id] = std::make_pair(tick, seq);
  }
  void erase(uint32_t id) {
    order_.erase(by_id_.at(id));
    by_id_.erase(id);
  }
  bool contains(uint32_t id) const { return by_id_.count(id) != 0; }
  bool empty() const { return order_.empty(); }
  std::size_t size() const { return order_.size(); }
  uint32_t top_id() const { return order_.begin()->second; }
  uint64_t top_tick() const { return order_.begin()->first.first; }
  uint32_t pop() {
    const uint32_t id = top_id();
    erase(id);
    return id;
  }

 private:
  double quantum_;
  std::map<std::pair<uint64_t, uint64_t>, uint32_t> order_;
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> by_id_;
};

// pop() is void (the caller reads top_id() first); take() bundles the two
// for test readability.
uint32_t take(CalendarQueue& q) {
  const uint32_t id = q.top_id();
  q.pop();
  return id;
}

TEST(CalendarQueue, RejectsNonPositiveQuantum) {
  EXPECT_THROW(CalendarQueue(0.0), std::invalid_argument);
  EXPECT_THROW(CalendarQueue(-1.0), std::invalid_argument);
}

TEST(CalendarQueue, FifoWithinOneQuantizationWindow) {
  // Three ids whose tags all land in the same bucket pop in admission order
  // even though their true tags are decreasing: that is the documented
  // quantized-order relaxation (order slack < one quantum).
  CalendarQueue q(1.0);
  q.push(0, 10.9);
  q.push(1, 10.5);
  q.push(2, 10.1);
  q.push(3, 11.0);  // next bucket: must come out after all of bucket 10
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(take(q), 0u);
  EXPECT_EQ(take(q), 1u);
  EXPECT_EQ(take(q), 2u);
  EXPECT_EQ(take(q), 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, DistantTagsCrossEveryLevelAndTheOverflowBand) {
  // One id per wheel level plus one beyond the top level's span (the
  // overflow heap). Pushed in increasing-tag order — the wheel's monotone
  // insert contract: tags never fall below the cursor — and popped back in
  // exactly that order.
  CalendarQueue q(1.0);
  const double tags[] = {3.0, 300.0, 70'000.0, 17'000'000.0, 4.6e9, 1.0e13};
  for (uint32_t i = 0; i < 6; ++i) q.push(i, tags[i]);
  EXPECT_GE(q.overflow_size(), 1u);  // 4.6e9 and 1e13 exceed the 2^32 span
  for (uint32_t i = 0; i < 6; ++i) EXPECT_EQ(take(q), i);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, UpdateMovesAndEraseRemoves) {
  CalendarQueue q(1.0);
  q.push(7, 100.0);
  q.push(8, 150.0);
  q.push(9, 200.0);
  EXPECT_TRUE(q.contains(8));
  q.update(8, 300.0);  // demote past everyone
  EXPECT_EQ(q.top_id(), 7u);
  q.erase(7);
  EXPECT_FALSE(q.contains(7));
  EXPECT_EQ(take(q), 9u);
  EXPECT_EQ(take(q), 8u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, ReanchorsAfterGoingEmpty) {
  // Drain completely, then insert a tag far beyond the old cursor: the wheel
  // re-anchors instead of scanning the gap.
  CalendarQueue q(1.0);
  q.push(1, 5.0);
  EXPECT_EQ(take(q), 1u);
  EXPECT_TRUE(q.empty());
  q.push(2, 1.0e12);
  q.push(3, 1.0e12 + 2.0);
  EXPECT_EQ(take(q), 2u);
  EXPECT_EQ(take(q), 3u);
}

// The core contract: the wheel is an exact priority queue over
// (quantized tick, admission order). Random mixed workload obeying the
// monotone insert contract (tags never fall below the cursor — the SFQ
// usage pattern, where every new tag is >= v(t)), spread wide enough to
// exercise all four levels and the overflow band, plus erase/update/pop
// interleaving.
TEST(CalendarQueue, RandomizedDifferentialAgainstExactModel) {
  for (const uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    CalendarQueue wheel(kQuantum);
    RefModel ref(kQuantum);
    SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
    uint64_t seq = 0;
    uint32_t next_id = 0;
    std::vector<uint32_t> live;

    // Contract floor for fresh tags: never below the wheel's cursor.
    const auto floor_tag = [&] {
      return static_cast<double>(wheel.cursor_tick()) * kQuantum;
    };

    for (int op_i = 0; op_i < 20'000; ++op_i) {
      const uint64_t r = rng();
      const unsigned op = r % 100;
      if (op < 45 || live.empty()) {
        // push: tag in [floor, floor + spread); spread occasionally huge so
        // the entry lands in a high level or the overflow heap.
        const uint64_t kind = (r >> 8) % 10;
        const double spread = kind < 6   ? 64.0
                              : kind < 8 ? 1.0e5
                              : kind < 9 ? 1.0e8
                                         : 1.0e13;
        const double tag =
            floor_tag() +
            spread * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
        const uint32_t id = next_id++;
        wheel.push(id, tag);
        ref.push(id, tag, seq++);
        live.push_back(id);
      } else if (op < 60) {
        // update: re-key a random live id to a fresh tag >= the cursor.
        const uint32_t id = live[rng() % live.size()];
        const double tag =
            floor_tag() +
            1.0e5 * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
        wheel.update(id, tag);
        ref.erase(id);
        ref.push(id, tag, seq++);
      } else if (op < 70) {
        const std::size_t k = rng() % live.size();
        const uint32_t id = live[k];
        wheel.erase(id);
        ref.erase(id);
        live[k] = live.back();
        live.pop_back();
      } else {
        ASSERT_EQ(wheel.empty(), ref.empty());
        if (ref.empty()) continue;
        ASSERT_EQ(wheel.top_id(), ref.top_id())
            << "seed " << seed << " op " << op_i;
        const uint32_t id = take(wheel);
        ASSERT_EQ(id, ref.pop());
        for (std::size_t k = 0; k < live.size(); ++k)
          if (live[k] == id) {
            live[k] = live.back();
            live.pop_back();
            break;
          }
      }
      ASSERT_EQ(wheel.size(), ref.size());
    }
    // Full drain must agree to the last entry.
    while (!ref.empty()) {
      ASSERT_FALSE(wheel.empty());
      ASSERT_EQ(take(wheel), ref.pop()) << "seed " << seed << " (drain)";
    }
    EXPECT_TRUE(wheel.empty());
  }
}

// A cursor whose digit is kSlots - 1 on level 1 (and on level 2 as well):
// settle_min then looks for buckets above the last slot of that level and
// must move on to the next level up. Entries sit on every level, in the
// overflow band and in the cursor's own page; the pops must match the exact
// model throughout.
TEST(CalendarQueue, CursorDigitAtTheLastSlotMovesUpALevel) {
  constexpr uint64_t kLastDigitL1 = 0xFF05;    // level-1 digit 255
  constexpr uint64_t kLastDigitL12 = 0xFFFF05;  // level-1 and -2 digits 255
  for (const uint64_t anchor : {kLastDigitL1, kLastDigitL12}) {
    SCOPED_TRACE(anchor);
    CalendarQueue wheel(1.0);
    RefModel ref(1.0);
    uint64_t seq = 0;
    uint32_t id = 0;
    // The floor keeps an emptied wheel anchored at `anchor` rather than at
    // the first (far-future) key pushed after the pop below.
    const auto push = [&](uint64_t tick) {
      const double tag = static_cast<double>(tick) + 0.25;
      wheel.push(id, tag, static_cast<double>(anchor));
      ref.push(id, tag, seq++);
      ++id;
    };
    push(anchor);
    ASSERT_EQ(take(wheel), ref.pop());  // the cursor now sits at `anchor`
    ASSERT_EQ(wheel.cursor_tick(), anchor);
    for (const uint64_t tick :
         {anchor + 0x1000000ull + 7, anchor + 0x10000ull + 3,
          anchor + 0x100ull, anchor + (1ull << 33), anchor + 0x1000000ull + 7,
          anchor + 0x10000ull + 3, anchor + 0xF0ull})
      push(tick);
    while (!ref.empty()) {
      ASSERT_FALSE(wheel.empty());
      ASSERT_EQ(wheel.top_id(), ref.top_id());
      ASSERT_EQ(take(wheel), ref.pop());
    }
    EXPECT_TRUE(wheel.empty());
  }
}

// Update semantics when an id moves *within* the same bucket: it re-enters
// at the bucket tail (a fresh admission), exactly like the reference model's
// erase + re-push with a new seq.
TEST(CalendarQueue, UpdateWithinBucketMovesToTail) {
  CalendarQueue q(1.0);
  q.push(1, 5.1);
  q.push(2, 5.5);
  q.update(1, 5.9);  // same bucket, but now behind id 2
  EXPECT_EQ(take(q), 2u);
  EXPECT_EQ(take(q), 1u);
}

}  // namespace
}  // namespace sfq
