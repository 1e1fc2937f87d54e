// Lock-free SPSC ring (rt/spsc_ring.h): boundary conditions, index
// wraparound, slot release for non-trivial payloads, batched slot release
// (pop/release), and two-thread producer/consumer stress runs (the case
// scripts/tsan.sh exists for).
#include "rt/spsc_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sfq::rt {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(1024).capacity(), 1024u);
}

// Above the largest power of two a std::size_t holds, doubling would wrap
// to 0 and never reach the request: the constructor throws instead.
TEST(SpscRing, CapacityBeyondLargestPowerOfTwoThrows) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(SpscRing<int>{kMax}, std::length_error);
  EXPECT_THROW(SpscRing<int>{kMax / 2 + 2}, std::length_error);
}

TEST(SpscRing, EmptyRing) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.front(), nullptr);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));  // all free
  EXPECT_FALSE(ring.empty());
}

TEST(SpscRing, FullBoundaryAndFifoOrder) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full: exactly capacity elements

  ASSERT_NE(ring.front(), nullptr);
  EXPECT_EQ(*ring.front(), 0);
  ring.pop();
  ring.release();
  EXPECT_TRUE(ring.try_push(4));   // one slot reopened
  EXPECT_FALSE(ring.try_push(5));  // and only one

  for (int expect = 1; expect <= 4; ++expect) {
    const int* f = ring.front();
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(*f, expect);
    ring.pop();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FrontIsStableUntilPop) {
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.try_push(7));
  int* f = ring.front();
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(*f, 7);
  EXPECT_EQ(ring.front(), f);  // repeated peek, same slot
  ring.pop();
  EXPECT_EQ(ring.front(), nullptr);
}

// Indices are free-running; drive the ring through many times its capacity
// so head/tail wrap the slot mask repeatedly (and, with a biased start, the
// arithmetic is exercised near uint64 boundaries by construction of tail -
// head comparisons).
TEST(SpscRing, WraparoundPreservesOrder) {
  SpscRing<uint64_t> ring(8);
  uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    // Vary the burst size so head and tail take every relative offset.
    const int burst = 1 + round % 8;
    for (int i = 0; i < burst; ++i)
      if (ring.try_push(next_in)) ++next_in;
    // A null front() has caught up and released every popped slot.
    while (const uint64_t* f = ring.front()) {
      ASSERT_EQ(*f, next_out);
      ring.pop();
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_GT(next_out, 8u * 100);  // wrapped many times
}

TEST(SpscRing, PopReleasesNonTrivialSlot) {
  SpscRing<std::shared_ptr<int>> ring(2);
  auto p = std::make_shared<int>(42);
  ASSERT_TRUE(ring.try_push(p));
  EXPECT_EQ(p.use_count(), 2);
  ASSERT_NE(ring.front(), nullptr);
  ring.pop();                   // before any release()
  EXPECT_EQ(p.use_count(), 1);  // slot no longer holds a reference
}

// Two-thread stress: one producer, one consumer, a small ring so both sides
// hit full/empty constantly; the consumer releases after every pop. It must
// see 0..N-1 in order.
TEST(SpscRing, TwoThreadStress) {
  constexpr uint64_t kCount = 200000;
  SpscRing<uint64_t> ring(64);

  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kCount;) {
      if (ring.try_push(i))
        ++i;
      else
        std::this_thread::yield();
    }
  });

  uint64_t expect = 0;
  uint64_t sum = 0;
  while (expect < kCount) {
    if (const uint64_t* f = ring.front()) {
      ASSERT_EQ(*f, expect);
      sum += *f;
      ring.pop();
      ring.release();
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

// pop() takes the front element but not its slot: the producer keeps seeing
// the ring full until release() publishes the consumer's head.
TEST(SpscRing, PoppedSlotsStayOccupiedUntilRelease) {
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.try_push(0));
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_NE(ring.front(), nullptr);
  ring.pop();
  EXPECT_FALSE(ring.try_push(2));  // the popped slot is not back yet
  EXPECT_FALSE(ring.empty());
  int* f = ring.front();  // not caught up: no implicit release
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(*f, 1);
  ring.pop();
  EXPECT_TRUE(ring.empty());       // nothing left to take...
  EXPECT_FALSE(ring.try_push(2));  // ...but both slots still held
  ring.release();
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_TRUE(ring.try_push(3));
  EXPECT_FALSE(ring.try_push(4));
}

// A front() that catches up with the tail it last saw releases by itself,
// so a consumer that drained the ring never holds slots back.
TEST(SpscRing, FrontReleasesWhenItCatchesUp) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  for (int i = 0; i < 4; ++i) {
    int* f = ring.front();
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(*f, i);
    ring.pop();
  }
  EXPECT_FALSE(ring.try_push(4));
  EXPECT_EQ(ring.front(), nullptr);  // caught up: released
  for (int i = 4; i < 8; ++i) ASSERT_TRUE(ring.try_push(i));
  // Catching up also re-reads the tail, so new items show straight away.
  int* f = ring.front();
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(*f, 4);
}

// Two threads at capacity 4 with batched releases: the consumer takes runs
// of 1..7 elements (longer than the ring, so runs end by catching up) and
// releases once per run. FIFO order must hold throughout.
TEST(SpscRing, BatchedReleaseTwoThreadStress) {
  constexpr uint64_t kCount = 200000;
  SpscRing<uint64_t> ring(4);

  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kCount;) {
      if (ring.try_push(i))
        ++i;
      else
        std::this_thread::yield();
    }
  });

  uint64_t expect = 0;
  uint64_t run = 0;
  while (expect < kCount) {
    const uint64_t batch = 1 + run++ % 7;
    uint64_t taken = 0;
    while (taken < batch) {
      const uint64_t* f = ring.front();
      if (f == nullptr) break;
      ASSERT_EQ(*f, expect);
      ring.pop();
      ++expect;
      ++taken;
    }
    ring.release();
    if (taken == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace sfq::rt
