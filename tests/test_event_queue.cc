#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/sfq_scheduler.h"
#include "net/rate_profile.h"
#include "net/scheduled_server.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "traffic/sources.h"

namespace sfq::sim {
namespace {

// Departure stream of Simulator.PinnedDepartureDigest.
constexpr uint64_t kPinnedDepartures = 24431;
constexpr uint64_t kPinnedDrops = 111;
constexpr uint64_t kPinnedDigest = 0x8b8010cb6e0adf24ull;
// Departure stream of Simulator.PinnedLongHorizonDepartureDigest.
constexpr uint64_t kPinnedLongDepartures = 38895;
constexpr uint64_t kPinnedLongDrops = 165;
constexpr uint64_t kPinnedLongDigest = 0x5582dc66737c59adull;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(3.0, [&] { order.push_back(3); });
  while (q.run_one() != kTimeInfinity) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [&, i] { order.push_back(i); });
  while (q.run_one() != kTimeInfinity) {}
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> order;
  EventId a = q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.cancel(a);
  while (q.run_one() != kTimeInfinity) {}
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  EventId a = q.schedule(1.0, [] {});
  q.cancel(a);
  q.cancel(a);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId a = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

// Regression (ISSUE 5): cancelling an id that already fired must be a no-op.
// The old implementation kept no record of fired ids, so a late cancel
// decremented the live count again and empty()/size() lied — a simulation
// could terminate with events still pending.
TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  int fired = 0;
  EventId a = q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  EXPECT_DOUBLE_EQ(q.run_one(), 1.0);  // fires a
  q.cancel(a);                         // stale id: must not touch the queue
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.run_one(), 2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

// A stale id whose slot has been reused by a newer event must not cancel the
// newer event (generation tags, not bare slot indices).
TEST(EventQueue, StaleCancelDoesNotHitReusedSlot) {
  EventQueue q;
  int fired = 0;
  EventId a = q.schedule(1.0, [&] { ++fired; });
  q.run_one();  // a's slot returns to the free-list
  EventId b = q.schedule(2.0, [&] { ++fired; });
  EXPECT_NE(a, b);
  q.cancel(a);  // must not cancel b even though the slot matches
  EXPECT_EQ(q.size(), 1u);
  q.run_one();
  EXPECT_EQ(fired, 2);
}

// Regression (ISSUE 5): cancellation must destroy the closure's captured
// state eagerly, not retain it until the entry would have drifted to the
// heap top — under heavy churn lazy retention is unbounded memory.
TEST(EventQueue, CancelReleasesCapturedStateEagerly) {
  EventQueue q;
  auto shared = std::make_shared<int>(42);
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i)
    ids.push_back(q.schedule(1000.0 + i, [shared] { (void)*shared; }));
  q.schedule(1.0, [] {});  // keeps the queue busy below the cancelled block
  EXPECT_EQ(shared.use_count(), 65);
  for (EventId id : ids) q.cancel(id);
  // All 64 captured copies destroyed immediately; only ours remains.
  EXPECT_EQ(shared.use_count(), 1);
  EXPECT_EQ(q.size(), 1u);
}

// Typed events dispatch to their EventTarget with the payload intact; a
// packet op's target reads the packet from the queue while it runs.
struct RecordingTarget : EventTarget {
  explicit RecordingTarget(const EventQueue& q) : q(q) {}
  const EventQueue& q;
  std::vector<Event> seen;
  std::vector<Packet> packets;  // a packet op's payload, else Packet{}
  std::vector<Time> times;
  void on_event(const Event& ev, Time now) override {
    seen.push_back(ev);
    packets.push_back(carries_packet(ev.op) ? q.packet(ev) : Packet{});
    times.push_back(now);
  }
};

// Steady-state slab behaviour: a fire/reschedule cycle reuses freed slots
// instead of growing the slab (the allocation-free hot path's foundation),
// and so does the packet slab under a cycle of packet events.
TEST(EventQueue, SlabStopsGrowingOnceWarm) {
  EventQueue q;
  RecordingTarget t(q);
  Packet p;
  // Callbacks and packet events alternate in time; each cycle fires one of
  // each and schedules one of each behind the rest.
  for (int i = 0; i < 8; ++i) {
    q.schedule(1.0 + i, [] {});
    q.schedule_packet(1.5 + i, EventOp::kArrival, &t, p);
  }
  const std::size_t warm = q.slab_slots();
  const std::size_t warm_packets = q.packet_slots();
  EXPECT_EQ(warm, 16u);
  EXPECT_EQ(warm_packets, 8u);
  for (int i = 0; i < 1000; ++i) {
    q.run_one();
    q.run_one();
    q.schedule(100.0 + i, [] {});
    q.schedule_packet(100.5 + i, EventOp::kServiceComplete, &t, p);
  }
  EXPECT_EQ(t.seen.size(), 1000u);
  EXPECT_EQ(q.slab_slots(), warm);
  EXPECT_EQ(q.packet_slots(), warm_packets);
}

// A packet event's packet-slab slot is given back when the event is
// cancelled or run: each way, the next packet event reuses it.
TEST(EventQueue, PacketSlotIsFreedByCancelAndRun) {
  EventQueue q;
  RecordingTarget t(q);
  Packet p;
  p.flow = 5;
  p.seq = 1;
  const EventId a = q.schedule_packet(1.0, EventOp::kArrival, &t, p);
  EXPECT_EQ(q.packet_slots(), 1u);
  q.cancel(a);
  EXPECT_TRUE(q.empty());

  p.seq = 3;
  q.schedule_packet(3.0, EventOp::kServiceComplete, &t, p);
  EXPECT_EQ(q.packet_slots(), 1u);  // the cancelled event's slot
  EXPECT_DOUBLE_EQ(q.run_one(), 3.0);
  ASSERT_EQ(t.packets.size(), 1u);
  EXPECT_EQ(t.packets[0].flow, 5u);
  EXPECT_EQ(t.packets[0].seq, 3u);

  // The run event's slot is free again: of two packets pending at once, the
  // first takes it and only the second grows the slab.
  p.seq = 4;
  q.schedule_packet(4.0, EventOp::kArrival, &t, p);
  EXPECT_EQ(q.packet_slots(), 1u);
  p.seq = 5;
  q.schedule_packet(5.0, EventOp::kArrival, &t, p);
  EXPECT_EQ(q.packet_slots(), 2u);
  while (q.run_one() != kTimeInfinity) {}
  ASSERT_EQ(t.packets.size(), 3u);
  EXPECT_EQ(t.packets[1].seq, 4u);
  EXPECT_EQ(t.packets[2].seq, 5u);
}

// A slot frees the payload its op names, so a packet schedule with an op
// that carries no packet, or a churn schedule with one that does, would
// corrupt a side slab: both throw before taking a slot.
TEST(EventQueue, ScheduleRejectsAnOpThatDoesNotFit) {
  EventQueue q;
  RecordingTarget t(q);
  Packet p;
  EXPECT_THROW(q.schedule_packet(1.0, EventOp::kSourceTick, &t, p),
               std::invalid_argument);
  EXPECT_THROW(q.schedule_packet(1.0, EventOp::kCallback, &t, p),
               std::invalid_argument);
  EXPECT_THROW(q.schedule_flow(1.0, EventOp::kArrival, &t, 3),
               std::invalid_argument);
  EXPECT_THROW(q.schedule_flow(1.0, EventOp::kServiceComplete, &t, 3),
               std::invalid_argument);
  EXPECT_THROW(q.schedule_flow(1.0, EventOp::kCallback, &t, 3),
               std::invalid_argument);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slab_slots(), 0u);
  EXPECT_EQ(q.packet_slots(), 0u);
}

TEST(EventQueue, TypedEventsCarryPayloadToTarget) {
  EventQueue q;
  RecordingTarget t(q);
  Packet p;
  p.flow = 3;
  p.seq = 17;
  p.length_bits = 1000.0;
  q.schedule_packet(1.0, EventOp::kServiceComplete, &t, p, /*t0=*/0.25,
                    /*aux=*/2);
  q.schedule_tick(2.0, &t, 512.0);
  q.schedule_flow(3.0, EventOp::kChurnLeave, &t, /*flow=*/9);
  while (q.run_one() != kTimeInfinity) {}
  ASSERT_EQ(t.seen.size(), 3u);
  EXPECT_EQ(t.seen[0].op, EventOp::kServiceComplete);
  EXPECT_EQ(t.packets[0].flow, 3u);
  EXPECT_EQ(t.packets[0].seq, 17u);
  EXPECT_DOUBLE_EQ(t.packets[0].length_bits, 1000.0);
  EXPECT_DOUBLE_EQ(t.seen[0].t0, 0.25);
  EXPECT_EQ(t.seen[0].aux, 2u);
  EXPECT_EQ(t.seen[1].op, EventOp::kSourceTick);
  EXPECT_DOUBLE_EQ(t.seen[1].bits, 512.0);
  EXPECT_EQ(t.seen[2].op, EventOp::kChurnLeave);
  EXPECT_EQ(t.seen[2].flow, 9u);
  EXPECT_EQ(t.times, (std::vector<Time>{1.0, 2.0, 3.0}));
}

TEST(EventQueue, TypedEventsCancelLikeCallbacks) {
  EventQueue q;
  RecordingTarget t(q);
  Packet p;
  p.flow = 1;
  EventId a = q.schedule_packet(1.0, EventOp::kArrival, &t, p);
  q.schedule_tick(2.0, &t, 1.0);
  q.cancel(a);
  while (q.run_one() != kTimeInfinity) {}
  ASSERT_EQ(t.seen.size(), 1u);
  EXPECT_EQ(t.seen[0].op, EventOp::kSourceTick);
}

// Randomized schedule/cancel/pop fuzz against a naive reference queue: the
// slab + indexed-heap implementation must agree with an O(n) linear scan on
// fire order, sizes, and which cancels take effect.
TEST(EventQueue, FuzzAgainstNaiveReference) {
  struct RefEvent {
    Time when;
    uint64_t seq;    // schedule order, breaks time ties
    int tag;
    bool alive;
  };
  std::mt19937_64 rng(20260806);
  std::uniform_real_distribution<double> when_dist(0.0, 100.0);
  for (int round = 0; round < 10; ++round) {
    EventQueue q;
    std::vector<RefEvent> ref;
    std::vector<std::pair<EventId, std::size_t>> live;  // queue id -> ref idx
    std::vector<int> got, want;
    uint64_t seq = 0;
    int next_tag = 0;
    for (int step = 0; step < 2000; ++step) {
      const uint64_t r = rng() % 100;
      if (r < 50 || live.empty()) {
        const Time t = when_dist(rng);
        const int tag = next_tag++;
        EventId id = q.schedule(t, [tag, &got] { got.push_back(tag); });
        ref.push_back(RefEvent{t, seq++, tag, true});
        live.emplace_back(id, ref.size() - 1);
      } else if (r < 70) {
        // Cancel a random live event (sometimes one cancelled before —
        // the double-cancel must be a no-op).
        const std::size_t pick = rng() % live.size();
        q.cancel(live[pick].first);
        ref[live[pick].second].alive = false;
        if (rng() % 4 == 0) q.cancel(live[pick].first);
        live.erase(live.begin() + pick);
      } else {
        // Pop: the reference fires the earliest (when, seq) live event.
        const Time fired_at = q.run_one();
        std::size_t best = ref.size();
        for (std::size_t i = 0; i < ref.size(); ++i)
          if (ref[i].alive && (best == ref.size() ||
                               ref[i].when < ref[best].when ||
                               (ref[i].when == ref[best].when &&
                                ref[i].seq < ref[best].seq)))
            best = i;
        if (best == ref.size()) {
          EXPECT_EQ(fired_at, kTimeInfinity);
        } else {
          EXPECT_DOUBLE_EQ(fired_at, ref[best].when);
          want.push_back(ref[best].tag);
          ref[best].alive = false;
          live.erase(std::find_if(live.begin(), live.end(),
                                  [&](auto& e) { return e.second == best; }));
        }
      }
      const std::size_t ref_live =
          static_cast<std::size_t>(std::count_if(
              ref.begin(), ref.end(), [](auto& e) { return e.alive; }));
      ASSERT_EQ(q.size(), ref_live) << "step " << step;
    }
    EXPECT_EQ(got, want);
  }
}

// Seeded schedule/cancel/pop/peek streams against the naive reference, with
// times chosen to land in every tier of the queue and on its edges: many
// equal times, ticks exactly on (and one ulp around) the 4096-tick and
// 2^24-tick block edges, the first, last and other ticks of the blocks
// 4095, 4096 and 4097 blocks past the last pop's (the edge of L1's sliding
// window), far events that the window reaches as the cursor moves, times
// below the last pop, 0, negative values, -inf, 1e12 and +inf. Cancels pick
// random live events, so they hit the near heap, both wheel levels (L1
// events also after the cursor has moved on) and the far heap. Each round
// also drains the queue completely (through +inf) and keeps going, so the
// cursor's jump to the far heap's top and scheduling behind it are covered
// too.
TEST(EventQueue, TieredQueueMatchesNaiveReference) {
  struct RefEvent {
    Time when;
    uint64_t seq;
    int tag;
    bool alive;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTick = 1e-6;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed * 7919);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    EventQueue q;
    std::vector<RefEvent> ref;
    std::vector<std::pair<EventId, std::size_t>> live;  // queue id -> ref idx
    std::vector<Time> used;  // earlier times, reused for exact ties
    std::vector<int> got, want;
    uint64_t seq = 0;
    int next_tag = 0;
    Time last_pop = 0.0;

    auto pick_time = [&]() -> Time {
      const double base = std::isfinite(last_pop) ? last_pop : 0.0;
      const double edge_ulp[] = {-1.0, 0.0, 1.0};
      switch (rng() % 17) {
        case 0:
          if (!used.empty()) return used[rng() % used.size()];
          return base;
        case 1: {  // a 4096-tick block edge near the last pop, +-1 ulp
          const double k = std::floor(base / (4096 * kTick)) + rng() % 3;
          const double e = k * 4096 * kTick;
          const double d = edge_ulp[rng() % 3];
          return d == 0.0 ? e : std::nextafter(e, d * kInf);
        }
        case 2: {  // a 2^24-tick block edge, +-1 ulp
          const double k = std::floor(base / (16777216 * kTick)) + rng() % 3;
          const double e = k * 16777216 * kTick;
          const double d = edge_ulp[rng() % 3];
          return d == 0.0 ? e : std::nextafter(e, d * kInf);
        }
        case 3:  // behind the last pop
          return base - unit(rng) * 0.01;
        case 4: {
          const Time specials[] = {0.0, -0.0, -1.5, -kInf, 1e12, kInf};
          return specials[rng() % 6];
        }
        case 5:
        case 6:  // same or next few ticks
          return base + static_cast<double>(rng() % 4) * kTick;
        case 7:
        case 8:  // within a 4096-tick block
          return base + unit(rng) * 0.004;
        case 9:
        case 10:  // within a 2^24-tick block
          return base + unit(rng) * 10.0;
        case 11:  // a few blocks out
          return base + unit(rng) * 100.0;
        case 12:
        case 13: {  // 4095, 4096 or 4097 blocks past the cursor's block:
                    // L1's last block and the first two beyond it; first
                    // tick (+-1 ulp), last tick or any tick of the block
          const double k = std::floor(base / (4096 * kTick)) + 4095.0 +
                           static_cast<double>(rng() % 3);
          const double e = k * 4096 * kTick;
          switch (rng() % 4) {
            case 0: return e;
            case 1: return std::nextafter(e, edge_ulp[rng() % 2 * 2] * kInf);
            case 2: return e + 4095 * kTick;
            default: return e + unit(rng) * 4096 * kTick;
          }
        }
        case 14: {  // just past L1's window: far now, inside it a few
                    // hundred blocks of cursor movement later
          const double k = std::floor(base / (4096 * kTick)) + 4096.0 +
                           static_cast<double>(rng() % 256);
          return (k + unit(rng)) * 4096 * kTick;
        }
        default:
          return base + unit(rng) * 1e-3;
      }
    };
    auto ref_min = [&]() {
      std::size_t best = ref.size();
      for (std::size_t i = 0; i < ref.size(); ++i)
        if (ref[i].alive && (best == ref.size() || ref[i].when < ref[best].when ||
                             (ref[i].when == ref[best].when &&
                              ref[i].seq < ref[best].seq)))
          best = i;
      return best;
    };
    auto pop_one = [&] {
      const std::size_t best = ref_min();
      const Time fired_at = q.run_one();
      if (best == ref.size()) {
        EXPECT_EQ(fired_at, kInf);
        return false;
      }
      EXPECT_EQ(fired_at, ref[best].when);
      want.push_back(ref[best].tag);
      ref[best].alive = false;
      live.erase(std::find_if(live.begin(), live.end(),
                              [&](auto& e) { return e.second == best; }));
      last_pop = fired_at;
      return true;
    };
    // `schedule_pct` of the steps schedule; below ~40 the queue drains while
    // scheduling continues, so the cursor crosses blocks (and migrates far
    // blocks) with schedules and cancels landing around it.
    auto run_steps = [&](int steps, uint64_t schedule_pct) {
      for (int step = 0; step < steps; ++step) {
        const uint64_t r = rng() % 100;
        if (r < schedule_pct || live.empty()) {
          const Time t = pick_time();
          const int tag = next_tag++;
          const EventId id = q.schedule(t, [tag, &got] { got.push_back(tag); });
          ref.push_back(RefEvent{t, seq++, tag, true});
          live.emplace_back(id, ref.size() - 1);
          if (used.size() < 64) used.push_back(t);
          else used[rng() % used.size()] = t;
        } else if (r < schedule_pct + 18) {
          const std::size_t pick = rng() % live.size();
          q.cancel(live[pick].first);
          ref[live[pick].second].alive = false;
          if (rng() % 4 == 0) q.cancel(live[pick].first);
          live.erase(live.begin() + pick);
        } else if (r < schedule_pct + 23) {
          const std::size_t best = ref_min();
          EXPECT_EQ(q.next_time(), best == ref.size() ? kInf : ref[best].when);
        } else {
          pop_one();
        }
        ASSERT_EQ(q.size(), live.size()) << "step " << step;
      }
    };
    for (int phase = 0; phase < 3; ++phase) {
      run_steps(3000, 50);
      run_steps(3000, 30);
      while (pop_one()) {}
      EXPECT_TRUE(q.empty());
    }
    EXPECT_EQ(got, want);
  }
}

// The cursor anchors at the last popped tick, so an event at exactly that
// time, or earlier, scheduled after the pop still fires first and in
// sequence order.
TEST(EventQueue, SchedulingAtOrBehindTheLastPopFiresFirst) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(0); });
  q.schedule(9.0, [&] { order.push_back(9); });
  EXPECT_DOUBLE_EQ(q.run_one(), 2.0);
  q.schedule(2.0, [&] { order.push_back(1); });
  q.schedule(1.5, [&] { order.push_back(2); });
  q.schedule(2.0, [&] { order.push_back(3); });
  q.schedule(2.0000005, [&] { order.push_back(4); });
  EXPECT_DOUBLE_EQ(q.next_time(), 1.5);
  while (q.run_one() != kTimeInfinity) {}
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3, 4, 9}));
}

// 4,096 Zipf-weighted Poisson flows with churn through SFQ behind a
// ScheduledServer, 8,000-bit packets offered at 0.98 of `link` bits/s: the
// FNV-1a digest of the departure stream, so any change to the simulator's
// event order (or to SFQ's decisions) changes it. `zipf_s` sets how unequal
// the flows are: the flatter the shares, the slower the slowest flows and
// the further ahead their source ticks are scheduled.
struct DepartureRun {
  uint64_t departures = 0;
  uint64_t drops = 0;
  uint64_t digest = 0xcbf29ce484222325ull;
};

DepartureRun run_departure_digest(double link, double zipf_s, Time until) {
  constexpr std::size_t kFlows = 4096;
  constexpr double kBits = 8000.0;
  Simulator sim;
  SfqScheduler sched;
  std::vector<double> share(kFlows);
  double h = 0.0;
  for (std::size_t f = 0; f < kFlows; ++f) {
    // Rank r = f * 2654435761 mod 4096, a permutation (odd multiplier).
    const std::size_t rank = (f * 2654435761u) % kFlows;
    share[f] = std::pow(static_cast<double>(rank + 1), -zipf_s);
    h += share[f];
  }
  for (std::size_t f = 0; f < kFlows; ++f) {
    share[f] /= h;
    sched.add_flow(link * share[f], kBits);
  }
  net::ScheduledServer server(sim, sched,
                              std::make_unique<net::ConstantRate>(link));
  DepartureRun run;
  std::mt19937_64 churn_rng(77);
  std::vector<FlowId> away;
  server.set_departure([&](const Packet& p, Time t) {
    uint64_t bits;
    std::memcpy(&bits, &t, sizeof bits);
    for (uint64_t v : {static_cast<uint64_t>(p.flow), p.seq, bits}) {
      run.digest ^= v;
      run.digest *= 0x100000001b3ull;
    }
    if (++run.departures % 50 != 0) return;
    // One flow leaves; once 16 are out, the longest-absent one rejoins.
    FlowId v;
    do {
      v = static_cast<FlowId>(churn_rng() % kFlows);
    } while (std::find(away.begin(), away.end(), v) != away.end());
    sim.at_flow(t, EventOp::kChurnLeave, &server, v);
    away.push_back(v);
    if (away.size() > 16) {
      sim.at_flow(t, EventOp::kChurnJoin, &server, away.front());
      away.erase(away.begin());
    }
  });
  std::vector<std::unique_ptr<traffic::PoissonSource>> sources;
  for (std::size_t f = 0; f < kFlows; ++f) {
    sources.push_back(std::make_unique<traffic::PoissonSource>(
        sim, static_cast<FlowId>(f),
        [&server](Packet p) { server.inject(std::move(p)); },
        0.98 * link * share[f], kBits, 1000 + f));
    sources.back()->run(0.0, kTimeInfinity);
  }
  sim.run_until(until);
  run.drops = server.drops();
  return run;
}

// Zipf 1.1 over a 100 Mb/s link for 2 simulated seconds. The pinned values
// were produced by the single-heap event queue the tiered one replaced.
TEST(Simulator, PinnedDepartureDigest) {
  const DepartureRun run = run_departure_digest(1e8, 1.1, 2.0);
  EXPECT_GT(run.departures, 20000u);
  EXPECT_EQ(run.departures, kPinnedDepartures);
  EXPECT_EQ(run.drops, kPinnedDrops);
  EXPECT_EQ(run.digest, kPinnedDigest);
}

// Zipf 0.5 over an 8 Mb/s link for 40 simulated seconds: the slowest flows
// send one packet every ~5 s, so source ticks are scheduled seconds ahead
// (some more than 2^24 ticks, 16.8 s), and the run crosses two 2^24-tick
// block edges (16.78 s and 33.55 s). The pinned values were produced by the
// queue whose second wheel level was aligned to 2^24-tick blocks.
TEST(Simulator, PinnedLongHorizonDepartureDigest) {
  const DepartureRun run = run_departure_digest(8e6, 0.5, 40.0);
  EXPECT_GT(run.departures, 30000u);
  EXPECT_EQ(run.departures, kPinnedLongDepartures);
  EXPECT_EQ(run.drops, kPinnedLongDrops);
  EXPECT_EQ(run.digest, kPinnedLongDigest);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = -1.0;
  sim.at(1.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 1.5);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(2.0, [&] { ++fired; });
  sim.at(3.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline run
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<Time> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.now());
    if (times.size() < 4) sim.after(1.0, chain);
  };
  sim.at(0.5, chain);
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{0.5, 1.5, 2.5, 3.5}));
}

TEST(Simulator, PastEventThrows) {
  Simulator sim;
  sim.at(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(0.5, [] {}), std::invalid_argument);
}

// NaN is no time: every way to schedule rejects it, before and after the
// clock has moved, and the clock stays finite.
TEST(Simulator, RejectsNaNEventTime) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Simulator sim;
  const EventQueue unused;
  RecordingTarget target(unused);
  Packet p;
  for (int round = 0; round < 2; ++round) {
    EXPECT_THROW(sim.at(kNaN, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.after(kNaN, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.at_packet(kNaN, EventOp::kArrival, &target, p),
                 std::invalid_argument);
    EXPECT_THROW(sim.at_tick(kNaN, &target, 1.0), std::invalid_argument);
    EXPECT_THROW(sim.at_flow(kNaN, EventOp::kChurnLeave, &target, 0),
                 std::invalid_argument);
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.at(1.0, [] {});
    sim.run();
    EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  }
  EXPECT_TRUE(target.seen.empty());
}

}  // namespace
}  // namespace sfq::sim
