// Sharded multi-core engine (rt/shard/, docs/REALTIME.md "Sharding"):
// stable flow->shard routing, exact global ledger conservation (the sum of
// the per-shard ledgers IS the offer ledger), per-shard + cross-shard
// hierarchical fairness under sustained overload with shedding, routing
// stability across flow leave/rejoin churn, and the chaos differential
// driven through the sharded path. Timing-sensitive assertions use ledger
// identities (exact by construction) or generous Theorem-1 bounds.
#include "rt/shard/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chaos/differential.h"
#include "chaos/scenario_generator.h"
#include "core/scheduler_factory.h"
#include "core/sfq_scheduler.h"
#include "net/rate_profile.h"
#include "obs/telemetry/telemetry.h"
#include "rt/load_gen.h"
#include "rt/shard/shard_router.h"
#include "stats/fairness.h"

namespace sfq::rt {
namespace {

constexpr double kBits = 4000.0;

Packet make_packet(FlowId flow, uint64_t seq, double bits = kBits) {
  Packet p{};
  p.flow = flow;
  p.seq = seq;
  p.length_bits = bits;
  return p;
}

uint64_t cause(const EngineStats& s, obs::DropCause c) {
  return s.drops[static_cast<std::size_t>(c)];
}

// The per-engine exact identities (docs/ROBUSTNESS.md), valid after stop().
void expect_ledger(const EngineStats& s, const std::string& where) {
  const uint64_t pre = cause(s, obs::DropCause::kUnknownFlow) +
                       cause(s, obs::DropCause::kBufferLimit) +
                       cause(s, obs::DropCause::kShed);
  const uint64_t post = cause(s, obs::DropCause::kPushout) +
                        cause(s, obs::DropCause::kFlowRemoved);
  EXPECT_EQ(s.ingress_pushed, s.accepted + pre + s.abandoned) << where;
  EXPECT_EQ(s.accepted, s.transmitted + s.backlog + post) << where;
}

ShardedEngine::SchedulerFactory sfq_factory(double link_rate) {
  return [link_rate](std::size_t, double share) {
    SchedulerOptions so;
    so.assumed_capacity = link_rate * share;
    return make_scheduler("SFQ", so);
  };
}

TEST(ShardRouter, StableCoversAndMatchesEngine) {
  // Pure function of (flow, shard count): two routers agree everywhere, every
  // shard receives flows at a plausible rate, and the engine's routing table
  // is exactly the router's answer.
  for (const std::size_t shards : {2u, 4u}) {
    ShardRouter a(shards), b(shards);
    std::vector<std::size_t> hits(shards, 0);
    for (FlowId f = 0; f < 1024; ++f) {
      ASSERT_EQ(a.shard_of(f), b.shard_of(f)) << "flow " << f;
      ASSERT_LT(a.shard_of(f), shards);
      ++hits[a.shard_of(f)];
    }
    for (std::size_t k = 0; k < shards; ++k)
      EXPECT_GT(hits[k], 1024 / shards / 2) << "shard " << k << " starved";
  }

  std::vector<ShardFlow> flows(8, ShardFlow{1e6, kBits, ""});
  ShardedEngineOptions opts;
  opts.shards = 4;
  opts.link_rate = 8e6;
  opts.engine.producers = 1;
  auto engine =
      ShardedEngine::try_create(sfq_factory(opts.link_rate), flows, opts);
  ASSERT_NE(engine, nullptr);
  ShardRouter router(4);
  for (FlowId f = 0; f < 8; ++f)
    EXPECT_EQ(engine->shard_of(f), router.shard_of(f));
}

TEST(ShardRouter, PlacementIsPinned) {
  // Placement is part of the deployed contract: a flow's home shard (and
  // its failover target) must not move when the hash code is refactored.
  const std::vector<FlowId> ids = {0, 1, 2, 3, 17, 1000, 65535};
  auto homes = [&](std::size_t shards) {
    std::vector<std::size_t> out;
    for (FlowId f : ids) out.push_back(ShardRouter(shards).shard_of(f));
    return out;
  };
  EXPECT_EQ(homes(2), (std::vector<std::size_t>{1, 1, 0, 1, 1, 0, 0}));
  EXPECT_EQ(homes(4), (std::vector<std::size_t>{3, 1, 2, 1, 3, 0, 2}));
  EXPECT_EQ(homes(7), (std::vector<std::size_t>{2, 2, 4, 2, 6, 0, 0}));

  auto rehomes = [](const std::vector<char>& alive) {
    std::vector<std::size_t> out;
    for (FlowId f = 0; f < 24; ++f)
      out.push_back(ShardRouter(4).rehome(f, alive));
    return out;
  };
  EXPECT_EQ(rehomes({1, 0, 1, 1}),
            (std::vector<std::size_t>{3, 3, 2, 3, 2, 2, 0, 3, 2, 0, 2, 0,
                                      3, 3, 2, 0, 3, 3, 2, 0, 0, 3, 2, 2}));
  EXPECT_EQ(rehomes({0, 1, 0, 1}),
            (std::vector<std::size_t>{3, 1, 3, 1, 1, 1, 3, 3, 3, 1, 3, 1,
                                      3, 3, 3, 1, 3, 3, 3, 3, 1, 3, 3, 1}));
}

TEST(ShardedEngine, GlobalLedgerConservationIsExact) {
  // 4 shards behind tiny per-shard buffers, blasted unpaced with a mix of
  // known and unknown flow ids. After stop(kDrain): each shard's ledger
  // satisfies the engine identities, the summed ledger satisfies them too,
  // and offers == ingress_pushed + ingress_drops — every offer is accounted
  // on exactly one shard, none double-counted.
  std::vector<ShardFlow> flows(8, ShardFlow{1e6, kBits, ""});
  ShardedEngineOptions opts;
  opts.shards = 4;
  opts.link_rate = 2e8;  // fast link: the blast drains quickly
  opts.engine.producers = 1;
  opts.engine.buffer_limit = 8;  // small: forces kBufferLimit drops
  auto engine =
      ShardedEngine::try_create(sfq_factory(opts.link_rate), flows, opts);
  ASSERT_NE(engine, nullptr);

  engine->start();
  uint64_t offers = 0;
  for (uint64_t i = 0; i < 20000; ++i) {
    // Every 97th offer targets an unregistered global id: it must route
    // somewhere deterministic and land as a kUnknownFlow drop.
    const FlowId f = i % 97 == 0 ? static_cast<FlowId>(1000 + i % 7)
                                 : static_cast<FlowId>(i % 8);
    engine->offer(0, make_packet(f, i));
    ++offers;  // failed offers count too: they are ingress_drops
  }
  engine->stop(StopMode::kDrain);

  EngineStats sum;
  uint64_t unknown = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const EngineStats es = engine->shard_stats(k);
    expect_ledger(es, "shard " + std::to_string(k));
    EXPECT_EQ(es.backlog, 0u) << "shard " << k << " did not drain";
    sum.ingress_pushed += es.ingress_pushed;
    sum.ingress_drops += es.ingress_drops;
    sum.accepted += es.accepted;
    sum.transmitted += es.transmitted;
    sum.abandoned += es.abandoned;
    sum.backlog += es.backlog;
    for (std::size_t c = 0; c < obs::kDropCauseCount; ++c)
      sum.drops[c] += es.drops[c];
    unknown += cause(es, obs::DropCause::kUnknownFlow);
  }
  const EngineStats st = engine->stats();
  EXPECT_EQ(st.ingress_pushed, sum.ingress_pushed);
  EXPECT_EQ(st.transmitted, sum.transmitted);
  EXPECT_EQ(st.dropped(), sum.dropped());
  expect_ledger(st, "global sum");
  EXPECT_EQ(offers, st.ingress_pushed + st.ingress_drops);
  EXPECT_GT(unknown, 0u) << "unregistered ids must land as kUnknownFlow";
  EXPECT_GT(cause(st, obs::DropCause::kBufferLimit), 0u)
      << "the tiny buffer never filled — the drop path went untested";
}

TEST(ShardedEngine, FairnessBoundHoldsUnderOverloadWithShedding) {
  // 4 equal flows over 2 shards (flow 2 hashes alone to shard 0; flows
  // 0/1/3 share shard 1), paced at 2.5x the 1 Mb/s link with the admission
  // machine armed. Every pair's normalized service gap over steady-state
  // windows must stay within fairness_bound(f, m) — plain Theorem 1 within
  // a shard, + both shards' eq.-65 slack across shards — plus one pacing
  // quantum per flow. Low rates keep the gate robust under sanitizers and
  // on few-core machines: the bound scales as l/w while OS-timeslice pauses
  // of a dispatcher thread (which hit cross-shard pairs only — same-shard
  // flows freeze together) are absolute wall time, so the bound must
  // dominate a scheduling quantum by a wide margin.
  const double w = 2.5e5;
  const double link = 1e6;
  std::vector<ShardFlow> flows(4, ShardFlow{w, kBits, ""});
  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.link_rate = link;
  opts.engine.producers = 2;
  opts.engine.buffer_limit = 64;
  opts.engine.admission_control = true;
  auto engine = ShardedEngine::try_create(sfq_factory(link), flows, opts);
  ASSERT_NE(engine, nullptr);
  ASSERT_NE(engine->shard_of(0), engine->shard_of(2))
      << "expected a cross-shard pair; the router changed";

  std::vector<std::vector<FlowLoad>> producers(2);
  for (FlowId f = 0; f < 4; ++f) {
    FlowLoad l;
    l.flow = f;
    l.model = FlowLoad::Model::kCbr;
    l.rate = 2.5 * w;
    l.packet_bits = kBits;
    l.seed = 1 + f;
    producers[f % 2].push_back(l);
  }

  engine->start();
  const Time t0 = engine->now();
  LoadGen gen(*engine, std::move(producers), {});
  gen.start(1.5);
  std::vector<std::vector<double>> snaps;
  Time next = t0 + 0.05;
  while (engine->now() - t0 < 1.5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (engine->now() >= next) {
      snaps.push_back(engine->service_snapshot());
      next += 0.05;
    }
  }
  gen.join();
  engine->stop(StopMode::kDrain);

  const EngineStats st = engine->stats();
  EXPECT_GT(cause(st, obs::DropCause::kShed), 0u)
      << "2.5x load never tripped the shedding gate";
  int worst = 0;
  for (std::size_t k = 0; k < 2; ++k)
    worst = std::max(worst, engine->shard_stats(k).overload_state);
  EXPECT_EQ(st.overload_state, worst)
      << "summed stats must report the worst shard's overload state";

  ASSERT_GE(snaps.size(), 8u);
  // Without a core per dispatcher the root premise — each shard actually
  // receives its R*W_k/W share in wall time — is broken by OS timeslicing:
  // same-shard flows freeze together, but a cross-shard pair drifts by
  // however long one dispatcher sat descheduled. Grant those pairs one
  // scheduling-epoch allowance on starved machines; a genuine fairness bug
  // still fails, because a misrouted or starved flow opens a gap on the
  // order of the full measurement window (~750 ms here).
  const double cpu_slack =
      std::thread::hardware_concurrency() >= 2 * opts.shards ? 0.0 : 0.25;
  const std::size_t lo = snaps.size() / 4;
  const std::size_t hi = snaps.size() - snaps.size() / 4;
  for (FlowId f = 0; f < 4; ++f) {
    for (FlowId m = f + 1; m < 4; ++m) {
      const bool cross = engine->shard_of(f) != engine->shard_of(m);
      const double bound = engine->fairness_bound(f, m) +
                           stats::sfq_fairness_bound(kBits, w, kBits, w) +
                           (cross ? cpu_slack : 0.0);
      double worst_gap = 0.0;
      for (std::size_t i = lo; i < hi; ++i)
        for (std::size_t j = i + 1; j < hi; ++j)
          worst_gap = std::max(
              worst_gap, std::fabs((snaps[j][f] - snaps[i][f]) / w -
                                   (snaps[j][m] - snaps[i][m]) / w));
      EXPECT_LE(worst_gap, bound)
          << "flows " << f << "/" << m << (cross ? " (cross-shard)" : "")
          << ": gap " << 1e3 * worst_gap << " ms > bound " << 1e3 * bound
          << " ms";
      if (cross) {
        // The cross-shard bound must actually include both shards' slack.
        EXPECT_GT(engine->fairness_bound(f, m),
                  stats::sfq_fairness_bound(kBits, w, kBits, w));
      }
    }
  }
}

TEST(ShardedEngine, RoutingStableAcrossFlowChurn) {
  // The flow->shard map is a pure hash and the routing table is immutable:
  // removing and rejoining a flow at the scheduler level must not move any
  // flow, and the rejoined flow's first start tag takes the max against its
  // pre-departure finish tag (no fairness credit for leaving).
  std::vector<ShardFlow> flows(4, ShardFlow{1e6, kBits, ""});
  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.link_rate = 2e6;
  opts.engine.producers = 1;
  auto engine =
      ShardedEngine::try_create(sfq_factory(opts.link_rate), flows, opts);
  ASSERT_NE(engine, nullptr);

  std::vector<std::size_t> before(4);
  for (FlowId f = 0; f < 4; ++f) before[f] = engine->shard_of(f);

  // Drive shard 0's scheduler directly (the engine is not running, so the
  // dispatcher contract is not in play). Flow 2 lives alone on shard 0,
  // registered there under its global id (unified registration).
  const FlowId victim = 2;
  const std::size_t home = engine->shard_of(victim);
  Scheduler& sched = engine->scheduler(home);
  ASSERT_TRUE(sched.enqueue(make_packet(victim, 0), 0.0));
  const std::optional<Packet> served = sched.dequeue(0.0);
  ASSERT_TRUE(served.has_value());
  const double f_prev = served->finish_tag;
  sched.on_transmit_complete(*served, 0.001);

  sched.remove_flow(victim, 0.002);
  sched.rejoin_flow(victim, 0.003);
  for (FlowId f = 0; f < 4; ++f)
    EXPECT_EQ(engine->shard_of(f), before[f]) << "churn moved flow " << f;

  ASSERT_TRUE(sched.enqueue(make_packet(victim, 1), 0.003));
  const std::optional<Packet> rejoined = sched.dequeue(0.003);
  ASSERT_TRUE(rejoined.has_value());
  EXPECT_GE(rejoined->start_tag, f_prev)
      << "rejoin must not restart the flow's tags below its last finish";

  // End to end: after the churn, the rejoined flow's packets still land on
  // its home shard's ledger.
  engine->start();
  const uint64_t tx_before = engine->shard_stats(home).transmitted;
  for (uint64_t i = 0; i < 50; ++i)
    ASSERT_TRUE(engine->offer_wait(0, make_packet(victim, 100 + i)));
  engine->stop(StopMode::kDrain);
  EXPECT_EQ(engine->shard_stats(home).transmitted, tx_before + 50);
  for (std::size_t k = 0; k < 2; ++k)
    expect_ledger(engine->shard_stats(k), "shard " + std::to_string(k));
}

TEST(ShardedEngine, OneShardMatchesRtEngine) {
  // A one-shard ShardedEngine is the flat SFQ server: the H-SFQ root has one
  // class, which owns the whole link (eq. 65). The same offer schedule —
  // mixed packet sizes, every fifth offer to an unregistered id — through it
  // and through a raw RtEngine over the same discipline, with an infinite
  // buffer and a drain stop, gives identical ledgers and per-flow service,
  // and the shard's capture replays bit-exactly on a fresh scheduler.
  const double link = 2e8;
  const std::vector<double> weights = {1e6, 2e6, 3e6, 4e6};
  std::vector<Packet> schedule;
  for (uint64_t i = 0; i < 4000; ++i)
    schedule.push_back(make_packet(static_cast<FlowId>(i % 5), i,
                                   kBits / (1 + i % 2)));
  EngineOptions eopts;
  eopts.producers = 1;
  eopts.buffer_limit = 0;
  const ShardedEngine::SchedulerFactory factory = sfq_factory(link);
  auto fresh_scheduler = [&] {
    std::unique_ptr<Scheduler> sched = factory(0, 1.0);
    for (double w : weights) sched->add_flow(w, kBits);
    return sched;
  };

  std::unique_ptr<Scheduler> raw_sched = fresh_scheduler();
  RtEngine raw(*raw_sched, std::make_unique<net::ConstantRate>(link), eopts);
  raw.start();
  for (const Packet& p : schedule) ASSERT_TRUE(raw.offer_wait(0, p));
  raw.stop(StopMode::kDrain);

  std::vector<ShardFlow> flows;
  for (double w : weights) flows.push_back(ShardFlow{w, kBits, ""});
  ShardedEngineOptions opts;
  opts.shards = 1;
  opts.link_rate = link;
  opts.engine = eopts;
  auto engine = ShardedEngine::try_create(factory, flows, opts);
  ASSERT_NE(engine, nullptr);
  std::vector<std::vector<CaptureOp>> ops;
  engine->set_capture(&ops);
  engine->start();
  for (const Packet& p : schedule) ASSERT_TRUE(engine->offer_wait(0, p));
  engine->stop(StopMode::kDrain);

  const EngineStats a = raw.stats();
  const EngineStats b = engine->stats();
  expect_ledger(a, "raw engine");
  expect_ledger(b, "one shard");
  EXPECT_EQ(a.ingress_pushed, schedule.size());
  EXPECT_EQ(a.ingress_pushed, b.ingress_pushed);
  EXPECT_EQ(a.ingress_drops, b.ingress_drops);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.transmitted, b.transmitted);
  EXPECT_EQ(a.tx_bits, b.tx_bits);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.migrated_in, b.migrated_in);
  EXPECT_EQ(a.migrated_out, b.migrated_out);
  EXPECT_EQ(a.stalls, b.stalls);
  for (std::size_t c = 0; c < obs::kDropCauseCount; ++c)
    EXPECT_EQ(a.drops[c], b.drops[c])
        << obs::to_string(static_cast<obs::DropCause>(c));
  EXPECT_EQ(cause(b, obs::DropCause::kUnknownFlow), schedule.size() / 5);
  for (FlowId f = 0; f < weights.size(); ++f)
    EXPECT_EQ(raw.flow_tx_bits(f), engine->flow_tx_bits(f)) << "flow " << f;

  // Replay shard 0's transcript: every dequeue must return the packet and
  // tags the live dispatcher saw.
  ASSERT_EQ(ops.size(), 1u);
  std::unique_ptr<Scheduler> replay = fresh_scheduler();
  uint64_t dequeues = 0;
  for (std::size_t i = 0; i < ops[0].size(); ++i) {
    const CaptureOp& op = ops[0][i];
    switch (op.kind) {
      case CaptureOp::Kind::kEnqueue:
        ASSERT_TRUE(replay->enqueue(op.packet, op.t)) << "op " << i;
        break;
      case CaptureOp::Kind::kDequeue: {
        const std::optional<Packet> got = replay->dequeue(op.t);
        ASSERT_TRUE(got.has_value()) << "op " << i;
        EXPECT_EQ(got->flow, op.packet.flow) << "op " << i;
        EXPECT_EQ(got->seq, op.packet.seq) << "op " << i;
        EXPECT_EQ(got->start_tag, op.packet.start_tag) << "op " << i;
        EXPECT_EQ(got->finish_tag, op.packet.finish_tag) << "op " << i;
        ++dequeues;
        break;
      }
      case CaptureOp::Kind::kComplete:
        replay->on_transmit_complete(op.packet, op.t);
        break;
      default:
        FAIL() << "op " << i << ": no pushout or residency op is possible "
               << "with an infinite buffer and one shard";
    }
  }
  EXPECT_EQ(dequeues, b.transmitted);
}

TEST(ShardedEngine, RejectsBadStatsOptions) {
  // The root owns the stats step and endpoint, so it validates them: a
  // negative or non-finite stats_interval would busy-spin or hand NaN to
  // the timed wait, and a stats_port outside [-1, 65535] would wrap to
  // another port or silently disable the endpoint.
  const std::vector<ShardFlow> flows(4, ShardFlow{1e6, kBits, ""});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    double stats_interval;
    int stats_port;
  };
  const Case cases[] = {
      {"negative stats interval", -1.0, -1},
      {"nan stats interval", nan, -1},
      {"infinite stats interval", inf, -1},
      {"port 65536", 0.0, 65536},
      {"port 70000", 0.0, 70000},
      {"port -2", 0.0, -2},
  };
  ShardedEngineOptions base;
  base.shards = 2;
  base.link_rate = 1e8;
  for (const Case& c : cases) {
    ShardedEngineOptions o = base;
    o.stats_interval = c.stats_interval;
    o.stats_port = c.stats_port;
    EXPECT_THROW(ShardedEngine(sfq_factory(o.link_rate), flows, o),
                 std::invalid_argument)
        << c.what;
    std::string err;
    EXPECT_EQ(ShardedEngine::try_create(sfq_factory(o.link_rate), flows, o,
                                        &err),
              nullptr)
        << c.what;
    EXPECT_FALSE(err.empty()) << c.what;
  }
  // The ends of the port range are accepted (the engine is not started, so
  // nothing binds).
  for (int port : {-1, 65535}) {
    ShardedEngineOptions o = base;
    o.stats_port = port;
    EXPECT_NE(ShardedEngine::try_create(sfq_factory(1e8), flows, o), nullptr)
        << port;
  }
}

TEST(ShardedEngine, StatsThreadPublishesOverHttp) {
  // The root thread's stats step is the only live publisher. At 1 and 2
  // shards, on an ephemeral port: while traffic flows it writes every
  // shard's Theorem-1 bound gauge and the root gauges; after a drain stop
  // its final pass leaves the settled ledger and zero backlogs in the plane.
  namespace tel = obs::telemetry;
  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::vector<ShardFlow> flows(16, ShardFlow{1e6, kBits, ""});
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.link_rate = 1e8;
    opts.engine.producers = 1;
    opts.stats_interval = 0.02;
    opts.stats_port = 0;  // ephemeral
    auto engine =
        ShardedEngine::try_create(sfq_factory(opts.link_rate), flows, opts);
    ASSERT_NE(engine, nullptr);
    std::vector<std::size_t> resident(shards, 0);
    for (FlowId f = 0; f < flows.size(); ++f) ++resident[engine->shard_of(f)];
    for (std::size_t k = 0; k < shards; ++k)
      ASSERT_GE(resident[k], 2u) << "shard " << k << " has no flow pair";
    tel::TelemetryOptions topts;
    topts.shards = shards;
    tel::Telemetry plane(topts);
    engine->set_telemetry(&plane);
    engine->start();
    ASSERT_GT(engine->stats_endpoint_port(), 0);

    // Offer round-robin with at most 256 packets outstanding, until a
    // stats pass has seen a served flow pair on every shard.
    auto published = [&] {
      for (std::size_t k = 0; k < shards; ++k)
        if (!(plane.gauge(tel::GaugeId::kFairnessBound, k) > 0.0))
          return false;
      return plane.gauge(tel::GaugeId::kRootFairnessBound, 0) > 0.0;
    };
    uint64_t offered = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!published() && std::chrono::steady_clock::now() < deadline) {
      if (offered - engine->stats().transmitted < 256) {
        ASSERT_TRUE(engine->offer_wait(
            0, make_packet(static_cast<FlowId>(offered % flows.size()),
                           offered)));
        ++offered;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    ASSERT_TRUE(published());
    EXPECT_GE(plane.gauge(tel::GaugeId::kRootFairnessGapMax, 0),
              plane.gauge(tel::GaugeId::kRootFairnessGap, 0));
    engine->stop(StopMode::kDrain);

    // stop() joins the root thread after its final pass; the endpoint
    // stays up until the engine is destroyed.
    const tel::TelemetrySnapshot snap = plane.snapshot();
    EXPECT_EQ(snap.counter_total(tel::CounterId::kTransmitted), offered);
    for (std::size_t k = 0; k < shards; ++k)
      EXPECT_EQ(snap.gauge(tel::GaugeId::kBacklogPackets, k), 0.0)
          << "shard " << k;
    EXPECT_GT(engine->stats_endpoint_port(), 0);
  }
}

TEST(ShardedEngine, ChaosDifferentialPassesThroughShardedPath) {
  // Generated rt scenarios through chaos::check_rt with shards=2: the
  // deterministic offer schedule, per-shard capture->replay, conservation
  // and the root-bound sampling must all hold on clean seeds.
  chaos::GeneratorOptions gen_opts;
  gen_opts.rt_compatible = true;
  chaos::ScenarioGenerator gen(gen_opts);
  chaos::RtCheckOptions rc;
  rc.packets = 400;
  rc.shards = 2;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const chaos::CheckResult res = chaos::check_rt(gen.generate(seed), seed, rc);
    EXPECT_TRUE(res.ok) << "seed " << seed << " [" << res.kind << "] "
                        << res.detail;
  }
}

}  // namespace
}  // namespace sfq::rt
