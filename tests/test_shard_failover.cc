// Shard failover (rt/shard/shard_supervisor.h, docs/ROBUSTNESS.md "Shard
// failover"): the SFQ rejoin rule re-anchors a migrated flow's start tag
// against the destination's own record, the conservation identities stay
// exact across a migration under both overload policies, and a killed shard
// is fenced, its flows rehomed onto survivors, cold-restarted and rehomed
// back. Timing-sensitive assertions use bounded waits on the supervisor's
// settlement signals, never raw sleeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/scheduler_factory.h"
#include "core/sfq_scheduler.h"
#include "net/rate_profile.h"
#include "rt/engine.h"
#include "rt/shard/shard_router.h"
#include "rt/shard/shard_supervisor.h"
#include "rt/shard/sharded_engine.h"

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

// The migration-extended exact identities (docs/ROBUSTNESS.md): adopted
// backlog enters as migrated_in alongside the flow's own ingress, harvested
// backlog leaves as migrated_out.
void expect_migration_ledger(const EngineStats& s, const std::string& where) {
  const uint64_t pre = cause(s, obs::DropCause::kUnknownFlow) +
                       cause(s, obs::DropCause::kBufferLimit) +
                       cause(s, obs::DropCause::kShed);
  const uint64_t post = cause(s, obs::DropCause::kPushout) +
                        cause(s, obs::DropCause::kFlowRemoved);
  EXPECT_EQ(s.ingress_pushed + s.migrated_in, s.accepted + pre + s.abandoned)
      << where;
  EXPECT_EQ(s.accepted, s.transmitted + s.backlog + post + s.migrated_out)
      << where;
}

// Spin (bounded) until `done` or the deadline; returns whether it settled.
bool wait_for(const std::function<bool()>& done, double seconds = 5.0) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < seconds) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(ShardFailover, RejoinRuleUsesPreviousFinishWhenAhead) {
  // Scheduler-level check of the rejoin branch the engine path below cannot
  // pin deterministically: a flow removed with tags ahead of v(t) must
  // restart from its previous finish, not from v(t) (eq. 4's max).
  SfqScheduler s;
  const FlowId a = s.add_flow(1.0, 100.0);
  s.add_flow(1.0, 100.0);  // keeps the server's flow table non-trivial
  for (uint64_t j = 0; j < 5; ++j)
    ASSERT_TRUE(s.enqueue(make_packet(a, j, 100.0), 0.0));
  // Serve one packet, then remove the flow: tag history (F = 500) survives
  // while v(t) stays at the served prefix.
  std::optional<Packet> p = s.dequeue(0.0);
  ASSERT_TRUE(p.has_value());
  s.on_transmit_complete(*p, 0.1);
  const std::vector<Packet> harvested = s.remove_flow(a, 0.2);
  EXPECT_EQ(harvested.size(), 4u);
  const VirtualTime prev_finish = s.last_finish_tag(a);
  ASSERT_GT(prev_finish, s.vtime())
      << "setup must exercise the previous-finish branch";
  const VirtualTime expected_start = std::max(s.vtime(), prev_finish);

  s.rejoin_flow(a, 0.3);
  ASSERT_TRUE(s.enqueue(make_packet(a, 10, 100.0), 0.3));
  EXPECT_DOUBLE_EQ(s.last_finish_tag(a), expected_start + 100.0 / 1.0);
}

TEST(ShardFailover, AdoptReanchorsStartTagAgainstDestinationVtime) {
  // Engine-level check of the other branch: a flow never served on the
  // destination (previous finish 0) is adopted while the destination is
  // idle, so its first start tag must equal the destination's v(t) — the
  // maximum finish tag of the prior busy period. With one home flow serving
  // 20 packets of l/w = 0.004, that is exactly 0.08; the 5 adopted packets
  // then chain to a final finish of 0.08 + 5 * 0.004.
  SfqScheduler sched;
  const FlowId home = sched.add_flow(1e6, kBits);
  const FlowId mig = sched.add_flow(1e6, kBits);
  sched.remove_flow(mig, 0.0);  // non-home registration (deactivated)

  EngineOptions eo;
  eo.producers = 1;
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(2e8), eo);
  engine.start();
  for (uint64_t j = 0; j < 20; ++j)
    ASSERT_TRUE(engine.offer(0, make_packet(home, j)));
  ASSERT_TRUE(wait_for([&] {
    const EngineStats es = engine.stats();
    return es.transmitted == 20 && es.backlog == 0;
  })) << "home flow must drain before the adoption";

  std::vector<RtEngine::Migration> migs(1);
  migs[0].flow = mig;
  for (uint64_t j = 0; j < 5; ++j) migs[0].backlog.push_back(make_packet(mig, j));
  ASSERT_TRUE(engine.adopt_flows(migs));
  ASSERT_TRUE(wait_for([&] { return engine.stats().backlog == 0; }));
  engine.stop(StopMode::kDrain);

  const double lw = kBits / 1e6;  // 0.004 per packet on the tag axis
  EXPECT_DOUBLE_EQ(sched.last_finish_tag(mig), 20 * lw + 5 * lw);
  const EngineStats es = engine.stats();
  EXPECT_EQ(es.migrated_in, 5u);
  EXPECT_EQ(es.transmitted, 25u);
  expect_migration_ledger(es, "destination");
}

// Harvest a stopped source's exact backlog, adopt it into a destination
// whose buffer is too small for it, and demand the identities stay exact on
// both sides — including A.migrated_out == B.migrated_in — under the given
// overload policy.
void run_migration_ledger(net::OverloadPolicy policy) {
  SfqScheduler sa;
  const FlowId f0 = sa.add_flow(1e6, kBits);
  const FlowId f1 = sa.add_flow(1e6, kBits);
  EngineOptions ea;
  ea.producers = 1;
  RtEngine source(sa, std::make_unique<net::ConstantRate>(1e4), ea);
  source.start();
  for (uint64_t j = 0; j < 60; ++j)
    ASSERT_TRUE(source.offer(0, make_packet(j % 2 == 0 ? f0 : f1, j)));
  // The slow link guarantees a deep backlog; wait until every offer crossed
  // the ring INTO the scheduler (accepted, not just pushed) so stop(kAbandon)
  // has nothing left to discard and the harvest below is the full picture.
  ASSERT_TRUE(wait_for([&] { return source.stats().accepted == 60; }));
  source.stop(StopMode::kAbandon);

  std::vector<RtEngine::Migration> migs = source.harvest_flows({f0, f1});
  ASSERT_EQ(migs.size(), 2u);
  uint64_t moved = 0;
  for (const RtEngine::Migration& m : migs) moved += m.backlog.size();
  const EngineStats as = source.stats();
  EXPECT_EQ(as.migrated_out, moved);
  EXPECT_EQ(as.backlog, 0u) << "harvest must strip the whole backlog";
  EXPECT_GT(moved, 8u) << "setup must overflow the destination buffer";
  expect_migration_ledger(as, "source after harvest");

  SfqScheduler sb;
  sb.add_flow(1e6, kBits);  // same global ids on the destination
  sb.add_flow(1e6, kBits);
  sb.remove_flow(f0, 0.0);
  sb.remove_flow(f1, 0.0);
  EngineOptions eb;
  eb.producers = 1;
  eb.buffer_limit = 8;
  eb.overload_policy = policy;
  RtEngine dest(sb, std::make_unique<net::ConstantRate>(1e6), eb);
  dest.start();
  ASSERT_TRUE(dest.adopt_flows(migs));
  dest.stop(StopMode::kDrain);

  const EngineStats bs = dest.stats();
  EXPECT_EQ(bs.migrated_in, moved) << "every handed packet is accounted";
  EXPECT_EQ(as.migrated_out, bs.migrated_in);
  expect_migration_ledger(bs, "destination after adoption");
  // The overflow lands on the policy's own drop cause, like any arrival.
  if (policy == net::OverloadPolicy::kTailDrop) {
    EXPECT_EQ(cause(bs, obs::DropCause::kBufferLimit), moved - 8);
    EXPECT_EQ(cause(bs, obs::DropCause::kPushout), 0u);
  } else {
    EXPECT_EQ(cause(bs, obs::DropCause::kPushout), moved - 8);
    EXPECT_EQ(cause(bs, obs::DropCause::kBufferLimit), 0u);
  }
  EXPECT_EQ(bs.transmitted + cause(bs, obs::DropCause::kBufferLimit) +
                cause(bs, obs::DropCause::kPushout),
            moved)
      << "adopted backlog fully drains or drops by cause";
}

TEST(ShardFailover, LedgerExactAcrossMigrationTailDrop) {
  run_migration_ledger(net::OverloadPolicy::kTailDrop);
}

TEST(ShardFailover, LedgerExactAcrossMigrationPushout) {
  run_migration_ledger(net::OverloadPolicy::kPushout);
}

constexpr std::size_t kFailoverFlows = 6;

// Two shards at 2e8 bit/s with a scripted kill of `victim` at raw t = 0.05
// and failover on. With `tele`, the plane is attached and the root also
// publishes stats every 10 ms, so one root thread supervises, rebalances
// and publishes in the same run. `plan` is every shard's fault plan.
std::unique_ptr<ShardedEngine> make_kill_engine(
    std::size_t victim, obs::telemetry::Telemetry* tele = nullptr,
    RtFaultPlan plan = {}) {
  std::vector<ShardFlow> flows(kFailoverFlows, ShardFlow{1e6, kBits, ""});
  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.link_rate = 2e8;
  opts.engine.producers = 1;
  opts.engine.fault_plan = std::move(plan);
  RtFaultPlan kill_plan;
  kill_plan.kills.push_back({0.05});
  opts.shard_faults.push_back({victim, kill_plan});
  opts.failover = true;
  if (tele) opts.stats_interval = 0.01;
  auto engine = ShardedEngine::try_create(
      [](std::size_t, double share) {
        SchedulerOptions so;
        so.assumed_capacity = 2e8 * share;
        return make_scheduler("SFQ", so);
      },
      flows, opts);
  if (engine && tele) engine->set_telemetry(tele);
  return engine;
}

// Offers a burst round-robin over the flows, keeping both shards loaded.
void offer_burst(ShardedEngine& engine, uint64_t& seq) {
  for (int burst = 0; burst < 64; ++burst) {
    engine.offer(0, make_packet(static_cast<FlowId>(seq % kFailoverFlows),
                                seq));
    ++seq;
  }
}

TEST(ShardFailover, KillRehomeRestartRehomeBack) {
  // End-to-end: a scripted kill fells one of two shards mid-load; the
  // supervisor must fence it, rehome its flows onto the survivor, restart a
  // fresh engine epoch over the same scheduler and rehome the flows back —
  // with the global ledger exact across the whole excursion. The root
  // thread publishes stats throughout, so the live gauges must agree.
  const std::size_t victim = ShardRouter(2).shard_of(0);
  obs::telemetry::TelemetryOptions topts;
  topts.shards = 2;
  obs::telemetry::Telemetry tele(topts);
  auto engine = make_kill_engine(victim, &tele);
  ASSERT_NE(engine, nullptr);

  std::size_t victim_flows = 0;
  for (FlowId f = 0; f < kFailoverFlows; ++f)
    if (engine->home_shard_of(f) == victim) ++victim_flows;
  ASSERT_GE(victim_flows, 1u) << "the victim shard must own flows";

  engine->start();
  uint64_t seq = 0;
  const bool settled = wait_for([&] {
    // Keep both shards loaded while the failover runs its course.
    offer_burst(*engine, seq);
    const EngineStats es = engine->stats();
    return engine->shard_failovers() >= 1 &&
           engine->engine_epochs(victim) > 1 &&
           es.migrated_in == es.migrated_out;
  });
  ASSERT_TRUE(settled) << "failover + restart + rehome-back must settle";
  engine->stop(StopMode::kDrain);

  ASSERT_NE(engine->supervisor(), nullptr);
  const std::vector<FailoverEvent>& events = engine->supervisor()->events();
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].shard, victim);
  EXPECT_EQ(events[0].flows_moved, victim_flows);
  EXPECT_TRUE(events[0].restarted) << "cold restart within budget must work";
  EXPECT_GT(engine->migration_slack(), 0.0);
  // Both directions counted: evacuation plus the rehome-back.
  EXPECT_EQ(engine->flows_rehomed(), 2 * victim_flows);
  EXPECT_EQ(engine->engine_epochs(victim), 2u);
  EXPECT_GE(engine->route_version(), 2u);
  EXPECT_FALSE(engine->stalled()) << "a handled failover is not a wedge";
  for (FlowId f = 0; f < kFailoverFlows; ++f)
    EXPECT_EQ(engine->shard_of(f), engine->home_shard_of(f))
        << "flow " << f << " must be home after the restart";

  const EngineStats st = engine->stats();
  EXPECT_EQ(st.migrated_in, st.migrated_out) << "settled failovers cancel";
  EXPECT_GT(st.transmitted, 0u);
  expect_migration_ledger(st, "global sum");
  for (std::size_t k = 0; k < 2; ++k)
    expect_migration_ledger(engine->shard_stats(k),
                            "shard " + std::to_string(k));

  // The plane saw the same excursion: the victim is live again and the
  // one failover is counted once.
  namespace tel = obs::telemetry;
  EXPECT_EQ(tele.gauge(tel::GaugeId::kShardStalled, victim), 0.0);
  EXPECT_EQ(tele.snapshot().counter_total(tel::CounterId::kShardFailovers),
            1u);
}

TEST(ShardFailover, ClockStaysMonotoneAcrossShardZeroRestart) {
  // now() reads shard 0's live epoch. Every epoch shares the engine's clock
  // origin and keeps the shard's clock faults (here a +0.3 s jump before
  // the kill), so a cold restart of shard 0 must not send now() back
  // towards zero or undo the jump (producers pace against it).
  RtFaultPlan jump;
  jump.jumps.push_back({0.02, 0.3});
  auto engine = make_kill_engine(/*victim=*/0, nullptr, jump);
  ASSERT_NE(engine, nullptr);
  engine->start();
  uint64_t seq = 0;
  Time before = 0.0;
  const bool restarted = wait_for([&] {
    offer_burst(*engine, seq);
    if (engine->engine_epochs(0) > 1) return true;
    before = std::max(before, engine->now());
    return false;
  });
  ASSERT_TRUE(restarted) << "shard 0 must be killed and cold-restarted";
  const Time after = engine->now();
  engine->stop(StopMode::kDrain);
  EXPECT_GE(before, 0.35) << "the kill fires at raw t = 0.05, after the jump";
  EXPECT_GE(after, before) << "now() went backwards across the restart";
}

}  // namespace
}  // namespace sfq::rt
