// Overload hardening (docs/ROBUSTNESS.md): the Normal/Shedding/Critical
// admission machine and its weighted-fair token buckets, producer
// backpressure with bounded retry/backoff/deadline, the watchdog's
// detect -> diagnose -> recover escalation under injected rt faults
// (dispatcher pauses, clock jumps), and ledger conservation across every
// one of those paths — including a permanently wedged dispatcher with ring
// leftovers under both overflow policies. Anything timing-sensitive asserts
// ledger identities (exact by construction) rather than exact timings.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/sfq_scheduler.h"
#include "net/rate_profile.h"
#include "obs/telemetry/telemetry.h"
#include "rt/engine.h"
#include "rt/load_gen.h"
#include "stats/fairness.h"

namespace sfq::rt {
namespace {

namespace tel = obs::telemetry;

constexpr double kBits = 8000.0;

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

// The shed-aware conservation identities (docs/ROBUSTNESS.md): kShed joins
// kUnknownFlow/kBufferLimit on the pre-enqueue side of the ledger.
void expect_shed_ledger(const EngineStats& s) {
  EXPECT_EQ(s.ingress_pushed,
            s.accepted + cause(s, obs::DropCause::kUnknownFlow) +
                cause(s, obs::DropCause::kBufferLimit) +
                cause(s, obs::DropCause::kShed) + s.abandoned);
  EXPECT_EQ(s.accepted, s.transmitted + s.backlog +
                            cause(s, obs::DropCause::kPushout) +
                            cause(s, obs::DropCause::kFlowRemoved));
}

// Spin (bounded) until `pred()` holds; fails the test instead of hanging.
template <typename Pred>
void wait_for(Pred pred, const char* what, double timeout_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Accepts packets but never serves them — the permanent wedge no restart
// can fix (same pathology test_rt_engine.cc uses).
class HoardingScheduler final : public SfqScheduler {
 public:
  using SfqScheduler::SfqScheduler;
  std::optional<Packet> dequeue(Time) override { return std::nullopt; }
};

// Admission control enabled but never triggered must be inert: no shed
// drops, state pinned at Normal, every packet transmitted. (The matching
// "costs <= 5% when untriggered" claim is bench_rt_engine's gate.)
TEST(RtOverload, AdmissionEnabledButUntriggeredIsInert) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  // A 200-packet burst against a 2048 cap peaks at ~10% occupancy — far
  // below the 0.85 shedding threshold, so the machine must never leave
  // Normal.
  opts.buffer_limit = 2048;
  opts.admission_control = true;
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e8), opts);
  engine.start();
  for (uint64_t i = 0; i < 200; ++i)
    EXPECT_TRUE(engine.offer_wait(0, make_packet(0, i)));
  wait_for([&] { return engine.stats().transmitted == 200u; },
           "light load never finished");
  EXPECT_EQ(engine.overload_state(), 0);
  engine.stop(StopMode::kDrain);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.transmitted, 200u);
  EXPECT_EQ(cause(s, obs::DropCause::kShed), 0u);
  EXPECT_EQ(s.overload_state, 0);
  expect_shed_ledger(s);
}

// Theorem 1 past saturation: two paced flows with weights 3:1 offer twice
// the link capacity with admission control on. The machine must enter
// shedding, refuse the excess as kShed, and — because the buckets refill in
// weight proportion — keep the normalized service gap of the *admitted*
// traffic within the paper bound. Slack: kBurstPackets token-bucket quanta
// per flow (the burst a freshly refilled bucket may admit back-to-back) on
// top of the usual one-in-flight quantum.
TEST(RtOverload, SheddingUnder2xLoadKeepsAdmittedTrafficWithinTheorem1) {
  const double rf = 6e6, rm = 2e6, cap = 8e6;
  SfqScheduler sched;
  sched.add_flow(rf, kBits);
  sched.add_flow(rm, kBits);

  EngineOptions opts;
  opts.producers = 2;
  opts.buffer_limit = 64;
  opts.admission_control = true;
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(cap), opts);
  tel::Telemetry plane;
  engine.set_telemetry(&plane);

  std::vector<std::vector<FlowLoad>> producers(2);
  for (FlowId f = 0; f < 2; ++f) {
    FlowLoad l;
    l.flow = f;
    l.rate = 2.0 * (f == 0 ? rf : rm);  // 2x capacity in weight proportion
    l.packet_bits = kBits;
    producers[f].push_back(l);
  }

  engine.start();
  const Time t0 = engine.now();
  LoadGen gen(engine, std::move(producers), {});  // paced
  gen.start(/*duration=*/1.0);

  std::vector<std::vector<double>> snaps;
  int max_state = 0;
  while (engine.now() - t0 < 1.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    snaps.push_back(engine.service_snapshot());
    max_state = std::max(max_state, engine.overload_state());
  }
  gen.join();
  engine.stop(StopMode::kDrain);

  const EngineStats s = engine.stats();
  EXPECT_GE(max_state, 1) << "overload machine never left Normal";
  EXPECT_GT(cause(s, obs::DropCause::kShed), 0u);
  expect_shed_ledger(s);

  // Admitted-traffic fairness on the middle half of the run.
  const double bound = stats::sfq_fairness_bound(kBits, rf, kBits, rm);
  // The engine's token-bucket depth, in max-size packets (engine.cc).
  constexpr double kBurstPackets = 4.0;
  const double slack = (kBurstPackets + 1.0) * (kBits / rf + kBits / rm);
  const std::size_t lo = snaps.size() / 4;
  const std::size_t hi = snaps.size() - snaps.size() / 4;
  ASSERT_GT(hi, lo + 2) << "too few snapshots";
  double worst = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    for (std::size_t j = i + 1; j < hi; ++j) {
      const double gap = std::abs((snaps[j][0] - snaps[i][0]) / rf -
                                  (snaps[j][1] - snaps[i][1]) / rm);
      worst = std::max(worst, gap);
    }
  }
  EXPECT_LE(worst, bound + slack)
      << "admitted-traffic gap " << worst << "s over Theorem-1 bound "
      << bound << "s (+" << slack << "s shed-burst slack)";
  // Service split lands near the 3:1 weight ratio despite the shedding.
  EXPECT_GT(engine.flow_tx_bits(1), 0.0);
  const double ratio = engine.flow_tx_bits(0) / engine.flow_tx_bits(1);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.0);

  // The telemetry plane mirrors the engine's per-cause ledger bit-exactly,
  // shed included.
  const tel::TelemetrySnapshot snap = plane.snapshot();
  for (std::size_t c = 1; c < obs::kDropCauseCount; ++c) {
    const auto dc = static_cast<obs::DropCause>(c);
    EXPECT_EQ(snap.counter_total(tel::drop_counter(dc)), s.drops[c])
        << "cause " << c;
  }
  EXPECT_EQ(snap.counter_total(tel::CounterId::kTransmitted), s.transmitted);
}

// Hysteresis: a burst pushes the machine into Shedding/Critical, arrivals
// during that window are shed through the token buckets, and once the
// backlog drains below the 0.50 exit threshold the machine returns to
// Normal on its own.
TEST(RtOverload, HysteresisReturnsToNormalAfterTheBurst) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.buffer_limit = 16;
  opts.admission_control = true;
  // 10 ms per packet: the drain is slow enough to observe every state.
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(8e5), opts);
  engine.start();
  for (uint64_t i = 0; i < 60; ++i)
    EXPECT_TRUE(engine.offer(0, make_packet(0, i)));

  int max_state = 0;
  wait_for(
      [&] {
        max_state = std::max(max_state, engine.overload_state());
        return max_state >= 1;
      },
      "burst never tripped the overload machine");
  // Arrivals while shedding pass through the (now exhausted after ~burst
  // packets) token bucket: most are refused as kShed before the buffer
  // limit is even consulted.
  for (uint64_t i = 0; i < 20; ++i)
    EXPECT_TRUE(engine.offer(0, make_packet(0, 100 + i)));
  wait_for([&] { return cause(engine.stats(), obs::DropCause::kShed) > 0; },
           "shedding state refused nothing");
  wait_for([&] { return engine.overload_state() == 0; },
           "machine never relaxed back to Normal");
  engine.stop(StopMode::kDrain);

  const EngineStats s = engine.stats();
  EXPECT_GE(max_state, 1);
  EXPECT_EQ(s.overload_state, 0);
  EXPECT_GT(cause(s, obs::DropCause::kShed), 0u);
  EXPECT_GT(cause(s, obs::DropCause::kBufferLimit), 0u);  // the raw burst
  expect_shed_ledger(s);
}

// A scripted dispatcher pause longer than the stall timeout must be
// detected as a stall and healed by the watchdog: service resumes, the
// episode is counted as a recovery, and the engine does NOT end stalled.
TEST(RtOverload, PauseFaultIsDetectedAndRecovered) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.stall_timeout = 0.03;  // > the 10 ms per-packet service time
  opts.fault_plan.pauses.push_back({/*at=*/0.05, /*duration=*/0.12});
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(8e5), opts);
  engine.start();
  for (uint64_t i = 0; i < 30; ++i)
    EXPECT_TRUE(engine.offer_wait(0, make_packet(0, i)));
  wait_for([&] { return engine.stats().transmitted == 30u; },
           "service never resumed after the pause");
  engine.stop(StopMode::kDrain);

  const EngineStats s = engine.stats();
  EXPECT_GE(s.stalls, 1u);
  EXPECT_EQ(s.recoveries, s.stalls);  // every episode healed
  EXPECT_FALSE(engine.stalled());
  EXPECT_EQ(s.transmitted, 30u);
  EXPECT_EQ(s.backlog, 0u);
  expect_shed_ledger(s);
}

// Clock faults: a forward jump ages the pacing deadline harmlessly; the
// backward jump freezes the engine's time axis (monotone clamp), parking
// `now` just short of the next deadline. The watchdog — which runs on the
// raw axis precisely so faults cannot blind it — must re-pace the wedged
// transmission and limp through the frozen window without losing a packet.
TEST(RtOverload, ClockJumpsRecoverWithExactConservation) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.stall_timeout = 0.03;
  opts.fault_plan.jumps.push_back({/*at=*/0.02, /*delta=*/0.3});
  opts.fault_plan.jumps.push_back({/*at=*/0.06, /*delta=*/-0.2});
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(8e5), opts);
  engine.start();
  for (uint64_t i = 0; i < 25; ++i)
    EXPECT_TRUE(engine.offer_wait(0, make_packet(0, i)));
  wait_for([&] { return engine.stats().transmitted == 25u; },
           "service never resumed after the clock jumps", 10.0);
  engine.stop(StopMode::kDrain);

  const EngineStats s = engine.stats();
  EXPECT_GE(s.stalls, 1u) << "frozen clock never tripped the raw-axis dog";
  EXPECT_GE(s.recoveries, 1u);
  EXPECT_FALSE(engine.stalled());
  EXPECT_EQ(s.transmitted, 25u);
  EXPECT_DOUBLE_EQ(s.tx_bits, 25 * kBits);
  // Net transform is +0.1 s: the engine axis runs ahead of the raw axis.
  EXPECT_GE(engine.now(), engine.clock().raw_now());
  expect_shed_ledger(s);
}

// Deterministic permanent-wedge conservation, with ring leftovers. The
// scripted timeline (raw axis):
//   [0.00, 0.25)  pause 1 — the dispatcher is frozen before its first drain;
//                 20 offers land on the capacity-8 ring: 8 pushed, 12
//                 counted ingress drops at the ring mouth.
//   ~0.25         drain: 8 injects resolve against buffer_limit=2 under the
//                 policy being tested; the hoarding scheduler then defeats
//                 every dequeue.
//   [0.26, 0.56)  pause 2 — 5 more offers sit in the ring with nobody
//                 draining.
//   ~0.56         the watchdog (budget 0) fires once and stops permanently:
//                 ring leftovers become `abandoned`, backlog stays visible.
EngineStats run_permanent_wedge(net::OverloadPolicy policy) {
  HoardingScheduler sched;
  sched.add_flow(1e6, kBits);
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.ring_capacity = 8;
  opts.buffer_limit = 2;
  opts.overload_policy = policy;
  opts.stall_timeout = 0.05;
  opts.restart_budget = 0;
  opts.fault_plan.pauses.push_back({/*at=*/0.0, /*duration=*/0.25});
  opts.fault_plan.pauses.push_back({/*at=*/0.26, /*duration=*/0.3});
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e9), opts);
  engine.start();
  for (uint64_t i = 0; i < 20; ++i)
    engine.offer(0, make_packet(i % 2, i));  // 8 pushed, 12 ring-full drops
  wait_for([&] { return engine.stats().ingress_pushed >= 8u &&
                        engine.stats().accepted +
                                engine.stats().dropped() >= 8u; },
           "pause 1 never ended / drain never ran");
  // Inside pause 2: refill the ring so the final wedge has leftovers.
  wait_for([&] { return engine.clock().raw_now() >= 0.28; }, "raw clock");
  for (uint64_t i = 0; i < 5; ++i)
    EXPECT_TRUE(engine.offer(0, make_packet(i % 2, 100 + i)));
  wait_for([&] { return engine.stalled(); }, "watchdog never gave up");
  EXPECT_FALSE(engine.offer(0, make_packet(0, 999)));
  engine.stop(StopMode::kAbandon);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.ingress_pushed, 13u);
  EXPECT_GE(s.ingress_drops, 13u);  // 12 ring-full + the post-stall refusal
  EXPECT_EQ(s.abandoned, 5u);       // ring leftovers, counted not lost
  EXPECT_EQ(s.transmitted, 0u);
  EXPECT_EQ(s.backlog, 2u);
  EXPECT_EQ(s.stalls, 1u);
  EXPECT_EQ(s.recoveries, 0u);
  expect_shed_ledger(s);
  return s;
}

TEST(RtOverload, PermanentWedgeConservesLedgerUnderTailDrop) {
  const EngineStats s = run_permanent_wedge(net::OverloadPolicy::kTailDrop);
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(cause(s, obs::DropCause::kBufferLimit), 6u);
  EXPECT_EQ(cause(s, obs::DropCause::kPushout), 0u);
}

TEST(RtOverload, PermanentWedgeConservesLedgerUnderPushout) {
  const EngineStats s = run_permanent_wedge(net::OverloadPolicy::kPushout);
  EXPECT_EQ(s.accepted, 8u);
  EXPECT_EQ(cause(s, obs::DropCause::kPushout), 6u);
  EXPECT_EQ(cause(s, obs::DropCause::kBufferLimit), 0u);
}

// Producer backpressure end to end: a paused dispatcher leaves the tiny
// ring full, try_offer reports kBackpressure, and LoadGen's bounded
// retry/backoff gives up stale packets as `abandoned`. Every attempt is
// accounted on both the producer and the engine ledgers, and the retry /
// abandon telemetry counters match the producer's own tallies exactly.
TEST(RtOverload, BackpressureRetryAndDeadlineKeepTheLedgerExact) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.ring_capacity = 2;
  opts.fault_plan.pauses.push_back({/*at=*/0.0, /*duration=*/0.15});
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(8e6), opts);
  tel::Telemetry plane;
  engine.set_telemetry(&plane);

  FlowLoad l;
  l.flow = 0;
  l.rate = 8e5;  // 100 packets/s of model time
  l.packet_bits = kBits;
  LoadGenOptions lg;
  lg.paced = false;
  // Unbounded retries: the 0.05 s deadline ends each blocked attempt, so the
  // 0.15 s pause abandons a few packets and the rest push once it ends.
  lg.max_retries = 0;
  lg.offer_deadline = 0.05;

  engine.start();
  LoadGen gen(engine, {{l}}, lg);
  gen.start(/*duration=*/0.5);  // 50 packets, blasted against the pause
  gen.join();
  engine.stop(StopMode::kDrain);

  const LoadGen::ProducerStats ps = gen.producer_stats(0);
  EXPECT_EQ(ps.attempts, 50u);
  EXPECT_EQ(ps.dropped, 0u);  // retry mode never silently drops
  EXPECT_EQ(ps.attempts, ps.pushed + ps.dropped + ps.abandoned);
  EXPECT_GT(ps.retries, 0u);
  EXPECT_GT(ps.abandoned, 0u) << "the pause should have forced abandons";
  EXPECT_GT(ps.pushed, opts.ring_capacity)
      << "post-pause offers should succeed, not just the pre-pause slots";

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.ingress_pushed, ps.pushed);
  EXPECT_EQ(s.ingress_drops, ps.abandoned);  // resolved on the engine ledger
  EXPECT_EQ(s.transmitted, ps.pushed);       // drain served every admit
  expect_shed_ledger(s);

  const tel::TelemetrySnapshot snap = plane.snapshot();
  EXPECT_EQ(snap.counter_total(tel::CounterId::kOfferRetries), ps.retries);
  EXPECT_EQ(snap.counter_total(tel::CounterId::kOfferAbandoned),
            ps.abandoned);
  EXPECT_EQ(snap.counter_total(tel::CounterId::kIngressPushed), ps.pushed);
}

}  // namespace
}  // namespace sfq::rt
