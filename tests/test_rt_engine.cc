// Wall-clock engine (rt/engine.h): drop-taxonomy ledger across the ingress /
// pre-enqueue / post-enqueue stages, packet conservation under multi-producer
// load, lifecycle edges, and Theorem-1 fairness measured on the real clock at
// coarse granularity. Durations are kept small; anything timing-sensitive
// asserts ledger identities (exact by construction) rather than exact counts.
#include "rt/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/sfq_scheduler.h"
#include "net/rate_profile.h"
#include "obs/invariant_checker.h"
#include "obs/telemetry/telemetry.h"
#include "rt/load_gen.h"
#include "rt/sync_sink.h"
#include "stats/fairness.h"

namespace sfq::rt {
namespace {

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

// Every offered packet that reached the dispatcher is either accepted or
// pre-enqueue dropped; spin until `n` have been resolved one way or the
// other (bounded — fails the test instead of hanging).
void wait_processed(const RtEngine& engine, uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    const EngineStats s = engine.stats();
    const uint64_t processed = s.accepted +
                               cause(s, obs::DropCause::kBufferLimit) +
                               cause(s, obs::DropCause::kUnknownFlow);
    if (processed >= n) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "dispatcher stalled: processed " << processed << "/" << n;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void expect_ledger(const EngineStats& s) {
  // ingress_pushed == accepted + pre-enqueue drops + abandoned
  EXPECT_EQ(s.ingress_pushed,
            s.accepted + cause(s, obs::DropCause::kUnknownFlow) +
                cause(s, obs::DropCause::kBufferLimit) + s.abandoned);
  // accepted == transmitted + backlog + post-enqueue drops
  EXPECT_EQ(s.accepted, s.transmitted + s.backlog +
                            cause(s, obs::DropCause::kPushout) +
                            cause(s, obs::DropCause::kFlowRemoved));
}

TEST(RtEngine, MultiProducerConservation) {
  SfqScheduler sched;
  for (int f = 0; f < 4; ++f) sched.add_flow(1e6, kBits);

  obs::InvariantChecker checker(
      obs::InvariantChecker::for_scheduler("SFQ"));
  SyncSink sync(checker);
  obs::Tracer tracer;
  tracer.add_sink(&sync);

  EngineOptions opts;
  opts.producers = 2;
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e9), opts);
  engine.set_tracer(&tracer);

  // Unpaced blast with blocking backpressure: every generated packet must
  // come out the other side.
  std::vector<std::vector<FlowLoad>> producers(2);
  for (FlowId f = 0; f < 4; ++f) {
    FlowLoad l;
    l.flow = f;
    l.rate = 4e7;  // 5000 packets/s of model time per flow
    l.packet_bits = kBits;
    producers[f % 2].push_back(l);
  }
  LoadGenOptions lg;
  lg.paced = false;
  lg.block_on_full = true;

  engine.start();
  LoadGen gen(engine, std::move(producers), lg);
  gen.start(/*duration=*/0.2);
  gen.join();
  engine.stop(StopMode::kDrain);
  tracer.finish();

  const EngineStats s = engine.stats();
  EXPECT_EQ(gen.produced_total(), 4u * 1000u);
  EXPECT_EQ(s.ingress_pushed, gen.produced_total());
  EXPECT_EQ(s.transmitted, gen.produced_total());
  EXPECT_EQ(s.ingress_drops, 0u);
  EXPECT_EQ(s.dropped(), 0u);
  EXPECT_EQ(s.backlog, 0u);
  EXPECT_DOUBLE_EQ(s.tx_bits, gen.produced_total() * kBits);
  expect_ledger(s);

  // Per-flow service totals add up to the link total.
  double sum = 0.0;
  for (double b : engine.service_snapshot()) sum += b;
  EXPECT_DOUBLE_EQ(sum, s.tx_bits);

  // The dispatcher replayed a legal SFQ schedule on the wall clock.
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.events_seen(), 0u);
}

TEST(RtEngine, UnknownFlowIsCountedDrop) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e9));
  engine.start();
  EXPECT_TRUE(engine.offer(0, make_packet(/*flow=*/5, 0)));
  EXPECT_TRUE(engine.offer(0, make_packet(/*flow=*/0, 1)));
  wait_processed(engine, 2);
  engine.stop(StopMode::kDrain);

  const EngineStats s = engine.stats();
  EXPECT_EQ(cause(s, obs::DropCause::kUnknownFlow), 1u);
  EXPECT_EQ(s.transmitted, 1u);
  expect_ledger(s);
}

TEST(RtEngine, BufferLimitTailDrop) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.buffer_limit = 2;  // plus at most one packet in flight
  // 0.1 s per packet: arrivals outpace service by construction.
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(8e4), opts);
  engine.start();
  for (uint64_t i = 0; i < 10; ++i)
    EXPECT_TRUE(engine.offer(0, make_packet(0, i)));
  wait_processed(engine, 10);
  engine.stop(StopMode::kAbandon);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.ingress_pushed, 10u);
  EXPECT_GT(cause(s, obs::DropCause::kBufferLimit), 0u);
  EXPECT_LE(s.accepted, 4u);  // limit + in-flight + the first dequeue race
  EXPECT_GT(s.backlog, 0u);   // kAbandon leaves the backlog in place
  expect_ledger(s);
}

TEST(RtEngine, PushoutEvictsLongestQueue) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.buffer_limit = 2;
  opts.overload_policy = net::OverloadPolicy::kPushout;
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(8e4), opts);
  engine.start();
  // Flow 0 fills the buffer, then flow 1's arrivals must push flow 0 out.
  for (uint64_t i = 0; i < 6; ++i)
    EXPECT_TRUE(engine.offer(0, make_packet(0, i)));
  for (uint64_t i = 0; i < 4; ++i)
    EXPECT_TRUE(engine.offer(0, make_packet(1, i)));
  wait_processed(engine, 10);
  engine.stop(StopMode::kAbandon);

  const EngineStats s = engine.stats();
  EXPECT_GT(cause(s, obs::DropCause::kPushout), 0u);
  EXPECT_GT(s.accepted, 0u);
  expect_ledger(s);
  // Flow 1 still has presence in the final backlog: pushout made room.
  EXPECT_GT(sched.backlog_bits(1) + engine.flow_tx_bits(1), 0.0);
}

TEST(RtEngine, OfferOutsideRunWindowIsRefused) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e9));

  EXPECT_FALSE(engine.offer(0, make_packet(0, 0)));  // before start()
  engine.start();
  engine.stop(StopMode::kDrain);
  EXPECT_FALSE(engine.offer(0, make_packet(0, 1)));  // after stop()
  EXPECT_FALSE(engine.offer_wait(0, make_packet(0, 2)));

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.ingress_drops, 3u);
  EXPECT_EQ(s.ingress_pushed, 0u);
  expect_ledger(s);
}

TEST(RtEngine, LifecycleEdges) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e9));
  engine.start();
  EXPECT_TRUE(engine.running());
  EXPECT_THROW(engine.start(), std::logic_error);
  EXPECT_THROW(engine.set_tracer(nullptr), std::logic_error);
  engine.stop(StopMode::kDrain);
  engine.stop(StopMode::kDrain);  // idempotent
  EXPECT_FALSE(engine.running());
}

// Theorem 1 on the wall clock: two continuously backlogged paced flows with
// weights 3:1 on an overloaded link; at coarse sampling instants the
// normalized service gap must stay within l_f/r_f + l_m/r_m, plus one pacing
// quantum per flow for in-flight attribution at window edges. The link is
// slow (1 ms per packet) so the bound dwarfs dispatcher jitter even under
// instrumented (TSAN/ASan) builds.
TEST(RtEngine, WallClockFairnessWithinTheorem1Bound) {
  const double rf = 6e6, rm = 2e6, cap = 8e6;
  SfqScheduler sched;
  sched.add_flow(rf, kBits);
  sched.add_flow(rm, kBits);

  EngineOptions opts;
  opts.producers = 2;
  opts.buffer_limit = 128;
  opts.overload_policy = net::OverloadPolicy::kPushout;
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(cap), opts);

  std::vector<std::vector<FlowLoad>> producers(2);
  for (FlowId f = 0; f < 2; ++f) {
    FlowLoad l;
    l.flow = f;
    l.rate = 2.0 * (f == 0 ? rf : rm);  // 2x weight: always backlogged
    l.packet_bits = kBits;
    producers[f].push_back(l);
  }

  engine.start();
  const Time t0 = engine.now();
  LoadGen gen(engine, std::move(producers), {});  // paced
  gen.start(/*duration=*/1.0);

  std::vector<std::vector<double>> snaps;
  while (engine.now() - t0 < 1.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    snaps.push_back(engine.service_snapshot());
  }
  gen.join();
  engine.stop(StopMode::kDrain);

  const double bound = stats::sfq_fairness_bound(kBits, rf, kBits, rm);
  const double slack = kBits / rf + kBits / rm;
  const std::size_t lo = snaps.size() / 4;
  const std::size_t hi = snaps.size() - snaps.size() / 4;
  ASSERT_GT(hi, lo + 2) << "too few snapshots";
  double worst = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    for (std::size_t j = i + 1; j < hi; ++j) {
      const double gap = std::abs((snaps[j][0] - snaps[i][0]) / rf -
                                  (snaps[j][1] - snaps[i][1]) / rm);
      if (gap > worst) worst = gap;
    }
  }
  EXPECT_LE(worst, bound + slack)
      << "worst normalized gap " << worst << "s over Theorem-1 bound "
      << bound << "s (+" << slack << "s slack)";
  // Both flows made progress roughly in weight proportion overall.
  EXPECT_GT(engine.flow_tx_bits(0), engine.flow_tx_bits(1));
}

// A discipline that accepts packets but never serves them — the pathology
// the stall watchdog exists for. Without the watchdog the dispatcher spins
// forever with obligations it can never discharge.
class HoardingScheduler final : public SfqScheduler {
 public:
  using SfqScheduler::SfqScheduler;
  std::optional<Packet> dequeue(Time) override { return std::nullopt; }
};

TEST(RtEngine, StallWatchdogStopsAWedgedDispatcher) {
  HoardingScheduler sched;
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.stall_timeout = 0.05;
  opts.restart_budget = 0;  // no restarts: first stall stops permanently
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e9), opts);
  engine.start();
  for (uint64_t i = 0; i < 4; ++i)
    EXPECT_TRUE(engine.offer(0, make_packet(0, i)));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!engine.stalled() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(engine.stalled()) << "watchdog never fired";

  // A stalled engine refuses new work instead of queueing it into the void.
  EXPECT_FALSE(engine.offer(0, make_packet(0, 99)));
  engine.stop(StopMode::kAbandon);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.stalls, 1u);
  EXPECT_EQ(s.recoveries, 0u);
  EXPECT_EQ(s.last_stall_stage, StallStage::kSchedule);  // wedged discipline
  EXPECT_EQ(s.transmitted, 0u);
  EXPECT_EQ(s.backlog, 4u);  // hoarded packets stay visible in the ledger
  expect_ledger(s);
}

TEST(RtEngine, RestartBudgetExhaustsAgainstAPermanentWedge) {
  // With a budget, the watchdog restarts the dispatcher budget-many times
  // before giving up; a scheduler that never serves defeats every restart.
  HoardingScheduler sched;
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.stall_timeout = 0.02;
  opts.restart_budget = 2;
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e9), opts);
  engine.start();
  for (uint64_t i = 0; i < 4; ++i)
    EXPECT_TRUE(engine.offer(0, make_packet(0, i)));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!engine.stalled() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(engine.stalled()) << "watchdog never gave up";
  engine.stop(StopMode::kAbandon);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.stalls, 3u);  // budget retries + the final escalation
  EXPECT_EQ(s.recoveries, 0u);
  EXPECT_EQ(s.backlog, 4u);
  expect_ledger(s);
}

TEST(RtEngine, HealthyRunNeverTripsTheWatchdog) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.stall_timeout = 0.5;  // far above the 8 us per-packet service time
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e9), opts);
  engine.start();
  for (uint64_t i = 0; i < 50; ++i)
    EXPECT_TRUE(engine.offer_wait(0, make_packet(0, i)));
  wait_processed(engine, 50);
  engine.stop(StopMode::kDrain);
  EXPECT_FALSE(engine.stalled());
  EXPECT_EQ(engine.stats().stalls, 0u);
  EXPECT_EQ(engine.stats().transmitted, 50u);
}

TEST(RtEngine, CaptureRecordsTheFullOpSequence) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  sched.add_flow(3e6, kBits);
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e8));
  std::vector<CaptureOp> ops;
  engine.set_capture(&ops);
  engine.start();
  EXPECT_THROW(engine.set_capture(nullptr), std::logic_error);
  for (uint64_t i = 0; i < 30; ++i)
    EXPECT_TRUE(engine.offer_wait(0, make_packet(i % 2, i / 2)));
  wait_processed(engine, 30);
  engine.stop(StopMode::kDrain);

  // The op log is a complete account: one enqueue per accepted packet, one
  // dequeue + one complete per transmission, in non-decreasing time order.
  const EngineStats s = engine.stats();
  uint64_t enq = 0, deq = 0, done = 0;
  Time prev = 0.0;
  for (const CaptureOp& op : ops) {
    switch (op.kind) {
      case CaptureOp::Kind::kEnqueue: ++enq; break;
      case CaptureOp::Kind::kDequeue: ++deq; break;
      case CaptureOp::Kind::kComplete: ++done; break;
      case CaptureOp::Kind::kPushout: break;
      case CaptureOp::Kind::kRemove: break;   // residency ops: failover only
      case CaptureOp::Kind::kRejoin: break;
    }
    EXPECT_GE(op.t, prev);
    prev = op.t;
  }
  EXPECT_EQ(enq, s.accepted);
  EXPECT_EQ(deq, s.transmitted);
  EXPECT_EQ(done, s.transmitted);
  EXPECT_EQ(s.transmitted, 30u);
  // Dequeues carry the tags the live scheduler assigned — the raw material
  // for the chaos harness's sim replay (S(p) = max(v(A), F_prev) both hold
  // trivially here with one packet per flow outstanding at the head).
  for (const CaptureOp& op : ops) {
    if (op.kind == CaptureOp::Kind::kDequeue) {
      EXPECT_GT(op.packet.finish_tag, op.packet.start_tag);
    }
  }
}

// Per-batch clock reads on a link so fast that every transmission falls due
// almost at once: capture times never decrease, no enqueue precedes its
// packet's arrival, and the pacing chain keeps up with the clock. Without
// the serve batch's one renewal read, a restarted chain waits a whole loop,
// the backlog persists, and nearly every completion lags by the 1 ms
// catch-up window.
TEST(RtEngine, BatchedClockReadsKeepCaptureMonotoneAtAnUnboundedLink) {
  namespace tel = obs::telemetry;
  constexpr std::size_t kProducers = 2;
  constexpr uint64_t kPerProducer = 20000;
  SfqScheduler sched;
  for (int f = 0; f < 4; ++f) sched.add_flow(1e6 * (f + 1), 512.0);
  EngineOptions opts;
  opts.producers = kProducers;
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e15), opts);
  std::vector<CaptureOp> ops;
  engine.set_capture(&ops);
  tel::Telemetry plane;
  engine.set_telemetry(&plane);
  engine.start();
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < kProducers; ++i) {
    producers.emplace_back([&engine, i] {
      for (uint64_t k = 0; k < kPerProducer; ++k)
        engine.offer_wait(i, make_packet(static_cast<FlowId>((k + i) % 4),
                                         k, /*bits=*/512.0));
    });
  }
  for (auto& t : producers) t.join();
  engine.stop(StopMode::kDrain);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.transmitted, kProducers * kPerProducer);
  expect_ledger(s);
  Time prev = 0.0;
  uint64_t enq = 0;
  for (const CaptureOp& op : ops) {
    ASSERT_GE(op.t, prev);
    prev = op.t;
    if (op.kind == CaptureOp::Kind::kEnqueue) {
      ++enq;
      ASSERT_GE(op.t, op.packet.arrival);
    }
  }
  EXPECT_EQ(enq, s.accepted);
  // The typical completion lag, from the dispatcher's sampled service-lag
  // histogram. Its median rather than max_service_lag: one preemption of the
  // dispatcher on a loaded host sets the max, but cannot move the median.
  const tel::HistogramSnapshot lag =
      plane.snapshot().hist_total(tel::HistId::kServiceLag);
  ASSERT_GT(lag.count, 0u);
  EXPECT_LT(lag.quantile_s(0.5), 0.25e-3);
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// A paced link at 0.9 load: the dispatcher sleeps toward each transmission
// deadline instead of spinning, so the engine's CPU stays well under the
// run's wall time. Its late wake-ups lose nothing: every packet is
// transmitted, the ledger is exact and the typical completion lag stays
// within the timer slack. The engine's CPU is the process's minus this
// test's own threads (the main thread and the producer).
TEST(RtEngine, PacedLinkSleepsThroughTransmissions) {
  namespace tel = obs::telemetry;
  constexpr double kPacketBits = 12000.0;  // 10 us on the link below
  constexpr double kLinkRate = 1.2e9;
  constexpr double kRunSeconds = 0.3;
  SfqScheduler sched;
  for (int f = 0; f < 4; ++f) sched.add_flow(kLinkRate / 4, kPacketBits);
  // Open-loop Poisson arrivals at 0.9 of the link, generated up front.
  std::mt19937_64 rng(26);
  std::exponential_distribution<double> gap(0.9 * kLinkRate / kPacketBits);
  std::vector<Time> due;
  for (Time t = gap(rng); t < kRunSeconds; t += gap(rng)) due.push_back(t);

  RtEngine engine(sched, std::make_unique<net::ConstantRate>(kLinkRate));
  tel::Telemetry plane;
  engine.set_telemetry(&plane);
  const double main_cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const double proc_cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const auto wall0 = std::chrono::steady_clock::now();
  engine.start();
  double producer_cpu = 0.0;
  std::thread producer([&] {
    const Time t0 = engine.now();
    for (std::size_t k = 0; k < due.size(); ++k) {
      for (Time wait; (wait = t0 + due[k] - engine.now()) > 0.0;)
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      engine.offer_wait(0, make_packet(static_cast<FlowId>(k % 4), k,
                                       kPacketBits));
    }
    producer_cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  });
  producer.join();
  engine.stop(StopMode::kDrain);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  const double engine_cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) -
                            proc_cpu0 - producer_cpu -
                            (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - main_cpu0);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.transmitted, due.size());
  expect_ledger(s);
  const tel::HistogramSnapshot lag =
      plane.snapshot().hist_total(tel::HistId::kServiceLag);
  ASSERT_GT(lag.count, 0u);
  EXPECT_LT(lag.quantile_s(0.5), 0.25e-3);
  // Under ThreadSanitizer the instrumented engine and the sanitizer's runtime
  // thread read ~75% of the wall time here, so that build checks the service
  // but not the budget.
#ifdef __SANITIZE_THREAD__
  constexpr double kCpuBudget = 1e9;
#else
  constexpr double kCpuBudget = 0.5;
#endif
  EXPECT_LT(engine_cpu, kCpuBudget * wall)
      << "engine CPU " << engine_cpu << " s over a " << wall << " s run";
}

// Two-slot rings under a 64-arrival drain batch: slots are handed back at
// batch end and whenever the dispatcher catches up with a ring, so blocking
// producers always get room again. Everything is delivered and the ledger
// is exact. A wedge would leave the producers spinning in offer_wait; the
// test then abandons the engine (which makes offer_wait return) and fails
// instead of hanging.
TEST(RtEngine, TwoSlotRingsUnderALargerDrainBatchDeliverEverything) {
  constexpr std::size_t kProducers = 2;
  constexpr uint64_t kPerProducer = 20000;
  SfqScheduler sched;
  for (int f = 0; f < 4; ++f) sched.add_flow(1e6 * (f + 1), 512.0);
  EngineOptions opts;
  opts.producers = kProducers;
  opts.ring_capacity = 2;
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e15), opts);
  ASSERT_EQ(engine.ingress().ring_capacity(), 2u);
  engine.start();
  std::atomic<uint64_t> offered{0};
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < kProducers; ++i) {
    producers.emplace_back([&engine, &offered, i] {
      for (uint64_t k = 0; k < kPerProducer; ++k) {
        if (!engine.offer_wait(
                i, make_packet(static_cast<FlowId>((k + i) % 4), k, 512.0)))
          return;
        offered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (offered.load(std::memory_order_relaxed) < kProducers * kPerProducer &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const bool finished =
      offered.load(std::memory_order_relaxed) == kProducers * kPerProducer;
  engine.stop(finished ? StopMode::kDrain : StopMode::kAbandon);
  for (auto& t : producers) t.join();
  ASSERT_TRUE(finished) << "producers wedged at "
                        << offered.load(std::memory_order_relaxed) << " of "
                        << kProducers * kPerProducer;

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.ingress_pushed, kProducers * kPerProducer);
  EXPECT_EQ(s.ingress_drops, 0u);
  EXPECT_EQ(s.transmitted, kProducers * kPerProducer);
  EXPECT_EQ(s.dropped(), 0u);
  EXPECT_EQ(s.abandoned, 0u);
  EXPECT_EQ(s.backlog, 0u);
  expect_ledger(s);
}

// One ledger: the engine counts each event once, in per-thread cells that
// stats() sums and an attached plane reads. One deterministic load runs
// detached and attached: an offer() before set_telemetry() and start() (an
// ingress drop), 40 packets for two registered flows, 40 for an
// unregistered one (kUnknownFlow drops), one retry and one backpressured
// attempt given up (an ingress drop). Both runs report the same exact
// counts; the plane, snapshotted after its engine is gone, reports every
// one of them.
struct OneLedgerRun {
  EngineStats stats;
  uint64_t offers = 0;
};

OneLedgerRun run_one_ledger_load(obs::telemetry::Telemetry* plane) {
  namespace tel = obs::telemetry;
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  sched.add_flow(1e6, kBits);
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e9));
  OneLedgerRun r;
  EXPECT_FALSE(engine.offer(0, make_packet(0, 0)));
  ++r.offers;
  EXPECT_EQ(engine.stats().ingress_drops, 1u);
  if (plane != nullptr) {
    engine.set_telemetry(plane);
    EXPECT_EQ(plane->snapshot().counter_total(tel::CounterId::kIngressDrops),
              1u);
  }
  engine.start();
  for (uint64_t i = 1; i <= 40; ++i) {
    EXPECT_TRUE(engine.offer_wait(0, make_packet(i % 2, i)));
    EXPECT_TRUE(engine.offer(0, make_packet(/*flow=*/7, i)));
    r.offers += 2;
  }
  engine.note_offer_retry(0);
  engine.note_offer_abandoned(0);
  ++r.offers;
  wait_processed(engine, 80);
  engine.stop(StopMode::kDrain);
  r.stats = engine.stats();
  return r;
}

TEST(RtEngine, OneLedgerBehindStatsAndThePlane) {
  namespace tel = obs::telemetry;
  const OneLedgerRun detached = run_one_ledger_load(nullptr);
  tel::Telemetry plane;
  const OneLedgerRun attached = run_one_ledger_load(&plane);
  for (const OneLedgerRun* r : {&detached, &attached}) {
    const EngineStats& s = r->stats;
    expect_ledger(s);
    EXPECT_EQ(r->offers, s.ingress_pushed + s.ingress_drops);
    EXPECT_EQ(s.ingress_pushed, 80u);
    EXPECT_EQ(s.ingress_drops, 2u);  // the pre-start offer + the given-up one
    EXPECT_EQ(s.accepted, 40u);
    EXPECT_EQ(s.transmitted, 40u);
    EXPECT_EQ(s.tx_bits, 40 * kBits);
    EXPECT_EQ(cause(s, obs::DropCause::kUnknownFlow), 40u);
    EXPECT_EQ(s.dropped(), 40u);
    EXPECT_EQ(s.abandoned, 0u);
    EXPECT_EQ(s.backlog, 0u);
  }

  const EngineStats& s = attached.stats;
  const tel::TelemetrySnapshot snap = plane.snapshot();
  auto c = [&](tel::CounterId id) { return snap.counter_total(id); };
  EXPECT_EQ(c(tel::CounterId::kIngressPushed), s.ingress_pushed);
  EXPECT_EQ(c(tel::CounterId::kIngressDrops), s.ingress_drops);
  EXPECT_EQ(c(tel::CounterId::kAccepted), s.accepted);
  EXPECT_EQ(c(tel::CounterId::kTransmitted), s.transmitted);
  EXPECT_EQ(static_cast<double>(c(tel::CounterId::kTxBits)), s.tx_bits);
  EXPECT_EQ(c(tel::CounterId::kAbandoned), s.abandoned);
  EXPECT_EQ(c(tel::CounterId::kStalls), s.stalls);
  EXPECT_EQ(c(tel::CounterId::kRecoveries), s.recoveries);
  EXPECT_EQ(c(tel::CounterId::kMigratedIn), s.migrated_in);
  EXPECT_EQ(c(tel::CounterId::kMigratedOut), s.migrated_out);
  for (std::size_t i = 0; i < obs::kDropCauseCount; ++i) {
    const auto dc = static_cast<obs::DropCause>(i);
    if (dc == obs::DropCause::kNone) continue;
    EXPECT_EQ(c(tel::drop_counter(dc)), s.drops[i]) << obs::to_string(dc);
  }
  EXPECT_EQ(c(tel::CounterId::kOfferRetries), 1u);
  EXPECT_EQ(c(tel::CounterId::kOfferAbandoned), 1u);
}

// Ring-full accounting. A scripted pause freezes the dispatcher from its
// first loop, so a two-slot ring fills: offer() on the full ring counts one
// ingress drop, a backpressured try_offer counts nothing until it is given
// up, and stop(kAbandon) cuts the pause short.
TEST(RtEngine, FullRingCountsOneIngressDropPerLostOffer) {
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.ring_capacity = 2;
  opts.fault_plan.pauses.push_back({/*at=*/0.0, /*duration=*/30.0});
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(1e9), opts);
  engine.start();
  EXPECT_TRUE(engine.offer(0, make_packet(0, 1)));
  EXPECT_TRUE(engine.offer(0, make_packet(0, 2)));
  EXPECT_FALSE(engine.offer(0, make_packet(0, 3)));
  EXPECT_EQ(engine.try_offer(0, make_packet(0, 4)),
            OfferStatus::kBackpressure);
  EngineStats s = engine.stats();
  EXPECT_EQ(s.ingress_pushed, 2u);
  EXPECT_EQ(s.ingress_drops, 1u);
  engine.note_offer_abandoned(0);
  engine.stop(StopMode::kAbandon);
  s = engine.stats();
  EXPECT_EQ(s.ingress_pushed, 2u);
  EXPECT_EQ(s.ingress_drops, 2u);
  EXPECT_EQ(s.accepted + s.abandoned, 2u);
  expect_ledger(s);
}

TEST(RtEngine, TelemetryPlaneMirrorsTheLedger) {
  namespace tel = obs::telemetry;
  SfqScheduler sched;
  sched.add_flow(1e6, kBits);
  sched.add_flow(1e6, kBits);
  EngineOptions opts;
  opts.buffer_limit = 4;  // force buffer_limit drops
  RtEngine engine(sched, std::make_unique<net::ConstantRate>(4e5), opts);
  tel::Telemetry plane;
  engine.set_telemetry(&plane);
  EXPECT_EQ(engine.telemetry(), &plane);

  engine.start();
  for (uint64_t i = 1; i <= 40; ++i) {
    engine.offer_wait(0, make_packet(i % 2, i));
    engine.offer(0, make_packet(/*flow=*/7, i));  // unknown: pre-drop
  }
  wait_processed(engine, 80);
  engine.stop(StopMode::kDrain);

  const EngineStats s = engine.stats();
  const tel::TelemetrySnapshot snap = plane.snapshot();
  auto c = [&](tel::CounterId id) { return snap.counter_total(id); };
  EXPECT_EQ(c(tel::CounterId::kIngressPushed), s.ingress_pushed);
  EXPECT_EQ(c(tel::CounterId::kAccepted), s.accepted);
  EXPECT_EQ(c(tel::CounterId::kTransmitted), s.transmitted);
  EXPECT_EQ(c(tel::CounterId::kTxBits), static_cast<uint64_t>(s.tx_bits));
  EXPECT_EQ(c(tel::CounterId::kAbandoned), s.abandoned);
  EXPECT_EQ(c(tel::CounterId::kDropUnknownFlow),
            cause(s, obs::DropCause::kUnknownFlow));
  EXPECT_EQ(c(tel::CounterId::kDropBufferLimit),
            cause(s, obs::DropCause::kBufferLimit));
  EXPECT_EQ(c(tel::CounterId::kDropUnknownFlow), 40u);
  EXPECT_GT(c(tel::CounterId::kDropBufferLimit), 0u);

  // The enqueue->transmit histogram saw every transmitted packet; the dwell
  // histogram is 1-in-8 sampled on the dispatcher, so its count is the
  // sample count, not the inject count.
  EXPECT_EQ(snap.hist_total(tel::HistId::kQueueDelay).count, s.transmitted);
  EXPECT_EQ(snap.hist_total(tel::HistId::kIngressDwell).count,
            s.ingress_pushed / 8);
  EXPECT_GT(snap.hist_total(tel::HistId::kQueueDelay).quantile_s(0.5), 0.0);

  // The dispatcher's exit pass published the final backlog gauge.
  EXPECT_EQ(snap.gauge(tel::GaugeId::kBacklogPackets, 0),
            static_cast<double>(s.backlog));
}

}  // namespace
}  // namespace sfq::rt
