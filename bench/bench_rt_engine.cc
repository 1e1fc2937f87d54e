// Wall-clock real-time engine benchmark (docs/REALTIME.md).
//
// Part 1 — throughput: 4 producer threads blast pre-generated CBR traffic
// through lock-free SPSC rings into the RtEngine dispatcher, which runs each
// discipline against std::chrono::steady_clock on an effectively infinite
// link. Every packet is accounted (block-on-full backpressure, no drops), so
// packets/sec is transmitted / wall. The gate: SFQ must sustain >= 1M
// packets/sec — the paper's O(log Q) claim restated as an engineering fact.
//
// Part 2 — fairness on the wall clock: two paced CBR flows (weights 3:1)
// overload a constant-rate link; per-flow service is sampled at coarse
// wall-clock instants and the worst normalized gap |dW_f/r_f - dW_m/r_m|
// over all steady-state windows must stay within the Theorem-1 bound
// l_f/r_f + l_m/r_m (+ one pacing quantum per flow of slack for in-flight
// attribution at window edges). Theorem 1 is proved for *any* server rate
// behaviour, so it must survive real time, scheduling jitter and all.
//
// Part 3 — admission-control overhead: interleaved A/B of the Part-1
// workload with the overload machine armed-but-untriggered vs off; the
// on/off throughput ratio must stay >= 0.95 under SFQ_PERF_GATE=1
// (docs/ROBUSTNESS.md).
//
// Part 4 — sharded scaling: the Part-1 workload re-run through the
// ShardedEngine at 1 shard vs 4 shards (docs/REALTIME.md, "Sharding"). The
// aggregate-throughput ratio must reach >= 2.5x under SFQ_PERF_GATE=1 when
// the machine has cores to back it (>= 2 per shard); elsewhere the ratio is
// reported for the BENCH trajectory. A direct-offer pass under the
// allocation guard then asserts the sharded steady state — route, ring,
// dispatch, transmit, and the root thread's rebalance ticks — allocates
// nothing.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_guard.h"
#include "bench_util.h"
#include "net/rate_profile.h"
#include "rt/engine.h"
#include "rt/load_gen.h"
#include "rt/shard/sharded_engine.h"
#include "stats/fairness.h"
#include "stats/time_series.h"

namespace {

using namespace sfq;

constexpr std::size_t kProducers = 4;
constexpr std::size_t kFlows = 8;
constexpr double kPacketBits = 8000.0;
// 2 Gb/s per flow for 0.5 s of model time => 1M packets total, blasted
// unpaced as fast as the rings accept.
constexpr double kFlowRate = 2e9;
constexpr Time kGenDuration = 0.5;

struct ThroughputResult {
  double pps = 0.0;
  uint64_t produced = 0;
  uint64_t transmitted = 0;
  uint64_t dropped = 0;
};

ThroughputResult throughput(const std::string& name, bool admission = false,
                            std::size_t buffer_limit = 0) {
  auto sched = bench::make_scheduler(name, /*assumed_capacity=*/1e15,
                                     /*quantum_per_weight=*/kPacketBits / 1e9);
  for (std::size_t f = 0; f < kFlows; ++f)
    sched->add_flow(kFlowRate, kPacketBits);

  rt::EngineOptions opts;
  opts.producers = kProducers;
  opts.ring_capacity = 1 << 14;
  // Part 1 runs with buffer_limit 0: backpressure lives in the rings
  // (block-on-full). The admission A/B (Part 3) passes a huge finite cap so
  // the overload machine can arm without ever triggering.
  opts.buffer_limit = buffer_limit;
  opts.admission_control = admission;
  rt::RtEngine engine(*sched, std::make_unique<net::ConstantRate>(1e15),
                      opts);

  std::vector<std::vector<rt::FlowLoad>> producers(kProducers);
  for (std::size_t f = 0; f < kFlows; ++f) {
    rt::FlowLoad l;
    l.flow = static_cast<FlowId>(f);
    l.model = rt::FlowLoad::Model::kCbr;
    l.rate = kFlowRate;
    l.packet_bits = kPacketBits;
    producers[f % kProducers].push_back(l);
  }
  rt::LoadGenOptions lg;
  lg.paced = false;
  lg.block_on_full = true;

  engine.start();
  const Time t0 = engine.now();
  rt::LoadGen gen(engine, std::move(producers), lg);
  gen.start(kGenDuration);
  gen.join();
  engine.stop(rt::StopMode::kDrain);
  const Time wall = engine.now() - t0;

  const rt::EngineStats st = engine.stats();
  ThroughputResult r;
  r.pps = st.transmitted / wall;
  r.produced = gen.produced_total();
  r.transmitted = st.transmitted;
  r.dropped = st.dropped() + st.ingress_drops + st.abandoned;
  return r;
}

// Part 3 — admission-control overhead: the overload machine armed behind a
// buffer cap so large (1M packets vs a near-instant link) that occupancy
// never approaches the shedding threshold. The enabled-but-untriggered hot
// path adds one occupancy check per dispatcher batch and nothing per packet,
// so it must stay within 5% of the identical run with admission off. A/B pairs run
// interleaved (base, shed, base, shed, ...) and each arm keeps its best run,
// which cancels machine-wide drift the way back-to-back medians cannot.
struct AdmissionAbResult {
  double base_pps = 0.0;  // admission off, best of pairs
  double shed_pps = 0.0;  // admission armed but never triggered, best of pairs
  double ratio = 0.0;     // shed / base
  uint64_t shed_drops = 0;  // must be 0: the machine never triggered
};

AdmissionAbResult admission_ab(int pairs) {
  constexpr std::size_t kIdleCap = 1 << 20;
  AdmissionAbResult r;
  for (int p = 0; p < pairs; ++p) {
    const ThroughputResult base =
        throughput("SFQ", /*admission=*/false, kIdleCap);
    const ThroughputResult shed =
        throughput("SFQ", /*admission=*/true, kIdleCap);
    if (base.pps > r.base_pps) r.base_pps = base.pps;
    if (shed.pps > r.shed_pps) r.shed_pps = shed.pps;
    r.shed_drops += shed.dropped;
  }
  r.ratio = r.base_pps > 0.0 ? r.shed_pps / r.base_pps : 0.0;
  return r;
}

struct FairnessResult {
  double worst_gap = 0.0;   // max |dW_f/r_f - dW_m/r_m| over windows (s)
  double bound = 0.0;       // Theorem-1: l_f/r_f + l_m/r_m (s)
  double slack = 0.0;       // one pacing quantum per flow (s)
  double link_util = 0.0;
  bool ok = false;
};

FairnessResult wall_clock_fairness() {
  const double rf = 30e6, rm = 10e6;  // 3:1 weights, bits/s
  const double cap = 40e6;
  const Time duration = 1.5;

  auto sched = bench::make_scheduler("SFQ", cap, 1.0);
  sched->add_flow(rf, kPacketBits);
  sched->add_flow(rm, kPacketBits);

  rt::EngineOptions opts;
  opts.producers = 2;
  opts.buffer_limit = 256;
  opts.overload_policy = net::OverloadPolicy::kPushout;
  rt::RtEngine engine(*sched, std::make_unique<net::ConstantRate>(cap), opts);

  // One producer thread per flow; both offer 2x their weight so they stay
  // continuously backlogged — the Theorem-1 premise.
  std::vector<std::vector<rt::FlowLoad>> producers(2);
  for (std::size_t f = 0; f < 2; ++f) {
    rt::FlowLoad l;
    l.flow = static_cast<FlowId>(f);
    l.model = rt::FlowLoad::Model::kCbr;
    l.rate = 2.0 * (f == 0 ? rf : rm);
    l.packet_bits = kPacketBits;
    producers[f].push_back(l);
  }

  engine.start();
  const Time t0 = engine.now();
  rt::LoadGen gen(engine, std::move(producers), {});
  gen.start(duration);

  std::vector<std::vector<double>> snaps;
  const Time snap_every = 0.075;
  Time next = t0 + snap_every;
  while (engine.now() - t0 < duration) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (engine.now() >= next) {
      snaps.push_back(engine.service_snapshot());
      next += snap_every;
    }
  }
  gen.join();
  engine.stop(rt::StopMode::kDrain);
  const Time wall = engine.now() - t0;

  FairnessResult r;
  r.bound = stats::sfq_fairness_bound(kPacketBits, rf, kPacketBits, rm);
  r.slack = kPacketBits / rf + kPacketBits / rm;
  r.link_util = engine.stats().tx_bits / wall / cap;
  // Steady-state middle: skip the first/last quarter of samples (ramp-up
  // before both flows backlog; drain at the end).
  const std::size_t lo = snaps.size() / 4;
  const std::size_t hi = snaps.size() - snaps.size() / 4;
  for (std::size_t i = lo; i < hi; ++i) {
    for (std::size_t j = i + 1; j < hi; ++j) {
      const double df = snaps[j][0] - snaps[i][0];
      const double dm = snaps[j][1] - snaps[i][1];
      const double gap = std::fabs(df / rf - dm / rm);
      if (gap > r.worst_gap) r.worst_gap = gap;
    }
  }
  r.ok = hi > lo + 2 && r.worst_gap <= r.bound + r.slack;
  return r;
}

// Part 4 — sharded scaling. 72 flows so the SplitMix64 router spreads them
// [16, 16, 20, 20] over 4 shards (max shard 27.8% of the flows: a 3.6x
// parallelism ceiling, comfortably above the 2.5x gate); per-flow rate is
// scaled so the total offered load stays the Part-1 1M packets.
constexpr std::size_t kShardFlows = 72;
constexpr double kShardFlowRate =
    kFlowRate * static_cast<double>(kFlows) / static_cast<double>(kShardFlows);

struct ShardedResult {
  ThroughputResult tp;
  std::vector<uint64_t> shard_tx;  // per-shard transmitted
};

std::unique_ptr<rt::ShardedEngine> make_sharded(std::size_t shards,
                                                std::size_t producers) {
  std::vector<rt::ShardFlow> flows(
      kShardFlows, rt::ShardFlow{kShardFlowRate, kPacketBits, ""});
  rt::ShardedEngineOptions opts;
  opts.shards = shards;
  opts.link_rate = 1e15;  // effectively infinite: dispatch-bound, not paced
  opts.engine.producers = producers;
  opts.engine.ring_capacity = 1 << 14;
  opts.engine.buffer_limit = 0;  // backpressure in the rings, no drops
  auto factory = [](std::size_t, double share) {
    return bench::make_scheduler("SFQ", /*assumed_capacity=*/1e15 * share,
                                 /*quantum_per_weight=*/kPacketBits / 1e9);
  };
  return rt::ShardedEngine::try_create(factory, std::move(flows), opts);
}

ShardedResult sharded_throughput(std::size_t shards) {
  std::unique_ptr<rt::ShardedEngine> engine = make_sharded(shards, kProducers);

  std::vector<std::vector<rt::FlowLoad>> producers(kProducers);
  for (std::size_t f = 0; f < kShardFlows; ++f) {
    rt::FlowLoad l;
    l.flow = static_cast<FlowId>(f);
    l.model = rt::FlowLoad::Model::kCbr;
    l.rate = kShardFlowRate;
    l.packet_bits = kPacketBits;
    producers[f % kProducers].push_back(l);
  }
  rt::LoadGenOptions lg;
  lg.paced = false;
  lg.block_on_full = true;

  engine->start();
  const Time t0 = engine->now();
  rt::LoadGen gen(*engine, std::move(producers), lg);
  gen.start(kGenDuration);
  gen.join();
  engine->stop(rt::StopMode::kDrain);
  const Time wall = engine->now() - t0;

  const rt::EngineStats st = engine->stats();
  ShardedResult r;
  r.tp.pps = st.transmitted / wall;
  r.tp.produced = gen.produced_total();
  r.tp.transmitted = st.transmitted;
  r.tp.dropped = st.dropped() + st.ingress_drops + st.abandoned;
  for (std::size_t k = 0; k < shards; ++k)
    r.shard_tx.push_back(engine->shard_stats(k).transmitted);
  return r;
}

// Steady-state allocations in the sharded hot path, measured the way
// bench_scheduler_perf measures the scheduler: warm up (rings, pools and the
// per-shard engines reach steady occupancy), arm the guard, push a burst of
// direct offers from this thread while 4 dispatchers drain concurrently,
// disarm. Routing, ring hand-off, dispatch, transmit and the root thread's
// rebalance step (it ticks every 2 ms throughout) must not touch the
// allocator.
uint64_t sharded_steady_allocs(std::size_t shards, std::size_t packets) {
  std::unique_ptr<rt::ShardedEngine> engine =
      make_sharded(shards, /*producers=*/1);
  engine->start();

  Packet p;
  p.length_bits = kPacketBits;
  uint64_t seq = 0;
  for (std::size_t i = 0; i < packets; ++i) {  // warmup
    p.flow = static_cast<FlowId>(i % kShardFlows);
    p.seq = seq++;
    if (!engine->offer_wait(0, p)) break;
  }
  bench::alloc_guard_arm();
  for (std::size_t i = 0; i < packets; ++i) {
    p.flow = static_cast<FlowId>(i % kShardFlows);
    p.seq = seq++;
    if (!engine->offer_wait(0, p)) break;
  }
  const uint64_t allocs = bench::alloc_guard_disarm();
  engine->stop(rt::StopMode::kDrain);
  return allocs;
}

}  // namespace

int main() {
  bench::print_header(
      "Real-time engine — wall-clock throughput and Theorem-1 fairness",
      "Goyal/Vin/Cheng SFQ paper, §2.5 (O(log Q) cost) + Theorem 1",
      "SFQ >= 1M packets/s with 4 producer threads, every packet accounted; "
      "wall-clock service gap within l_f/r_f + l_m/r_m (+1 pacing quantum)");

  bench::JsonReport report("rt_engine");
  bool ok = true;

  std::printf("\nthroughput, %zu producer threads, %zu flows, unpaced "
              "(1M packets each run):\n",
              kProducers, kFlows);
  stats::TablePrinter t(
      {"scheduler", "packets/s", "produced", "transmitted", "lost"});
  for (const std::string name : {"SFQ", "SCFQ", "VC", "DRR", "FIFO"}) {
    const ThroughputResult r = throughput(name);
    t.row({name, stats::TablePrinter::num(r.pps, 0),
           stats::TablePrinter::num(static_cast<double>(r.produced), 0),
           stats::TablePrinter::num(static_cast<double>(r.transmitted), 0),
           stats::TablePrinter::num(static_cast<double>(r.dropped), 0)});
    report.add(name, "packets_per_sec", r.pps);
    report.add(name, "produced", static_cast<double>(r.produced));
    report.add(name, "transmitted", static_cast<double>(r.transmitted));
    if (r.produced != r.transmitted || r.dropped != 0) {
      std::printf("!! %s lost packets (produced %llu != transmitted %llu)\n",
                  name.c_str(),
                  static_cast<unsigned long long>(r.produced),
                  static_cast<unsigned long long>(r.transmitted));
      ok = false;
    }
    if (name == "SFQ" && r.pps < 1e6) {
      std::printf("!! SFQ below 1M packets/s gate: %.3g\n", r.pps);
      ok = false;
    }
  }

  std::printf("\nadmission control enabled-but-untriggered vs off "
              "(SFQ, interleaved A/B, best of 3 pairs):\n");
  const AdmissionAbResult ab = admission_ab(/*pairs=*/3);
  std::printf("  admission off  %.3g packets/s\n"
              "  admission on   %.3g packets/s (untriggered: %llu drops)\n"
              "  ratio on/off   %.4f\n",
              ab.base_pps, ab.shed_pps,
              static_cast<unsigned long long>(ab.shed_drops), ab.ratio);
  report.add("admission_ab", "base_pps", ab.base_pps);
  report.add("admission_ab", "shed_pps", ab.shed_pps);
  report.add("admission_ab", "ratio", ab.ratio);
  if (ab.shed_drops != 0) {
    std::printf("!! admission machine triggered during the idle-cap A/B "
                "(%llu drops) — the overhead measurement is invalid\n",
                static_cast<unsigned long long>(ab.shed_drops));
    ok = false;
  }
  // The <=5% budget is enforced under SFQ_PERF_GATE (CI perf job and PERF=1
  // check.sh); unconditioned runs report the ratio for the BENCH trajectory.
  const char* gate_env = std::getenv("SFQ_PERF_GATE");
  const bool perf_gate = gate_env != nullptr && *gate_env != '\0' &&
                         *gate_env != '0';
  if (perf_gate && ab.ratio < 0.95) {
    std::printf("!! admission-control overhead above 5%%: ratio %.4f < 0.95\n",
                ab.ratio);
    ok = false;
  }

  std::printf("\nwall-clock fairness (SFQ, weights 3:1, paced, overloaded "
              "40 Mb/s link):\n");
  const FairnessResult f = wall_clock_fairness();
  std::printf("  worst |dW_f/r_f - dW_m/r_m| = %.4g ms\n"
              "  Theorem-1 bound             = %.4g ms (+%.4g ms slack)\n"
              "  link utilization            = %.1f%%\n",
              1e3 * f.worst_gap, 1e3 * f.bound, 1e3 * f.slack,
              100.0 * f.link_util);
  report.add("fairness", "worst_gap_s", f.worst_gap);
  report.add("fairness", "theorem1_bound_s", f.bound);
  report.add("fairness", "slack_s", f.slack);
  report.add("fairness", "link_utilization", f.link_util);
  if (!f.ok) {
    std::printf("!! wall-clock fairness outside Theorem-1 bound\n");
    ok = false;
  }

  std::printf("\nsharded scaling (SFQ, %zu flows, %zu producers, unpaced "
              "1M packets, 1 vs 4 shards):\n",
              kShardFlows, kProducers);
  constexpr std::size_t kShards = 4;
  const ShardedResult s1 = sharded_throughput(1);
  const ShardedResult s4 = sharded_throughput(kShards);
  const double ratio = s1.tp.pps > 0.0 ? s4.tp.pps / s1.tp.pps : 0.0;
  std::printf("  1 shard   %.3g packets/s\n  %zu shards  %.3g packets/s  (",
              s1.tp.pps, kShards, s4.tp.pps);
  for (std::size_t k = 0; k < s4.shard_tx.size(); ++k)
    std::printf("%s%llu", k ? " " : "",
                static_cast<unsigned long long>(s4.shard_tx[k]));
  std::printf(" per shard)\n  ratio     %.2fx\n", ratio);
  report.add("sharded", "single_pps", s1.tp.pps);
  report.add("sharded", "sharded_pps", s4.tp.pps);
  report.add("sharded", "speedup", ratio);
  for (const ShardedResult* r : {&s1, &s4})
    if (r->tp.produced != r->tp.transmitted || r->tp.dropped != 0) {
      std::printf("!! sharded run lost packets (produced %llu != "
                  "transmitted %llu, dropped %llu)\n",
                  static_cast<unsigned long long>(r->tp.produced),
                  static_cast<unsigned long long>(r->tp.transmitted),
                  static_cast<unsigned long long>(r->tp.dropped));
      ok = false;
    }
  const uint64_t shard_allocs =
      sharded_steady_allocs(kShards, /*packets=*/200000);
  std::printf("  steady-state allocations (200k direct offers, guard "
              "armed): %llu\n",
              static_cast<unsigned long long>(shard_allocs));
  report.add("sharded", "steady_allocs",
             static_cast<double>(shard_allocs));
  if (shard_allocs != 0) {
    std::printf("!! sharded hot path allocated under the guard\n");
    ok = false;
  }
  // The 2.5x gate needs cores to scale onto: 4 dispatchers + producers.
  // Enforced only under SFQ_PERF_GATE on machines with >= 2 cores per shard
  // (the CI perf job); elsewhere the ratio is informational.
  if (perf_gate && std::thread::hardware_concurrency() >= 2 * kShards &&
      ratio < 2.5) {
    std::printf("!! sharded speedup below gate: %.2fx < 2.5x\n", ratio);
    ok = false;
  }

  const std::string json_path = report.write();
  if (!json_path.empty()) std::printf("\nwrote %s\n", json_path.c_str());
  std::printf("shape check: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
