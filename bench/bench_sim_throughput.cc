// Engineering benchmark (not a paper figure): end-to-end simulator event
// throughput — how many simulated packet transmissions per wall-clock second
// the whole stack (sources -> scheduler -> server -> sink) sustains. Useful
// for keeping the substrate fast enough that 1000-second Figure-2(b)-style
// runs stay interactive.
//
// Two parts:
//   * BM_Stack_* google-benchmarks: whole-run throughput including stack
//     construction, swept over flow counts and disciplines.
//   * A steady-state phase with the allocation guard (alloc_guard.h) armed:
//     after a warm-up that brings every slab/pool/heap to its high-water
//     mark, the measured window must perform ZERO heap allocations — the
//     per-packet hot path (typed event queue, packet pool, indexed heaps)
//     is allocation-free by design (docs/PERFORMANCE.md).
//
// The steady-state phase writes BENCH_sim_throughput.json and, with
// SFQ_PERF_GATE=1, enforces the perf-regression gate:
//   * steady-state heap allocations == 0,
//   * steady-state pkts/s >= SFQ_PERF_FLOOR_PPS (default 1e6),
//   * if SFQ_PERF_BASELINE_PPS is set (the committed pre-optimisation
//     SFQ/4 baseline, bench/baselines/), SFQ/4 pkts/s >= 1.5x it.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "alloc_guard.h"
#include "bench_util.h"
#include "net/rate_profile.h"
#include "net/scheduled_server.h"
#include "sim/simulator.h"
#include "traffic/sources.h"

namespace {

using namespace sfq;

void run_stack(benchmark::State& state, const std::string& sched_name) {
  const int flows = static_cast<int>(state.range(0));
  uint64_t packets = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    auto sched = bench::make_scheduler(sched_name, 1e6, 1500.0);
    net::ScheduledServer server(sim, *sched,
                                std::make_unique<net::ConstantRate>(1e6));
    uint64_t delivered = 0;
    server.set_departure([&](const Packet&, Time) { ++delivered; });
    std::vector<std::unique_ptr<traffic::Source>> src;
    auto emit = [&](Packet p) { server.inject(std::move(p)); };
    for (int i = 0; i < flows; ++i) {
      FlowId id = sched->add_flow(1e6 / flows, 1000.0);
      src.push_back(std::make_unique<traffic::PoissonSource>(
          sim, id, emit, 0.9 * 1e6 / flows, 1000.0, 7 + i));
      src.back()->run(0.0, 10.0);
    }
    sim.run_until(10.0);
    sim.run();
    packets += delivered;
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<int64_t>(packets));
  state.counters["pkts/run"] =
      static_cast<double>(packets) / state.iterations();
}

void BM_Stack_SFQ(benchmark::State& s) { run_stack(s, "SFQ"); }
void BM_Stack_WFQ(benchmark::State& s) { run_stack(s, "WFQ"); }
void BM_Stack_FIFO(benchmark::State& s) { run_stack(s, "FIFO"); }

BENCHMARK(BM_Stack_SFQ)->Arg(4)->Arg(64);
BENCHMARK(BM_Stack_WFQ)->Arg(4)->Arg(64);
BENCHMARK(BM_Stack_FIFO)->Arg(4)->Arg(64);

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v) ? std::atof(v) : fallback;
}

// Steady-state measurement: one stack, Poisson sources at 0.9 utilisation,
// warm-up until every pool/slab/heap reached its high-water mark, then a
// measured window under the allocation guard. With `two_hop` the first
// server's departures reach a second server after a propagation delay as
// kArrival events, so packets in flight between hops sit in the event
// queue's packet slab; packets count when they leave the second server.
struct SteadyResult {
  double pkts_per_sec = 0.0;
  uint64_t packets = 0;
  uint64_t allocs = 0;
};

SteadyResult run_steady(const std::string& sched_name, int flows, bool two_hop,
                        Time warm_until, Time window, int windows) {
  constexpr Time kPropagation = 1e-3;
  const Time measure_until = warm_until + window * windows;
  sim::Simulator sim;
  auto sched = bench::make_scheduler(sched_name, 1e6, 1500.0);
  net::ScheduledServer server(sim, *sched,
                              std::make_unique<net::ConstantRate>(1e6));
  auto sched2 = bench::make_scheduler(sched_name, 1e6, 1500.0);
  net::ScheduledServer hop2(sim, *sched2,
                            std::make_unique<net::ConstantRate>(1e6));
  uint64_t delivered = 0;
  auto count = [&](const Packet&, Time) { ++delivered; };
  hop2.set_departure(count);
  if (two_hop)
    server.set_departure([&](const Packet& p, Time t) {
      sim.at_packet(t + kPropagation, sim::EventOp::kArrival, &hop2, p);
    });
  else
    server.set_departure(count);
  std::vector<std::unique_ptr<traffic::Source>> src;
  auto emit = [&](Packet p) { server.inject(std::move(p)); };
  // Sources start once the pre-growth burst (below) has drained.
  const Time sources_start = 3.0;
  for (int i = 0; i < flows; ++i) {
    const FlowId id = sched->add_flow(1e6 / flows, 1000.0);
    sched2->add_flow(1e6 / flows, 1000.0);  // the same id at the second hop
    src.push_back(std::make_unique<traffic::PoissonSource>(
        sim, id, emit, 0.9 * 1e6 / flows, 1000.0, 7 + i));
    src.back()->run(sources_start, measure_until);
  }

  // Pre-grow every slab (packet pool, tag heaps, event slots) to a backlog
  // high-water mark far above anything the measured window reaches. Slab
  // growth is amortised-zero by design; the burst moves all of it into
  // warm-up so the guard measures the true steady state.
  constexpr int kBurst = 2048;
  for (int b = 0; b < kBurst; ++b) {
    Packet p;
    p.flow = static_cast<FlowId>(b % flows);
    p.seq = static_cast<uint64_t>(b);
    p.length_bits = 1000.0;
    server.inject(std::move(p));
  }

  sim.run_until(warm_until);  // warm-up: growth allocations happen here

  // Allocations are counted over ALL windows (the zero-alloc property must
  // hold for the whole span); throughput is the best window, which rejects
  // scheduler noise on shared machines the way --benchmark_repetitions'
  // min-of-reps does.
  SteadyResult r;
  bench::alloc_guard_arm();
  for (int w = 1; w <= windows; ++w) {
    const uint64_t before = delivered;
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_until(warm_until + window * w);
    const auto t1 = std::chrono::steady_clock::now();
    const uint64_t pkts = delivered - before;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double pps = secs > 0.0 ? static_cast<double>(pkts) / secs : 0.0;
    r.packets += pkts;
    if (pps > r.pkts_per_sec) r.pkts_per_sec = pps;
  }
  r.allocs = bench::alloc_guard_disarm();
  sim.run();  // drain, outside the measured window
  return r;
}

int steady_state_phase() {
  std::printf("\n--- steady-state phase (allocation guard armed) ---\n");
  bench::JsonReport report("sim_throughput");
  bool ok = true;

  const bool gate = env_double("SFQ_PERF_GATE", 0.0) != 0.0;
  const double floor_pps = env_double("SFQ_PERF_FLOOR_PPS", 1e6);
  const double baseline_pps = env_double("SFQ_PERF_BASELINE_PPS", 0.0);

  struct Case {
    const char* sched;
    int flows;
    bool two_hop;
    bool alloc_gated;  // zero steady-state heap allocations enforced
    bool floor_gated;  // throughput floor enforced (the SFQ hot path)
    bool headline;  // compared against SFQ_PERF_BASELINE_PPS (an SFQ/4 value)
  };
  // SFQ is the paper's subject and the gated hot path. WFQ's GPS emulation
  // became allocation-free when its event list moved to a ring buffer, so it
  // is alloc-gated too; its throughput stays a reference point (GPS
  // simulation cost is measured, not floored). SFQ/4-2hop gates the packets
  // in flight between hops (kArrival events) on zero allocations; each of
  // its packets costs two servers, so it has no floor. The baseline ratio
  // applies to SFQ/4 only — that is the scenario the committed baseline
  // snapshot records.
  const Case cases[] = {{"SFQ", 4, false, true, true, true},
                        {"SFQ", 64, false, true, true, false},
                        {"WFQ", 64, false, true, false, false},
                        {"SFQ", 4, true, true, false, false}};

  for (const Case& c : cases) {
    const SteadyResult r =
        run_steady(c.sched, c.flows, c.two_hop, /*warm_until=*/5.0,
                   /*window=*/50.0, /*windows=*/8);
    const double allocs_per_pkt =
        r.packets ? static_cast<double>(r.allocs) / r.packets : 0.0;
    const std::string scen =
        std::string(c.sched) + "/" + std::to_string(c.flows) +
        (c.two_hop ? "-2hop" : "");
    std::printf("%-10s pkts/s=%.3g  packets=%llu  allocs=%llu (%.4f/pkt)\n",
                scen.c_str(), r.pkts_per_sec,
                static_cast<unsigned long long>(r.packets),
                static_cast<unsigned long long>(r.allocs), allocs_per_pkt);
    report.add(scen, "steady_pkts_per_sec", r.pkts_per_sec);
    report.add(scen, "steady_allocs_per_pkt", allocs_per_pkt);
    report.add(scen, "steady_heap_allocs", static_cast<double>(r.allocs));

    if (gate) {
      if (c.alloc_gated && r.allocs != 0) {
        std::printf("FAIL %s: %llu heap allocations in the steady-state "
                    "measured loop (expected 0)\n",
                    scen.c_str(), static_cast<unsigned long long>(r.allocs));
        ok = false;
      }
      if (c.floor_gated && r.pkts_per_sec < floor_pps) {
        std::printf("FAIL %s: %.3g pkts/s below floor %.3g\n", scen.c_str(),
                    r.pkts_per_sec, floor_pps);
        ok = false;
      }
      if (c.headline && baseline_pps > 0.0 &&
          r.pkts_per_sec < 1.5 * baseline_pps) {
        std::printf("FAIL %s: %.3g pkts/s < 1.5x baseline %.3g\n",
                    scen.c_str(), r.pkts_per_sec, baseline_pps);
        ok = false;
      }
    }
  }

  const std::string path = report.write();
  std::printf("report: %s\n", path.empty() ? "(write failed)" : path.c_str());
  if (gate)
    std::printf("perf gate: %s (floor %.3g pkts/s%s)\n", ok ? "OK" : "FAILED",
                floor_pps, baseline_pps > 0.0 ? ", baseline ratio 1.5x" : "");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return steady_state_phase();
}
