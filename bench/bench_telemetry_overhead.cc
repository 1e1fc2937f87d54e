// Telemetry overhead gate (docs/OBSERVABILITY.md).
//
// The telemetry plane's contract is "cheap enough to leave on": per-packet
// cost is a handful of relaxed atomic ops and zero steady-state allocations.
// This bench holds the contract in two ways:
//
//   1. Throughput ratio — the RtEngine throughput blast from bench_rt_engine
//     (unpaced LoadGen producers, infinite link, bounded scheduler buffer so
//     the steady state is realistic) runs with telemetry detached and
//     attached in interleaved pairs, alternating which arm goes first. Busy
//     threads (2 producers + the dispatcher) never exceed the core count,
//     so the runs time the engine rather than host scheduling. Each pair
//     yields one on/off throughput ratio, in which drift common to both
//     runs cancels. Gate: the median pair ratio must stay >= 0.95 (<= 5%
//     regression), less one standard error of that median (the ratios'
//     interquartile range / sqrt(pairs)).
//
//   2. Allocation-free record path — a single-threaded loop drives the
//     writer/histogram record APIs under the alloc_guard; any heap
//     allocation fails the bench. A concurrent snapshot() in the middle
//     may allocate (reader side is explicitly allowed to) but must not make
//     the writers allocate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_guard.h"
#include "bench_util.h"
#include "net/rate_profile.h"
#include "obs/telemetry/telemetry.h"
#include "rt/engine.h"
#include "rt/load_gen.h"

namespace {

using namespace sfq;
namespace tel = obs::telemetry;

constexpr std::size_t kMaxProducers = 2;
constexpr std::size_t kFlows = 8;
constexpr double kPacketBits = 8000.0;
constexpr double kFlowRate = 2e9;  // 2M packets per run
constexpr Time kGenDuration = 1.0;

// Producers for the blast: one core stays with the dispatcher.
std::size_t producer_count() {
  const std::size_t cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cores > 1 ? cores - 1 : 1, 1, kMaxProducers);
}

// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double throughput_pps(std::size_t producer_threads, bool with_telemetry) {
  auto sched = bench::make_scheduler("SFQ", /*assumed_capacity=*/1e15,
                                     /*quantum_per_weight=*/kPacketBits / 1e9);
  for (std::size_t f = 0; f < kFlows; ++f)
    sched->add_flow(kFlowRate, kPacketBits);

  rt::EngineOptions opts;
  opts.producers = producer_threads;
  opts.ring_capacity = 1 << 14;
  opts.buffer_limit = 1 << 15;
  rt::RtEngine engine(*sched, std::make_unique<net::ConstantRate>(1e15),
                      opts);
  tel::Telemetry plane;
  if (with_telemetry) engine.set_telemetry(&plane);

  std::vector<std::vector<rt::FlowLoad>> producers(producer_threads);
  for (std::size_t f = 0; f < kFlows; ++f) {
    rt::FlowLoad l;
    l.flow = static_cast<FlowId>(f);
    l.model = rt::FlowLoad::Model::kCbr;
    l.rate = kFlowRate;
    l.packet_bits = kPacketBits;
    producers[f % producer_threads].push_back(l);
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
  if (with_telemetry) {
    // Sanity: the plane actually counted this load.
    const tel::TelemetrySnapshot snap = plane.snapshot();
    if (snap.counter_total(tel::CounterId::kTransmitted) != st.transmitted) {
      std::printf("!! telemetry lost packets: plane %llu != ledger %llu\n",
                  static_cast<unsigned long long>(
                      snap.counter_total(tel::CounterId::kTransmitted)),
                  static_cast<unsigned long long>(st.transmitted));
      return 0.0;
    }
  }
  return st.transmitted / wall;
}

bool record_path_allocation_free() {
  tel::Telemetry plane;
  tel::Telemetry::Writer w = plane.writer(0);  // registration may allocate
  tel::LockFreeHistogram& h = plane.hist(tel::HistId::kQueueDelay);
  // Warm up both paths before arming.
  w.inc(tel::CounterId::kTransmitted);
  h.record(1000);
  plane.set_gauge(tel::GaugeId::kBacklogPackets, 1.0);

  bench::alloc_guard_arm();
  for (uint64_t i = 0; i < 1000000; ++i) {
    w.inc(tel::CounterId::kTransmitted);
    w.inc(tel::CounterId::kTxBits, 8000);
    w.drop(obs::DropCause::kBufferLimit);
    h.record(1000 + (i & 4095));
    plane.set_gauge(tel::GaugeId::kBacklogPackets, static_cast<double>(i));
  }
  const uint64_t allocs = bench::alloc_guard_disarm();
  if (allocs != 0)
    std::printf("!! record path allocated %llu times in 1M iterations\n",
                static_cast<unsigned long long>(allocs));
  return allocs == 0;
}

}  // namespace

int main() {
  bench::print_header(
      "Telemetry overhead — hot-path cost of the always-on metrics plane",
      "docs/OBSERVABILITY.md telemetry contract",
      "RtEngine throughput with telemetry attached >= 95% of detached; "
      "counter/histogram record path performs zero heap allocations");

  bench::JsonReport report("telemetry_overhead");
  bool ok = true;

  // Interleaved pairs, alternating which arm runs first so drift over the
  // run (thermal, a neighbour's load) falls on both arms alike.
  constexpr int kPairs = 15;
  const std::size_t producers = producer_count();
  std::vector<double> off_runs, on_runs, ratios;
  std::printf("\nthroughput, %d interleaved pairs (SFQ, %zu producers, 2M "
              "packets each):\n",
              kPairs, producers);
  for (int k = 0; k < kPairs; ++k) {
    const bool on_first = (k % 2) == 1;
    const double first = throughput_pps(producers, on_first);
    const double second = throughput_pps(producers, !on_first);
    const double off = on_first ? second : first;
    const double on = on_first ? first : second;
    std::printf("  pair %d (%s first): off %.4g pps, on %.4g pps, ratio "
                "%.4f\n",
                k + 1, on_first ? "on" : "off", off, on, on / off);
    off_runs.push_back(off);
    on_runs.push_back(on);
    ratios.push_back(on / off);
  }
  const double med_off = quantile(off_runs, 0.5);
  const double med_on = quantile(on_runs, 0.5);
  const double ratio = quantile(ratios, 0.5);
  const double ratio_iqr = quantile(ratios, 0.75) - quantile(ratios, 0.25);
  const double margin = ratio_iqr / std::sqrt(static_cast<double>(kPairs));
  std::printf("median off %.4g pps, median on %.4g pps; median pair ratio "
              "%.4f (IQR %.4f, margin %.4f)\n",
              med_off, med_on, ratio, ratio_iqr, margin);
  report.add("throughput", "pps_telemetry_off", med_off);
  report.add("throughput", "pps_telemetry_on", med_on);
  report.add("throughput", "on_off_ratio", ratio);
  report.add("throughput", "on_off_ratio_iqr", ratio_iqr);
  report.add("throughput", "producers", static_cast<double>(producers));
  if (ratio < 0.95 - margin) {
    std::printf("!! telemetry costs more than 5%% throughput (median pair "
                "ratio %.4f < %.4f)\n",
                ratio, 0.95 - margin);
    ok = false;
  }

  const bool no_alloc = record_path_allocation_free();
  std::printf("record path allocations: %s\n", no_alloc ? "0 (OK)" : "FAIL");
  report.add("alloc", "record_path_allocs", no_alloc ? 0.0 : 1.0);
  ok = ok && no_alloc;

  const std::string json_path = report.write();
  if (!json_path.empty()) std::printf("\nwrote %s\n", json_path.c_str());
  std::printf("shape check: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
