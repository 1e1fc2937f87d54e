// Million-flow scheduler benchmark (docs/PERFORMANCE.md, "The flow-scale
// core").
//
// One million concurrently registered flows offer Zipf(1.0)-distributed
// traffic through a single SfqScheduler while tail flows churn (remove_flow
// + add_flow) at one event per 100 packets — 10k churn events/s at the 1M
// packets/s operating point. The same deterministic workload runs on both
// ready-queue cores:
//
//   * kHeap  — the exact IndexedHeap, O(log Q) per packet: the baseline;
//   * kWheel — the hierarchical timestamp wheel, O(1) amortized per packet,
//              with flow-id GC recycling churned ids through the flow
//              table's free list.
//
// Gates (unconditional — this is the flow-scale acceptance bench):
//   * the wheel core sustains >= 1M packets/s through the full
//     enqueue -> dequeue -> on_transmit_complete cycle at 1M flows;
//   * the measured steady-state loop — churn, id recycling and GC reclaim
//     included — performs zero heap allocations under the counting guard
//     (reserve_flows() pre-sizes every per-flow structure);
//   * the flow table stays bounded: churned ids are recycled, so the slot
//     universe never exceeds the initial population plus the reserved
//     retirement headroom (the flow-id leak this PR fixes would grow it by
//     one slot per churn event).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc_guard.h"
#include "bench_util.h"
#include "core/sfq_scheduler.h"
#include "core/splitmix.h"
#include "stats/time_series.h"

namespace {

using namespace sfq;

constexpr std::size_t kFlows = 1'000'000;
// Retirement headroom: a churned id whose finish tag is still ahead of v(t)
// cannot be reclaimed yet, so add_flow briefly extends the slot universe.
// reserve_flows() covers the worst case so the measured loop never grows a
// per-flow structure.
constexpr std::size_t kHeadroom = 1 << 15;
constexpr double kPacketBits = 8000.0;
constexpr double kLinkRate = 1e9;               // bits/s, quantum scale
constexpr double kWeight = kLinkRate / kFlows;  // equal shares
constexpr std::size_t kBacklog = 1 << 16;       // steady queued packets
constexpr std::size_t kWarmupOps = 300'000;
constexpr std::size_t kMeasuredOps = 2'000'000;
constexpr std::size_t kChurnEvery = 100;  // packets per churn event

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

// Zipf(s = 1.0) over kFlows ranks via the precomputed CDF: rank i (0-based)
// has probability (1/(i+1)) / H(kFlows). The head flow carries ~7% of the
// traffic, the median packet still lands in the first few thousand flows,
// and the far tail is quiet enough to churn.
std::vector<FlowId> make_zipf_schedule(std::size_t draws, uint64_t seed) {
  std::vector<double> cdf(kFlows);
  double h = 0.0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    h += 1.0 / static_cast<double>(i + 1);
    cdf[i] = h;
  }
  for (double& c : cdf) c /= h;
  std::vector<FlowId> schedule(draws);
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < draws; ++i) {
    const double u =
        static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    schedule[i] = static_cast<FlowId>(it - cdf.begin());
  }
  return schedule;
}

struct ScaleResult {
  double pps = 0.0;
  uint64_t transmitted = 0;
  uint64_t churn_events = 0;
  uint64_t recycled_ids = 0;   // churn events whose add_flow reused the id
  uint64_t steady_allocs = 0;  // operator-new calls in the measured loop
  std::size_t table_slots = 0;  // flow-table slot universe after the run
  std::size_t gc_pending = 0;   // retired ids awaiting reclaim at the end
};

// One full run on the given core: register 1M flows, pre-fill the backlog,
// warm up past every high-water mark (churn included), then measure
// kMeasuredOps enqueue->dequeue->complete cycles under the allocation guard.
ScaleResult run_core(SfqCore core, const std::vector<FlowId>& schedule) {
  SfqOptions opts;
  opts.core = core;
  opts.wheel_quantum = kPacketBits / kLinkRate;
  opts.flow_gc = true;
  SfqScheduler sched(opts);
  sched.reserve_flows(kFlows + kHeadroom);
  for (std::size_t f = 0; f < kFlows; ++f) {
    const FlowId id = sched.add_flow(kWeight, kPacketBits);
    // Exercise the open-addressing key index at full scale (setup only; the
    // measured churn path recycles unkeyed flows).
    sched.flows().bind_key(0x517cc1b727220a95ull * (f + 1), id);
  }

  // Tail flows are the churn ring: Zipf leaves them idle almost always, and
  // the loop below skips any that happen to be backlogged.
  std::vector<FlowId> churn_ring;
  churn_ring.reserve(kFlows / 4);
  for (std::size_t f = kFlows - kFlows / 4; f < kFlows; ++f)
    churn_ring.push_back(static_cast<FlowId>(f));
  std::size_t churn_at = 0;

  ScaleResult r;
  const double dt = kPacketBits / kLinkRate;
  Time now = 0.0;
  uint64_t seq = 1;
  std::size_t backlog = 0;
  std::size_t next = 0;  // schedule cursor

  auto step = [&](bool measured) {
    Packet p;
    p.flow = schedule[next];
    next = (next + 1) % schedule.size();
    p.seq = seq++;
    p.length_bits = kPacketBits;
    p.arrival = now;
    if (sched.enqueue(p, now)) ++backlog;
    if (backlog > 0) {
      std::optional<Packet> out = sched.dequeue(now);
      now += dt;
      sched.on_transmit_complete(*out, now);
      --backlog;
      if (measured) ++r.transmitted;
    } else {
      now += dt;
    }
    if (seq % kChurnEvery == 0) {
      // Churn the next idle tail flow: remove it and register a successor.
      // With flow_gc the retired id is reclaimed once tag-safe, so add_flow
      // hands the same id back and the table stays bounded.
      for (std::size_t tries = 0; tries < churn_ring.size(); ++tries) {
        const FlowId victim = churn_ring[churn_at];
        churn_at = (churn_at + 1) % churn_ring.size();
        if (!sched.flows().active(victim) ||
            sched.backlog_bits(victim) > 0.0)
          continue;
        sched.remove_flow(victim, now);
        const FlowId fresh = sched.add_flow(kWeight, kPacketBits);
        churn_ring[(churn_at + churn_ring.size() - 1) % churn_ring.size()] =
            fresh;
        if (measured) {
          ++r.churn_events;
          if (fresh == victim) ++r.recycled_ids;
        }
        break;
      }
    }
  };

  for (std::size_t i = 0; i < kBacklog; ++i) {  // pre-fill the backlog
    Packet p;
    p.flow = schedule[next];
    next = (next + 1) % schedule.size();
    p.seq = seq++;
    p.length_bits = kPacketBits;
    p.arrival = now;
    if (sched.enqueue(p, now)) ++backlog;
  }
  for (std::size_t i = 0; i < kWarmupOps; ++i) step(/*measured=*/false);

  bench::alloc_guard_arm();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kMeasuredOps; ++i) step(/*measured=*/true);
  const auto t1 = std::chrono::steady_clock::now();
  r.steady_allocs = bench::alloc_guard_disarm();

  const double wall = std::chrono::duration<double>(t1 - t0).count();
  r.pps = wall > 0.0 ? static_cast<double>(r.transmitted) / wall : 0.0;
  r.table_slots = sched.flows().size();
  r.gc_pending = sched.gc_pending();
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "Flow scale — 1M flows, Zipf traffic, churn: wheel vs heap core",
      "Goyal/Vin/Cheng SFQ paper, §2.5 (per-packet cost) + Theorem 1",
      "SFQ-W >= 1M packets/s at 1M flows with zero steady-state allocations "
      "and a bounded flow table under 10k churn events per 1M packets");

  bench::JsonReport report("flow_scale");
  bool ok = true;

  std::printf("\npreparing %zu-draw Zipf(1.0) schedule over %zu flows...\n",
              static_cast<std::size_t>(kMeasuredOps), kFlows);
  const std::vector<FlowId> schedule =
      make_zipf_schedule(kMeasuredOps, /*seed=*/0x5f0e9cc5u);

  struct CoreCase {
    const char* label;
    SfqCore core;
  };
  ScaleResult wheel_result;
  stats::TablePrinter t({"core", "packets/s", "churn", "recycled", "allocs",
                         "table slots", "gc pending"});
  for (const CoreCase c : {CoreCase{"SFQ-W (wheel)", SfqCore::kWheel},
                           CoreCase{"SFQ (heap)", SfqCore::kHeap}}) {
    const ScaleResult r = run_core(c.core, schedule);
    t.row({c.label, stats::TablePrinter::num(r.pps, 0),
           stats::TablePrinter::num(static_cast<double>(r.churn_events), 0),
           stats::TablePrinter::num(static_cast<double>(r.recycled_ids), 0),
           stats::TablePrinter::num(static_cast<double>(r.steady_allocs), 0),
           stats::TablePrinter::num(static_cast<double>(r.table_slots), 0),
           stats::TablePrinter::num(static_cast<double>(r.gc_pending), 0)});
    const std::string scen = c.core == SfqCore::kWheel ? "wheel" : "heap";
    report.add(scen, "packets_per_sec", r.pps);
    report.add(scen, "churn_events", static_cast<double>(r.churn_events));
    report.add(scen, "recycled_ids", static_cast<double>(r.recycled_ids));
    report.add(scen, "steady_allocs", static_cast<double>(r.steady_allocs));
    report.add(scen, "table_slots", static_cast<double>(r.table_slots));
    if (c.core == SfqCore::kWheel) wheel_result = r;

    if (r.steady_allocs != 0) {
      std::printf("!! %s allocated under the guard: %llu\n", c.label,
                  static_cast<unsigned long long>(r.steady_allocs));
      ok = false;
    }
    if (r.table_slots > kFlows + kHeadroom) {
      std::printf("!! %s leaked flow ids: %zu slots > %zu + %zu headroom\n",
                  c.label, r.table_slots, kFlows,
                  static_cast<std::size_t>(kHeadroom));
      ok = false;
    }
    if (r.churn_events == 0 || r.recycled_ids == 0) {
      std::printf("!! %s exercised no id recycling (churn %llu, recycled "
                  "%llu) — the bench lost its regression power\n",
                  c.label, static_cast<unsigned long long>(r.churn_events),
                  static_cast<unsigned long long>(r.recycled_ids));
      ok = false;
    }
  }

  // The 1M packets/s floor is the acceptance target on developer machines;
  // the CI perf job lowers it via SFQ_PERF_FLOOR_PPS (shared runners are
  // slow and noisy) the same way bench_sim_throughput does.
  const double floor_pps = env_double("SFQ_PERF_FLOOR_PPS", 1e6);
  if (wheel_result.pps < floor_pps) {
    std::printf("!! wheel core below the %.3g packets/s gate: %.3g\n",
                floor_pps, wheel_result.pps);
    ok = false;
  }

  const std::string json_path = report.write();
  if (!json_path.empty()) std::printf("\nwrote %s\n", json_path.c_str());
  std::printf("shape check: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
