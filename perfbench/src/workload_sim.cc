// sim_flowscale: the deterministic simulator at 65,536 flows on one thread.
// See perfbench/README.md for why it exists.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "alloc_guard.h"
#include "core/sfq_scheduler.h"
#include "layers.h"
#include "net/rate_profile.h"
#include "net/scheduled_server.h"
#include "sim/simulator.h"
#include "traffic/sources.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sfq;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSimFlows = 65536;
constexpr double kSimLink = 1e9;     // bits/s
constexpr double kSimBits = 8000.0;  // 1000-byte packets
constexpr double kSimLoad = 0.98;
constexpr double kZipfS = 1.1;
constexpr uint64_t kChurnEvery = 100;  // departures per leave + rejoin
constexpr std::size_t kChurnAway = 16; // flows absent at any time
constexpr double kSimWindow = 0.4;     // simulated s (~49k packets)
constexpr int kSimSetups = 6;

struct SimInputs {
  std::vector<double> share;      // Zipf rate share per flow id
  std::vector<uint64_t> seeds;    // per-source RNG seeds
  std::vector<FlowId> victims;    // churn order
};

SimInputs make_sim_inputs(uint64_t seed) {
  uint64_t s = seed * 0x100000001b3ull + 0x51f;
  SimInputs in;
  std::vector<double> by_rank(kSimFlows);
  for (std::size_t r = 0; r < kSimFlows; ++r)
    by_rank[r] = std::pow(static_cast<double>(r + 1), -kZipfS);
  const double h = std::accumulate(by_rank.begin(), by_rank.end(), 0.0);
  std::vector<std::size_t> rank(kSimFlows);
  std::iota(rank.begin(), rank.end(), 0);
  for (std::size_t i = kSimFlows - 1; i > 0; --i)  // seeded rank -> flow map
    std::swap(rank[i], rank[mix64(s) % (i + 1)]);
  in.share.resize(kSimFlows);
  for (std::size_t f = 0; f < kSimFlows; ++f) in.share[f] = by_rank[rank[f]] / h;
  for (std::size_t f = 0; f < kSimFlows; ++f) in.seeds.push_back(mix64(s));
  for (std::size_t i = 0; i < (1u << 14); ++i)
    in.victims.push_back(static_cast<FlowId>(mix64(s) % kSimFlows));
  return in;
}

// One constructed simulation: simulator, SFQ behind a ScheduledServer, and
// one Poisson source per flow. Departures feed the digest, the latency
// window and the churn driver.
struct SimRig {
  sim::Simulator sim;
  std::unique_ptr<Scheduler> sched;
  TimedScheduler* timed = nullptr;
  TimedRate* rate = nullptr;
  std::unique_ptr<net::ScheduledServer> server;
  std::vector<std::unique_ptr<traffic::PoissonSource>> sources;

  const SimInputs* in = nullptr;
  uint64_t departures = 0;
  uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over departure order
  std::vector<double> lat;                  // current window, simulated us
  std::vector<uint8_t> away;
  std::vector<FlowId> away_ring;            // leave order, kChurnAway deep
  std::size_t away_head = 0, victim_at = 0;

  void depart(const Packet& p, Time t) {
    ++departures;
    for (uint64_t v : {static_cast<uint64_t>(p.flow), p.seq}) {
      digest ^= v;
      digest *= 0x100000001b3ull;
    }
    if (lat.size() < lat.capacity()) lat.push_back((t - p.arrival) * 1e6);
    if (departures % kChurnEvery == 0) churn(t);
  }

  // One flow leaves and, once kChurnAway are out, the longest-absent one
  // rejoins — through the server's own typed churn events.
  void churn(Time t) {
    FlowId v;
    do {
      v = in->victims[victim_at++ % in->victims.size()];
    } while (away[v]);
    away[v] = 1;
    sim.at_flow(t, sim::EventOp::kChurnLeave, server.get(), v);
    if (away_ring.size() < kChurnAway) {
      away_ring.push_back(v);
      return;
    }
    const FlowId back = away_ring[away_head];
    away_ring[away_head] = v;
    away_head = (away_head + 1) % kChurnAway;
    away[back] = 0;
    sim.at_flow(t, sim::EventOp::kChurnJoin, server.get(), back);
  }
};

std::unique_ptr<SimRig> make_sim_rig(const SimInputs& in, const SpanClock* clk) {
  auto rig = std::make_unique<SimRig>();
  rig->in = &in;
  rig->sched = std::make_unique<SfqScheduler>();
  std::unique_ptr<net::RateProfile> profile =
      std::make_unique<net::ConstantRate>(kSimLink);
  if (clk != nullptr) {
    auto t = std::make_unique<TimedScheduler>(std::move(rig->sched), *clk,
                                              nullptr);
    rig->timed = t.get();
    rig->sched = std::move(t);
    auto r = std::make_unique<TimedRate>(std::move(profile), *clk, nullptr,
                                         nullptr);
    rig->rate = r.get();
    profile = std::move(r);
  }
  for (std::size_t f = 0; f < kSimFlows; ++f)
    rig->sched->add_flow(kSimLink * in.share[f], kSimBits, {});
  rig->server = std::make_unique<net::ScheduledServer>(rig->sim, *rig->sched,
                                                       std::move(profile));
  SimRig* self = rig.get();
  rig->server->set_departure(
      [self](const Packet& p, Time t) { self->depart(p, t); });
  rig->away.assign(kSimFlows, 0);
  rig->away_ring.reserve(kChurnAway);
  rig->lat.reserve(1 << 18);
  net::ScheduledServer* srv = rig->server.get();
  rig->sources.reserve(kSimFlows);
  for (std::size_t f = 0; f < kSimFlows; ++f) {
    rig->sources.push_back(std::make_unique<traffic::PoissonSource>(
        rig->sim, static_cast<FlowId>(f),
        [srv](Packet p) { srv->inject(std::move(p)); },
        kSimLoad * kSimLink * in.share[f], kSimBits, in.seeds[f]));
    rig->sources.back()->run(0.0, kTimeInfinity);
  }
  return rig;
}

struct SimWindow {
  uint64_t digest = 0, departures = 0, drops = 0;  // cumulative at window end
};

struct SimPhase {
  std::vector<double> tput, cpu, p50, p99, calib, setups;
  std::vector<SimWindow> marks;  // first rig's windows
  bool rigs_agree = true;        // later rigs replayed the same windows
  uint64_t departures = 0, drops = 0;
  double cpu_s = 0.0;
  double steal = 0.0;
  std::vector<double> rss;  // resident set at the end of each rig, MB
  uint64_t invol = 0;
  std::vector<Metric> layers;
  double cpu_ns_per_pkt() const {
    return departures ? cpu_s / static_cast<double>(departures) * 1e9 : 0.0;
  }
};

// Untraced: kSimSetups rigs, each built from scratch (the set-up time is
// their median) and each measured for its share of `seconds`. Traced: one.
SimPhase run_sim_phase(const SimInputs& in, double seconds, bool traced) {
  SimPhase out;
  SpanClock clk;
  const int rigs = traced ? 1 : kSimSetups;
  // Traced runs count allocations in the loop, so nothing in it may grow.
  constexpr std::size_t kMaxWindows = 4096;
  for (auto* v : {&out.tput, &out.cpu, &out.p50, &out.p99, &out.calib})
    v->reserve(kMaxWindows);
  std::vector<SimWindow> marks;
  marks.reserve(kMaxWindows);
  std::vector<double> w;
  for (int s = 0; s < rigs; ++s) {
    const auto t_setup = Clock::now();
    std::unique_ptr<SimRig> rig = make_sim_rig(in, traced ? &clk : nullptr);
    rig->sim.run_until(kSimWindow);  // warm-up window
    rig->lat.clear();
    out.setups.push_back(
        std::chrono::duration<double>(Clock::now() - t_setup).count());

    SimRig& R = *rig;
    const TimedScheduler::Snap sched0 =
        R.timed ? R.timed->snap() : TimedScheduler::Snap{};
    const CallStat::Snap rate0 = R.rate ? R.rate->snap() : CallStat::Snap{};
    const uint64_t events0 = R.sim.events_executed();
    const uint64_t dep0 = R.departures, drop0 = R.server->drops();
    const double steal0 = steal_ms();
    const uint64_t invol0 = invol_ctx_switches();
    marks.clear();
    w.reserve(R.lat.capacity());
    double wall = 0.0, cpu = 0.0;
    const double budget = seconds / rigs;
    if (traced) bench::alloc_guard_arm();
    for (std::size_t k = 1;
         (wall < budget || k == 1) && out.tput.size() < kMaxWindows; ++k) {
      const uint64_t d0 = R.departures;
      const double c0 = thread_cpu_s();
      const auto t0 = Clock::now();
      R.sim.run_until(kSimWindow * static_cast<double>(k + 1));
      const double dt =
          std::chrono::duration<double>(Clock::now() - t0).count();
      const double dc = thread_cpu_s() - c0;
      const double dn = static_cast<double>(R.departures - d0);
      wall += dt;
      cpu += dc;
      out.tput.push_back(dn / dt);
      out.cpu.push_back(dc / dn * 1e9);
      w.assign(R.lat.begin(), R.lat.end());
      R.lat.clear();
      out.p50.push_back(quantile(w, 0.50));
      out.p99.push_back(quantile(w, 0.99));
      marks.push_back({R.digest, R.departures, R.server->drops()});
      out.calib.push_back(calib_ns());
    }
    const uint64_t allocs = traced ? bench::alloc_guard_disarm() : 0;
    out.steal += steal_ms() - steal0;
    out.invol += invol_ctx_switches() - invol0;
    out.rss.push_back(rss_mb());
    const uint64_t departures = R.departures - dep0;
    out.departures += departures;
    out.drops += R.server->drops() - drop0;
    out.cpu_s += cpu;
    if (s == 0) {
      out.marks = marks;
    } else {
      const std::size_t common = std::min(marks.size(), out.marks.size());
      for (std::size_t k = 0; k < common; ++k)
        out.rigs_agree = out.rigs_agree && marks[k].digest == out.marks[k].digest;
    }
    if (!traced) continue;
    const double n = std::max<double>(1.0, static_cast<double>(departures));
    const TimedScheduler::Snap sd = R.timed->snap() - sched0;
    const CallStat::Snap rd = R.rate->snap() - rate0;
    const double named = sd.total_ns() + rd.ns;
    const auto samples = departures;
    auto& L = out.layers;
    add_sched_layers(L, sd, rd, static_cast<double>(departures),
                     wall * 1e9);
    L.push_back({"sim.events_per_pkt",
                 static_cast<double>(R.sim.events_executed() - events0) / n,
                 "count", samples});
    L.push_back({"sim.self_ns_per_pkt", (wall * 1e9 - named) / n, "ns",
                 samples});
    L.push_back({"sim.pending_events_max",
                 static_cast<double>(R.sim.max_pending_events()), "count", 1});
    L.push_back({"alloc.per_pkt", static_cast<double>(allocs) / n, "count",
                 samples});
  }
  return out;
}

}  // namespace

Result run_sim_flowscale(const Args& args) {
  Result r;
  const SimInputs in = make_sim_inputs(args.seed);
  pin_to_cpu(0, busy_cpu(0));  // the simulation runs on this thread
  const double rss0 = rss_mb();
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const SimPhase a = run_sim_phase(in, untraced_s, false);
  r.attempted = a.departures + a.drops;
  r.failed = 0;  // churn drops are the scenario's output (see README)
  r.check(a.departures > 0, "sim_flowscale delivered nothing");
  r.check(a.rigs_agree,
          "sim_flowscale: rigs of one seed departed packets in different orders");
  const double delivered =
      static_cast<double>(a.departures) /
      std::max<double>(1.0, static_cast<double>(a.departures + a.drops));
  if (!args.trace) {
    r.add("throughput_pps", median(a.tput), "1/s", a.tput.size());
    r.add("cpu_ns_per_pkt", median(a.cpu), "ns", a.cpu.size());
    r.add("delivered_ratio", delivered, "ratio", a.departures + a.drops);
    // Simulated queueing delay (arrival -> departure in simulated time): a
    // model output that moves only when scheduling decisions change.
    r.ungated("sim_latency_p50_us", median(a.p50), "us", a.p50.size());
    r.ungated("sim_latency_p99_us", median(a.p99), "us", a.p99.size());
    r.add("setup_s", median(a.setups), "s", a.setups.size());
    r.add("rss_mb", min_of(a.rss) - rss0, "MB", a.rss.size());
    std::vector<Metric> unused;
    add_host_diagnostics(r, unused, a.steal, a.invol, a.calib);
    return r;
  }
  SimPhase b = run_sim_phase(in, args.seconds / 2, true);
  r.diag("timer.read_ns", timer_overhead_ns(), "ns");
  // The decorators must not change behaviour: the same windows of the same
  // seed depart the same packets in the same order.
  const std::size_t common = std::min(a.marks.size(), b.marks.size());
  r.check(common > 0, "sim_flowscale: no window to compare");
  if (common > 0) {
    const SimWindow& x = a.marks[common - 1];
    const SimWindow& y = b.marks[common - 1];
    r.check(x.digest == y.digest,
            "sim_flowscale: traced departure order differs from untraced");
    r.check(x.departures == y.departures && x.drops == y.drops,
            "sim_flowscale: traced delivered/dropped counts differ");
  }
  b.layers.push_back({"trace.overhead",
                      a.cpu_ns_per_pkt() > 0.0
                          ? b.cpu_ns_per_pkt() / a.cpu_ns_per_pkt()
                          : 0.0,
                      "ratio", 2});
  add_host_diagnostics(r, b.layers, a.steal + b.steal, a.invol + b.invol,
                       b.calib);
  finish_layer_metrics(r, b.layers);
  return r;
}

}  // namespace perfbench
