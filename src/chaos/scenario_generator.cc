#include "chaos/scenario_generator.h"

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/splitmix.h"

namespace sfq::chaos {

rt::RtFaultPlan generate_rt_faults(uint64_t seed, Time horizon) {
  // Decorrelate from generate(): the same seed drives both, and the fault
  // plan must not echo the scenario's random choices.
  std::mt19937_64 rng(splitmix64(seed ^ 0xfa417a6b715c10c7ULL));
  auto uni = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto chance = [&](double p) { return uni(0.0, 1.0) < p; };

  rt::RtFaultPlan plan;
  // At least one stop-the-world pause, placed inside the busy window so the
  // dispatcher holds obligations when it wakes (that is what trips the
  // watchdog and exercises recovery rather than an idle reset).
  const std::size_t n_pauses = chance(0.3) ? 2 : 1;
  for (std::size_t i = 0; i < n_pauses; ++i)
    plan.pauses.push_back({/*at=*/uni(0.1, 0.5) * horizon,
                           /*duration=*/uni(0.6, 1.5) * horizon});
  if (chance(0.7))  // forward jump: deadlines age instantly, harmlessly
    plan.jumps.push_back({/*at=*/uni(0.1, 0.8) * horizon,
                          /*delta=*/uni(0.2, 2.0) * horizon});
  if (chance(0.5))  // small backward jump: freezes the engine axis
    plan.jumps.push_back({/*at=*/uni(0.2, 0.9) * horizon,
                          /*delta=*/-uni(0.1, 0.5) * horizon});
  if (chance(0.5)) {
    const Time from = uni(0.0, 0.5) * horizon;
    plan.skews.push_back({from, from + uni(0.2, 0.5) * horizon,
                          /*factor=*/chance(0.5) ? uni(1.1, 2.0)
                                                 : uni(0.5, 0.9)});
  }
  return plan;
}

ShardKillScenario generate_shard_kill(uint64_t seed, Time horizon,
                                      std::size_t shards) {
  // Decorrelated from both generate() and generate_rt_faults(): the same
  // seed can drive all three without the kill echoing their choices.
  std::mt19937_64 rng(splitmix64(seed ^ 0x5ca1ab1edeadbeefULL));
  auto uni = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  ShardKillScenario kill;
  kill.shard = std::uniform_int_distribution<std::size_t>(
      0, shards > 0 ? shards - 1 : 0)(rng);
  // Inside the busy window: the victim holds real backlog when it dies, so
  // the failover migrates packets, not just idle flow records.
  kill.plan.kills.push_back({/*at=*/uni(0.15, 0.6) * horizon});
  return kill;
}

config::ExperimentSpec ScenarioGenerator::generate(uint64_t seed) const {
  // SplitMix64 over the seed decorrelates consecutive seeds before they
  // reach the mt19937_64 state (seeds 1,2,3,... would otherwise start
  // correlated).
  std::mt19937_64 rng(splitmix64(seed));
  auto uni = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&](uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng);
  };
  auto chance = [&](double p) { return uni(0.0, 1.0) < p; };
  // Times and rates are rounded to round-trippable short decimals purely for
  // readable repros; correctness never depends on the rounding.
  auto round3 = [](double v) { return std::floor(v * 1e3 + 0.5) / 1e3; };

  config::ExperimentSpec spec;

  // Discipline: weighted toward the paper's algorithm and its closest
  // relatives, with the rest of the library as cross-checks.
  static const char* kScheds[] = {"SFQ",  "SFQ", "SFQ",  "SFQ-W", "SFQ-W",
                                  "SCFQ", "SCFQ", "WFQ", "FQS",   "VC",
                                  "DRR",  "WRR", "FIFO", "EDD",  "FairAirport",
                                  "HSFQ", "HSFQ"};
  spec.scheduler = kScheds[pick(0, std::size(kScheds) - 1)];

  spec.duration = round3(uni(opts_.min_duration, opts_.max_duration));

  // Link(s). Rates stay modest so a scenario is a few thousand packets, not
  // hundreds of thousands — the harness runs by the thousand.
  config::HopSpec hop;
  hop.rate = std::floor(uni(1e6, 1.6e7));
  if (!opts_.rt_compatible && chance(0.25))
    hop.delta = std::floor(uni(4e3, 4e4));  // FC on/off burstiness (bits)
  if (chance(0.5)) {
    hop.buffer_packets = static_cast<std::size_t>(pick(8, 64));
    hop.pushout = chance(0.5);
  }
  spec.hops.push_back(hop);
  const bool hierarchical = spec.scheduler == "HSFQ";
  if (!opts_.rt_compatible && !hierarchical && chance(0.15)) {
    // Tandem path: 1-2 extra hops, slightly faster so the first hop stays
    // the shared bottleneck.
    const std::size_t extra = pick(1, 2);
    for (std::size_t i = 0; i < extra; ++i) {
      config::HopSpec h2;
      h2.rate = std::floor(hop.rate * uni(1.0, 1.5));
      h2.propagation = round3(uni(0.0, 0.01));
      spec.hops.push_back(h2);
    }
  }

  // H-SFQ link-sharing tree: up to 3 classes, possibly nested.
  if (hierarchical && chance(0.8)) {
    const std::size_t n_classes = pick(1, 3);
    for (std::size_t c = 0; c < n_classes; ++c) {
      config::ClassSpec cs;
      cs.name = "c";
      cs.name += std::to_string(c);
      cs.weight = std::floor(hop.rate * uni(0.1, 0.5));
      if (c > 0 && chance(0.4)) {
        cs.parent = "c";
        cs.parent += std::to_string(pick(0, c - 1));
      }
      spec.classes.push_back(cs);
    }
  }

  // Flows: weights are shares of the link scaled to a total utilization in
  // [0.5, 1.4] — under- and overload both get exercised.
  const std::size_t n_flows = pick(1, opts_.max_flows);
  const double utilization = uni(0.5, 1.4);
  std::vector<double> shares(n_flows);
  double share_sum = 0.0;
  for (double& s : shares) {
    s = uni(0.2, 1.0);
    share_sum += s;
  }
  for (std::size_t i = 0; i < n_flows; ++i) {
    config::FlowSpec f;
    f.name = "f";
    f.name += std::to_string(i);
    f.weight =
        std::max(1.0, std::floor(hop.rate * utilization * shares[i] / share_sum));
    f.packet = std::floor(uni(400.0, 12000.0));
    f.seed = pick(1, 1u << 20);

    const double kind_draw = uni(0.0, 1.0);
    if (opts_.rt_compatible) {
      // The rt driver replays the scheduler-op sequence; only packet sizing
      // and flow identity matter, so every flow is nominally greedy.
      f.kind = "greedy";
      f.rate = 0.0;
    } else if (kind_draw < 0.35) {
      f.kind = "cbr";
      f.rate = std::floor(f.weight * uni(0.6, 1.6));
    } else if (kind_draw < 0.60) {
      f.kind = "poisson";
      f.rate = std::floor(f.weight * uni(0.6, 1.6));
    } else if (kind_draw < 0.75) {
      f.kind = "onoff";
      f.rate = std::floor(f.weight * uni(1.2, 2.5));
      f.mean_on = round3(uni(0.01, 0.1));
      f.mean_off = round3(uni(0.01, 0.1));
      if (f.mean_on <= 0.0) f.mean_on = 0.01;
      if (f.mean_off <= 0.0) f.mean_off = 0.01;
    } else if (kind_draw < 0.95) {
      f.kind = "greedy";  // offers 2x weight
      f.rate = 0.0;
    } else {
      f.kind = "vbr";
      f.rate = std::floor(std::max(f.weight, 64e3));
    }

    if (!opts_.rt_compatible) {
      if (chance(0.2)) f.start = round3(uni(0.0, spec.duration * 0.25));
      if (chance(0.15)) {
        f.stop = round3(uni(spec.duration * 0.5, spec.duration));
        if (f.stop <= f.start) f.stop = -1.0;
      }
      // Churn: leave mid-run, sometimes rejoin later.
      if (chance(0.2)) {
        f.leave = round3(uni(spec.duration * 0.2, spec.duration * 0.7));
        if (f.leave <= 0.0) f.leave = 0.001;
        if (chance(0.5)) {
          f.rejoin = round3(f.leave + uni(0.02, spec.duration * 0.25));
          if (f.rejoin <= f.leave) f.rejoin = f.leave + 0.01;
        }
      }
    }
    if (!spec.classes.empty() && chance(0.7))
      f.cls = spec.classes[pick(0, spec.classes.size() - 1)].name;
    spec.flows.push_back(std::move(f));
  }

  // Fault plan: outages, brown-outs, loss and corruption on the first hop.
  if (!opts_.rt_compatible) {
    auto window = [&](Time min_len) {
      const Time from = round3(uni(0.0, spec.duration * 0.7));
      const Time until =
          round3(from + std::max(min_len, uni(min_len, spec.duration * 0.3)));
      return std::pair<Time, Time>(from, until);
    };
    if (chance(0.35)) {  // outage
      config::LinkFaultSpec lf;
      std::tie(lf.from, lf.until) = window(0.01);
      lf.factor = 0.0;
      spec.faults.link.push_back(lf);
    }
    if (chance(0.3)) {  // brown-out
      config::LinkFaultSpec lf;
      std::tie(lf.from, lf.until) = window(0.01);
      lf.factor = std::floor(uni(0.05, 0.9) * 100.0) / 100.0;
      if (lf.factor <= 0.0) lf.factor = 0.05;
      spec.faults.link.push_back(lf);
    }
    if (chance(0.35)) {  // random loss / corruption
      config::LossFaultSpec ls;
      std::tie(ls.from, ls.until) = window(0.05);
      ls.probability = std::floor(uni(0.005, 0.15) * 1000.0) / 1000.0;
      if (ls.probability <= 0.0) ls.probability = 0.005;
      ls.corrupt = chance(0.3);
      spec.faults.loss.push_back(ls);
      spec.faults.seed = pick(1, 1u << 20);
    }
  }

  return spec;
}

}  // namespace sfq::chaos
