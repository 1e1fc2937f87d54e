#include "chaos/differential.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "chaos/scenario_generator.h"
#include "core/scheduler.h"
#include "core/scheduler_factory.h"
#include "net/rate_profile.h"
#include "obs/invariant_checker.h"
#include "obs/telemetry/telemetry.h"
#include "obs/trace.h"
#include "rt/engine.h"
#include "rt/shard/sharded_engine.h"

namespace sfq::chaos {

namespace {

// Records every event for offline comparison and invariant replay.
class RecordingSink final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent& e) override { events_.push_back(e); }
  const std::vector<obs::TraceEvent>& events() const { return events_; }

 private:
  std::vector<obs::TraceEvent> events_;
};

bool same_event(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.type == b.type && a.drop_cause == b.drop_cause && a.flow == b.flow &&
         a.seq == b.seq && a.length_bits == b.length_bits && a.t == b.t &&
         a.arrival == b.arrival && a.start_tag == b.start_tag &&
         a.finish_tag == b.finish_tag && a.vtime == b.vtime &&
         a.backlog == b.backlog;
}

std::string describe_event(const obs::TraceEvent& e) {
  std::ostringstream ss;
  ss << obs::to_string(e.type) << " flow " << e.flow << " seq " << e.seq
     << " t " << e.t << " S " << e.start_tag << " F " << e.finish_tag
     << " v " << e.vtime << " backlog " << e.backlog;
  if (e.drop_cause != obs::DropCause::kNone)
    ss << " cause " << obs::to_string(e.drop_cause);
  return ss.str();
}

// Average offered rate of a flow, for the weak throughput oracle.
double offered_rate(const config::FlowSpec& f) {
  if (f.kind == "greedy") return f.rate > 0.0 ? f.rate : 2.0 * f.weight;
  if (f.kind == "onoff")
    return f.rate * f.mean_on / std::max(f.mean_on + f.mean_off, 1e-9);
  return f.rate;
}

SchedulerOptions scheduler_options_for(const config::ExperimentSpec& spec) {
  SchedulerOptions opts;
  opts.assumed_capacity = spec.link_rate();
  double max_packet = 0.0;
  for (const config::FlowSpec& f : spec.flows)
    max_packet = std::max(max_packet, f.packet);
  opts.quantum_per_weight =
      max_packet > 0.0 ? max_packet / spec.link_rate() * 4.0 : 1.0;
  // Same deterministic wheel quantum as run_experiment, so the rt capture
  // and its replay build bit-identical SFQ-W schedulers.
  opts.sfq_wheel_quantum = config::sfq_wheel_quantum(spec);
  return opts;
}

}  // namespace

CheckResult check_sim(const config::ExperimentSpec& spec, uint64_t seed) {
  CheckResult res;
  RecordingSink first, second;
  config::ExperimentResult r1, r2;
  try {
    r1 = config::run_experiment(spec, &first);
    r2 = config::run_experiment(spec, &second);
  } catch (const std::exception& e) {
    res.fail("error", std::string("run_experiment threw: ") + e.what());
    return res;
  }

  // Determinism gate: two runs of the same spec must agree on every event.
  const auto& ea = first.events();
  const auto& eb = second.events();
  const std::size_t n = std::min(ea.size(), eb.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_event(ea[i], eb[i])) {
      std::ostringstream ss;
      ss << "runs diverge at event " << i << ":\n  run1: "
         << describe_event(ea[i]) << "\n  run2: " << describe_event(eb[i]);
      res.fail("determinism", ss.str());
      return res;
    }
  }
  if (ea.size() != eb.size()) {
    std::ostringstream ss;
    ss << "runs diverge in length: " << ea.size() << " vs " << eb.size()
       << " events; first extra: "
       << describe_event(ea.size() > eb.size() ? ea[n] : eb[n]);
    res.fail("determinism", ss.str());
    return res;
  }

  // Invariant oracle over the recorded stream, seed baked into messages.
  auto checker_opts = obs::InvariantChecker::for_scheduler(spec.scheduler);
  checker_opts.order_slack = config::sfq_wheel_quantum(spec);
  obs::InvariantChecker checker(checker_opts);
  checker.set_context("seed " + std::to_string(seed));
  for (const obs::TraceEvent& e : ea) checker.on_event(e);
  checker.finish();
  if (!checker.ok()) {
    res.fail("invariant", checker.report());
    return res;
  }

  // Theorem-1 fairness oracle. The analytic bound is SFQ's (SCFQ's is the
  // same expression); other disciplines make no such promise. It is applied
  // only where its premises are airtight for the empirical measure:
  //   * no drops (pushout/churn evict queued packets, so a flow can look
  //     backlogged to the recorder while receiving no service),
  //   * fixed packet sizes (the bound uses the spec's l_max; vbr exceeds it),
  //   * single hop (the measure instruments the first hop's recorder).
  // A variable-rate (FC on/off) link stays in scope on purpose — Theorem 1
  // holds "for any server rate behaviour".
  // SFQ-W stays in scope: run_experiment already widens the bound by the
  // derived 2*quantum quantization slack, so the ratio premise is unchanged.
  bool fairness_scope =
      (spec.scheduler == "SFQ" || spec.scheduler == "SFQ-W" ||
       spec.scheduler == "SCFQ") &&
      spec.hops.size() == 1 && spec.hops.front().buffer_packets == 0 &&
      !spec.has_faults();
  for (const config::FlowSpec& f : spec.flows)
    fairness_scope &= f.packet > 0.0 && f.kind != "vbr";
  if (fairness_scope && r1.worst_fairness_ratio > 1.0 + 1e-6) {
    std::ostringstream ss;
    ss << "worst empirical fairness " << r1.worst_fairness_ratio
       << "x the Theorem-1 bound (seed " << seed << ")";
    res.fail("fairness", ss.str());
    return res;
  }

  // Theorem-2-flavoured throughput oracle.
  double delivered_bits = 0.0;
  for (const config::FlowResult& fr : r1.flows)
    delivered_bits += fr.throughput * spec.duration;
  double max_packet = 1.0;
  for (const config::FlowSpec& f : spec.flows)
    max_packet = std::max(max_packet, f.packet);
  // Upper bound: a link cannot deliver more than capacity (plus edge
  // packets) — brown-outs/outages only lower it.
  const double cap_bits = spec.link_rate() * spec.duration +
                          2.0 * max_packet * spec.hops.size();
  if (delivered_bits > cap_bits) {
    std::ostringstream ss;
    ss << "delivered " << delivered_bits << " bits > link capacity "
       << cap_bits << " bits over " << spec.duration << "s";
    res.fail("throughput", ss.str());
    return res;
  }
  // Lower bound, only where it is airtight: no faults/churn, single hop,
  // every flow runs the whole horizon. A work-conserving server must then
  // clear at least half of min(offered, capacity) — generous slack for
  // bursty models and end-of-run backlog.
  bool clean = !spec.has_faults() && spec.hops.size() == 1;
  double offered = 0.0;
  for (const config::FlowSpec& f : spec.flows) {
    clean &= f.start == 0.0 && f.stop < 0.0;
    offered += offered_rate(f);
  }
  if (clean && spec.hops.front().delta == 0.0) {
    const double expect =
        0.5 * std::min(offered, spec.link_rate()) * spec.duration -
        2.0 * max_packet * spec.flows.size();
    if (delivered_bits < expect) {
      std::ostringstream ss;
      ss << "delivered " << delivered_bits << " bits < " << expect
         << " (half of min(offered " << offered << ", capacity "
         << spec.link_rate() << ") x " << spec.duration
         << "s) on a clean run — server not work-conserving?";
      res.fail("throughput", ss.str());
      return res;
    }
  }
  return res;
}

CheckResult check_rt(const config::ExperimentSpec& spec, uint64_t seed,
                     std::size_t packets) {
  RtCheckOptions opts;
  opts.packets = packets;
  return check_rt(spec, seed, opts);
}

namespace {

// Sharded capture->replay check (RtCheckOptions::shards > 1): the offered
// load routes through a ShardedEngine, each shard's op sequence replays
// independently against a fresh scheduler built the way the shard factory
// built the live one, the summed cross-shard ledger must conserve exactly,
// and clean unlimited-buffer runs additionally hold the hierarchical
// cross-shard fairness bound over sampled drain windows.
CheckResult check_rt_sharded(const config::ExperimentSpec& spec, uint64_t seed,
                             const RtCheckOptions& rt_opts) {
  namespace tel = obs::telemetry;
  const std::size_t packets = rt_opts.packets;
  const std::size_t shards = rt_opts.shards;
  CheckResult res;
  const SchedulerOptions base_opts = scheduler_options_for(spec);

  // Same deterministic per-seed offer schedule as the single-engine path;
  // global flow ids are the spec order (the sharded engine owns
  // registration and remaps to shard-local ids internally).
  struct Offer {
    FlowId flow;
    uint64_t seq;
    double bits;
  };
  std::vector<Offer> offers;
  {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<uint64_t> next_seq(spec.flows.size(), 1);
    std::vector<double> weights;
    for (const config::FlowSpec& f : spec.flows) weights.push_back(f.weight);
    std::discrete_distribution<std::size_t> which(weights.begin(),
                                                  weights.end());
    offers.reserve(packets);
    for (std::size_t i = 0; i < packets; ++i) {
      const std::size_t fi = which(rng);
      offers.push_back(
          Offer{static_cast<FlowId>(fi), next_seq[fi]++, spec.flows[fi].packet});
    }
  }
  double total_bits = 0.0;
  for (const Offer& o : offers) total_bits += o.bits;
  const double rate = std::max(spec.link_rate(), total_bits / 0.025);

  rt::EngineOptions eng_opts;
  eng_opts.producers = 1;
  eng_opts.buffer_limit = spec.hops.front().buffer_packets;
  eng_opts.overload_policy = spec.hops.front().pushout
                                 ? net::OverloadPolicy::kPushout
                                 : net::OverloadPolicy::kTailDrop;
  eng_opts.stall_timeout = 5.0;
  if (rt_opts.inject_faults) {
    const Time horizon = 0.05;
    eng_opts.fault_plan = generate_rt_faults(seed, horizon);
    eng_opts.stall_timeout = 0.02;
    eng_opts.restart_budget = 1000;
    eng_opts.admission_control = true;
    if (eng_opts.buffer_limit == 0) eng_opts.buffer_limit = 32;
  }

  std::vector<rt::ShardFlow> flows;
  flows.reserve(spec.flows.size());
  for (const config::FlowSpec& f : spec.flows)
    flows.push_back(rt::ShardFlow{f.weight, f.packet, f.name});
  rt::ShardedEngineOptions sopts;
  sopts.shards = shards;
  sopts.link_rate = rate;
  sopts.engine = eng_opts;
  const bool kill_mode = rt_opts.kill_shard && shards > 1;
  std::size_t kill_victim = 0;
  if (kill_mode) {
    // Seeded shard kill mid-load, supervisor armed: the run must survive it
    // by failover (fence -> rehome -> cold restart -> rehome back).
    const ShardKillScenario kill = generate_shard_kill(seed, 0.02, shards);
    kill_victim = kill.shard;
    sopts.shard_faults.push_back({kill.shard, kill.plan});
    sopts.failover.enabled = true;
    sopts.failover.poll_interval = 0.0005;
    sopts.failover.shard_restart_budget = 1;
    sopts.failover.restart_backoff = 0.002;
  }
  auto factory = [&](std::size_t, double share) {
    SchedulerOptions so = base_opts;
    so.assumed_capacity = rate * share;
    return make_scheduler(spec.scheduler, so);
  };
  std::string err;
  std::unique_ptr<rt::ShardedEngine> engine =
      rt::ShardedEngine::try_create(factory, flows, sopts, &err);
  if (!engine) {
    res.fail("error", "sharded engine build failed: " + err);
    return res;
  }
  std::vector<std::vector<rt::CaptureOp>> ops;
  engine->set_capture(&ops);
  tel::TelemetryOptions topts;
  topts.shards = shards;
  tel::Telemetry tele(topts);
  engine->set_telemetry(&tele);
  engine->start();
  uint64_t offer_calls = 0;
  for (const Offer& o : offers) {
    Packet p;
    p.flow = o.flow;
    p.seq = o.seq;
    p.length_bits = o.bits;
    ++offer_calls;
    if (!engine->offer_wait(0, p)) break;
  }

  // A kill run must give the supervisor room to finish the whole epoch
  // before the drain stop settles everything: kill fires on the victim's
  // raw clock mid-drain, then fence -> rehome -> cold restart -> rehome
  // back. Wait (bounded) for a completed failover, the victim's second
  // engine epoch, and the migrated ledger to cancel out.
  if (kill_mode) {
    const auto t0 = std::chrono::steady_clock::now();
    auto waited = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    while (waited() < 5.0) {
      const rt::EngineStats es = engine->stats();
      if (engine->shard_failovers() > 0 &&
          engine->engine_epochs(kill_victim) > 1 &&
          es.migrated_in == es.migrated_out)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Root fairness sampling over the drain (clean runs only: no drops to
  // break the backlog premise, no injected faults warping the clock). A
  // shard's backlog is monotone non-increasing once offers stop, so backlog
  // > 0 at a window's END means the shard stayed busy throughout it — the
  // window the eq.-65 bound covers.
  struct Sample {
    std::vector<double> service;
    std::vector<uint64_t> shard_backlog;
  };
  std::vector<Sample> samples;
  // Kill runs are excluded: a window straddling the evacuation or the
  // rehome-back sees a flow re-anchor its tags on a NEW server mid-window,
  // which voids the Theorem-1 premise (continuously backlogged on one
  // server) that the per-window proxy below leans on. The failover soak
  // gate asserts the migration-extended bound at whole-run granularity
  // instead (scripts/soak.sh --kill-shard).
  const bool fairness_scope = !rt_opts.inject_faults && !kill_mode &&
                              spec.hops.front().buffer_packets == 0 &&
                              spec.flows.size() >= 2;
  if (fairness_scope) {
    while (engine->stats().backlog > 0 && samples.size() < 64) {
      Sample s;
      s.service = engine->service_snapshot();
      s.shard_backlog.reserve(shards);
      for (std::size_t k = 0; k < shards; ++k)
        s.shard_backlog.push_back(engine->shard_stats(k).backlog);
      samples.push_back(std::move(s));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  engine->stop(rt::StopMode::kDrain);
  if (engine->stalled()) {
    res.fail("rt-stall", "stall watchdog tripped while draining the load");
    return res;
  }
  if (rt_opts.inject_faults) {
    const rt::EngineStats es = engine->stats();
    if (es.stalls > 0 && es.recoveries == 0) {
      res.fail("rt-stall", "injected faults caused " +
                               std::to_string(es.stalls) +
                               " stall(s) but no recovery was recorded");
      return res;
    }
    if (es.transmitted == 0) {
      res.fail("rt-stall", "no packet transmitted under the injected faults");
      return res;
    }
  }
  if (kill_mode) {
    const rt::EngineStats es = engine->stats();
    if (engine->shard_failovers() == 0) {
      res.fail("rt-failover",
               "shard kill injected but no failover completed (seed " +
                   std::to_string(seed) + ")");
      return res;
    }
    if (es.migrated_in != es.migrated_out) {
      res.fail("rt-failover",
               "migration did not settle: migrated_in " +
                   std::to_string(es.migrated_in) + " != migrated_out " +
                   std::to_string(es.migrated_out));
      return res;
    }
    if (es.transmitted == 0) {
      res.fail("rt-failover", "no packet transmitted across the failover");
      return res;
    }
  }

  // Cross-shard ledger conservation, read through the telemetry plane (which
  // sums every shard's and epoch's counter cells): the offered side — every
  // offer_wait call the harness made — is pushed or an ingress drop, and the
  // flow identities hold with backlog as the sum of the per-shard backlog
  // gauges.
  {
    const tel::TelemetrySnapshot ts = tele.snapshot();
    const rt::EngineStats es = engine->stats();
    auto c = [&](tel::CounterId id) { return ts.counter_total(id); };
    const uint64_t pre_drops = c(tel::CounterId::kDropUnknownFlow) +
                               c(tel::CounterId::kDropBufferLimit) +
                               c(tel::CounterId::kDropShed);
    const uint64_t post_drops = c(tel::CounterId::kDropPushout) +
                                c(tel::CounterId::kDropFlowRemoved);
    // A migration epoch moves packets between shard ledgers: adopted
    // packets count accepted (and migrated_in) at the destination without
    // an ingress push there, harvested ones leave the source as
    // migrated_out. The summed identities pick up those two terms and
    // cancel exactly once every migration settled. The per-shard backlog
    // gauge is each epoch's final publication — a fenced epoch publishes
    // its pre-harvest backlog — so kill runs check the ledger's backlog.
    uint64_t backlog = 0;
    for (std::size_t k = 0; k < shards; ++k)
      backlog +=
          static_cast<uint64_t>(ts.gauge(tel::GaugeId::kBacklogPackets, k));
    if (kill_mode) backlog = es.backlog;
    auto conserve = [&](const char* what, uint64_t lhs, uint64_t rhs) {
      if (lhs == rhs) return true;
      std::ostringstream ss;
      ss << "sharded telemetry conservation broken (" << what << "): " << lhs
         << " != " << rhs;
      res.fail("telemetry", ss.str());
      return false;
    };
    if (!conserve("offer calls == pushed + ingress drops", offer_calls,
                  c(tel::CounterId::kIngressPushed) +
                      c(tel::CounterId::kIngressDrops)) ||
        !conserve("pushed + migrated_in == accepted + pre-drops + abandoned",
                  c(tel::CounterId::kIngressPushed) + es.migrated_in,
                  c(tel::CounterId::kAccepted) + pre_drops +
                      c(tel::CounterId::kAbandoned)) ||
        !conserve("accepted == transmitted + backlog + post-drops + migrated",
                  c(tel::CounterId::kAccepted),
                  c(tel::CounterId::kTransmitted) + backlog + post_drops +
                      es.migrated_out))
      return res;
  }

  // Hierarchical root bound over the sampled middle windows: for every pair
  // of flows that both received service in a window whose home shards stayed
  // busy through it, the normalized-service gap must stay within
  // fairness_bound(f, m) plus one packet quantum per flow (window-edge
  // granularity, same slack the bench's wall-clock fairness check uses).
  if (samples.size() >= 4) {
    for (std::size_t w = 1; w + 2 < samples.size() && res.ok; ++w) {
      const Sample& s0 = samples[w];
      const Sample& s1 = samples[w + 1];
      for (FlowId f = 0; f < spec.flows.size() && res.ok; ++f) {
        const double df = s1.service[f] - s0.service[f];
        if (df <= 0.0) continue;
        if (s1.shard_backlog[engine->shard_of(f)] == 0) continue;
        for (FlowId m = f + 1; m < spec.flows.size(); ++m) {
          const double dm = s1.service[m] - s0.service[m];
          if (dm <= 0.0) continue;
          if (s1.shard_backlog[engine->shard_of(m)] == 0) continue;
          const double wf = spec.flows[f].weight;
          const double wm = spec.flows[m].weight;
          const double gap = std::abs(df / wf - dm / wm);
          // migration_slack() is 0 unless a failover epoch overlapped the
          // run (docs/ROBUSTNESS.md derives the extended bound).
          const double bound = engine->fairness_bound(f, m) +
                               engine->migration_slack() +
                               spec.flows[f].packet / wf +
                               spec.flows[m].packet / wm;
          if (gap > bound) {
            std::ostringstream ss;
            ss << "root fairness bound broken in drain window " << w
               << ": flows " << f << " (shard " << engine->shard_of(f)
               << ") vs " << m << " (shard " << engine->shard_of(m)
               << ") gap " << gap << " > hierarchical bound " << bound
               << " (seed " << seed << ", " << shards << " shards)";
            res.fail("fairness", ss.str());
            break;
          }
        }
      }
    }
    if (!res.ok) return res;
  }

  // Per-shard single-threaded replay: rebuild shard k's scheduler exactly
  // as the live factory did (same options, same ascending-global-id flow
  // registration) and apply its captured op sequence.
  double total_weight = 0.0;
  for (std::size_t k = 0; k < shards; ++k)
    total_weight += engine->shard_weight(k);
  for (std::size_t k = 0; k < shards && res.ok; ++k) {
    const double share =
        engine->shard_weight(k) > 0.0
            ? engine->shard_weight(k) / total_weight
            : 1.0 / static_cast<double>(shards);
    std::unique_ptr<Scheduler> replay_owned;
    try {
      replay_owned = factory(k, share);
      // Unified registration, exactly as the live engine built the shard:
      // every flow in ascending global-id order, non-home flows deactivated.
      // Residency changes after that are IN the transcript (kRemove /
      // kRejoin ops), so the replay tracks migrations by construction.
      for (FlowId f = 0; f < spec.flows.size(); ++f) {
        replay_owned->add_flow(spec.flows[f].weight, spec.flows[f].packet,
                               spec.flows[f].name);
        if (engine->home_shard_of(f) != k) replay_owned->remove_flow(f, 0.0);
      }
    } catch (const std::exception& e) {
      res.fail("error", std::string("shard replay build threw: ") + e.what());
      return res;
    }
    Scheduler& replay = *replay_owned;
    auto mismatch = [&](std::size_t i, const char* what, const Packet& want,
                        const Packet* got) {
      std::ostringstream ss;
      ss << "rt replay diverges on shard " << k << " at op " << i << " ("
         << what << "): engine saw flow " << want.flow << " seq " << want.seq
         << " S " << want.start_tag << " F " << want.finish_tag
         << ", replay ";
      if (got == nullptr) {
        ss << "returned nothing";
      } else {
        ss << "returned flow " << got->flow << " seq " << got->seq << " S "
           << got->start_tag << " F " << got->finish_tag;
      }
      res.fail("rt-divergence", ss.str());
    };
    for (std::size_t i = 0; i < ops[k].size() && res.ok; ++i) {
      const rt::CaptureOp& op = ops[k][i];
      switch (op.kind) {
        case rt::CaptureOp::Kind::kEnqueue:
          replay.enqueue(op.packet, op.t);
          break;
        case rt::CaptureOp::Kind::kDequeue: {
          std::optional<Packet> got = replay.dequeue(op.t);
          if (!got || got->flow != op.packet.flow ||
              got->seq != op.packet.seq ||
              got->start_tag != op.packet.start_tag ||
              got->finish_tag != op.packet.finish_tag)
            mismatch(i, "dequeue", op.packet, got ? &*got : nullptr);
          break;
        }
        case rt::CaptureOp::Kind::kComplete:
          replay.on_transmit_complete(op.packet, op.t);
          break;
        case rt::CaptureOp::Kind::kPushout: {
          std::optional<Packet> got = replay.pushout(op.packet.flow, op.t);
          if (!got || got->flow != op.packet.flow ||
              got->seq != op.packet.seq ||
              got->start_tag != op.packet.start_tag ||
              got->finish_tag != op.packet.finish_tag)
            mismatch(i, "pushout", op.packet, got ? &*got : nullptr);
          break;
        }
        case rt::CaptureOp::Kind::kRemove:
          // Harvest/evict: the backlog left with the flow (it re-enqueues
          // behind a kRejoin in the destination shard's transcript).
          replay.remove_flow(op.packet.flow, op.t);
          break;
        case rt::CaptureOp::Kind::kRejoin:
          replay.rejoin_flow(op.packet.flow, op.t);
          break;
      }
    }
    if (res.ok && !replay.empty() != !engine->scheduler(k).empty())
      res.fail("rt-divergence",
               "shard " + std::to_string(k) +
                   " replay backlog disagrees with the live scheduler after " +
                   std::to_string(ops[k].size()) + " ops");
  }
  return res;
}

}  // namespace

CheckResult check_rt(const config::ExperimentSpec& spec, uint64_t seed,
                     const RtCheckOptions& rt_opts) {
  const std::size_t packets = rt_opts.packets;
  CheckResult res;
  if (spec.hops.size() != 1 || spec.has_faults()) {
    res.fail("error", "check_rt needs a single-hop fault-free spec");
    return res;
  }
  // Sharded mode, for specs the sharded engine can split (flat flow tables;
  // HSFQ / class hierarchies keep the single-dispatcher path).
  if (rt_opts.shards > 1 && spec.classes.empty() && spec.scheduler != "HSFQ" &&
      !spec.flows.empty())
    return check_rt_sharded(spec, seed, rt_opts);
  const SchedulerOptions opts = scheduler_options_for(spec);

  config::BuiltScheduler live;
  try {
    live = config::build_experiment_scheduler(spec, opts);
  } catch (const std::exception& e) {
    res.fail("error", std::string("scheduler build threw: ") + e.what());
    return res;
  }

  // Offered traffic: a deterministic per-seed packet schedule, blasted
  // through the ring as fast as it accepts. Pacing does not matter — the
  // comparison is against the op sequence the dispatcher actually performed,
  // whatever interleaving the threads produced this run.
  struct Offer {
    FlowId flow;
    uint64_t seq;
    double bits;
  };
  std::vector<Offer> offers;
  {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<uint64_t> next_seq(spec.flows.size(), 1);
    std::vector<double> weights;
    for (const config::FlowSpec& f : spec.flows) weights.push_back(f.weight);
    std::discrete_distribution<std::size_t> which(weights.begin(),
                                                  weights.end());
    offers.reserve(packets);
    for (std::size_t i = 0; i < packets; ++i) {
      const std::size_t fi = which(rng);
      offers.push_back(Offer{live.flow_ids[fi], next_seq[fi]++,
                             spec.flows[fi].packet});
    }
  }

  // Scale the link so draining the whole offered load takes ~25ms of wall
  // clock; the replay equivalence is rate-independent.
  double total_bits = 0.0;
  for (const Offer& o : offers) total_bits += o.bits;
  const double rate = std::max(spec.link_rate(), total_bits / 0.025);

  rt::EngineOptions eng_opts;
  eng_opts.producers = 1;
  eng_opts.buffer_limit = spec.hops.front().buffer_packets;
  eng_opts.overload_policy = spec.hops.front().pushout
                                 ? net::OverloadPolicy::kPushout
                                 : net::OverloadPolicy::kTailDrop;
  eng_opts.stall_timeout = 5.0;  // a wedged dispatcher fails, not hangs
  if (rt_opts.inject_faults) {
    // Fault-injected mode: a seed-derived rt fault plan sized to the ~25 ms
    // drain window, a hair-trigger watchdog with an effectively unlimited
    // restart budget (recovery must keep working, never brick), and the
    // overload admission gate armed so the blast doubles as an overload
    // burst against weighted-fair shedding.
    const Time horizon = 0.05;
    eng_opts.fault_plan = generate_rt_faults(seed, horizon);
    eng_opts.stall_timeout = 0.02;
    eng_opts.restart_budget = 1000;
    eng_opts.admission_control = true;
    if (eng_opts.buffer_limit == 0) eng_opts.buffer_limit = 32;
  }
  rt::RtEngine engine(*live.scheduler, std::make_unique<net::ConstantRate>(rate),
                      eng_opts);
  std::vector<rt::CaptureOp> ops;
  engine.set_capture(&ops);
  obs::telemetry::Telemetry tele;
  engine.set_telemetry(&tele);
  engine.start();
  uint64_t offer_calls = 0;
  for (const Offer& o : offers) {
    Packet p;
    p.flow = o.flow;
    p.seq = o.seq;
    p.length_bits = o.bits;
    ++offer_calls;
    if (!engine.offer_wait(0, p)) break;  // engine stalled/stopped
  }
  engine.stop(rt::StopMode::kDrain);
  if (engine.stalled()) {
    res.fail("rt-stall", "stall watchdog tripped while draining the load");
    return res;
  }
  if (rt_opts.inject_faults) {
    // Self-healing contract: every stall the injected faults provoked must
    // have healed — service resumed (a recovery was counted) and the full
    // offered load still drained to completion.
    const rt::EngineStats es = engine.stats();
    if (es.stalls > 0 && es.recoveries == 0) {
      res.fail("rt-stall", "injected faults caused " +
                               std::to_string(es.stalls) +
                               " stall(s) but no recovery was recorded");
      return res;
    }
    if (es.transmitted == 0) {
      res.fail("rt-stall", "no packet transmitted under the injected faults");
      return res;
    }
  }

  // Ledger conservation, read through the telemetry plane: every
  // offer_wait call the harness made is pushed or an ingress drop, and every
  // pushed packet is accepted, dropped for a named cause, abandoned, or
  // still in the backlog (the backlog gauge the dispatcher published at
  // exit).
  {
    namespace tel = obs::telemetry;
    const tel::TelemetrySnapshot ts = tele.snapshot();
    auto c = [&](tel::CounterId id) { return ts.counter_total(id); };
    const uint64_t pre_drops = c(tel::CounterId::kDropUnknownFlow) +
                               c(tel::CounterId::kDropBufferLimit) +
                               c(tel::CounterId::kDropShed);
    const uint64_t post_drops = c(tel::CounterId::kDropPushout) +
                                c(tel::CounterId::kDropFlowRemoved);
    const uint64_t backlog = static_cast<uint64_t>(
        ts.gauge(tel::GaugeId::kBacklogPackets, 0));
    auto conserve = [&](const char* what, uint64_t lhs, uint64_t rhs) {
      if (lhs == rhs) return true;
      std::ostringstream ss;
      ss << "telemetry conservation broken (" << what << "): " << lhs
         << " != " << rhs;
      res.fail("telemetry", ss.str());
      return false;
    };
    if (!conserve("offer calls == pushed + ingress drops", offer_calls,
                  c(tel::CounterId::kIngressPushed) +
                      c(tel::CounterId::kIngressDrops)) ||
        !conserve("pushed == accepted + pre-drops + abandoned",
                  c(tel::CounterId::kIngressPushed),
                  c(tel::CounterId::kAccepted) + pre_drops +
                      c(tel::CounterId::kAbandoned)) ||
        !conserve("accepted == transmitted + backlog + post-drops",
                  c(tel::CounterId::kAccepted),
                  c(tel::CounterId::kTransmitted) + backlog + post_drops))
      return res;
  }

  // Single-threaded replay of the captured op sequence on a fresh scheduler.
  config::BuiltScheduler ref;
  try {
    ref = config::build_experiment_scheduler(spec, opts);
  } catch (const std::exception& e) {
    res.fail("error", std::string("replay scheduler build threw: ") + e.what());
    return res;
  }
  Scheduler& replay = *ref.scheduler;
  auto mismatch = [&](std::size_t i, const char* what, const Packet& want,
                      const Packet* got) {
    std::ostringstream ss;
    ss << "rt replay diverges at op " << i << " (" << what << "): engine saw"
       << " flow " << want.flow << " seq " << want.seq << " S "
       << want.start_tag << " F " << want.finish_tag << ", replay ";
    if (got == nullptr) {
      ss << "returned nothing";
    } else {
      ss << "returned flow " << got->flow << " seq " << got->seq << " S "
         << got->start_tag << " F " << got->finish_tag;
    }
    res.fail("rt-divergence", ss.str());
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const rt::CaptureOp& op = ops[i];
    switch (op.kind) {
      case rt::CaptureOp::Kind::kEnqueue:
        replay.enqueue(op.packet, op.t);
        break;
      case rt::CaptureOp::Kind::kDequeue: {
        std::optional<Packet> got = replay.dequeue(op.t);
        if (!got || got->flow != op.packet.flow || got->seq != op.packet.seq ||
            got->start_tag != op.packet.start_tag ||
            got->finish_tag != op.packet.finish_tag) {
          mismatch(i, "dequeue", op.packet, got ? &*got : nullptr);
          return res;
        }
        break;
      }
      case rt::CaptureOp::Kind::kComplete:
        replay.on_transmit_complete(op.packet, op.t);
        break;
      case rt::CaptureOp::Kind::kPushout: {
        std::optional<Packet> got = replay.pushout(op.packet.flow, op.t);
        if (!got || got->flow != op.packet.flow || got->seq != op.packet.seq ||
            got->start_tag != op.packet.start_tag ||
            got->finish_tag != op.packet.finish_tag) {
          mismatch(i, "pushout", op.packet, got ? &*got : nullptr);
          return res;
        }
        break;
      }
      // Residency ops only appear in sharded failover transcripts; a
      // single-engine capture never emits them, but replay them faithfully.
      case rt::CaptureOp::Kind::kRemove:
        replay.remove_flow(op.packet.flow, op.t);
        break;
      case rt::CaptureOp::Kind::kRejoin:
        replay.rejoin_flow(op.packet.flow, op.t);
        break;
    }
  }
  if (!replay.empty() != !live.scheduler->empty()) {
    res.fail("rt-divergence",
             "replay backlog disagrees with the live scheduler after " +
                 std::to_string(ops.size()) + " ops");
  }
  return res;
}

CheckResult check_wheel(const config::ExperimentSpec& spec, uint64_t seed) {
  CheckResult res;
  if (spec.scheduler != "SFQ") {
    res.fail("error", "check_wheel needs an SFQ spec (got '" + spec.scheduler +
                          "')");
    return res;
  }
  config::ExperimentSpec wheel_spec = spec;
  wheel_spec.scheduler = "SFQ-W";  // quantum left 0 => auto l_max / C
  const double qwindow = config::sfq_wheel_quantum(wheel_spec);

  RecordingSink heap_rec, wheel_rec;
  config::ExperimentResult heap_res, wheel_res;
  try {
    heap_res = config::run_experiment(spec, &heap_rec);
    wheel_res = config::run_experiment(wheel_spec, &wheel_rec);
  } catch (const std::exception& e) {
    res.fail("error", std::string("run_experiment threw: ") + e.what());
    return res;
  }

  // Wheel-run invariant profile: dequeue order within one quantization
  // window, exact vtime monotonicity, exact per-flow tag chains, fault-aware
  // conservation. This subsumes the "almost sorted" property the wheel
  // promises in exchange for O(1) operations.
  auto checker_opts = obs::InvariantChecker::for_scheduler("SFQ-W");
  checker_opts.order_slack = qwindow;
  obs::InvariantChecker checker(checker_opts);
  checker.set_context("wheel seed " + std::to_string(seed));
  for (const obs::TraceEvent& e : wheel_rec.events()) checker.on_event(e);
  checker.finish();
  if (!checker.ok()) {
    res.fail("invariant", checker.report());
    return res;
  }

  // Fairness oracle with the derived slack: run_experiment's ratio divides
  // by (Theorem-1 bound + 2*quantum) for SFQ-W, so > 1 here means the
  // analytic quantization-slack term is wrong, not just "the wheel differs".
  bool fairness_scope = spec.hops.size() == 1 &&
                        spec.hops.front().buffer_packets == 0 &&
                        !spec.has_faults();
  for (const config::FlowSpec& f : spec.flows)
    fairness_scope &= f.packet > 0.0 && f.kind != "vbr";
  if (fairness_scope && wheel_res.worst_fairness_ratio > 1.0 + 1e-6) {
    std::ostringstream ss;
    ss << "wheel run exceeds Theorem-1 bound + 2*quantum slack: ratio "
       << wheel_res.worst_fairness_ratio << " (quantum " << qwindow
       << ", seed " << seed << ")";
    res.fail("fairness", ss.str());
    return res;
  }

  // Cross-core service comparison, clean no-drop specs only (a single drop
  // decision can cascade into arbitrarily different service sets). Both
  // cores serve the same arrivals work-conservingly; each flow's normalized
  // service deviates from the fluid share by at most its Theorem-1 deviation
  // plus (wheel only) the quantization window, so the cores differ per flow
  // by at most r_f * (2*quantum) + a few max-packets of edge granularity.
  if (fairness_scope) {
    double max_packet = 0.0;
    for (const config::FlowSpec& f : spec.flows)
      max_packet = std::max(max_packet, f.packet);
    std::vector<double> heap_bits, wheel_bits;
    auto tally = [](const std::vector<obs::TraceEvent>& events,
                    std::vector<double>& bits) {
      for (const obs::TraceEvent& e : events) {
        if (e.type != obs::TraceEventType::kDequeue) continue;
        if (e.flow == kInvalidFlow) continue;
        if (e.flow >= bits.size()) bits.resize(e.flow + 1, 0.0);
        bits[e.flow] += e.length_bits;
      }
    };
    tally(heap_rec.events(), heap_bits);
    tally(wheel_rec.events(), wheel_bits);
    const std::size_t flows = std::max(heap_bits.size(), wheel_bits.size());
    heap_bits.resize(flows, 0.0);
    wheel_bits.resize(flows, 0.0);
    for (std::size_t i = 0; i < spec.flows.size() && i < flows; ++i) {
      const double tol =
          spec.flows[i].weight * 2.0 * qwindow + 4.0 * max_packet;
      const double diff = std::abs(heap_bits[i] - wheel_bits[i]);
      if (diff > tol) {
        std::ostringstream ss;
        ss << "cores diverge on flow " << i << " ('" << spec.flows[i].name
           << "'): heap served " << heap_bits[i] << " bits, wheel "
           << wheel_bits[i] << " (|diff| " << diff << " > tolerance " << tol
           << ", quantum " << qwindow << ", seed " << seed << ")";
        res.fail("wheel-divergence", ss.str());
        return res;
      }
    }
  }
  return res;
}

}  // namespace sfq::chaos
