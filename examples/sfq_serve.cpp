// sfq_serve — wall-clock real-time packet service (docs/REALTIME.md).
//
// Runs any scheduling discipline in the library against real time: N
// producer threads generate traffic with the traffic/ source models, push
// through lock-free ingress rings into a ShardedEngine, whose dispatchers
// pace transmissions on std::chrono::steady_clock. Every run takes this one
// path: --shards 1 (the default) is a single dispatcher owning the whole
// link, the same SFQ server as a raw RtEngine (the paper's eq. 65 with a
// one-class root).
//
//   sfq_serve --sched SFQ --flows 4 --producers 2 --rate 100e6 --duration 2
//   sfq_serve --sched SCFQ --model poisson --load 1.5 --policy pushout
//   sfq_serve --check --trace run.jsonl --metrics run.metrics.json
//   sfq_serve --shed --buffer 64 --load 2.5 --fault-pause 0.8,0.3
//             --fault-jump 1.2,0.4 --stall-timeout 0.1
//   sfq_serve --shards 4 --failover --fault-kill 0.5,1 --load 2.5
//
// Prints per-flow service, per-shard ledgers, the drop taxonomy, achieved
// packets/sec, pacing lag and latency, and the measured wall-clock fairness
// of every flow pair against the hierarchical Theorem-1 bound, then
// self-checks the drop-ledger conservation identities (docs/ROBUSTNESS.md) —
// a violation is always a non-zero exit. --shed arms the overload admission
// machine; the --fault-* flags script rt-layer faults (dispatcher pauses,
// clock jumps/skew, kills) against the watchdog, and the exit status
// distinguishes a recovered stall (0: service resumed) from a permanent one
// (1: restart budget exhausted). With --check (needs --shards 1), the online
// invariant checker (wrapped in the thread-safe rt::SyncSink) validates the
// live trace stream and a violation makes the exit status non-zero.
// Malformed flags print the usage text and exit with status 2.
//
// SIGINT/SIGTERM trigger a graceful drain instead of an abort: producers are
// stopped at the next packet boundary, the engine drain-stops, and the full
// summary + conservation self-check still run (exit non-zero if the
// interrupted ledger does not balance). --shards N --failover arms the shard
// supervisor: a permanently dead shard (watchdog budget exhausted, or a
// --fault-kill) is fenced, its flows rehomed onto survivors, and a cold
// restart attempted; the summary then reports per-shard verdicts and gates
// the surviving flows' fairness against the migration-extended bound.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler_factory.h"
#include "obs/invariant_checker.h"
#include "obs/telemetry/exposition.h"
#include "obs/telemetry/telemetry.h"
#include "obs/trace.h"
#include "rt/load_gen.h"
#include "rt/shard/sharded_engine.h"
#include "rt/sync_sink.h"
#include "stats/fairness.h"

namespace {

// SIGINT/SIGTERM request a graceful drain: the snapshot loop polls this,
// stop the producers, and run the normal summary + conservation gate.
volatile std::sig_atomic_t g_stop_signal = 0;
extern "C" void on_stop_signal(int sig) { g_stop_signal = sig; }

struct Args {
  std::string sched = "SFQ";
  double quantum = 0.0;  // SFQ-W tag-quantization window, s; 0 = auto
  std::size_t flows = 4;
  std::size_t producers = 2;
  std::vector<double> weights;  // bits/s; filled from --weights or derived
  double rate = 100e6;          // link bits/s
  double duration = 2.0;        // seconds
  std::string model = "cbr";
  double load = 2.0;            // offered = load * weight per flow
  double packet_bits = 8000.0;
  std::size_t buffer = 256;
  std::string policy = "taildrop";
  std::size_t ring = 1 << 14;
  double stall_timeout = 2.0;  // watchdog window, seconds; 0 disables
  unsigned restart_budget = 3;  // watchdog restarts before permanent stop
  bool shed = false;            // overload admission control (--buffer > 0)
  sfq::rt::RtFaultPlan fault_plan;  // --fault-pause/--fault-jump/--fault-skew
  struct KillFault {  // --fault-kill AT[,SHARD]
    double at = 0.0;
    std::size_t shard = 0;
  };
  std::vector<KillFault> fault_kills;
  bool failover = false;  // shard supervisor (--shards > 1)
  double stats_interval = 0.0;  // live console stats cadence; 0 disables
  int stats_port = -1;          // localhost HTTP exposition; -1 disables
  std::size_t shards = 1;       // dispatcher shards (docs/REALTIME.md)
  bool unpaced = false;
  bool check = false;
  std::string trace_path;
  std::string metrics_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --sched NAME        discipline (default SFQ; see scheduler_names).\n"
      "                      SFQ-W is the timestamp-wheel SFQ core: exact\n"
      "                      order up to one quantization window, widened\n"
      "                      fairness bound (docs/PERFORMANCE.md)\n"
      "  --quantum T         SFQ-W tag-quantization window in seconds\n"
      "                      (default: one max-size packet time,\n"
      "                      --packet-bits / link share)\n"
      "  --flows N           number of flows (default 4)\n"
      "  --producers N       producer threads (default 2)\n"
      "  --weights a,b,...   flow weights in bits/s (default: split 1/2 of "
      "--rate evenly)\n"
      "  --rate R            link rate, bits/s (default 100e6)\n"
      "  --duration S        seconds of generated traffic (default 2)\n"
      "  --model M           cbr | poisson | onoff (default cbr)\n"
      "  --load F            offered rate = F * weight (default 2.0)\n"
      "  --packet-bits B     packet size (default 8000)\n"
      "  --buffer N          scheduler backlog cap, 0 = infinite (default "
      "256)\n"
      "  --policy P          taildrop | pushout (default taildrop)\n"
      "  --ring N            per-producer ring capacity (default 16384)\n"
      "  --stall-timeout S   watchdog: stall if backlogged with no service\n"
      "                      progress for S wall seconds (default 2, 0 off)\n"
      "  --restart-budget N  watchdog: consecutive fruitless restarts before\n"
      "                      the permanent stop (default 3)\n"
      "  --shed              overload admission control: weighted-fair load\n"
      "                      shedding behind per-flow token buckets while\n"
      "                      occupancy is high (requires --buffer > 0)\n"
      "  --fault-pause AT,DUR\n"
      "                      inject: dispatcher sleeps DUR s at raw time AT\n"
      "                      (seconds from engine start; repeatable)\n"
      "  --fault-jump AT,DELTA\n"
      "                      inject: clock steps by DELTA s at raw time AT\n"
      "                      (backward steps freeze the engine clock)\n"
      "  --fault-skew FROM,UNTIL,FACTOR\n"
      "                      inject: clock runs at FACTOR x real rate inside\n"
      "                      [FROM, UNTIL)\n"
      "  --fault-kill AT[,SHARD]\n"
      "                      inject: the dispatcher (of shard SHARD, default\n"
      "                      0) dies permanently at raw time AT; with\n"
      "                      --shards 1 this demonstrates the permanent stop,\n"
      "                      with --failover the supervisor recovers it\n"
      "  --failover          shard failover (--shards > 1): fence a dead\n"
      "                      shard, rehome its flows onto survivors via the\n"
      "                      rendezvous remap, cold-restart it and rehome\n"
      "                      back (docs/ROBUSTNESS.md \"Shard failover\")\n"
      "  --stats-interval S  print a live stats line every S seconds\n"
      "  --stats-port P      serve Prometheus text at /metrics and JSON at\n"
      "                      /metrics.json on 127.0.0.1:P (0 = ephemeral)\n"
      "  --shards N          dispatcher shards (default 1): flows hash to\n"
      "                      shards, each shard is a full engine, the H-SFQ\n"
      "                      root splits --rate by weight share and the\n"
      "                      summary reports per-shard ledgers + the\n"
      "                      hierarchical fairness bound (--trace/--check\n"
      "                      need --shards 1)\n"
      "  --unpaced           blast arrivals as fast as rings accept\n"
      "  --trace FILE        JSONL packet-lifecycle trace\n"
      "  --metrics FILE      telemetry JSON dump (the /metrics.json document)\n"
      "  --check             online invariant checking (non-zero exit on "
      "violation)\n",
      argv0);
  std::exit(2);
}

// Strict number parsing: the whole argument must be one finite number (a
// count: one unsigned decimal integer no larger than `max`), else the usage
// text and exit 2.
double parse_num(const char* s, const char* argv0) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) usage(argv0);
  return v;
}

std::size_t parse_count(const char* s, const char* argv0,
                        unsigned long long max = SIZE_MAX) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
      errno == ERANGE || v > max)
    usage(argv0);
  return static_cast<std::size_t>(v);
}

std::vector<double> parse_list(const std::string& s, const char* argv0) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(parse_num(s.substr(pos, comma - pos).c_str(), argv0));
    pos = comma + 1;
  }
  return out;
}

Args parse(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  auto num = [&](int& i) { return parse_num(need(i), argv[0]); };
  auto count = [&](int& i, unsigned long long max = SIZE_MAX) {
    return parse_count(need(i), argv[0], max);
  };
  auto list = [&](int& i) { return parse_list(need(i), argv[0]); };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--sched") a.sched = need(i);
    else if (f == "--quantum") a.quantum = num(i);
    else if (f == "--flows") a.flows = count(i);
    else if (f == "--producers") a.producers = count(i);
    else if (f == "--weights") a.weights = list(i);
    else if (f == "--rate") a.rate = num(i);
    else if (f == "--duration") a.duration = num(i);
    else if (f == "--model") a.model = need(i);
    else if (f == "--load") a.load = num(i);
    else if (f == "--packet-bits") a.packet_bits = num(i);
    else if (f == "--buffer") a.buffer = count(i);
    else if (f == "--policy") a.policy = need(i);
    else if (f == "--ring") a.ring = count(i);
    else if (f == "--stall-timeout") a.stall_timeout = num(i);
    else if (f == "--restart-budget")
      a.restart_budget = static_cast<unsigned>(count(i, UINT_MAX));
    else if (f == "--shed") a.shed = true;
    else if (f == "--fault-pause") {
      const std::vector<double> v = list(i);
      if (v.size() != 2) usage(argv[0]);
      a.fault_plan.pauses.push_back({v[0], v[1]});
    } else if (f == "--fault-jump") {
      const std::vector<double> v = list(i);
      if (v.size() != 2) usage(argv[0]);
      a.fault_plan.jumps.push_back({v[0], v[1]});
    } else if (f == "--fault-skew") {
      const std::vector<double> v = list(i);
      if (v.size() != 3) usage(argv[0]);
      a.fault_plan.skews.push_back({v[0], v[1], v[2]});
    } else if (f == "--fault-kill") {
      const std::string v = need(i);
      const std::size_t comma = v.find(',');
      Args::KillFault k;
      k.at = parse_num(v.substr(0, comma).c_str(), argv[0]);
      if (comma != std::string::npos)
        k.shard = parse_count(v.substr(comma + 1).c_str(), argv[0]);
      a.fault_kills.push_back(k);
    } else if (f == "--failover") a.failover = true;
    else if (f == "--stats-interval") a.stats_interval = num(i);
    else if (f == "--stats-port")
      a.stats_port = static_cast<int>(count(i, 65535));
    else if (f == "--shards") a.shards = count(i);
    else if (f == "--unpaced") a.unpaced = true;
    else if (f == "--check") a.check = true;
    else if (f == "--trace") a.trace_path = need(i);
    else if (f == "--metrics") a.metrics_path = need(i);
    else usage(argv[0]);
  }
  if (a.flows == 0 || a.producers == 0 || a.rate <= 0.0 || a.duration <= 0.0 ||
      a.packet_bits <= 0.0 || a.load <= 0.0 || a.shards == 0 ||
      (a.policy != "taildrop" && a.policy != "pushout"))
    usage(argv[0]);
  for (double w : a.weights)
    if (w <= 0.0) usage(argv[0]);
  if (a.shed && a.buffer == 0) {
    std::fprintf(stderr,
                 "--shed needs a finite --buffer (occupancy is measured "
                 "against the backlog cap)\n");
    std::exit(2);
  }
  if (a.failover && a.shards < 2) {
    std::fprintf(stderr,
                 "--failover needs --shards > 1 (rehoming needs a survivor "
                 "shard)\n");
    std::exit(2);
  }
  for (const Args::KillFault& k : a.fault_kills) {
    if (k.shard >= a.shards) {
      std::fprintf(stderr, "--fault-kill shard %zu out of range (%zu shards)\n",
                   k.shard, a.shards);
      std::exit(2);
    }
  }
  if (a.shards > 1 && (a.check || !a.trace_path.empty())) {
    std::fprintf(stderr,
                 "--trace/--check need --shards 1 (the trace stream and "
                 "invariant profile assume one dispatcher)\n");
    std::exit(2);
  }
  if (a.weights.empty()) {
    // Default: the flows share half the link, so load factors > 2 overload.
    a.weights.assign(a.flows, 0.5 * a.rate / static_cast<double>(a.flows));
  }
  while (a.weights.size() < a.flows) a.weights.push_back(a.weights.back());
  a.weights.resize(a.flows);
  return a;
}

sfq::rt::FlowLoad::Model model_of(const std::string& name) {
  if (name == "cbr") return sfq::rt::FlowLoad::Model::kCbr;
  if (name == "poisson") return sfq::rt::FlowLoad::Model::kPoisson;
  if (name == "onoff") return sfq::rt::FlowLoad::Model::kOnOff;
  std::fprintf(stderr, "unknown model: %s\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sfq;
  const Args args = parse(argc, argv);
  // Graceful drain on SIGINT/SIGTERM: the serving loop polls g_stop_signal,
  // stops the producers at a packet boundary, drain-stops the engine and
  // still runs the full summary + conservation gate (exit non-zero on
  // violation).
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);

  std::vector<rt::ShardFlow> flows;
  for (std::size_t f = 0; f < args.flows; ++f)
    flows.push_back(rt::ShardFlow{args.weights[f], args.packet_bits,
                                  "flow" + std::to_string(f)});

  rt::ShardedEngineOptions sopts;
  sopts.shards = args.shards;
  sopts.link_rate = args.rate;
  sopts.engine.producers = args.producers;
  sopts.engine.ring_capacity = args.ring;
  sopts.engine.buffer_limit = args.buffer;
  sopts.engine.overload_policy = args.policy == "pushout"
                                     ? net::OverloadPolicy::kPushout
                                     : net::OverloadPolicy::kTailDrop;
  sopts.engine.stall_timeout = args.stall_timeout;
  sopts.engine.restart_budget = args.restart_budget;
  sopts.engine.admission_control = args.shed;
  sopts.engine.fault_plan = args.fault_plan;
  sopts.stats_interval = args.stats_interval;
  sopts.stats_port = args.stats_port;
  sopts.failover = args.failover;
  for (const Args::KillFault& k : args.fault_kills) {
    rt::RtFaultPlan kp;
    kp.kills.push_back({k.at});
    sopts.shard_faults.push_back({k.shard, std::move(kp)});
  }

  auto factory = [&](std::size_t, double share) {
    SchedulerOptions so;
    so.assumed_capacity = args.rate * share;
    // SFQ-W quantum: explicit, else one max-size packet time on this
    // shard's link share (the factory ignores it for other disciplines).
    so.sfq_wheel_quantum = args.quantum > 0.0
                               ? args.quantum
                               : args.packet_bits / (args.rate * share);
    return make_scheduler(args.sched, so);
  };

  // The telemetry plane is always attached: counters are the engine's
  // ledger either way, and the latency summary below wants the histograms.
  // It and the trace sinks are declared before the engine so they outlive
  // it.
  obs::telemetry::TelemetryOptions topts;
  topts.shards = args.shards;
  obs::telemetry::Telemetry telemetry(topts);
  obs::Tracer tracer;
  std::unique_ptr<obs::JsonlSink> jsonl;
  std::unique_ptr<obs::InvariantChecker> checker;
  std::vector<std::unique_ptr<rt::SyncSink>> sync_sinks;

  std::string err;
  std::unique_ptr<rt::ShardedEngine> engine =
      rt::ShardedEngine::try_create(factory, flows, sopts, &err);
  if (!engine) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  engine->set_telemetry(&telemetry);

  // --trace/--check (one shard only, enforced by parse): the sinks hang off
  // shard 0's engine, each behind the thread-safe rt::SyncSink adapter
  // because events fire on the dispatcher thread.
  const Scheduler& sched0 = engine->scheduler(0);
  auto attach = [&](obs::TraceSink& sink) {
    sync_sinks.push_back(std::make_unique<rt::SyncSink>(sink));
    tracer.add_sink(sync_sinks.back().get());
  };
  if (!args.trace_path.empty()) {
    jsonl = std::make_unique<obs::JsonlSink>(args.trace_path);
    jsonl->meta("scheduler", sched0.name());
    jsonl->meta("mode", "realtime");
    attach(*jsonl);
  }
  if (args.check) {
    obs::InvariantChecker::Options copts =
        obs::InvariantChecker::for_scheduler(args.sched);
    copts.order_slack = sched0.quantization_window();
    checker = std::make_unique<obs::InvariantChecker>(copts);
    attach(*checker);
  }
  if (tracer.sink_count() > 0) engine->engine(0).set_tracer(&tracer);

  // Round-robin flows over producer threads.
  std::vector<std::vector<rt::FlowLoad>> producer_flows(args.producers);
  for (std::size_t f = 0; f < args.flows; ++f) {
    rt::FlowLoad l;
    l.flow = static_cast<FlowId>(f);
    l.model = model_of(args.model);
    l.rate = args.load * args.weights[f];
    l.packet_bits = args.packet_bits;
    l.seed = 1 + f;
    producer_flows[f % args.producers].push_back(l);
  }
  rt::LoadGenOptions lg_opts;
  lg_opts.paced = !args.unpaced;
  lg_opts.block_on_full = args.unpaced;  // blast mode accounts every packet

  std::printf("sfq_serve: %s on %zu shard(s) of a %.3g bit/s link, %zu "
              "flows, %zu producers, %s %s load x%.2f, %.2fs\n",
              sched0.name().c_str(), args.shards, args.rate, args.flows,
              args.producers, args.unpaced ? "unpaced" : "paced",
              args.model.c_str(), args.load, args.duration);

  engine->start();
  if (args.stats_port >= 0)
    std::printf("stats endpoint: http://127.0.0.1:%u/metrics (and "
                "/metrics.json)\n",
                engine->stats_endpoint_port());
  rt::LoadGen load_gen(*engine, std::move(producer_flows), lg_opts);

  // Coarse service snapshots for the wall-clock fairness measurement: only
  // windows with every flow continuously backlogged qualify for Theorem 1,
  // so the verdict keeps the middle half of the run (steady state under
  // load > 1).
  std::vector<std::vector<double>> snapshots;
  std::vector<double> snap_time;        // seconds since wall_start
  std::vector<uint64_t> snap_route_ver; // routing-table version at snapshot
  const Time wall_start = engine->now();
  load_gen.start(args.duration);
  if (!args.unpaced) {
    const Time snap_every = std::max(args.duration / 20.0, 0.05);
    Time next_snap = wall_start + snap_every;
    while (engine->now() - wall_start < args.duration) {
      if (engine->stalled() || g_stop_signal) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (engine->now() >= next_snap) {
        snapshots.push_back(engine->service_snapshot());
        snap_time.push_back(engine->now() - wall_start);
        snap_route_ver.push_back(engine->route_version());
        next_snap += snap_every;
      }
    }
  }
  if (g_stop_signal) {
    std::printf("\nsignal %d: graceful drain — stopping producers, flushing "
                "the backlog, running the conservation self-check\n",
                static_cast<int>(g_stop_signal));
    load_gen.request_stop();
  }
  load_gen.join();
  engine->stop(rt::StopMode::kDrain);
  const Time wall_end = engine->now();
  tracer.finish();

  const rt::EngineStats st = engine->stats();
  const double elapsed = wall_end - wall_start;

  std::printf("\n%-8s %6s %14s %12s %14s %12s\n", "flow", "shard",
              "weight(b/s)", "tx_packets", "tx_bits", "goodput(b/s)");
  for (std::size_t f = 0; f < args.flows; ++f) {
    const double bits = engine->flow_tx_bits(static_cast<FlowId>(f));
    std::printf("%-8s %6zu %14.4g %12.0f %14.0f %12.4g\n",
                flows[f].name.c_str(), engine->shard_of(f), args.weights[f],
                bits / args.packet_bits, bits, bits / elapsed);
  }

  // Per-shard ledgers + occupancy (which shard is hot), then the global sum.
  // `state` is the live per-shard stall verdict (satellite of the failover
  // work: rt.shard_stalled / rt.last_stall_stage carry the same signal on
  // the stats exposition).
  std::printf("\n%-8s %6s %12s %12s %12s %12s %6s %5s %s\n", "shard", "flows",
              "weight(b/s)", "tx_packets", "drops", "backlog", "occ%", "ov",
              "state");
  for (std::size_t k = 0; k < args.shards; ++k) {
    const rt::EngineStats es = engine->shard_stats(k);
    std::size_t nflows = 0;
    for (std::size_t f = 0; f < args.flows; ++f)
      if (engine->shard_of(f) == k) ++nflows;
    const double occ = args.buffer > 0
                           ? 100.0 * static_cast<double>(es.backlog) /
                                 static_cast<double>(args.buffer)
                           : 0.0;
    std::printf("%-8zu %6zu %12.4g %12llu %12llu %12llu %6.0f %5d %s\n", k,
                nflows, engine->shard_weight(k),
                static_cast<unsigned long long>(es.transmitted),
                static_cast<unsigned long long>(es.dropped() +
                                                es.ingress_drops),
                static_cast<unsigned long long>(es.backlog), occ,
                es.overload_state,
                engine->shard_stalled(k)
                    ? (std::string("DEAD@") +
                       rt::to_string(es.last_stall_stage))
                          .c_str()
                    : "ok");
  }

  std::printf("\nproduced %llu  ingress_drops %llu  accepted %llu  "
              "transmitted %llu  backlog %llu  abandoned %llu\n",
              static_cast<unsigned long long>(load_gen.produced_total()),
              static_cast<unsigned long long>(st.ingress_drops),
              static_cast<unsigned long long>(st.accepted),
              static_cast<unsigned long long>(st.transmitted),
              static_cast<unsigned long long>(st.backlog),
              static_cast<unsigned long long>(st.abandoned));
  std::printf("drops by cause:");
  for (std::size_t c = 0; c < obs::kDropCauseCount; ++c)
    if (st.drops[c] != 0)
      std::printf(" %s=%llu", obs::to_string(static_cast<obs::DropCause>(c)),
                  static_cast<unsigned long long>(st.drops[c]));
  if (st.dropped() == 0) std::printf(" none");
  std::printf("\nthroughput %.3g packets/s (%.3g bit/s), wall %.3fs, "
              "max pacing lag %.3g ms, worst overload state %d\n",
              st.transmitted / elapsed, st.tx_bits / elapsed, elapsed,
              1e3 * st.max_service_lag, engine->overload_state());

  // The root thread owns this gauge while running; restate it here so
  // a --metrics dump without --stats-interval still carries the worst-of
  // state.
  telemetry.set_gauge(obs::telemetry::GaugeId::kOverloadWorst,
                      static_cast<double>(engine->overload_state()));
  const obs::telemetry::TelemetrySnapshot tsnap = telemetry.snapshot();
  {
    const obs::telemetry::HistogramSnapshot delay =
        tsnap.hist_total(obs::telemetry::HistId::kQueueDelay);
    const obs::telemetry::HistogramSnapshot dwell =
        tsnap.hist_total(obs::telemetry::HistId::kIngressDwell);
    if (delay.count > 0)
      std::printf("latency    enqueue->tx p50 %.3f ms, p99 %.3f ms, max "
                  "%.3f ms; ingress dwell p99 %.3f ms\n",
                  1e3 * delay.quantile_s(0.50), 1e3 * delay.quantile_s(0.99),
                  1e3 * delay.max_s(), 1e3 * dwell.quantile_s(0.99));
  }

  // Failover epoch log: one verdict line per shard death the supervisor
  // handled (docs/ROBUSTNESS.md "Shard failover").
  std::vector<char> shard_died(args.shards, 0);
  if (engine->failover_enabled()) {
    std::printf("failover  %llu shard failover(s), %llu flow rehoming(s), "
                "migration slack %.4g ms, migrated %llu in / %llu out%s\n",
                static_cast<unsigned long long>(engine->shard_failovers()),
                static_cast<unsigned long long>(engine->flows_rehomed()),
                1e3 * engine->migration_slack(),
                static_cast<unsigned long long>(st.migrated_in),
                static_cast<unsigned long long>(st.migrated_out),
                engine->stalled() ? " — WEDGED (no survivor left)" : "");
    for (const rt::FailoverEvent& ev : engine->supervisor()->events()) {
      shard_died[ev.shard] = 1;
      std::printf("  shard %zu: DIED -> rehomed %zu flow(s) (%llu backlog "
                  "pkt) onto survivors in %.3g ms%s\n",
                  ev.shard, ev.flows_moved,
                  static_cast<unsigned long long>(ev.packets_moved),
                  1e3 * ev.latency,
                  ev.restarted ? ", cold restart OK, flows rehomed back"
                               : ", left on survivors");
    }
  }

  // Conservation: each shard's ledger must satisfy the engine identities
  // exactly, and the global identities must hold for the sums — every
  // offered packet is accounted on exactly one shard.
  bool conserve_ok = true;
  {
    struct Identity {
      const char* name;
      uint64_t lhs, rhs;
    };
    auto check = [&](const std::string& where, const rt::EngineStats& es,
                     uint64_t offers, bool have_offers) {
      const auto d = [&](obs::DropCause c) {
        return es.drops[static_cast<std::size_t>(c)];
      };
      const uint64_t pre = d(obs::DropCause::kUnknownFlow) +
                           d(obs::DropCause::kBufferLimit) +
                           d(obs::DropCause::kShed);
      const uint64_t post =
          d(obs::DropCause::kPushout) + d(obs::DropCause::kFlowRemoved);
      // Migration-extended identities (docs/ROBUSTNESS.md "Shard failover"):
      // adopted backlog enters a shard as migrated_in (alongside its own
      // ingress), harvested backlog leaves as migrated_out. Globally the two
      // cancel once every failover epoch settles.
      std::vector<Identity> ids = {
          {"ingress_pushed + migrated_in == accepted + pre_enqueue_drops + "
           "abandoned",
           es.ingress_pushed + es.migrated_in, es.accepted + pre + es.abandoned},
          {"accepted == transmitted + backlog + post_enqueue_drops + "
           "migrated_out",
           es.accepted, es.transmitted + es.backlog + post + es.migrated_out},
      };
      if (have_offers) {
        ids.insert(ids.begin(),
                   {"offers == ingress_pushed + ingress_drops", offers,
                    es.ingress_pushed + es.ingress_drops});
        ids.push_back({"migrated_in == migrated_out (settled failovers)",
                       es.migrated_in, es.migrated_out});
      }
      for (const Identity& id : ids)
        if (id.lhs != id.rhs) {
          std::printf("conservation VIOLATED (%s): %s (%llu != %llu)\n",
                      where.c_str(), id.name,
                      static_cast<unsigned long long>(id.lhs),
                      static_cast<unsigned long long>(id.rhs));
          conserve_ok = false;
        }
    };
    for (std::size_t k = 0; k < args.shards; ++k)
      check("shard " + std::to_string(k), engine->shard_stats(k), 0, false);
    check("global sum", st, load_gen.produced_total(), true);
    if (conserve_ok)
      std::printf("conservation OK: every offered packet is accounted on "
                  "exactly one shard (sum of %zu shard ledger(s) == offers)\n",
                  args.shards);
  }

  // Hierarchical fairness: worst per-pair normalized gap over middle-of-run
  // windows vs fairness_bound(f, m) — Theorem 1 within a shard (at one
  // shard, the flat server's), + both shards' eq.-65 slack across shards —
  // plus one in-flight quantum per flow for attribution at window edges.
  bool fairness_ok = true;
  if (snapshots.size() >= 4 && args.flows >= 2) {
    const std::size_t lo = snapshots.size() / 4;
    const std::size_t hi = snapshots.size() - snapshots.size() / 4;
    // Across a failover, flows homed on a shard that died spent the
    // migration blackout unserved — their windows void the
    // continuously-backlogged premise, so those pairs are excluded from the
    // gate. Survivor pairs are still gated, but only over windows that do
    // not straddle the migration epoch: the evacuate and rehome-back
    // remaps re-weight every shard's root share, so a window spanning a
    // routing-table version bump (or the pre-fence blackout between the
    // kill and its detection, when the version has not moved yet) measures
    // the reweight transient, not steady-state SFQ. Clean windows are
    // gated against the bound extended by the supervisor's measured
    // migration_slack (residual adopted-backlog drain;
    // docs/ROBUSTNESS.md derivation).
    const double mig_slack =
        engine->shard_failovers() > 0 ? engine->migration_slack() : 0.0;
    auto window_clean = [&](std::size_t i, std::size_t j) {
      if (snap_route_ver[i] != snap_route_ver[j]) return false;
      for (const Args::KillFault& k : args.fault_kills)
        if (snap_time[i] <= k.at && k.at <= snap_time[j]) return false;
      return true;
    };
    std::size_t excluded_pairs = 0;
    double worst_ratio = 0.0;
    double worst_gap = 0.0, worst_bound = 0.0;
    std::size_t worst_f = 0, worst_m = 1;
    bool worst_cross = false;
    for (std::size_t f = 0; f < args.flows; ++f) {
      for (std::size_t m = f + 1; m < args.flows; ++m) {
        if (shard_died[engine->home_shard_of(f)] ||
            shard_died[engine->home_shard_of(m)]) {
          ++excluded_pairs;
          continue;
        }
        const double bound =
            engine->fairness_bound(static_cast<FlowId>(f),
                                   static_cast<FlowId>(m)) +
            stats::sfq_fairness_bound(args.packet_bits, args.weights[f],
                                      args.packet_bits, args.weights[m]) +
            mig_slack;
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = i + 1; j < hi; ++j) {
            if (!window_clean(i, j)) continue;
            const double df = snapshots[j][f] - snapshots[i][f];
            const double dm = snapshots[j][m] - snapshots[i][m];
            const double gap =
                std::fabs(df / args.weights[f] - dm / args.weights[m]);
            if (gap / bound > worst_ratio) {
              worst_ratio = gap / bound;
              worst_gap = gap;
              worst_bound = bound;
              worst_f = f;
              worst_m = m;
              worst_cross = engine->shard_of(f) != engine->shard_of(m);
            }
          }
        }
      }
    }
    // Injected faults legitimately distort snapshot timing (a paused
    // dispatcher or a frozen clock breaks the continuously-backlogged
    // premise), so with a fault plan the verdict is informational only.
    const bool gate = args.fault_plan.empty();
    if (worst_bound > 0.0) {
      std::printf("fairness  worst |dW_%zu/r - dW_%zu/r| = %.4g ms vs "
                  "hierarchical bound %.4g ms%s (%s pair%s): %s%s\n",
                  worst_f, worst_m, 1e3 * worst_gap, 1e3 * worst_bound,
                  mig_slack > 0.0 ? " (incl. migration slack)" : "",
                  worst_cross ? "cross-shard" : "same-shard",
                  excluded_pairs > 0 ? ", failed-shard pairs excluded" : "",
                  worst_ratio <= 1.0 ? "OK" : "VIOLATED",
                  gate ? "" : " (informational: faults injected)");
      fairness_ok = !gate || worst_ratio <= 1.0;
    } else {
      std::printf("fairness  no gateable window (every pair touched the "
                  "failed shard, or every sampled window straddles the "
                  "migration epoch)\n");
    }
  }

  bool ok = fairness_ok && conserve_ok;
  if (engine->stalled()) {
    std::printf("WATCHDOG: PERMANENT STALL — %llu stall(s), %llu recovered; "
                "restart budget %u exhausted wedged at stage %s; engine "
                "stopped cleanly (backlog %llu left visible)\n",
                static_cast<unsigned long long>(st.stalls),
                static_cast<unsigned long long>(st.recoveries),
                args.restart_budget, rt::to_string(st.last_stall_stage),
                static_cast<unsigned long long>(st.backlog));
    ok = false;
  } else if (st.stalls > 0) {
    std::printf("WATCHDOG: recovered — %llu stall(s) detected (last stage "
                "%s), %llu recovery(ies); service resumed and the run "
                "completed\n",
                static_cast<unsigned long long>(st.stalls),
                rt::to_string(st.last_stall_stage),
                static_cast<unsigned long long>(st.recoveries));
  }
  if (checker) {
    std::printf("invariants: %s\n", checker->report().c_str());
    ok = ok && checker->ok();
  }
  if (!args.metrics_path.empty()) {
    std::ofstream out(args.metrics_path);
    out << obs::telemetry::to_json(tsnap) << "\n";
  }
  return ok ? 0 : 1;
}
