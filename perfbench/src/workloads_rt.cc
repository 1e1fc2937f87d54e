// Wall-clock workloads: rt_blast (closed loop, with a ShardedEngine rig in
// its traced run) and rt_paced* (open loop). See perfbench/README.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "alloc_guard.h"
#include "core/scheduler_factory.h"
#include "layers.h"
#include "net/rate_profile.h"
#include "obs/telemetry/telemetry.h"
#include "rt/engine.h"
#include "rt/shard/shard_router.h"
#include "rt/shard/sharded_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace sfq;
namespace tel = sfq::obs::telemetry;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-ups per run; set-up time is their median.
constexpr int kSetups = 6;

// ------------------------------------------------------------ output checks

uint64_t drops_of(const rt::EngineStats& s, obs::DropCause c) {
  return s.drops[static_cast<std::size_t>(c)];
}

// The EngineStats ledger identities, exact once stop() returned.
void check_ledger(Result& r, const rt::EngineStats& s, uint64_t offers,
                  const std::string& what) {
  using obs::DropCause;
  const uint64_t pre = drops_of(s, DropCause::kUnknownFlow) +
                       drops_of(s, DropCause::kBufferLimit) +
                       drops_of(s, DropCause::kShed);
  const uint64_t post = drops_of(s, DropCause::kPushout) +
                        drops_of(s, DropCause::kFlowRemoved);
  r.check(offers == s.ingress_pushed + s.ingress_drops,
          what + ": offers != ingress_pushed + ingress_drops");
  r.check(s.ingress_pushed + s.migrated_in == s.accepted + pre + s.abandoned,
          what + ": pushed != accepted + pre-enqueue drops + abandoned");
  r.check(s.accepted == s.transmitted + s.backlog + post + s.migrated_out,
          what + ": accepted != transmitted + backlog + post-enqueue drops");
  r.check(s.backlog == 0, what + ": backlog left after a draining stop");
}

void check_zero_loss(Result& r, const rt::EngineStats& s, uint64_t offers,
                     const std::string& what) {
  r.check(s.ingress_drops == 0 && s.dropped() == 0 && s.abandoned == 0 &&
              s.transmitted == offers,
          what + ": closed-loop run lost packets");
}

// Engine-side CPU: process CPU minus the benchmark's own threads.
struct CpuSample {
  Clock::time_point t;
  double proc = 0.0;
  double bench = 0.0;
  uint64_t tx = 0;
};

// ------------------------------------------------------- completion sink

// Completion-only sink: the dispatcher calls it per packet; it acts only on
// transmit-complete events, recording each packet's latency from its due
// time and, with `spans`, closing the root span of sampled packets.
class CompletionSink final : public obs::TraceSink {
 public:
  CompletionSink(const double* due, double* latency, std::size_t n,
                 SpanLog* spans)
      : due_(due), lat_(latency), n_(n), spans_(spans) {}
  void set_base(double base) { base_ = base; }

  void on_event(const obs::TraceEvent& e) override {
    if (e.type != obs::TraceEventType::kTxEnd) return;
    const uint64_t i = e.seq - 1;
    if (i < n_) lat_[i] = e.t - (base_ + due_[i]);
    if (spans_ != nullptr && SpanLog::sampled(e.seq))
      spans_->add(e.seq, kPacket, e.t, e.t);
  }

 private:
  const double* due_;
  double* lat_;
  std::size_t n_;
  SpanLog* spans_;
  double base_ = 0.0;
};

std::vector<int> new_tasks(const std::vector<int>& before) {
  std::vector<int> now = task_ids(), out;
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

// Dispatcher-side metrics of a traced rig between two samples: `d0`/`d1`
// the engine threads' /proc counters, `t0`/`t1` telemetry snapshots, `named_ns`
// the time the timed scheduler and rate-profile calls took.
void add_dispatcher_layers(std::vector<Metric>& layers, const TaskStat& d0,
                           const TaskStat& d1, std::size_t dispatchers,
                           double wall_s, double packets, double named_ns,
                           const tel::TelemetrySnapshot& t0,
                           const tel::TelemetrySnapshot& t1) {
  const double n = std::max(1.0, packets);
  const auto samples = static_cast<uint64_t>(packets);
  const double cpu = (d1.run_s - d0.run_s) * 1e9 / n;
  const double self = cpu - named_ns / n;
  const double busy = (d1.run_s - d0.run_s) + (d1.wait_s - d0.wait_s);
  const double capacity = wall_s * static_cast<double>(dispatchers);
  const double switches = static_cast<double>(
      (d1.vol_cs - d0.vol_cs) + (d1.invol_cs - d0.invol_cs));
  auto delta = [&](tel::HistId id) {
    return hist_delta(t0.hist_total(id), t1.hist_total(id));
  };
  const tel::HistogramSnapshot dwell = delta(tel::HistId::kIngressDwell);
  const tel::HistogramSnapshot lag = delta(tel::HistId::kServiceLag);
  const std::vector<Metric> m = {
      {"ingress.dwell_p50_us", dwell.quantile_ns(0.5) * 1e-3, "us",
       dwell.count},
      {"ingress.dwell_p99_us", dwell.quantile_ns(0.99) * 1e-3, "us",
       dwell.count},
      {"dispatcher.cpu_ns_per_pkt", cpu, "ns", samples},
      {"dispatcher.self_ns_per_pkt", self, "ns", samples},
      {"dispatcher.unattributed_share", cpu > 0.0 ? self / cpu : 0.0, "ratio",
       samples},
      {"dispatcher.idle_share",
       capacity > 0.0 ? std::max(0.0, 1.0 - busy / capacity) : 0.0, "ratio",
       samples},
      {"dispatcher.ctx_switches_per_kpkt", switches / n * 1e3, "count",
       samples},
      {"pacing.lag_p99_us", lag.quantile_ns(0.99) * 1e-3, "us", lag.count}};
  layers.insert(layers.end(), m.begin(), m.end());
}

// ================================================================ closed loop

constexpr std::size_t kBlastFlows = 72;
constexpr double kBlastBits = 512.0;  // 64-byte packets
constexpr double kBlastLink = 1e15;   // pacing never binds
constexpr std::size_t kBlastProducers = 2;
constexpr std::size_t kBlastBlock = 1 << 16;  // pre-generated per producer
constexpr uint64_t kBlastWarmupPackets = 1 << 18;
constexpr double kBlastWindow = 0.2;  // s

struct BlastInputs {
  std::vector<double> weights;
  std::vector<std::vector<Packet>> blocks;  // [producer]
};

BlastInputs make_blast_inputs(uint64_t seed) {
  uint64_t s = seed * 0x100000001b3ull + 0xb1a57;
  BlastInputs in;
  for (std::size_t f = 0; f < kBlastFlows; ++f)
    in.weights.push_back(1e9 * static_cast<double>(1u << (mix64(s) % 4)));
  // Producer p offers the flows the 2-shard router homes on shard p, so in
  // the sharded rig each producer feeds one shard and both saturate alike.
  const rt::ShardRouter router(kBlastProducers);
  in.blocks.resize(kBlastProducers);
  for (std::size_t p = 0; p < kBlastProducers; ++p) {
    std::vector<FlowId> own;
    for (std::size_t f = 0; f < kBlastFlows; ++f)
      if (router.shard_of(static_cast<FlowId>(f)) == p)
        own.push_back(static_cast<FlowId>(f));
    in.blocks[p].reserve(kBlastBlock);
    for (std::size_t k = 0; k < kBlastBlock; ++k) {
      Packet pk;
      pk.flow = own[mix64(s) % own.size()];
      pk.length_bits = kBlastBits;
      in.blocks[p].push_back(pk);
    }
  }
  return in;
}

// Written by one producer thread, read by the measuring thread.
struct ProducerCounters {
  Counter offers;
  Counter offer_ns;  // wall time spent in offer batches
  Counter fulls;     // offer attempts that found the ring full
};

// Cycles through the producer's pre-generated block until `stop`. Untraced:
// offer_wait, the program's blocking producer call. Traced: the equivalent
// try_offer/yield loop, so ring-full retries can be counted, with batches of
// 256 offers timed and sampled packets' offer spans recorded.
void blast_producer(unsigned cpu, rt::IngressTarget& eng, std::size_t i,
                    const std::vector<Packet>& block,
                    const std::atomic<bool>& stop, ProducerCounters& c,
                    const SpanClock* clk, SpanLog* spans) {
  pin_to_cpu(0, cpu);
  constexpr uint64_t kBatch = 256;
  uint64_t n = 0, fulls = 0;
  std::size_t k = 0;
  double t_batch = clk != nullptr ? clk->now() : 0.0;
  while (!stop.load(std::memory_order_relaxed)) {
    Packet p = block[k];
    if (++k == block.size()) k = 0;
    p.seq = n * kBlastProducers + i + 1;
    bool open = true;
    if (clk == nullptr) {
      open = eng.offer_wait(i, p);
    } else {
      const double t0 = clk->now();
      for (;;) {
        const rt::OfferStatus st = eng.try_offer(i, p);
        if (st == rt::OfferStatus::kAccepted) break;
        if (st == rt::OfferStatus::kClosed) {
          eng.note_offer_abandoned(i);
          open = false;
          break;
        }
        ++fulls;
        std::this_thread::yield();
      }
      if (spans != nullptr && SpanLog::sampled(p.seq))
        spans->add(p.seq, kOffer, t0, clk->now());
    }
    ++n;
    if (n % kBatch == 0) {
      c.offers.add(static_cast<double>(kBatch));
      if (clk != nullptr) {
        const double t = clk->now();
        c.offer_ns.add((t - t_batch) * 1e9);
        c.fulls.add(static_cast<double>(fulls));
        t_batch = t;
        fulls = 0;
      }
    }
    if (!open) break;
  }
  c.offers.add(static_cast<double>(n % kBatch));
  c.fulls.add(static_cast<double>(fulls));
}

// One constructed engine (single RtEngine or ShardedEngine) with its
// telemetry plane and, when traced, its decorators.
struct BlastRig {
  bool sharded = false;
  std::unique_ptr<tel::Telemetry> tele;
  std::unique_ptr<Scheduler> sched;  // single engine only
  std::vector<TimedScheduler*> timed;  // owned by sched / the sharded engine
  TimedRate* rate = nullptr;           // owned by the engine
  std::unique_ptr<rt::RtEngine> eng;
  std::unique_ptr<rt::ShardedEngine> sh;

  rt::IngressTarget& target() {
    return sharded ? static_cast<rt::IngressTarget&>(*sh) : *eng;
  }
  rt::EngineStats stats() const { return sharded ? sh->stats() : eng->stats(); }
  void start() { sharded ? sh->start() : eng->start(); }
  void stop() {
    sharded ? sh->stop(rt::StopMode::kDrain) : eng->stop(rt::StopMode::kDrain);
  }
};

std::unique_ptr<BlastRig> make_blast_rig(
    bool sharded, const BlastInputs& in, const SpanClock* clk,
    std::vector<std::unique_ptr<SpanLog>>& disp_logs) {
  auto rig = std::make_unique<BlastRig>();
  rig->sharded = sharded;
  const bool traced = clk != nullptr;
  rt::EngineOptions eo;
  eo.producers = kBlastProducers;
  eo.ring_capacity = 1 << 14;
  auto wrap = [&](std::unique_ptr<Scheduler> s) -> std::unique_ptr<Scheduler> {
    if (!traced) return s;
    disp_logs.push_back(std::make_unique<SpanLog>());
    auto t = std::make_unique<TimedScheduler>(std::move(s), *clk,
                                              disp_logs.back().get());
    rig->timed.push_back(t.get());
    return t;
  };
  if (!sharded) {
    rig->sched = wrap(make_scheduler("SFQ"));
    for (std::size_t f = 0; f < kBlastFlows; ++f)
      rig->sched->add_flow(in.weights[f], kBlastBits, {});
    std::unique_ptr<net::RateProfile> profile =
        std::make_unique<net::ConstantRate>(kBlastLink);
    if (traced) {
      auto r = std::make_unique<TimedRate>(std::move(profile), *clk,
                                           rig->timed[0],
                                           disp_logs.back().get());
      rig->rate = r.get();
      profile = std::move(r);
    }
    rig->eng = std::make_unique<rt::RtEngine>(*rig->sched, std::move(profile),
                                              eo);
    rig->tele = std::make_unique<tel::Telemetry>();
    rig->eng->set_telemetry(rig->tele.get());
  } else {
    rt::ShardedEngineOptions so;
    so.shards = 2;
    so.link_rate = kBlastLink;
    so.engine = eo;
    std::vector<rt::ShardFlow> flows;
    for (std::size_t f = 0; f < kBlastFlows; ++f)
      flows.push_back({in.weights[f], kBlastBits, {}});
    rig->sh = std::make_unique<rt::ShardedEngine>(
        [&](std::size_t, double) { return wrap(make_scheduler("SFQ")); },
        std::move(flows), so);
    tel::TelemetryOptions to;
    to.shards = so.shards;
    rig->tele = std::make_unique<tel::Telemetry>(to);
    rig->sh->set_telemetry(rig->tele.get());
  }
  return rig;
}

struct BlastPhase {
  std::vector<double> tput, cpu, calib, setups;
  uint64_t offers = 0, transmitted = 0;
  double engine_cpu_s = 0.0, measured_tx = 0.0;
  double steal = 0.0;
  std::vector<double> rss;  // resident set at the end of each rig, MB
  uint64_t invol = 0;
  std::vector<Metric> layers;
  double cpu_ns_per_pkt() const {
    return measured_tx > 0.0 ? engine_cpu_s / measured_tx * 1e9 : 0.0;
  }
};

// Sets up one rig (construction, flow registration, start, warm-up), runs
// its share of the measured windows, then stops it and checks its ledger.
// With `layers` the rig is traced and the per-layer metrics come from it.
void run_blast_rig(bool sharded, const BlastInputs& in, int windows,
                   bool layers, const std::string& what,
                   const std::string& spans_path, Result& r, BlastPhase& out) {
  const bool traced = layers;
  SpanClock clk;
  std::vector<std::unique_ptr<SpanLog>> disp_logs, prod_logs;
  std::vector<ProducerCounters> counters(kBlastProducers);
  std::vector<std::thread> producers;
  std::atomic<bool> stop{false};

  const auto t_setup = Clock::now();
  std::unique_ptr<BlastRig> rig =
      make_blast_rig(sharded, in, traced ? &clk : nullptr, disp_logs);
  if (!sharded) clk.align(rig->eng->now());
  const std::vector<int> before = task_ids();
  rig->start();
  const JoinAll join_producers(producers, &stop);  // before rig is destroyed
  const std::vector<int> engine_tids = new_tasks(before);
  // CPU plan: dispatcher(s) first, then producers; the sharded engine's
  // rebalance thread (created last, mostly asleep) floats.
  const std::size_t dispatchers = sharded ? rig->sh->shards() : 1;
  for (std::size_t k = 0; k < dispatchers && k < engine_tids.size(); ++k)
    pin_to_cpu(engine_tids[k], busy_cpu(static_cast<unsigned>(k)));
  for (std::size_t i = 0; i < kBlastProducers; ++i) {
    if (traced) prod_logs.push_back(std::make_unique<SpanLog>());
    producers.emplace_back(
        blast_producer, busy_cpu(static_cast<unsigned>(dispatchers + i)),
        std::ref(rig->target()), i, std::cref(in.blocks[i]), std::cref(stop),
        std::ref(counters[i]), traced ? &clk : nullptr,
        traced ? prod_logs.back().get() : nullptr);
  }
  while (rig->stats().transmitted < kBlastWarmupPackets)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  out.setups.push_back(since(t_setup));

  std::vector<clockid_t> prod_clocks;
  for (std::thread& t : producers)
    prod_clocks.push_back(cpu_clock_of(t.native_handle()));
  auto sample = [&] {
    CpuSample c;
    c.t = Clock::now();
    c.tx = rig->stats().transmitted;
    c.proc = process_cpu_s();
    c.bench = thread_cpu_s();
    for (clockid_t pc : prod_clocks) c.bench += thread_cpu_s(pc);
    return c;
  };
  auto offers_now = [&] {
    double n = 0.0;
    for (ProducerCounters& c : counters) n += c.offers.get();
    return n;
  };

  // Traced: everything that allocates is read outside the guarded interval.
  const tel::TelemetrySnapshot tele0 = rig->tele->snapshot();
  const TaskStat disp0 = task_stat(engine_tids);
  std::vector<TimedScheduler::Snap> sched0;
  for (TimedScheduler* t : rig->timed) sched0.push_back(t->snap());
  const CallStat::Snap rate0 = rig->rate ? rig->rate->snap() : CallStat::Snap{};
  double offer_ns0 = 0.0, fulls0 = 0.0;
  for (ProducerCounters& c : counters) {
    offer_ns0 += c.offer_ns.get();
    fulls0 += c.fulls.get();
  }
  std::vector<uint64_t> shard_tx0;
  if (sharded)
    for (std::size_t k = 0; k < rig->sh->shards(); ++k)
      shard_tx0.push_back(rig->sh->shard_stats(k).transmitted);
  const double offers0 = offers_now();
  const double steal0 = steal_ms();
  const uint64_t invol0 = invol_ctx_switches();
  const std::size_t calib0 = out.calib.size();
  out.calib.reserve(calib0 + static_cast<std::size_t>(windows));
  if (traced) bench::alloc_guard_arm();
  const CpuSample first = sample();
  CpuSample prev = first;
  for (int w = 0; w < windows; ++w) {
    std::this_thread::sleep_until(
        first.t + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>((w + 1) * kBlastWindow)));
    const CpuSample cur = sample();
    const double dt = std::chrono::duration<double>(cur.t - prev.t).count();
    const double dtx = static_cast<double>(cur.tx - prev.tx);
    if (!traced && dtx > 0.0 && dt > 0.0) {
      out.tput.push_back(dtx / dt);
      out.cpu.push_back(((cur.proc - prev.proc) - (cur.bench - prev.bench)) /
                        dtx * 1e9);
    }
    prev = cur;
    out.calib.push_back(calib_ns());
  }
  const uint64_t allocs = traced ? bench::alloc_guard_disarm() : 0;
  const CpuSample last = prev;
  out.steal += steal_ms() - steal0;
  out.invol += invol_ctx_switches() - invol0;
  out.rss.push_back(rss_mb());
  const double meas_tx = static_cast<double>(last.tx - first.tx);
  const double meas_wall =
      std::chrono::duration<double>(last.t - first.t).count();
  out.measured_tx += meas_tx;
  out.engine_cpu_s += (last.proc - first.proc) - (last.bench - first.bench);

  if (traced) {
    const tel::TelemetrySnapshot tele1 = rig->tele->snapshot();
    const TaskStat disp1 = task_stat(engine_tids);
    TimedScheduler::Snap sd{};
    for (std::size_t k = 0; k < rig->timed.size(); ++k)
      sd = sd + (rig->timed[k]->snap() - sched0[k]);
    const CallStat::Snap rd =
        rig->rate ? rig->rate->snap() - rate0 : CallStat::Snap{};
    double offer_ns = -offer_ns0, fulls = -fulls0;
    for (ProducerCounters& c : counters) {
      offer_ns += c.offer_ns.get();
      fulls += c.fulls.get();
    }
    const double offers = offers_now() - offers0;
    const double n = std::max(1.0, meas_tx);
    const double named = sd.total_ns() + rd.ns;
    const auto offered = static_cast<uint64_t>(offers);
    auto& L = out.layers;
    L.push_back({"ingress.offer_ns", offers > 0.0 ? offer_ns / offers : 0.0,
                 "ns", offered});
    L.push_back({"ingress.full_per_pkt", offers > 0.0 ? fulls / offers : 0.0,
                 "count", offered});
    add_dispatcher_layers(L, disp0, disp1, dispatchers, meas_wall, meas_tx,
                          named, tele0, tele1);
    add_sched_layers(L, sd, rd, meas_tx,
                     (disp1.run_s - disp0.run_s) * 1e9);
    L.push_back({"alloc.per_pkt", static_cast<double>(allocs) / n, "count",
                 static_cast<uint64_t>(meas_tx)});
    if (sharded) {
      std::vector<double> per;
      for (std::size_t k = 0; k < rig->sh->shards(); ++k)
        per.push_back(static_cast<double>(rig->sh->shard_stats(k).transmitted -
                                          shard_tx0[k]));
      double mean = 0.0;
      for (double x : per) mean += x;
      mean /= static_cast<double>(per.size());
      const double mx = *std::max_element(per.begin(), per.end());
      L.push_back({"shard.imbalance", mean > 0.0 ? mx / mean - 1.0 : 0.0,
                   "ratio", per.size()});
      // The sharded engine's ingress and dispatchers are the shard layer's.
      L.push_back({"shard.offer_ns", offers > 0.0 ? offer_ns / offers : 0.0,
                   "ns", offered});
      L.push_back({"shard.dispatcher_cpu_ns_per_pkt",
                   (disp1.run_s - disp0.run_s) * 1e9 / n, "ns",
                   static_cast<uint64_t>(meas_tx)});
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : producers) t.join();
  rig->stop();
  uint64_t offers = 0;
  for (ProducerCounters& c : counters)
    offers += static_cast<uint64_t>(c.offers.get());
  const rt::EngineStats st = rig->stats();
  check_ledger(r, st, offers, what);
  check_zero_loss(r, st, offers, what);
  out.offers += offers;
  out.transmitted += st.transmitted;

  if (traced) {
    std::vector<const SpanLog*> logs;
    for (auto& l : disp_logs) logs.push_back(l.get());
    for (auto& l : prod_logs) logs.push_back(l.get());
    if (!spans_path.empty() && !write_spans(spans_path, logs))
      r.notes.push_back("could not write spans to " + spans_path);
  }
}

// Untraced: kSetups rigs share the measured windows, so one run samples
// several engine instances. Traced: one rig, measured once.
BlastPhase run_blast_phase(bool sharded, const BlastInputs& in,
                           double seconds, bool traced, Result& r,
                           const std::string& spans_path) {
  const std::string name = sharded ? "rt_blast sharded" : "rt_blast";
  const int rigs = traced ? 1 : kSetups;
  const int windows = std::max(
      1, static_cast<int>(seconds / kBlastWindow / static_cast<double>(rigs)));
  BlastPhase out;
  for (int s = 0; s < rigs; ++s)
    run_blast_rig(sharded, in, windows, traced,
                  name + (traced ? " traced rig" : " rig ") +
                      (traced ? "" : std::to_string(s)),
                  spans_path, r, out);
  return out;
}

// rt_blast. Its traced run also measures one ShardedEngine rig (2 shards,
// 4 busy threads) on the same packets for the shard layer: gated throughput
// on four busy vCPUs followed host steal too closely to hold a bound (README).
Result run_closed_loop(const Args& args) {
  Result r;
  constexpr std::size_t kBusy = kBlastProducers + 1;
  constexpr std::size_t kShardedBusy = kBlastProducers + 2;
  const std::size_t most = args.trace ? kShardedBusy : kBusy;
  r.check(most <= nproc(), "busy threads (" + std::to_string(most) +
                               ") exceed nproc (" + std::to_string(nproc()) +
                               ")");
  if (!r.correct) return r;
  const BlastInputs in = make_blast_inputs(args.seed);
  keep_off_busy_cpus(kBusy);
  const double rss0 = rss_mb();
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const BlastPhase a =
      run_blast_phase(false, in, untraced_s, /*traced=*/false, r, {});
  r.attempted = a.offers;
  r.failed = a.offers - std::min(a.offers, a.transmitted);
  if (!args.trace) {
    r.add("throughput_pps", median(a.tput), "1/s", a.tput.size());
    r.add("cpu_ns_per_pkt", median(a.cpu), "ns", a.cpu.size());
    r.add("delivered_ratio",
          a.offers ? static_cast<double>(a.transmitted) /
                         static_cast<double>(a.offers)
                   : 0.0,
          "ratio", a.offers);
    r.add("setup_s", median(a.setups), "s", a.setups.size());
    r.add("rss_mb", min_of(a.rss) - rss0, "MB", a.rss.size());
    std::vector<Metric> unused;
    add_host_diagnostics(r, unused, a.steal, a.invol, a.calib);
    return r;
  }
  BlastPhase b = run_blast_phase(false, in, args.seconds / 4,
                                 /*traced=*/true, r, args.spans_path);
  keep_off_busy_cpus(kShardedBusy);
  const BlastPhase c = run_blast_phase(true, in, args.seconds / 4,
                                       /*traced=*/true, r, {});
  for (const Metric& m : c.layers)
    if (m.name.rfind("shard.", 0) == 0) b.layers.push_back(m);
  r.diag("timer.read_ns", timer_overhead_ns(), "ns");
  b.layers.push_back({"trace.overhead",
                      a.cpu_ns_per_pkt() > 0.0
                          ? b.cpu_ns_per_pkt() / a.cpu_ns_per_pkt()
                          : 0.0,
                      "ratio", 2});
  add_host_diagnostics(r, b.layers, a.steal + b.steal + c.steal,
                       a.invol + b.invol + c.invol, b.calib);
  finish_layer_metrics(r, b.layers);
  return r;
}

// ================================================================= open loop

constexpr std::size_t kPacedFlows = 64;
constexpr double kPacedBits = 12000.0;  // 1500-byte packets
constexpr double kPacedRate = 100e3;    // offered packets/s
constexpr std::size_t kPacedWindow = 25'000;  // packets (0.25 s)
constexpr std::size_t kPacedBuffer = 256;     // load > 1 only

struct PacedInputs {
  std::vector<double> weights;
  std::vector<double> due;     // offset from the schedule start, s
  std::vector<FlowId> flow;
};

PacedInputs make_paced_inputs(uint64_t seed, std::size_t n) {
  uint64_t s = seed * 0x100000001b3ull + 0x9ace;
  PacedInputs in;
  double total = 0.0;
  for (std::size_t f = 0; f < kPacedFlows; ++f) {
    in.weights.push_back(static_cast<double>(1u << (mix64(s) % 4)));
    total += in.weights.back();
  }
  std::vector<double> cdf;
  double acc = 0.0;
  for (double w : in.weights) cdf.push_back(acc += w / total);
  in.due.reserve(n);
  in.flow.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-unit_draw(s)) / kPacedRate;  // Poisson arrivals
    in.due.push_back(t);
    const double u = unit_draw(s);
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    in.flow.push_back(static_cast<FlowId>(
        std::min<std::ptrdiff_t>(it - cdf.begin(), kPacedFlows - 1)));
  }
  return in;
}

struct GenCounters {
  std::atomic<std::size_t> progress{0};  // packets offered so far
  Counter offer_ns;                      // traced: time inside offer()
  double late_p99_s = 0.0;               // read after join
};

// Open-loop generator: offers packet i at base + due[i] whatever the engine
// does; a late generator offers at once, and the lateness counts in latency.
void paced_generator(rt::RtEngine& eng, const PacedInputs& in, std::size_t end,
                     double base, GenCounters& c, bool traced,
                     const SpanClock& clk, SpanLog* spans) {
  pin_to_cpu(0, busy_cpu(1));
  std::vector<double> late;
  late.reserve(end);
  for (std::size_t i = 0; i < end; ++i) {
    const double due = base + in.due[i];
    double now = eng.now();
    while (now < due) now = eng.now();
    late.push_back(now - due);
    Packet p;
    p.flow = in.flow[i];
    p.seq = i + 1;
    p.length_bits = kPacedBits;
    if (traced) {
      const double t0 = clk.now();
      eng.offer(0, p);
      const double t1 = clk.now();
      c.offer_ns.add((t1 - t0) * 1e9);
      if (spans != nullptr && SpanLog::sampled(p.seq))
        spans->add(p.seq, kOffer, t0, t1);
    } else {
      eng.offer(0, p);
    }
    c.progress.store(i + 1, std::memory_order_release);
  }
  c.late_p99_s = quantile(late, 0.99);
}

struct PacedPhase {
  std::vector<double> tput, cpu, p50, p99, calib, setups;
  uint64_t offers = 0, delivered = 0;
  double engine_cpu_s = 0.0, measured_tx = 0.0;
  double steal = 0.0;
  std::vector<double> rss;  // resident set at the end of each rig, MB
  uint64_t invol = 0;
  double cpu_ns_per_pkt() const {
    return measured_tx > 0.0 ? engine_cpu_s / measured_tx * 1e9 : 0.0;
  }
  double gen_late_p99_us = 0.0;
  std::vector<Metric> layers;
};

// Untraced: kSetups rigs each replay the schedule (warm-up window, then
// `windows` measured windows). Traced: one rig.
PacedPhase run_paced_phase(double load, const PacedInputs& in,
                           std::size_t windows, bool traced, Result& r,
                           const std::string& spans_path) {
  const std::string name =
      "rt_paced" + std::to_string(static_cast<int>(std::lround(load * 100)));
  const std::size_t n = (windows + 1) * kPacedWindow;
  const double link = kPacedRate * kPacedBits / load;
  PacedPhase out;
  SpanClock clk;
  std::vector<double> lat(n);
  const int rigs = traced ? 1 : kSetups;
  for (int s = 0; s < rigs; ++s) {
    std::fill(lat.begin(), lat.end(), std::numeric_limits<double>::quiet_NaN());
    const auto t0 = Clock::now();
    const std::size_t span_room = traced ? 1 << 16 : 0;
    SpanLog disp_log(span_room), gen_log(span_room);
    std::unique_ptr<Scheduler> sched = make_scheduler("SFQ");
    TimedScheduler* timed = nullptr;
    if (traced) {
      auto t = std::make_unique<TimedScheduler>(std::move(sched), clk,
                                                &disp_log);
      timed = t.get();
      sched = std::move(t);
    }
    for (std::size_t f = 0; f < kPacedFlows; ++f)
      sched->add_flow(in.weights[f], kPacedBits, {});
    std::unique_ptr<net::RateProfile> profile =
        std::make_unique<net::ConstantRate>(link);
    TimedRate* rate = nullptr;
    if (traced) {
      auto tr = std::make_unique<TimedRate>(std::move(profile), clk, timed,
                                            &disp_log);
      rate = tr.get();
      profile = std::move(tr);
    }
    rt::EngineOptions eo;
    eo.producers = 1;
    eo.ring_capacity = 1 << 14;
    if (load > 1.0) {
      eo.buffer_limit = kPacedBuffer;
      eo.admission_control = true;
    }
    // The telemetry plane and the tracer outlive the engine.
    tel::Telemetry tele;
    CompletionSink sink(in.due.data(), lat.data(), n,
                        traced ? &disp_log : nullptr);
    obs::Tracer tracer;
    tracer.add_sink(&sink);
    rt::RtEngine eng(*sched, std::move(profile), eo);
    clk.align(eng.now());
    eng.set_telemetry(&tele);
    eng.set_tracer(&tracer);
    if (timed != nullptr) timed->inner().set_tracer(&tracer);
    const std::vector<int> before = task_ids();
    eng.start();
    const std::vector<int> engine_tids = new_tasks(before);
    if (!engine_tids.empty()) pin_to_cpu(engine_tids[0], busy_cpu(0));
    const double base = eng.now() + 2e-3;
    sink.set_base(base);
    GenCounters gc;
    std::vector<std::thread> threads;
    const JoinAll join_generator(threads, nullptr);  // before eng is destroyed
    threads.emplace_back(paced_generator, std::ref(eng), std::cref(in), n,
                         base, std::ref(gc), traced, std::cref(clk),
                         traced ? &gen_log : nullptr);
    std::thread& gen = threads.back();
    while (gc.progress.load(std::memory_order_acquire) < kPacedWindow)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    out.setups.push_back(since(t0));
    // Measured windows: packets [W + k*P, W + (k+1)*P), sampled when the
    // schedule reaches each window's end.
    const clockid_t gen_clock = cpu_clock_of(gen.native_handle());
    auto sample = [&] {
      CpuSample c;
      c.t = Clock::now();
      c.tx = eng.stats().transmitted;
      c.proc = process_cpu_s();
      c.bench = thread_cpu_s() + thread_cpu_s(gen_clock);
      return c;
    };
    const tel::TelemetrySnapshot tele0 = tele.snapshot();
    const TaskStat disp0 = task_stat(engine_tids);
    const TimedScheduler::Snap sched0 = timed ? timed->snap()
                                              : TimedScheduler::Snap{};
    const CallStat::Snap rate0 = rate ? rate->snap() : CallStat::Snap{};
    const rt::EngineStats st0 = eng.stats();
    const double offer_ns0 = gc.offer_ns.get();
    const double steal0 = steal_ms();
    const uint64_t invol0 = invol_ctx_switches();
    out.calib.reserve(out.calib.size() + windows);
    if (traced) bench::alloc_guard_arm();
    const CpuSample first = sample();
    CpuSample prev = first;
    for (std::size_t k = 0; k < windows; ++k) {
      const double until = base + in.due[kPacedWindow * (k + 2) - 1];
      while (eng.now() < until)
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::clamp<long>(std::lround((until - eng.now()) * 1e6), 1, 5000)));
      const CpuSample cur = sample();
      const double dtx = static_cast<double>(cur.tx - prev.tx);
      const double dt = std::chrono::duration<double>(cur.t - prev.t).count();
      if (dtx > 0.0 && dt > 0.0) {
        out.tput.push_back(dtx / dt);
        out.cpu.push_back(((cur.proc - prev.proc) - (cur.bench - prev.bench)) /
                          dtx * 1e9);
      }
      prev = cur;
      out.calib.push_back(calib_ns());
    }
    const uint64_t allocs = traced ? bench::alloc_guard_disarm() : 0;
    const CpuSample last_s = prev;
    gen.join();
    out.gen_late_p99_us = std::max(out.gen_late_p99_us, gc.late_p99_s * 1e6);
    const rt::EngineStats st1 = eng.stats();
    const TaskStat disp1 = task_stat(engine_tids);
    const tel::TelemetrySnapshot tele1 = tele.snapshot();
    const double meas_wall =
        std::chrono::duration<double>(last_s.t - first.t).count();
    const double meas_tx = static_cast<double>(last_s.tx - first.tx);
    out.steal += steal_ms() - steal0;
    out.invol += invol_ctx_switches() - invol0;
    out.rss.push_back(rss_mb());
    out.engine_cpu_s += (last_s.proc - first.proc) - (last_s.bench - first.bench);
    out.measured_tx += meas_tx;
    eng.stop(rt::StopMode::kDrain);
    check_ledger(r, eng.stats(), n, name + " rig " + std::to_string(s));

    // Latency: due time -> transmit complete, delivered packets only.
    std::vector<double> w;
    w.reserve(kPacedWindow);
    for (std::size_t k = 0; k < windows; ++k) {
      const std::size_t b = kPacedWindow * (k + 1), e = b + kPacedWindow;
      w.clear();
      for (std::size_t i = b; i < e; ++i)
        if (!std::isnan(lat[i])) w.push_back(lat[i] * 1e6);
      out.offers += kPacedWindow;
      out.delivered += w.size();
      if (!w.empty()) {
        out.p50.push_back(quantile(w, 0.50));
        out.p99.push_back(quantile(w, 0.99));
      }
    }

    if (traced) {
      r.diag("timer.read_ns", timer_overhead_ns(), "ns");
      const TimedScheduler::Snap sd = timed->snap() - sched0;
      const CallStat::Snap rd = rate->snap() - rate0;
      const double np = std::max(1.0, meas_tx);
      const double offers =
          static_cast<double>(st1.ingress_pushed + st1.ingress_drops -
                              st0.ingress_pushed - st0.ingress_drops);
      const auto offered = static_cast<uint64_t>(offers);
      const double shed = static_cast<double>(
          drops_of(st1, obs::DropCause::kShed) -
          drops_of(st0, obs::DropCause::kShed));
      const double full = static_cast<double>(st1.ingress_drops -
                                              st0.ingress_drops);
      auto& L = out.layers;
      L.push_back({"ingress.offer_ns",
                   offers > 0 ? (gc.offer_ns.get() - offer_ns0) / offers : 0.0,
                   "ns", offered});
      L.push_back({"ingress.full_per_pkt", offers > 0 ? full / offers : 0.0,
                   "count", offered});
      L.push_back({"overload.shed_per_pkt", offers > 0 ? shed / offers : 0.0,
                   "ratio", offered});
      add_dispatcher_layers(L, disp0, disp1, 1, meas_wall, meas_tx,
                            sd.total_ns() + rd.ns,
                            tele0, tele1);
      add_sched_layers(L, sd, rd, meas_tx,
                       (disp1.run_s - disp0.run_s) * 1e9);
      L.push_back({"alloc.per_pkt", static_cast<double>(allocs) / np, "count",
                   static_cast<uint64_t>(meas_tx)});
      if (!spans_path.empty() &&
          !write_spans(spans_path, {&disp_log, &gen_log}))
        r.notes.push_back("could not write spans to " + spans_path);
      std::vector<double> selfs = packet_self_times({&disp_log, &gen_log});
      if (!selfs.empty())
        r.diag("packet.self_p50_us", quantile(selfs, 0.5) * 1e6, "us",
               selfs.size());
    }
  }
  return out;
}

}  // namespace

Result run_rt_blast(const Args& args) { return run_closed_loop(args); }

Result run_rt_paced(const Args& args, double load) {
  Result r;
  constexpr std::size_t kBusy = 2;  // generator + dispatcher
  r.check(kBusy <= nproc(), "busy threads exceed nproc");
  if (!r.correct) return r;
  const double window_s = static_cast<double>(kPacedWindow) / kPacedRate;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const auto windows_for = [&](double s) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(s / window_s));
  };
  const std::size_t wa =
      std::max<std::size_t>(1, windows_for(untraced_s) / kSetups);
  const std::size_t wb = args.trace ? windows_for(args.seconds / 2) : 0;
  const PacedInputs in =
      make_paced_inputs(args.seed, (std::max(wa, wb) + 1) * kPacedWindow);
  keep_off_busy_cpus(kBusy);
  const double rss0 = rss_mb();
  const PacedPhase a = run_paced_phase(load, in, wa, false, r, {});
  r.attempted = a.offers;
  r.failed = 0;  // refusals under overload are the policy's output (see README)
  r.diag("generator.late_p99_us", a.gen_late_p99_us, "us");
  if (!args.trace) {
    r.add("throughput_pps", median(a.tput), "1/s", a.tput.size());
    r.add("cpu_ns_per_pkt", median(a.cpu), "ns", a.cpu.size());
    r.add("delivered_ratio",
          a.offers ? static_cast<double>(a.delivered) /
                         static_cast<double>(a.offers)
                   : 0.0,
          "ratio", a.offers);
    // Open-loop latency: printed with its sample count but not gated, as
    // host preemption decides its tails here (README, "Bounds").
    const std::string tag =
        ".load" + std::to_string(static_cast<int>(std::lround(load * 100)));
    r.ungated("latency_p50_us" + tag, median(a.p50), "us", a.p50.size());
    r.ungated("latency_p99_us" + tag, median(a.p99), "us", a.p99.size());
    r.add("setup_s", median(a.setups), "s", a.setups.size());
    r.add("rss_mb", min_of(a.rss) - rss0, "MB", a.rss.size());
    std::vector<Metric> unused;
    add_host_diagnostics(r, unused, a.steal, a.invol, a.calib);
    if (load <= 1.0)
      r.check(a.delivered == a.offers, "paced run below capacity lost packets");
    return r;
  }
  PacedPhase b = run_paced_phase(load, in, wb, true, r, args.spans_path);
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
