#include "rt/shard/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "net/rate_profile.h"
#include "obs/telemetry/exposition.h"
#include "stats/fairness.h"

namespace sfq::rt {

namespace tel = obs::telemetry;

namespace {

// Per-shard service rate with a rebalance-writable cell: the root thread
// redistributes the link over busy shards by storing into the atomic while
// the shard dispatcher reads it per transmission. Relaxed is enough — a
// rate observed one transmission late only shifts that packet's pacing
// deadline, never the ledger.
class AtomicRate final : public net::RateProfile {
 public:
  explicit AtomicRate(double rate) : rate_(rate) {}

  Time finish_time(Time start, double bits) override {
    return start + bits / rate_.load(std::memory_order_relaxed);
  }
  double work(Time t1, Time t2) override {
    return (t2 - t1) * rate_.load(std::memory_order_relaxed);
  }
  double average_rate() const override {
    return rate_.load(std::memory_order_relaxed);
  }

  std::atomic<double>& cell() { return rate_; }

 private:
  std::atomic<double> rate_;
};

bool bad(double v) { return !std::isfinite(v); }

// Root tick (seconds) whenever the root supervises or rebalances: how often
// a dead shard is noticed and the link redistributed over busy shards.
constexpr double kRebalanceInterval = 0.002;

}  // namespace

ShardedEngine::ShardedEngine(const SchedulerFactory& factory,
                             std::vector<ShardFlow> flows,
                             ShardedEngineOptions opts)
    : opts_(opts), router_(opts.shards) {
  if (opts_.shards == 0)
    throw std::invalid_argument("ShardedEngine: shards must be >= 1");
  if (!(opts_.link_rate > 0.0))
    throw std::invalid_argument("ShardedEngine: link_rate must be > 0");
  if (!factory)
    throw std::invalid_argument("ShardedEngine: null scheduler factory");
  if (flows.empty())
    throw std::invalid_argument("ShardedEngine: at least one flow required");
  for (const auto& sf : opts_.shard_faults)
    if (sf.shard >= opts_.shards)
      throw std::invalid_argument(
          "ShardedEngine: shard fault targets a shard index out of range");
  if (bad(opts_.stats_interval) || opts_.stats_interval < 0.0)
    throw std::invalid_argument(
        "ShardedEngine: stats_interval must be finite and >= 0");
  if (opts_.stats_port < -1 || opts_.stats_port > 65535)
    throw std::invalid_argument(
        "ShardedEngine: stats_port must be in [-1, 65535]");

  // Pass 1: route every global flow and accumulate per-shard weight sums —
  // the H-SFQ root weights W_k that fix each shard's rate share.
  const std::size_t n = flows.size();
  shard_of_ = std::make_unique<std::atomic<uint32_t>[]>(n);
  home_of_.resize(n);
  flow_weight_.resize(n);
  flow_max_bits_.resize(n);
  shards_.reserve(opts_.shards);
  for (std::size_t k = 0; k < opts_.shards; ++k)
    shards_.push_back(std::make_unique<Shard>());
  std::vector<double> wsum(opts_.shards, 0.0);
  for (FlowId f = 0; f < n; ++f) {
    const std::size_t k = router_.shard_of(f);
    home_of_[f] = k;
    shard_of_[f].store(static_cast<uint32_t>(k), std::memory_order_relaxed);
    flow_weight_[f] = flows[f].weight;
    flow_max_bits_[f] = flows[f].max_packet_bits;
    wsum[k] += flows[f].weight;
    total_weight_ += flows[f].weight;
  }
  if (!(total_weight_ > 0.0))
    throw std::invalid_argument("ShardedEngine: total weight must be > 0");

  // Pass 2: one scheduler per shard at its weight-share rate. A shard that
  // drew no flows keeps a 1/N fallback share so hash-unmapped (unknown-flow)
  // traffic routed there still drains into the drop ledger instead of
  // wedging a zero-rate link.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& s = *shards_[k];
    const double share = wsum[k] > 0.0
                             ? wsum[k] / total_weight_
                             : 1.0 / static_cast<double>(shards_.size());
    s.weight_sum.store(wsum[k], std::memory_order_relaxed);
    s.rate.store(opts_.link_rate * share, std::memory_order_relaxed);
    s.sched = factory(k, share);
    if (!s.sched)
      throw std::invalid_argument("ShardedEngine: factory returned null");
  }

  // Pass 3: unified registration — EVERY flow on EVERY shard, ascending
  // global id (so local id == global id everywhere), then deactivate the
  // non-resident ones. Replay tooling rebuilds a shard's scheduler by
  // repeating exactly this walk. Deactivated flows keep a FlowState slot,
  // so a later migration re-activates them with the rejoin rule instead of
  // needing a new registration.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& s = *shards_[k];
    for (FlowId f = 0; f < n; ++f) {
      const FlowId local = s.sched->add_flow(
          flows[f].weight, flows[f].max_packet_bits, flows[f].name);
      if (local != f)
        throw std::logic_error(
            "ShardedEngine: discipline does not allocate sequential flow ids");
      if (home_of_[f] == k)
        s.global_ids.push_back(f);
      else
        s.sched->remove_flow(f, 0.0);
    }
  }

  // eq.-65 slack per shard: treating shard k as a virtual server of rate
  // R*W_k/W, its service fluctuation adds (l_k^max + sum_{g in k} l_g^max)
  // worth of bits at weight W_k to any cross-shard Theorem-1 comparison.
  for (auto& sp : shards_) {
    Shard& s = *sp;
    const double w = s.weight_sum.load(std::memory_order_relaxed);
    if (!(w > 0.0)) continue;
    double lmax = 0.0;
    double lsum = 0.0;
    for (FlowId g : s.global_ids) {
      lmax = std::max(lmax, flow_max_bits_[g]);
      lsum += flow_max_bits_[g];
    }
    s.slack.store((lmax + lsum) / w, std::memory_order_relaxed);
  }

  // Pass 4: engine epoch 0 per shard. The epochs vector is reserved for the
  // whole run (one slot per allowed cold restart) so a supervisor push_back
  // never reallocates under a concurrent stats()/flow_tx_bits() reader.
  const std::size_t max_epochs =
      opts_.failover ? ShardSupervisor::max_epochs() : 1;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& s = *shards_[k];
    s.epochs.reserve(max_epochs);
    auto eng = make_engine_epoch(k, s.rate.load(std::memory_order_relaxed),
                                 /*initial=*/true);
    s.live.store(eng.get(), std::memory_order_release);
    s.epochs.push_back(std::move(eng));
    s.epoch_count.store(1, std::memory_order_release);
  }
  last_shard_.resize(std::max<std::size_t>(opts_.engine.producers, 1));
  rebal_busy_.resize(shards_.size());
}

std::unique_ptr<RtEngine> ShardedEngine::make_engine_epoch(std::size_t k,
                                                           double rate,
                                                           bool initial) {
  EngineOptions eo = opts_.engine;
  eo.telemetry_shard = k;
  // Merge the shard-targeted fault plans aimed at this shard.
  auto& fp = eo.fault_plan;
  for (const auto& sf : opts_.shard_faults) {
    if (sf.shard != k) continue;
    fp.jumps.insert(fp.jumps.end(), sf.plan.jumps.begin(), sf.plan.jumps.end());
    fp.skews.insert(fp.skews.end(), sf.plan.skews.begin(), sf.plan.skews.end());
    fp.pauses.insert(fp.pauses.end(), sf.plan.pauses.begin(),
                     sf.plan.pauses.end());
    fp.kills.insert(fp.kills.end(), sf.plan.kills.begin(), sf.plan.kills.end());
  }
  if (!initial) {
    // A cold-restarted epoch continues the shard's time axis: it keeps the
    // clock transform (jumps, skews), so its readings carry on from the
    // dead epoch's, but not the triggers (pauses, kills) — on the shared
    // axis they are already due, and none may fire twice.
    fp.pauses.clear();
    fp.kills.clear();
  }
  auto profile = std::make_unique<AtomicRate>(rate);
  Shard& s = *shards_[k];
  s.rate_cell.store(&profile->cell(), std::memory_order_release);
  auto eng = std::make_unique<RtEngine>(*s.sched, std::move(profile),
                                        std::move(eo), wall_);
  if (tele_) eng->set_telemetry(tele_);
  if (capture_out_) eng->set_capture(&(*capture_out_)[k]);
  return eng;
}

std::unique_ptr<ShardedEngine> ShardedEngine::try_create(
    const SchedulerFactory& factory, std::vector<ShardFlow> flows,
    ShardedEngineOptions opts, std::string* error) {
  try {
    return std::make_unique<ShardedEngine>(factory, std::move(flows), opts);
  } catch (const std::exception& e) {
    if (error) *error = e.what();
    return nullptr;
  }
}

ShardedEngine::~ShardedEngine() {
  if (running()) stop(StopMode::kAbandon);
  if (stats_server_) stats_server_->stop();
}

std::size_t ShardedEngine::route(const Packet& p, std::size_t i) {
  // In-table flows use the (versioned) routing table; unknown global ids
  // fall back to the hash so they deterministically land (and get ledgered
  // as kUnknownFlow) on the same shard every time. Recording the shard even
  // for attempts that end up rejected keeps the note_* hooks resolving
  // against the shard that actually saw the attempt.
  const std::size_t k = p.flow < home_of_.size()
                            ? shard_of_[p.flow].load(std::memory_order_acquire)
                            : router_.shard_of(p.flow);
  last_shard_[i].shard = k;
  return k;
}

bool ShardedEngine::offer(std::size_t i, Packet p) {
  const std::size_t k = route(p, i);
  return live(k).offer(i, std::move(p));
}

bool ShardedEngine::offer_wait(std::size_t i, Packet p) {
  const std::size_t k = route(p, i);
  return live(k).offer_wait(i, std::move(p));
}

OfferStatus ShardedEngine::try_offer(std::size_t i, const Packet& p) {
  const std::size_t k = route(p, i);
  return live(k).try_offer(i, p);
}

void ShardedEngine::note_offer_retry(std::size_t i) {
  live(last_shard_[i].shard).note_offer_retry(i);
}

void ShardedEngine::note_offer_abandoned(std::size_t i) {
  live(last_shard_[i].shard).note_offer_abandoned(i);
}

void ShardedEngine::set_telemetry(tel::Telemetry* plane) {
  if (running())
    throw std::logic_error("ShardedEngine: set_telemetry while running");
  if (plane && plane->shards() < shards_.size())
    throw std::invalid_argument(
        "ShardedEngine: telemetry plane has fewer shards than the engine");
  tele_ = plane;
  for (auto& sp : shards_) sp->epochs.front()->set_telemetry(plane);
}

void ShardedEngine::set_capture(std::vector<std::vector<CaptureOp>>* out) {
  if (running())
    throw std::logic_error("ShardedEngine: set_capture while running");
  capture_out_ = out;
  if (out == nullptr) {
    for (auto& sp : shards_) sp->epochs.front()->set_capture(nullptr);
    return;
  }
  // The outer vector must not reallocate afterwards — each shard engine
  // (and every restarted epoch) holds a pointer into it for the run.
  out->resize(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k)
    shards_[k]->epochs.front()->set_capture(&(*out)[k]);
}

void ShardedEngine::start() {
  if (started_) throw std::logic_error("ShardedEngine: start() called twice");
  started_ = true;
  for (auto& sp : shards_) sp->epochs.front()->start();
  running_.store(true, std::memory_order_release);
  if (opts_.failover) supervisor_ = std::make_unique<ShardSupervisor>(*this);
  supervising_ = supervisor_ != nullptr;
  if (tele_ && (opts_.stats_interval > 0.0 || opts_.stats_port >= 0)) {
    if (opts_.stats_port >= 0) {
      stats_server_ = std::make_unique<tel::StatsServer>();
      stats_server_->start(static_cast<uint16_t>(opts_.stats_port));
    }
    publish_interval_ =
        opts_.stats_interval > 0.0 ? opts_.stats_interval : 0.5;
    prev_service_ = service_snapshot();
    next_publish_ = wall_.now() + publish_interval_;
  }
  root_tick_ = supervising_ || shards_.size() > 1 ? kRebalanceInterval
                                                  : publish_interval_;
  if (root_tick_ > 0.0) root_thread_ = std::thread([this] { root_loop(); });
}

void ShardedEngine::stop(StopMode mode) {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  // Supervision ends first: no migration or restart may race the shard
  // stops below, and a failover step in flight finishes (the root holds
  // root_mu_ through a step) so the migrated-packet ledger closes
  // (migrated_in == migrated_out).
  {
    std::lock_guard<std::mutex> root(root_mu_);
    supervising_ = false;
  }
  // Stop every shard engine concurrently: a kDrain stop lets all shards
  // serve out their backlogs in parallel instead of serializing N drains.
  // Retired epochs are stopped too (idempotent; usually already settled by
  // the supervisor). The root keeps rebalancing through the drain (idle
  // shards cede rate to draining ones, which only speeds the drain up).
  std::vector<std::thread> stoppers;
  stoppers.reserve(shards_.size());
  for (auto& sp : shards_)
    stoppers.emplace_back([&sp, mode] {
      for (auto& e : sp->epochs) e->stop(mode);
    });
  for (std::thread& t : stoppers) t.join();
  {
    std::lock_guard<std::mutex> root(root_mu_);
    root_stop_ = true;
  }
  root_cv_.notify_all();
  if (root_thread_.joinable()) root_thread_.join();
  running_.store(false, std::memory_order_release);
}

bool ShardedEngine::accepting() const {
  for (std::size_t k = 0; k < shards_.size(); ++k)
    if (live(k).accepting()) return true;
  return false;
}

bool ShardedEngine::stalled() const {
  if (supervisor_) return supervisor_->wedged();
  for (std::size_t k = 0; k < shards_.size(); ++k)
    if (live(k).stalled()) return true;
  return false;
}

bool ShardedEngine::shard_stalled(std::size_t k) const {
  return live(k).stalled();
}

int ShardedEngine::overload_state() const {
  int worst = 0;
  for (std::size_t k = 0; k < shards_.size(); ++k)
    worst = std::max(worst, live(k).overload_state());
  return worst;
}

EngineStats ShardedEngine::stats() const {
  EngineStats total;
  for (std::size_t k = 0; k < shards_.size(); ++k) total += shard_stats(k);
  return total;
}

EngineStats ShardedEngine::shard_stats(std::size_t k) const {
  // Sum across the shard's engine epochs: a retired (killed) epoch keeps
  // its frozen ledger, the live epoch contributes the current one.
  const Shard& s = *shards_[k];
  const std::size_t epochs = s.epoch_count.load(std::memory_order_acquire);
  EngineStats total;
  for (std::size_t e = 0; e < epochs; ++e) total += s.epochs[e]->stats();
  return total;
}

double ShardedEngine::flow_tx_bits(FlowId global) const {
  if (global >= home_of_.size()) return 0.0;
  // Unified ids: a migrated flow accrues service wherever it lived, so the
  // coherent per-flow axis is the sum over every shard and epoch.
  double bits = 0.0;
  for (const auto& sp : shards_) {
    const std::size_t epochs = sp->epoch_count.load(std::memory_order_acquire);
    for (std::size_t e = 0; e < epochs; ++e)
      bits += sp->epochs[e]->flow_tx_bits(global);
  }
  return bits;
}

std::vector<double> ShardedEngine::service_snapshot() const {
  std::vector<double> out(home_of_.size(), 0.0);
  for (const auto& sp : shards_) {
    const std::size_t epochs = sp->epoch_count.load(std::memory_order_acquire);
    for (std::size_t e = 0; e < epochs; ++e) {
      const std::vector<double> part = sp->epochs[e]->service_snapshot();
      for (std::size_t f = 0; f < out.size() && f < part.size(); ++f)
        out[f] += part[f];
    }
  }
  return out;
}

double ShardedEngine::fairness_bound(FlowId f, FlowId m) const {
  // Same shard: the flows share one SFQ server, plain Theorem 1. Across
  // shards: each shard is an eq.-65 virtual server, so both shards' service
  // fluctuation slack joins the bound (docs/REALTIME.md derives this).
  // Residency (and slack) reflect the current routing version.
  double b = stats::sfq_fairness_bound(flow_max_bits_[f], flow_weight_[f],
                                       flow_max_bits_[m], flow_weight_[m]);
  const std::size_t kf = shard_of(f);
  const std::size_t km = shard_of(m);
  if (kf != km) b += shard_slack(kf) + shard_slack(km);
  return b;
}

void ShardedEngine::root_loop() {
  std::unique_lock<std::mutex> lock(root_mu_);
  while (!root_cv_.wait_for(lock, std::chrono::duration<double>(root_tick_),
                            [this] { return root_stop_; }))
    root_step(wall_.now());
  // Every shard has settled: leave static shares behind so a post-stop
  // drain paces predictably, and publish the snapshot that matches the
  // settled summed ledger.
  for (auto& sp : shards_)
    sp->rate_cell.load(std::memory_order_acquire)
        ->store(sp->rate.load(std::memory_order_acquire),
                std::memory_order_relaxed);
  if (publish_interval_ > 0.0) publish_stats();
}

void ShardedEngine::root_step(Time now) {
  if (supervising_) supervisor_->poll(now);
  if (shards_.size() > 1) rebalance();
  if (publish_interval_ > 0.0 && now >= next_publish_) {
    next_publish_ = now + publish_interval_;
    publish_stats();
  }
}

void ShardedEngine::publish_stats() {
  const std::vector<double> cur = service_snapshot();

  // Per-shard Theorem-1 monitor: for every pair of the shard's flows that
  // both received service in the window, compare normalized service W_f/r_f
  // against fairness_bound (the paper's l_f/r_f + l_m/r_m for a same-shard
  // pair). The theorem covers only intervals where both flows stay
  // backlogged; "both received service" is the cheapest online proxy.
  std::vector<char> shard_busy(shards_.size(), 0);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const EngineStats es = shard_stats(k);
    shard_busy[k] = es.backlog > 0 ? 1 : 0;
    tele_->set_gauge(tel::GaugeId::kBacklogPackets,
                     static_cast<double>(es.backlog), k);
    tele_->set_gauge(tel::GaugeId::kServiceLagMax, es.max_service_lag, k);
    // Live stall visibility (docs/OBSERVABILITY.md): a permanently dead
    // dispatcher is discoverable mid-run, not just after stop().
    tele_->set_gauge(tel::GaugeId::kShardStalled,
                     live(k).stalled() ? 1.0 : 0.0, k);
    tele_->set_gauge(tel::GaugeId::kLastStallStage,
                     static_cast<double>(es.last_stall_stage), k);
    const std::vector<FlowId>& ids = shards_[k]->global_ids;
    double gap = 0.0;
    double bound = 0.0;
    for (std::size_t a = 0; a < ids.size(); ++a) {
      const FlowId f = ids[a];
      const double df = cur[f] - prev_service_[f];
      if (df <= 0.0) continue;
      for (std::size_t b2 = a + 1; b2 < ids.size(); ++b2) {
        const FlowId m = ids[b2];
        const double dm = cur[m] - prev_service_[m];
        if (dm <= 0.0) continue;
        gap = std::max(gap,
                       std::abs(df / flow_weight_[f] - dm / flow_weight_[m]));
        bound = std::max(bound, fairness_bound(f, m));
      }
    }
    tele_->set_gauge(tel::GaugeId::kFairnessGap, gap, k);
    if (gap > tele_->gauge(tel::GaugeId::kFairnessGapMax, k))
      tele_->set_gauge(tel::GaugeId::kFairnessGapMax, gap, k);
    tele_->set_gauge(tel::GaugeId::kFairnessBound, bound, k);
  }

  // Root monitor: every served pair across the whole flow table, with the
  // hierarchical bound (cross-shard pairs carry both shards' eq.-65 slack).
  // The cross-shard bound additionally assumes both *shards* stay busy over
  // the window (a drained shard's virtual server idles, so its flows are no
  // longer continuously backlogged even if they received some service) —
  // require backlog on both home shards at the window end, which during a
  // monotone drain implies busyness throughout the window. Windows that
  // overlap a migration legitimately carry the extra migration slack.
  const double mig_slack = migration_slack();
  double root_gap = 0.0;
  double root_bound = 0.0;
  for (FlowId f = 0; f < cur.size(); ++f) {
    const double df = cur[f] - prev_service_[f];
    if (df <= 0.0) continue;
    for (FlowId m = f + 1; m < cur.size(); ++m) {
      const double dm = cur[m] - prev_service_[m];
      if (dm <= 0.0) continue;
      const std::size_t kf = shard_of(f);
      const std::size_t km = shard_of(m);
      if (kf != km && (!shard_busy[kf] || !shard_busy[km])) continue;
      root_gap = std::max(
          root_gap, std::abs(df / flow_weight_[f] - dm / flow_weight_[m]));
      root_bound = std::max(root_bound, fairness_bound(f, m) + mig_slack);
    }
  }
  prev_service_ = cur;
  tele_->set_gauge(tel::GaugeId::kRootFairnessGap, root_gap, 0);
  if (root_gap > tele_->gauge(tel::GaugeId::kRootFairnessGapMax, 0))
    tele_->set_gauge(tel::GaugeId::kRootFairnessGapMax, root_gap, 0);
  tele_->set_gauge(tel::GaugeId::kRootFairnessBound, root_bound, 0);
  tele_->set_gauge(tel::GaugeId::kOverloadWorst,
                   static_cast<double>(overload_state()), 0);

  const tel::TelemetrySnapshot snap = tele_->snapshot();
  if (stats_server_)
    stats_server_->publish(tel::to_prometheus(snap), tel::to_json(snap));
  if (opts_.stats_interval > 0.0) {
    const EngineStats total = stats();
    std::fprintf(stderr,
                 "[sfq stats] shards=%zu tx=%llu drops=%llu backlog=%llu "
                 "root_gap=%.3gms root_bound=%.3gms ov_worst=%d failovers=%llu\n",
                 shards_.size(),
                 static_cast<unsigned long long>(total.transmitted),
                 static_cast<unsigned long long>(total.dropped() +
                                                 total.ingress_drops),
                 static_cast<unsigned long long>(total.backlog),
                 root_gap * 1e3, root_bound * 1e3, overload_state(),
                 static_cast<unsigned long long>(shard_failovers()));
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      const EngineStats es = shard_stats(k);
      const double occ =
          opts_.engine.buffer_limit > 0
              ? 100.0 * static_cast<double>(es.backlog) /
                    static_cast<double>(opts_.engine.buffer_limit)
              : 0.0;
      std::fprintf(stderr,
                   "[sfq shard %zu] tx=%llu drops=%llu backlog=%llu "
                   "occ=%.0f%% ov=%d stalled=%d stage=%s gap=%.3gms "
                   "bound=%.3gms\n",
                   k, static_cast<unsigned long long>(es.transmitted),
                   static_cast<unsigned long long>(es.dropped() +
                                                   es.ingress_drops),
                   static_cast<unsigned long long>(es.backlog), occ,
                   es.overload_state, live(k).stalled() ? 1 : 0,
                   to_string(es.last_stall_stage),
                   tele_->gauge(tel::GaugeId::kFairnessGap, k) * 1e3,
                   tele_->gauge(tel::GaugeId::kFairnessBound, k) * 1e3);
    }
  }
}

void ShardedEngine::rebalance() {
  // H-SFQ root as a work-conserving rate server: the link splits over BUSY
  // shards in proportion to W_k. When every shard is busy — the window the
  // cross-shard bound covers — this equals the static R*W_k/W split, so the
  // bound's premise sees exactly the analyzed allocation. W_k and the
  // static shares change only in the supervise step, on this thread; a rate
  // observed one tick late only shifts pacing.
  double busy_w = 0.0;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    rebal_busy_[k] = shard_weight(k) > 0.0 && live(k).stats().backlog > 0;
    if (rebal_busy_[k]) busy_w += shard_weight(k);
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const double rate =
        rebal_busy_[k] && busy_w > 0.0
            ? opts_.link_rate * shard_weight(k) / busy_w
            : shards_[k]->rate.load(std::memory_order_acquire);
    shards_[k]->rate_cell.load(std::memory_order_acquire)
        ->store(rate, std::memory_order_relaxed);
  }
}

}  // namespace sfq::rt
