#include "rt/shard/shard_supervisor.h"

#include <algorithm>
#include <limits>

#include "obs/telemetry/telemetry.h"
#include "rt/shard/sharded_engine.h"

namespace sfq::rt {

namespace tel = obs::telemetry;

namespace {

// Cold restarts allowed per shard (a fresh engine epoch over the same
// scheduler); once spent, a dead shard's flows stay rehomed on survivors.
constexpr uint32_t kShardRestartBudget = 1;

// Wait between fencing a shard and its cold restart (seconds): gives
// whatever killed it (a scripted fault, a scheduling storm) room to pass
// before the new epoch starts.
constexpr double kRestartBackoff = 0.01;

constexpr Time kNever = std::numeric_limits<Time>::infinity();

}  // namespace

ShardSupervisor::ShardSupervisor(ShardedEngine& owner)
    : owner_(owner),
      alive_(owner.shards(), 1),
      restarts_used_(owner.shards(), 0),
      stalled_since_(owner.shards(), kNever),
      restart_due_(owner.shards(), kNever) {
  const std::size_t n = owner_.shards();
  residents_.reserve(n);
  for (std::size_t k = 0; k < n; ++k)
    residents_.push_back(owner_.shards_[k]->global_ids);
  if (owner_.tele_) {
    writers_.reserve(n);
    for (std::size_t k = 0; k < n; ++k)
      writers_.push_back(owner_.tele_->writer(k));
  }
}

std::size_t ShardSupervisor::max_epochs() { return 1 + kShardRestartBudget; }

void ShardSupervisor::poll(Time now) {
  for (std::size_t k = 0; k < owner_.shards(); ++k) {
    if (wedged()) return;
    if (!alive_[k]) {
      if (now >= restart_due_[k]) restart(k);
      continue;
    }
    const RtEngine& eng = owner_.live(k);
    if (!eng.stalled()) continue;
    if (stalled_since_[k] == kNever) stalled_since_[k] = now;
    // FENCE once the dispatcher has executed permanent_stop AND exited, so
    // harvest_flows sees a quiesced engine; until then, a later tick.
    if (eng.dispatcher_done()) fence(k);
  }
}

void ShardSupervisor::publish_shard_gauges() {
  if (!owner_.tele_) return;
  for (std::size_t k = 0; k < owner_.shards(); ++k)
    owner_.tele_->set_gauge(tel::GaugeId::kShardStalled,
                            alive_[k] ? 0.0 : 1.0, k);
}

void ShardSupervisor::fence(std::size_t k) {
  owner_.live(k).stop(StopMode::kAbandon);  // joins the exited thread
  alive_[k] = 0;
  publish_shard_gauges();

  FailoverEvent ev;
  ev.shard = k;
  double reanchor = 0.0;
  if (!evacuate(k, reanchor, ev.flows_moved, ev.packets_moved)) {
    wedged_.store(true, std::memory_order_release);
    return;
  }
  const Time resident = owner_.wall_.now();
  const double dt = resident - stalled_since_[k];
  stalled_since_[k] = kNever;
  ev.latency = dt;

  // migration_slack for this epoch (docs/ROBUSTNESS.md): during the
  // stalled->resident blackout of length dt a continuously-backlogged
  // survivor pair can diverge by at most dt*R/W_live on the normalized
  // axis (the whole link against the smallest unit of surviving weight),
  // and each moved flow's tag re-anchor costs it at most one of its own
  // max packets, l_f^max/w_f.
  double w_live = 0.0;
  for (std::size_t j = 0; j < owner_.shards(); ++j)
    if (alive_[j]) w_live += owner_.shard_weight(j);
  ev.slack = (w_live > 0.0 ? dt * owner_.opts_.link_rate / w_live : 0.0) +
             reanchor;
  double prev = migration_slack_.load(std::memory_order_relaxed);
  while (prev < ev.slack && !migration_slack_.compare_exchange_weak(
                                prev, ev.slack, std::memory_order_relaxed)) {
  }
  failovers_.fetch_add(1, std::memory_order_relaxed);
  flows_rehomed_.fetch_add(ev.flows_moved, std::memory_order_relaxed);
  if (!writers_.empty()) {
    writers_[k].inc(tel::CounterId::kShardFailovers);
    writers_[k].inc(tel::CounterId::kFlowsRehomed, ev.flows_moved);
    owner_.tele_->record_seconds(tel::HistId::kMigrationLatency, dt, k);
  }
  events_.push_back(ev);

  // RESTART is due after the backoff, under the shard-level budget. If
  // supervision stops first, the flows stay rehomed on survivors; the
  // ledger is already closed.
  if (restarts_used_[k] < kShardRestartBudget) {
    ++restarts_used_[k];
    restart_due_[k] = resident + kRestartBackoff;
  }
}

void ShardSupervisor::restart(std::size_t k) {
  // A fresh engine epoch over the same scheduler, so tag history survives.
  restart_due_[k] = kNever;
  ShardedEngine::Shard& s = *owner_.shards_[k];
  auto eng = owner_.make_engine_epoch(
      k, s.rate.load(std::memory_order_acquire), /*initial=*/false);
  RtEngine* raw = eng.get();
  s.epochs.push_back(std::move(eng));
  raw->start();
  s.live.store(raw, std::memory_order_release);
  s.epoch_count.store(s.epochs.size(), std::memory_order_release);
  alive_[k] = 1;
  if (rehome_back(k)) {
    for (auto it = events_.rbegin(); it != events_.rend(); ++it)
      if (it->shard == k) {
        it->restarted = true;
        break;
      }
  } else if (wedged()) {
    return;
  }
  publish_shard_gauges();
}

bool ShardSupervisor::evacuate(std::size_t k, double& out_reanchor,
                               std::size_t& flows_moved,
                               uint64_t& packets_moved) {
  out_reanchor = 0.0;
  flows_moved = 0;
  packets_moved = 0;
  std::vector<FlowId> res;
  res.swap(residents_[k]);

  // HARVEST the dead epoch's exact per-flow backlog (counted migrated_out;
  // records a kRemove capture op per flow so differential replay tracks the
  // residency change).
  std::vector<RtEngine::Migration> harvested =
      owner_.live(k).harvest_flows(res);

  // Any survivor left?
  bool any_alive = false;
  for (std::size_t j = 0; j < owner_.shards(); ++j)
    if (alive_[j]) any_alive = true;
  if (!any_alive) return res.empty();

  // REHOME: rendezvous remap over the alive subset (minimal movement), then
  // re-weight the H-SFQ root and re-split the link before any destination
  // starts serving the migrated backlog.
  std::vector<std::size_t> dest_of(res.size());
  std::vector<std::vector<RtEngine::Migration>> per_dest(owner_.shards());
  for (std::size_t i = 0; i < res.size(); ++i) {
    const FlowId f = res[i];
    const std::size_t d = owner_.router_.rehome(f, alive_);
    dest_of[i] = d;
    packets_moved += harvested[i].backlog.size();
    out_reanchor = std::max(out_reanchor, owner_.flow_max_bits_[f] /
                                              owner_.flow_weight_[f]);
    per_dest[d].push_back(std::move(harvested[i]));
    residents_[d].push_back(f);
  }
  flows_moved = res.size();
  reweight();

  // ADOPT at each destination (executes on its dispatcher thread: rejoin
  // re-anchors the start tag against the destination's own v(t) and tag
  // history, backlog enqueues under the normal buffer policy, every packet
  // counted migrated_in). A destination that died in the meantime fails the
  // adopt; those flows retry on the remaining survivors.
  for (std::size_t d = 0; d < per_dest.size(); ++d) {
    if (per_dest[d].empty()) continue;
    if (owner_.live(d).adopt_flows(per_dest[d])) {
      per_dest[d].clear();  // settled; a rescan must not re-adopt it
      continue;
    }
    // Destination is dead too. Pull its share back out of the resident
    // bookkeeping and retry the remap without it; its own death is handled
    // by a later root tick.
    alive_[d] = 0;
    std::vector<RtEngine::Migration> retry = std::move(per_dest[d]);
    per_dest[d].clear();
    for (const auto& m : retry) {
      auto& rd = residents_[d];
      rd.erase(std::remove(rd.begin(), rd.end(), m.flow), rd.end());
    }
    bool left = false;
    for (std::size_t j = 0; j < owner_.shards(); ++j)
      if (alive_[j]) left = true;
    if (!left) return false;
    for (auto& m : retry) {
      const std::size_t nd = owner_.router_.rehome(m.flow, alive_);
      for (std::size_t i = 0; i < res.size(); ++i)
        if (res[i] == m.flow) dest_of[i] = nd;
      residents_[nd].push_back(m.flow);
      per_dest[nd].push_back(std::move(m));
    }
    reweight();
    d = static_cast<std::size_t>(-1);  // restart the adopt scan
  }

  // FLIP the versioned routing table last: producers keep hitting the
  // fenced shard (counted ingress drops there) until the flows are resident
  // at their destinations, so no packet can outrun its flow's tag state.
  for (std::size_t i = 0; i < res.size(); ++i)
    owner_.shard_of_[res[i]].store(static_cast<uint32_t>(dest_of[i]),
                                   std::memory_order_release);
  owner_.route_version_.fetch_add(1, std::memory_order_release);
  return true;
}

void ShardSupervisor::reweight() {
  // Recompute W_k and the eq.-65 slack from the current residency, then
  // re-split the link over the live weight. Dead shards carry zero weight —
  // their virtual server is gone from the hierarchy until restart.
  double w_live = 0.0;
  for (std::size_t j = 0; j < owner_.shards(); ++j) {
    auto& s = *owner_.shards_[j];
    double w = 0.0;
    double lmax = 0.0;
    double lsum = 0.0;
    for (FlowId g : residents_[j]) {
      w += owner_.flow_weight_[g];
      lmax = std::max(lmax, owner_.flow_max_bits_[g]);
      lsum += owner_.flow_max_bits_[g];
    }
    if (!alive_[j]) w = 0.0;
    s.weight_sum.store(w, std::memory_order_release);
    s.slack.store(w > 0.0 ? (lmax + lsum) / w : 0.0,
                  std::memory_order_release);
    if (alive_[j]) w_live += w;
  }
  for (std::size_t j = 0; j < owner_.shards(); ++j) {
    auto& s = *owner_.shards_[j];
    if (!alive_[j]) continue;
    const double w = s.weight_sum.load(std::memory_order_acquire);
    const double rate = w_live > 0.0
                            ? owner_.opts_.link_rate * w / w_live
                            : owner_.opts_.link_rate /
                                  static_cast<double>(owner_.shards());
    if (rate > 0.0) {
      s.rate.store(rate, std::memory_order_release);
      s.rate_cell.load(std::memory_order_acquire)
          ->store(rate, std::memory_order_relaxed);
    }
  }
}

bool ShardSupervisor::rehome_back(std::size_t k) {
  // Collect the displaced flows whose primary home is the restarted shard.
  std::vector<std::vector<FlowId>> from(owner_.shards());
  std::size_t moved = 0;
  for (std::size_t j = 0; j < owner_.shards(); ++j) {
    if (j == k) continue;
    for (FlowId f : residents_[j])
      if (owner_.home_of_[f] == k) {
        from[j].push_back(f);
        ++moved;
      }
  }
  if (moved == 0) return true;

  // EVICT from the temporary shards (counted migrated_out there; exact
  // backlog travels with each flow), ADOPT on the restarted home (the
  // rejoin rule re-anchors against the home's preserved tag history), then
  // flip the routing. A temp shard that died mid-evict keeps its flows —
  // its own failover will move them later.
  std::vector<RtEngine::Migration> inbound;
  for (std::size_t j = 0; j < owner_.shards(); ++j) {
    if (from[j].empty()) continue;
    std::vector<RtEngine::Migration> out;
    if (!owner_.live(j).evict_flows(from[j], out)) {
      from[j].clear();
      continue;
    }
    auto& rj = residents_[j];
    for (FlowId f : from[j])
      rj.erase(std::remove(rj.begin(), rj.end(), f), rj.end());
    for (auto& m : out) inbound.push_back(std::move(m));
  }
  if (inbound.empty()) return true;

  std::vector<FlowId> coming;
  coming.reserve(inbound.size());
  for (const auto& m : inbound) coming.push_back(m.flow);
  for (FlowId f : coming) residents_[k].push_back(f);
  reweight();
  if (!owner_.live(k).adopt_flows(inbound)) {
    // The fresh epoch died before adopting. Send the evicted flows back to
    // the survivors so no flow is left homeless.
    alive_[k] = 0;
    auto& rk = residents_[k];
    for (FlowId f : coming)
      rk.erase(std::remove(rk.begin(), rk.end(), f), rk.end());
    bool left = false;
    for (std::size_t j = 0; j < owner_.shards(); ++j)
      if (alive_[j]) left = true;
    if (!left) {
      wedged_.store(true, std::memory_order_release);
      return false;
    }
    std::vector<std::vector<RtEngine::Migration>> per_dest(owner_.shards());
    for (auto& m : inbound) {
      const std::size_t d = owner_.router_.rehome(m.flow, alive_);
      residents_[d].push_back(m.flow);
      per_dest[d].push_back(std::move(m));
    }
    reweight();
    for (std::size_t d = 0; d < per_dest.size(); ++d) {
      if (per_dest[d].empty()) continue;
      if (!owner_.live(d).adopt_flows(per_dest[d])) {
        wedged_.store(true, std::memory_order_release);
        return false;
      }
      for (const auto& m : per_dest[d])
        owner_.shard_of_[m.flow].store(static_cast<uint32_t>(d),
                                       std::memory_order_release);
    }
    owner_.route_version_.fetch_add(1, std::memory_order_release);
    flows_rehomed_.fetch_add(coming.size(), std::memory_order_relaxed);
    return false;
  }
  for (FlowId f : coming)
    owner_.shard_of_[f].store(static_cast<uint32_t>(k),
                              std::memory_order_release);
  owner_.route_version_.fetch_add(1, std::memory_order_release);
  flows_rehomed_.fetch_add(coming.size(), std::memory_order_relaxed);
  if (!writers_.empty())
    writers_[k].inc(tel::CounterId::kFlowsRehomed, coming.size());
  return true;
}

}  // namespace sfq::rt
