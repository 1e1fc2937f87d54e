#include "rt/load_gen.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <random>
#include <stdexcept>
#include <utility>

#include "rt/validate.h"
#include "sim/simulator.h"
#include "traffic/sources.h"

namespace sfq::rt {

namespace {

// Sim-time slice generated ahead of the replay.
constexpr Time kSlice = 0.01;

// Retry backoff (LoadGenOptions::max_retries / offer_deadline): the first
// wait, its growth cap, the growth per retry, and the jitter j that scales
// each wait by uniform[1-j, 1+j].
constexpr Time kBackoffInitial = 20e-6;
constexpr Time kBackoffMax = 2e-3;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.5;

struct TimedPacket {
  Time t = 0.0;  // model time of the arrival
  Packet p;
};

// Sleeps until the shared wall clock reaches `target` or a stop is
// requested, never spinning toward it. Waking up to the timer slack late is
// fine: the ingress stamp, not this wait, is the arrival time the engine
// sees. Naps are capped at 1 ms so a stop request interrupts promptly.
void wait_until(const IngressTarget& engine, Time target,
                const std::atomic<bool>& stop) {
  for (;;) {
    if (stop.load(std::memory_order_relaxed)) return;
    const Time gap = target - engine.now();
    if (gap <= 0.0) return;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(gap, 1e-3)));
  }
}

}  // namespace

namespace {

std::optional<std::string> validate_specs(
    const IngressTarget& engine,
    const std::vector<std::vector<FlowLoad>>& specs,
    const LoadGenOptions& opts) {
  if (specs.size() > engine.producers())
    return "LoadGen: more producers than engine shards";
  if (auto err = validate(opts)) return err;
  for (const auto& producer : specs)
    for (const FlowLoad& l : producer)
      if (auto err = validate(l)) return err;
  return std::nullopt;
}

}  // namespace

LoadGen::LoadGen(IngressTarget& engine,
                 std::vector<std::vector<FlowLoad>> producers,
                 LoadGenOptions opts)
    : engine_(engine), specs_(std::move(producers)), opts_(opts) {
  if (auto err = validate_specs(engine_, specs_, opts_))
    throw std::invalid_argument(*err);
  cells_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i)
    cells_.push_back(std::make_unique<Cells>());
}

std::unique_ptr<LoadGen> LoadGen::try_create(
    IngressTarget& engine, std::vector<std::vector<FlowLoad>> producers,
    LoadGenOptions opts, std::string* error) {
  if (auto err = validate_specs(engine, producers, opts)) {
    if (error) *error = *err;
    return nullptr;
  }
  return std::make_unique<LoadGen>(engine, std::move(producers), opts);
}

LoadGen::~LoadGen() { join(); }

void LoadGen::start(Time duration) {
  if (started_) throw std::logic_error("LoadGen: start() called twice");
  started_ = true;
  threads_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i)
    threads_.emplace_back([this, i, duration] { produce(i, duration); });
}

void LoadGen::join() {
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
}

void LoadGen::request_stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
}

uint64_t LoadGen::produced(std::size_t i) const {
  return cells_[i]->attempts.load(std::memory_order_relaxed);
}

uint64_t LoadGen::produced_total() const {
  uint64_t n = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) n += produced(i);
  return n;
}

LoadGen::ProducerStats LoadGen::producer_stats(std::size_t i) const {
  const Cells& c = *cells_[i];
  ProducerStats s;
  s.attempts = c.attempts.load(std::memory_order_relaxed);
  s.pushed = c.pushed.load(std::memory_order_relaxed);
  s.dropped = c.dropped.load(std::memory_order_relaxed);
  s.abandoned = c.abandoned.load(std::memory_order_relaxed);
  s.retries = c.retries.load(std::memory_order_relaxed);
  return s;
}

void LoadGen::produce(std::size_t i, Time duration) {
  // Private simulator: the traffic models run exactly as they do in
  // simulated experiments; only the emission side changes.
  sim::Simulator sim;
  std::deque<TimedPacket> slice_buf;
  auto emit = [&](Packet p) {
    slice_buf.push_back(TimedPacket{sim.now(), std::move(p)});
  };

  std::vector<std::unique_ptr<traffic::Source>> sources;
  for (const FlowLoad& l : specs_[i]) {
    switch (l.model) {
      case FlowLoad::Model::kCbr:
        sources.push_back(std::make_unique<traffic::CbrSource>(
            sim, l.flow, emit, l.rate, l.packet_bits));
        break;
      case FlowLoad::Model::kPoisson:
        sources.push_back(std::make_unique<traffic::PoissonSource>(
            sim, l.flow, emit, l.rate, l.packet_bits, l.seed));
        break;
      case FlowLoad::Model::kOnOff:
        sources.push_back(std::make_unique<traffic::OnOffSource>(
            sim, l.flow, emit, l.rate, l.packet_bits, l.mean_on, l.mean_off,
            l.seed));
        break;
    }
    sources.back()->run(l.start, duration);
  }

  ProducerStats local;
  Cells& cells = *cells_[i];
  const auto publish = [&] {
    cells.attempts.store(local.attempts, std::memory_order_relaxed);
    cells.pushed.store(local.pushed, std::memory_order_relaxed);
    cells.dropped.store(local.dropped, std::memory_order_relaxed);
    cells.abandoned.store(local.abandoned, std::memory_order_relaxed);
    cells.retries.store(local.retries, std::memory_order_relaxed);
  };
  // Retry/backoff mode (docs/ROBUSTNESS.md): explicit backpressure via
  // try_offer, bounded exponential backoff with multiplicative jitter, and
  // an optional per-packet freshness deadline.
  const bool retry_mode = !opts_.block_on_full &&
                          (opts_.max_retries > 0 || opts_.offer_deadline > 0.0);
  std::minstd_rand jitter_rng(
      static_cast<uint32_t>(0x9e3779b9u ^ (i * 2654435761u)) | 1u);
  std::uniform_real_distribution<double> jitter(1.0 - kBackoffJitter,
                                                1.0 + kBackoffJitter);
  const Time t0 = engine_.now();  // replay epoch: model t maps to t0 + t
  Time horizon = 0.0;
  bool engine_closed = false;

  while (!engine_closed) {
    if (stop_requested_.load(std::memory_order_relaxed)) break;
    if (slice_buf.empty()) {
      if (horizon >= duration) break;  // sources emit strictly before duration
      horizon = std::min(horizon + kSlice, duration);
      sim.run_until(horizon);
      continue;
    }
    TimedPacket& tp = slice_buf.front();
    if (opts_.paced) {
      wait_until(engine_, t0 + tp.t, stop_requested_);
      if (stop_requested_.load(std::memory_order_relaxed)) break;
    }
    ++local.attempts;
    if (retry_mode) {
      OfferStatus st = engine_.try_offer(i, tp.p);
      if (st == OfferStatus::kAccepted) {
        ++local.pushed;
      } else if (st == OfferStatus::kClosed) {
        // A sharded engine refuses offers to a fenced shard while the rest
        // still accept: only a closed engine ends the timeline.
        engine_.note_offer_abandoned(i);
        ++local.abandoned;
        engine_closed = !engine_.accepting();
      } else {
        // Backpressure: retry until accepted, closed, out of retries, or
        // past the freshness deadline.
        const Time first_try = engine_.now();
        Time backoff = kBackoffInitial;
        std::size_t tries = 0;
        bool resolved = false;
        for (;;) {
          if (opts_.offer_deadline > 0.0 &&
              engine_.now() - first_try >= opts_.offer_deadline)
            break;
          if (opts_.max_retries > 0 && tries >= opts_.max_retries) break;
          ++tries;
          ++local.retries;
          engine_.note_offer_retry(i);
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff * jitter(jitter_rng)));
          backoff = std::min(backoff * kBackoffMultiplier, kBackoffMax);
          st = engine_.try_offer(i, tp.p);
          if (st == OfferStatus::kAccepted) {
            ++local.pushed;
            resolved = true;
            break;
          }
          if (st == OfferStatus::kClosed) break;
        }
        if (!resolved) {
          // Timed out, out of retries, or the engine closed mid-retry: the
          // packet is given up and the attempt lands on the engine ledger as
          // an ingress drop.
          engine_.note_offer_abandoned(i);
          ++local.abandoned;
          engine_closed = !engine_.accepting();
        }
      }
    } else {
      bool ok;
      if (opts_.block_on_full)
        ok = engine_.offer_wait(i, std::move(tp.p));
      else
        ok = engine_.offer(i, std::move(tp.p));
      if (ok)
        ++local.pushed;
      else
        ++local.dropped;
      // A plain offer's failure is a counted backpressure drop and production
      // continues; failure with the engine closed means the rest of the
      // timeline has nowhere to go.
      if (!ok && !engine_.accepting()) engine_closed = true;
    }
    slice_buf.pop_front();
    // Publish periodically to keep the hot loop light.
    if ((local.attempts & 0x3ff) == 0) publish();
  }
  publish();
}

}  // namespace sfq::rt
