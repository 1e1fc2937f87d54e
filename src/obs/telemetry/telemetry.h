// Lock-free, zero-steady-state-allocation telemetry plane for live engines
// (docs/OBSERVABILITY.md).
//
// Layout per shard (shard = one dispatcher of the future multi-core engine;
// today's single-dispatcher RtEngine is shard 0):
//
//   * counters — one cache-line-aligned CounterCells block per writer
//     (thread). A writer increments its own cells with a relaxed load+store
//     pair (single-writer, so no RMW needed); the reader aggregates by
//     summing cells across writers. Sums of per-writer monotone counters
//     are monotone across snapshots, so readers never observe a counter go
//     backwards. A block is either the plane's own (writer()) or owned by
//     its producer and attached (attach()): an RtEngine's cells are its
//     ledger, and the plane shares ownership so it keeps reporting them
//     after the engine is gone.
//   * gauges — one atomic<double> per id per shard, plain store/load.
//   * histograms — one LockFreeHistogram per id per shard, multi-writer
//     wait-free fetch_add (histogram.h).
//
// Registration (writer()/attach(), at thread setup) takes a mutex and
// allocates; the record path after that touches only pre-allocated atomics.
// snapshot() is the only reader-side operation and is safe from any thread
// at any time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/telemetry/histogram.h"
#include "obs/telemetry/metric_ids.h"

namespace sfq::obs::telemetry {

inline constexpr std::size_t kTelemetryCacheLine = 64;

struct TelemetryOptions {
  std::size_t shards = 1;
};

// One thread's monotone counters, on cache lines of their own. Exactly one
// thread writes a block (relaxed load+store, no locked RMW); any thread may
// read it. `shard` is the label the block's counts are reported under.
struct CounterCells {
  explicit CounterCells(std::size_t shard_label = 0) : shard(shard_label) {}
  CounterCells(const CounterCells&) = delete;
  CounterCells& operator=(const CounterCells&) = delete;

  void inc(CounterId id, uint64_t n = 1) {
    std::atomic<uint64_t>& c = v[static_cast<std::size_t>(id)];
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  void drop(DropCause cause) { inc(drop_counter(cause)); }
  // Adds every counter of this block into `sum` (relaxed reads).
  void add_to(std::array<uint64_t, kCounterCount>& sum) const {
    for (std::size_t i = 0; i < kCounterCount; ++i)
      sum[i] += v[i].load(std::memory_order_relaxed);
  }

  alignas(kTelemetryCacheLine)
      std::array<std::atomic<uint64_t>, kCounterCount> v{};
  const std::size_t shard;
};

// Everything a snapshot captures, as plain values. Counters and histograms
// are per shard plus precomputed totals; epoch increments per snapshot so
// pollers can tell refreshes apart.
struct TelemetrySnapshot {
  std::size_t shards = 0;
  uint64_t epoch = 0;
  std::vector<std::array<uint64_t, kCounterCount>> counters;  // [shard]
  std::vector<std::array<double, kGaugeCount>> gauges;        // [shard]
  std::vector<std::vector<HistogramSnapshot>> hists;  // [shard][kHistCount]

  uint64_t counter(CounterId id, std::size_t shard) const {
    return counters[shard][static_cast<std::size_t>(id)];
  }
  uint64_t counter_total(CounterId id) const;
  double gauge(GaugeId id, std::size_t shard) const {
    return gauges[shard][static_cast<std::size_t>(id)];
  }
  const HistogramSnapshot& hist(HistId id, std::size_t shard) const {
    return hists[shard][static_cast<std::size_t>(id)];
  }
  // Bucket-wise merge across shards.
  HistogramSnapshot hist_total(HistId id) const;
  uint64_t drops_total(std::size_t shard) const;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions opts = {});

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  std::size_t shards() const { return shards_; }

  // A thread's handle onto plane-owned counter cells. The handle stays
  // valid for the plane's lifetime and must be used by one thread at a
  // time.
  class Writer {
   public:
    Writer() = default;

    void inc(CounterId id, uint64_t n = 1) { cells_->inc(id, n); }
    void drop(DropCause cause) { cells_->drop(cause); }

    explicit operator bool() const { return cells_ != nullptr; }

   private:
    friend class Telemetry;
    CounterCells* cells_ = nullptr;
  };

  // Registers a new writer against `shard`. Allocates (mutex-protected) —
  // call at thread setup, never on the record path.
  Writer writer(std::size_t shard);

  // Adds a caller-owned cell block to the counter sums, with whatever it
  // already counted. The plane shares ownership, so the block's counts stay
  // in every later snapshot even once its owner is gone. Attaching a block
  // that is already attached does nothing. Throws std::out_of_range when
  // the block's shard is not one of this plane's.
  void attach(std::shared_ptr<const CounterCells> cells);

  // Gauges: single conceptual writer per (id, shard); last store wins.
  void set_gauge(GaugeId id, double v, std::size_t shard = 0) {
    gauges_[shard * kGaugeCount + static_cast<std::size_t>(id)].store(
        v, std::memory_order_relaxed);
  }
  double gauge(GaugeId id, std::size_t shard = 0) const {
    return gauges_[shard * kGaugeCount + static_cast<std::size_t>(id)].load(
        std::memory_order_relaxed);
  }

  // Histograms: multi-writer wait-free.
  LockFreeHistogram& hist(HistId id, std::size_t shard = 0) {
    return hists_[shard * kHistCount + static_cast<std::size_t>(id)];
  }
  void record(HistId id, uint64_t ns, std::size_t shard = 0) {
    hist(id, shard).record(ns);
  }
  void record_seconds(HistId id, double s, std::size_t shard = 0) {
    hist(id, shard).record_seconds(s);
  }

  // Aggregated snapshot, any thread. Counter sums are monotone snapshot to
  // snapshot; histogram totals are never torn (count == sum of buckets by
  // construction).
  TelemetrySnapshot snapshot() const;

 private:
  std::size_t shards_;
  std::unique_ptr<std::atomic<double>[]> gauges_;   // shards * kGaugeCount
  std::unique_ptr<LockFreeHistogram[]> hists_;      // shards * kHistCount
  mutable std::mutex cells_mu_;
  std::vector<std::shared_ptr<const CounterCells>> cells_;
  mutable std::atomic<uint64_t> epoch_{0};
};

}  // namespace sfq::obs::telemetry
