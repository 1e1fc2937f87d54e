#include "obs/telemetry/telemetry.h"

#include <algorithm>
#include <stdexcept>

namespace sfq::obs::telemetry {

Telemetry::Telemetry(TelemetryOptions opts)
    : shards_(opts.shards == 0 ? 1 : opts.shards),
      gauges_(new std::atomic<double>[shards_ * kGaugeCount]),
      hists_(new LockFreeHistogram[shards_ * kHistCount]) {
  for (std::size_t i = 0; i < shards_ * kGaugeCount; ++i)
    gauges_[i].store(0.0, std::memory_order_relaxed);
}

Telemetry::Writer Telemetry::writer(std::size_t shard) {
  auto cells = std::make_shared<CounterCells>(shard);
  Writer w;
  w.cells_ = cells.get();
  attach(std::move(cells));
  return w;
}

void Telemetry::attach(std::shared_ptr<const CounterCells> cells) {
  if (cells->shard >= shards_)
    throw std::out_of_range("Telemetry: counter cells' shard out of range");
  std::lock_guard<std::mutex> lock(cells_mu_);
  if (std::find(cells_.begin(), cells_.end(), cells) == cells_.end())
    cells_.push_back(std::move(cells));
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot s;
  s.shards = shards_;
  s.epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  s.counters.assign(shards_, {});
  s.gauges.assign(shards_, {});
  {
    std::lock_guard<std::mutex> lock(cells_mu_);
    for (const auto& cells : cells_) cells->add_to(s.counters[cells->shard]);
  }
  for (std::size_t sh = 0; sh < shards_; ++sh)
    for (std::size_t g = 0; g < kGaugeCount; ++g)
      s.gauges[sh][g] =
          gauges_[sh * kGaugeCount + g].load(std::memory_order_relaxed);
  s.hists.resize(shards_);
  for (std::size_t sh = 0; sh < shards_; ++sh) {
    s.hists[sh].reserve(kHistCount);
    for (std::size_t h = 0; h < kHistCount; ++h)
      s.hists[sh].push_back(hists_[sh * kHistCount + h].snapshot());
  }
  return s;
}

uint64_t TelemetrySnapshot::counter_total(CounterId id) const {
  uint64_t total = 0;
  for (std::size_t sh = 0; sh < shards; ++sh) total += counter(id, sh);
  return total;
}

HistogramSnapshot TelemetrySnapshot::hist_total(HistId id) const {
  HistogramSnapshot total;
  for (std::size_t sh = 0; sh < shards; ++sh) total.merge(hist(id, sh));
  return total;
}

uint64_t TelemetrySnapshot::drops_total(std::size_t shard) const {
  uint64_t n = 0;
  for (std::size_t c = static_cast<std::size_t>(CounterId::kDropBufferLimit);
       c <= static_cast<std::size_t>(CounterId::kDropShed); ++c)
    n += counters[shard][c];
  return n;
}

}  // namespace sfq::obs::telemetry
