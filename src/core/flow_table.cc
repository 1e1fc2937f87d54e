#include "core/flow_table.h"

#include <stdexcept>

#include "core/splitmix.h"

namespace sfq {

const FlowSpec& FlowTable::live_ref(FlowId id) const {
  if (!contains(id))
    throw std::out_of_range("FlowTable: flow id " + std::to_string(id) +
                            " is not a live flow");
  return slots_[id];
}

FlowSpec& FlowTable::live_ref(FlowId id) {
  if (!contains(id))
    throw std::out_of_range("FlowTable: flow id " + std::to_string(id) +
                            " is not a live flow");
  return slots_[id];
}

FlowId FlowTable::add(double weight, double max_packet_bits, std::string name) {
  if (weight <= 0.0) throw std::invalid_argument("flow weight must be positive");
  FlowId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<FlowId>(slots_.size());
    slots_.emplace_back();
  }
  if (name.empty()) name = "flow" + std::to_string(id);
  FlowSpec& s = slots_[id];
  s = FlowSpec{id, weight, max_packet_bits, /*key=*/0, std::move(name),
               /*active=*/true, /*has_key=*/false};
  ++live_count_;
  acquire_aggregates(s);
  return id;
}

void FlowTable::reclaim(FlowId id) {
  FlowSpec& s = live_ref(id);
  const bool was_active = s.active;
  if (s.has_key) unbind_key(s.key);
  s.id = kInvalidFlow;  // dead-slot marker
  s.active = false;
  s.has_key = false;
  s.name.clear();
  // Release only after the slot is marked dead: release_aggregates may
  // trigger the periodic exact rebuild, which must not see this slot as a
  // live contributor (it would silently re-add the departing weight).
  if (was_active) release_aggregates(s);
  --live_count_;
  free_list_.push_back(id);
}

void FlowTable::set_active(FlowId id, bool active) {
  FlowSpec& s = live_ref(id);
  if (s.active == active) return;
  s.active = active;
  if (active) acquire_aggregates(s);
  else release_aggregates(s);
}

void FlowTable::acquire_aggregates(const FlowSpec& s) {
  total_weight_ += s.weight;
  total_max_packet_bits_ += s.max_packet_bits;
  maybe_rebuild_aggregates();
}

void FlowTable::release_aggregates(const FlowSpec& s) {
  total_weight_ -= s.weight;
  total_max_packet_bits_ -= s.max_packet_bits;
  maybe_rebuild_aggregates();
}

void FlowTable::maybe_rebuild_aggregates() {
  if (++aggregate_ops_ >= slots_.size() + 64) rebuild_aggregates();
}

void FlowTable::rebuild_aggregates() {
  aggregate_ops_ = 0;
  double w = 0.0, l = 0.0;
  for (const FlowSpec& s : slots_) {
    if (s.active) {
      w += s.weight;
      l += s.max_packet_bits;
    }
  }
  total_weight_ = w;
  total_max_packet_bits_ = l;
}

// SplitMix64 avalanches arbitrary 64-bit keys across the power-of-two table.
std::size_t FlowTable::probe_start(uint64_t key) const {
  return static_cast<std::size_t>(splitmix64(key)) & (keys_.size() - 1);
}

void FlowTable::bind_key(uint64_t key, FlowId id) {
  FlowSpec& s = live_ref(id);
  if (s.has_key)
    throw std::invalid_argument("FlowTable::bind_key: flow already has a key");
  if (keys_.empty() || (keys_used_ + 1) * 2 > keys_.size())
    rehash_keys(keys_.empty() ? 16 : keys_.size() * 2);
  std::size_t i = probe_start(key);
  while (keys_[i].id != kInvalidFlow) {
    if (keys_[i].key == key)
      throw std::invalid_argument("FlowTable::bind_key: duplicate key");
    i = (i + 1) & (keys_.size() - 1);
  }
  keys_[i] = KeyEntry{key, id};
  ++keys_used_;
  s.key = key;
  s.has_key = true;
}

FlowId FlowTable::find(uint64_t key) const {
  if (keys_.empty()) return kInvalidFlow;
  std::size_t i = probe_start(key);
  while (keys_[i].id != kInvalidFlow) {
    if (keys_[i].key == key) return keys_[i].id;
    i = (i + 1) & (keys_.size() - 1);
  }
  return kInvalidFlow;
}

void FlowTable::unbind_key(uint64_t key) {
  if (keys_.empty()) return;
  std::size_t i = probe_start(key);
  while (keys_[i].id != kInvalidFlow) {
    if (keys_[i].key == key) break;
    i = (i + 1) & (keys_.size() - 1);
  }
  if (keys_[i].id == kInvalidFlow) return;  // not bound (defensive)
  keys_[i].id = kInvalidFlow;
  --keys_used_;
  // Backward-shift deletion keeps probe chains contiguous without
  // tombstones (no load-factor rot under sustained churn).
  std::size_t hole = i;
  std::size_t j = (i + 1) & (keys_.size() - 1);
  while (keys_[j].id != kInvalidFlow) {
    const std::size_t home = probe_start(keys_[j].key);
    // Move j into the hole unless j's home lies strictly after the hole on
    // the (cyclic) probe path — the standard Robin-Hood backshift test.
    const bool reachable =
        hole <= j ? (home <= hole || home > j) : (home <= hole && home > j);
    if (reachable) {
      keys_[hole] = keys_[j];
      keys_[j].id = kInvalidFlow;
      hole = j;
    }
    j = (j + 1) & (keys_.size() - 1);
  }
}

void FlowTable::rehash_keys(std::size_t capacity) {
  std::vector<KeyEntry> old = std::move(keys_);
  keys_.assign(capacity, KeyEntry{});
  for (const KeyEntry& e : old) {
    if (e.id == kInvalidFlow) continue;
    std::size_t i = probe_start(e.key);
    while (keys_[i].id != kInvalidFlow) i = (i + 1) & (keys_.size() - 1);
    keys_[i] = e;
  }
}

void FlowTable::reserve(std::size_t n) {
  slots_.reserve(n);
  free_list_.reserve(n);
  std::size_t cap = 16;
  while (cap < n * 2) cap <<= 1;
  if (cap > keys_.size()) rehash_keys(cap);
}

}  // namespace sfq
