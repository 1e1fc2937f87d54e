#include "rt/ingress.h"

#include <stdexcept>

namespace sfq::rt {

Ingress::Ingress(std::size_t producers, std::size_t ring_capacity) {
  if (producers == 0) throw std::invalid_argument("Ingress: producers == 0");
  if (ring_capacity < 2)
    throw std::invalid_argument("Ingress: ring_capacity < 2");
  shards_.reserve(producers);
  for (std::size_t i = 0; i < producers; ++i)
    shards_.push_back(std::make_unique<Shard>(ring_capacity));
}

bool Ingress::push(std::size_t i, const Packet& p, Time now,
                   bool count_full) {
  Shard& s = *shards_[i];
  if (!s.ring.try_push(IngressSlot::of(p, now))) {
    if (count_full) s.drops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  s.pushed.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Ingress::count_drop(std::size_t i) {
  shards_[i]->drops.fetch_add(1, std::memory_order_relaxed);
}

const IngressSlot* Ingress::peek_earliest(std::size_t& ring) {
  const IngressSlot* best = nullptr;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const IngressSlot* head = shards_[i]->ring.front();
    // Strict: an equal stamp on a later ring never displaces an earlier one.
    if (head && (!best || head->arrival < best->arrival)) {
      best = head;
      ring = i;
    }
  }
  return best;
}

void Ingress::release() {
  for (auto& shard : shards_) shard->ring.release();
}

uint64_t Ingress::discard_all() {
  uint64_t n = 0;
  for (auto& shard : shards_)
    while (shard->ring.front()) {  // a null front() has released the ring
      shard->ring.pop();
      ++n;
    }
  return n;
}

bool Ingress::empty() const {
  for (const auto& shard : shards_)
    if (!shard->ring.empty()) return false;
  return true;
}

uint64_t Ingress::pushed(std::size_t i) const {
  return shards_[i]->pushed.load(std::memory_order_relaxed);
}

uint64_t Ingress::drops(std::size_t i) const {
  return shards_[i]->drops.load(std::memory_order_relaxed);
}

uint64_t Ingress::total_pushed() const {
  uint64_t n = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) n += pushed(i);
  return n;
}

uint64_t Ingress::total_drops() const {
  uint64_t n = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) n += drops(i);
  return n;
}

}  // namespace sfq::rt
