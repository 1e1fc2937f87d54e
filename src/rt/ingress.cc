#include "rt/ingress.h"

#include <stdexcept>

namespace sfq::rt {

Ingress::Ingress(std::size_t producers, std::size_t ring_capacity) {
  if (producers == 0) throw std::invalid_argument("Ingress: producers == 0");
  if (ring_capacity < 2)
    throw std::invalid_argument("Ingress: ring_capacity < 2");
  rings_.reserve(producers);
  for (std::size_t i = 0; i < producers; ++i)
    rings_.push_back(std::make_unique<SpscRing<IngressSlot>>(ring_capacity));
}

const IngressSlot* Ingress::peek_earliest(std::size_t& ring) {
  const IngressSlot* best = nullptr;
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    const IngressSlot* head = rings_[i]->front();
    // Strict: an equal stamp on a later ring never displaces an earlier one.
    if (head && (!best || head->arrival < best->arrival)) {
      best = head;
      ring = i;
    }
  }
  return best;
}

void Ingress::release() {
  for (auto& r : rings_) r->release();
}

uint64_t Ingress::discard_all() {
  uint64_t n = 0;
  for (auto& r : rings_)
    while (r->front()) {  // a null front() has released the ring
      r->pop();
      ++n;
    }
  return n;
}

bool Ingress::empty() const {
  for (const auto& r : rings_)
    if (!r->empty()) return false;
  return true;
}

}  // namespace sfq::rt
