#include "sim/event_queue.h"

#include <stdexcept>
#include <utility>

namespace sfq::sim {

void EventQueue::throw_wrong_op() {
  throw std::invalid_argument("EventQueue: op does not fit this schedule call");
}

uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const uint32_t slot = free_head_;
    free_head_ = slot_at(slot).next;
    return slot;
  }
  const uint32_t slot = slot_count_++;
  if ((slot & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    // Either heap may come to hold every slot (all events at one instant,
    // or all far out): size both with the slab, so that once the slab is
    // warm no tier allocates.
    near_.reserve(slot + kChunkSize);
    far_.reserve(slot + kChunkSize);
  }
  gens_.push_back(0);
  return slot;
}

uint32_t EventQueue::acquire_packet(const Packet& p) {
  uint32_t i = packet_free_;
  if (i != kNilSlot) {
    packet_free_ = packet_at(i).flow;
  } else {
    i = packet_count_++;
    if ((i & kChunkMask) == 0)
      packet_chunks_.push_back(std::make_unique<Packet[]>(kChunkSize));
  }
  packet_at(i) = p;
  return i;
}

uint32_t EventQueue::acquire_fn_slot(std::function<void()> fn) {
  if (!fn_free_.empty()) {
    const uint32_t slot = fn_free_.back();
    fn_free_.pop_back();
    fns_[slot] = std::move(fn);
    return slot;
  }
  fns_.push_back(std::move(fn));
  return static_cast<uint32_t>(fns_.size() - 1);
}

void EventQueue::release_fn_slot(uint32_t slot) {
  fns_[slot] = nullptr;  // destroy captured state now, not lazily
  fn_free_.push_back(slot);
}

EventId EventQueue::schedule(Time when, std::function<void()> action) {
  const uint32_t payload = acquire_fn_slot(std::move(action));
  const uint32_t slot = acquire_slot();
  Event& ev = event_at(slot);
  ev.op = EventOp::kCallback;
  ev.payload = payload;
  return insert(slot, when);
}

void EventQueue::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu) - 1;
  if (slot >= slot_count_) return;
  // Generation mismatch => the referenced event already fired or was already
  // cancelled (the slot may even hold a newer event). Guaranteed no-op.
  if (gens_[slot] != static_cast<uint32_t>(id >> 32)) return;
  if (near_.contains(slot)) {
    near_.erase(slot);
  } else if (far_.contains(slot)) {
    far_.erase(slot);
  } else if (slot_at(slot).prev != kOffWheel) {
    unlink(slot);
  } else {
    return;  // popped in place and still dispatching; dispatch recycles it
  }
  --size_;
  // Eager: unlink from the tier AND destroy the payload (captured closure
  // state, the packet) now, not when the event would have come due.
  finish_pop(slot);
}

// A wheel slot's bucket follows from its tick and the cursor: the cursor
// enters an L1 block only by cascading that block's bucket, and leaves a
// block only once L0 is empty, so the placement rule that filed the slot
// still names its bucket.
void EventQueue::unlink(uint32_t slot) {
  Slot& s = slot_at(slot);
  const uint64_t t = tick_of(s.when);
  const bool in_l0 = (t >> kBucketBits) == (cur_ >> kBucketBits);
  Wheel& w = in_l0 ? l0_ : l1_;
  const uint32_t b = static_cast<uint32_t>(
      (in_l0 ? t : t >> kBucketBits) & kBucketMask);
  if (s.prev != kNilSlot) slot_at(s.prev).next = s.next;
  else w.head[b] = s.next;
  if (s.next != kNilSlot) slot_at(s.next).prev = s.prev;
  if (s.prev == kNilSlot && s.next == kNilSlot) w.unmark(b);
  s.prev = kOffWheel;
}

// Refiles a detached bucket list against the (just moved) cursor.
void EventQueue::refile(uint32_t i) {
  while (i != kNilSlot) {
    Slot& s = slot_at(i);
    const uint32_t next = s.next;
    s.prev = kOffWheel;
    place(i, EventKey{s.when, s.seq});
    i = next;
  }
}

// Refills the dry near heap from the next occupied tier. Precondition:
// !empty() and near_ empty. The cursor only moves forward, and only past
// ticks no live event holds.
void EventQueue::advance() {
  if (l0_.empty()) {
    const uint64_t block = cur_ >> kBucketBits;
    if (!l1_.empty()) {
      // L1 holds the kBuckets - 1 blocks after the cursor's, hashed by
      // block mod kBuckets, so the first occupied bucket after the cursor's
      // own names the next occupied block. The cursor moves to its first
      // tick, and the bucket's events turn near (at that tick) or move to
      // L0.
      const uint32_t j = l1_.first_from(
          static_cast<uint32_t>((block + 1) & kBucketMask));
      cur_ = (block + ((j - block) & kBucketMask)) << kBucketBits;
      l1_.unmark(j);
      refile(l1_.head[j]);
    } else {
      // Only the far heap holds events: the cursor jumps to the earliest
      // one's tick.
      cur_ = tick_of(far_.top_key().when);
    }
    // The cursor is in a new block, so L1's window has slid: far events it
    // now covers move in. Far events lie beyond every wheel event, so the
    // cascaded bucket never shares a block with them.
    const uint64_t now_block = cur_ >> kBucketBits;
    while (!far_.empty() &&
           (tick_of(far_.top_key().when) >> kBucketBits) - now_block <
               kBuckets) {
      const uint32_t s = far_.top_id();
      const EventKey key = far_.top_key();
      far_.pop();
      place(s, key);
    }
    if (!near_.empty()) return;
  }
  // Every L0 tick is later than the cursor within its block, so the lowest
  // occupied bucket is the next tick: it becomes the cursor, and its whole
  // list turns near.
  const uint32_t b = l0_.first();
  cur_ = (cur_ & ~kBucketMask) | b;
  l0_.unmark(b);
  refile(l0_.head[b]);
}

}  // namespace sfq::sim
