#include "sim/event_queue.h"

#include <utility>

namespace sfq::sim {

uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const uint32_t slot = free_head_;
    free_head_ = links_[slot].next;
    return slot;
  }
  const uint32_t slot = slot_count_++;
  if ((slot & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Event[]>(kChunkSize));
    // Either heap may come to hold every slot (all events at one instant,
    // or all far out): size both with the slab, so that once the slab is
    // warm no tier allocates.
    near_.reserve(slot + kChunkSize);
    far_.reserve(slot + kChunkSize);
  }
  gens_.push_back(0);
  links_.push_back(Link{0.0, 0, kOffWheel, kNilSlot});
  return slot;
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

EventId EventQueue::schedule(Time when, Event ev) {
  const uint32_t slot = acquire_slot();
  event_at(slot) = ev;
  return insert(slot, when);
}

EventId EventQueue::schedule(Time when, std::function<void()> action) {
  Event ev;
  ev.op = EventOp::kCallback;
  ev.fn_slot = acquire_fn_slot(std::move(action));
  return schedule(when, ev);
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
  } else if (links_[slot].prev != kOffWheel) {
    unlink(slot);
  } else {
    return;  // popped in place and still dispatching; finish_pop recycles it
  }
  --size_;
  // Eager: unlink from the tier AND destroy any captured closure state now,
  // not when the event would have come due.
  if (event_at(slot).op == EventOp::kCallback)
    release_fn_slot(event_at(slot).fn_slot);
  release_slot(slot);
}

// A wheel slot's bucket follows from its tick and the cursor: advance()
// moves the cursor only across emptied buckets, so the placement rule that
// filed the slot still names its bucket.
void EventQueue::unlink(uint32_t slot) {
  Link& l = links_[slot];
  const uint64_t t = tick_of(l.when);
  const bool in_l0 = (t >> kBucketBits) == (cur_ >> kBucketBits);
  Wheel& w = in_l0 ? l0_ : l1_;
  const uint32_t b = static_cast<uint32_t>(
      (in_l0 ? t : t >> kBucketBits) & kBucketMask);
  if (l.prev != kNilSlot) links_[l.prev].next = l.next;
  else w.head[b] = l.next;
  if (l.next != kNilSlot) links_[l.next].prev = l.prev;
  if (l.prev == kNilSlot && l.next == kNilSlot) w.unmark(b);
  l.prev = kOffWheel;
}

// Refiles a detached bucket list against the (just moved) cursor.
void EventQueue::refile(uint32_t s) {
  while (s != kNilSlot) {
    Link& l = links_[s];
    const uint32_t next = l.next;
    l.prev = kOffWheel;
    place(s, EventKey{l.when, l.seq});
    s = next;
  }
}

// Refills the dry near heap from the next occupied tier. Precondition:
// !empty() and near_ empty. The cursor only moves forward, and only past
// ticks no live event holds.
void EventQueue::advance() {
  if (l0_.empty()) {
    if (!l1_.empty()) {
      // The next occupied block: the cursor moves to its first tick, and
      // the bucket's events turn near (at that tick) or move to L0.
      const uint32_t j = l1_.first();
      cur_ = ((cur_ >> kBlockBits) << kBlockBits) |
             (static_cast<uint64_t>(j) << kBucketBits);
      l1_.unmark(j);
      refile(l1_.head[j]);
    } else {
      // Only the far heap holds events: the cursor jumps to the earliest
      // one's tick and that tick's whole kBuckets^2-tick block is refiled.
      cur_ = tick_of(far_.top_key().when);
      const uint64_t block = cur_ >> kBlockBits;
      while (!far_.empty() &&
             (tick_of(far_.top_key().when) >> kBlockBits) == block) {
        const uint32_t s = far_.top_id();
        const EventKey key = far_.top_key();
        far_.pop();
        place(s, key);
      }
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

Time EventQueue::run_one() {
  Popped p;
  if (!pop(p)) return kTimeInfinity;
  if (p.event.op == EventOp::kCallback)
    p.fn();
  else
    p.event.target->on_event(p.event, p.when);
  return p.when;
}

}  // namespace sfq::sim
