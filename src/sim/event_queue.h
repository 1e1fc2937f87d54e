#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/indexed_heap.h"
#include "core/packet.h"
#include "core/types.h"

namespace sfq::sim {

using EventId = uint64_t;
inline constexpr EventId kInvalidEvent = 0;

struct Event;

// Recipient of typed events. Servers, traffic sources and the fault layer
// implement this so the simulator can dispatch per-packet work without a
// heap-allocating closure per event (docs/PERFORMANCE.md).
class EventTarget {
 public:
  // `ev` is mutable so the handler can move the packet payload out.
  virtual void on_event(Event& ev, Time now) = 0;

 protected:
  ~EventTarget() = default;  // targets are never owned through this interface
};

// What an event means. Typed ops cover the per-packet hot path (arrival,
// service completion, source emission) plus the fault layer's churn ops;
// kCallback is the general-purpose fallback for everything else (TCP timers,
// test fixtures) and is the only op that may heap-allocate.
enum class EventOp : uint8_t {
  kCallback = 0,     // run `fn`
  kArrival,          // `packet` arrives at `target` (multi-hop propagation)
  kServiceComplete,  // transmission of `packet` started at `t0` finishes now
  kSourceTick,       // source emission scheduled for `t0`, size `bits`
  kChurnLeave,       // remove `flow` from the target server
  kChurnJoin,        // rejoin `flow` at the target server
};

// One scheduled event. A small tagged struct rather than a closure: typed
// events carry their payload inline (the Packet is trivially copyable), so
// scheduling one costs a slab slot from the queue's free-list and nothing
// else. Kept trivially copyable on purpose — every slab store and heap pop
// is then a plain memcpy; kCallback closures live in a side slab keyed by
// `fn_slot` (EventQueue-internal, never set by clients).
struct Event {
  EventOp op = EventOp::kCallback;
  uint32_t aux = 0;              // per-target discriminator (priority band)
  FlowId flow = kInvalidFlow;    // churn ops
  EventTarget* target = nullptr; // typed ops
  Time t0 = 0.0;                 // service start / emission time
  double bits = 0.0;             // source emission size
  Packet packet{};               // arrival / service-complete payload
  uint32_t fn_slot = 0xffffffffu;  // kCallback closure slab index (internal)
};

static_assert(std::is_trivially_copyable_v<Event>,
              "Event moves must compile to memcpy; keep closures out of it");

// Time-ordered queue of events. Equal-time events fire in scheduling order
// (monotone sequence numbers), which keeps every simulation deterministic.
//
// Storage is a chunked slab with a free-list, ordered by an index-keyed
// 4-ary heap over the slab (core/indexed_heap.h): scheduling into a warm
// queue reuses a freed slot and touches no allocator, and the heap percolates
// 4-byte slot indices instead of fat closure-bearing entries. Chunks give
// slots stable addresses, so the dispatch loop can run an event in place
// (pop_in_place/finish_pop) without copying it out first — handlers may
// schedule freely while their own event is still being read.
//
// EventIds are generation-tagged slot references, so cancel() of an id that
// already fired (or was already cancelled) is a guaranteed no-op even after
// the slot has been reused — the lifetime bug class where a late cancel
// corrupted the live-event count is structurally impossible. Cancellation is
// eager: the event is unlinked from the heap and its payload (including any
// captured closure state) destroyed immediately, not retained until the
// entry would have drifted to the heap top.
class EventQueue {
 public:
  EventId schedule(Time when, Event ev);
  EventId schedule(Time when, std::function<void()> action);

  // Hot-path schedule variants that write the slab slot directly, touching
  // only the fields the op dispatches on — no zero-initialised Event temp,
  // no second copy. Stale fields from a slot's previous occupant are never
  // read (each op reads exactly what its scheduler wrote).
  EventId schedule_packet(Time when, EventOp op, EventTarget* target,
                          const Packet& p, Time t0 = 0.0, uint32_t aux = 0) {
    const uint32_t slot = acquire_slot();
    Event& ev = event_at(slot);
    ev.op = op;
    ev.aux = aux;
    ev.flow = p.flow;
    ev.target = target;
    ev.t0 = t0;
    ev.packet = p;
    heap_.push(slot, EventKey{when, next_seq_++});
    return make_id(slot, gens_[slot]);
  }
  EventId schedule_tick(Time when, EventTarget* target, double bits) {
    const uint32_t slot = acquire_slot();
    Event& ev = event_at(slot);
    ev.op = EventOp::kSourceTick;
    ev.target = target;
    ev.bits = bits;
    heap_.push(slot, EventKey{when, next_seq_++});
    return make_id(slot, gens_[slot]);
  }
  EventId schedule_flow(Time when, EventOp op, EventTarget* target,
                        FlowId flow) {
    const uint32_t slot = acquire_slot();
    Event& ev = event_at(slot);
    ev.op = op;
    ev.flow = flow;
    ev.target = target;
    heap_.push(slot, EventKey{when, next_seq_++});
    return make_id(slot, gens_[slot]);
  }

  void cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Fires the earliest event and returns its time; kTimeInfinity when the
  // queue is empty.
  Time run_one();

  // Removes and returns the earliest event without running it, so the caller
  // can update its clock before dispatching. For kCallback events the closure
  // is moved into `fn` (its side-slab slot is recycled before dispatch).
  struct Popped {
    Time when = 0.0;
    Event event;
    std::function<void()> fn;
  };
  bool pop(Popped& out) {
    if (heap_.empty()) return false;
    const uint32_t slot = heap_.top_id();
    out.when = heap_.top_key().when;
    heap_.pop();
    Event& ev = event_at(slot);
    out.event = ev;
    if (ev.op == EventOp::kCallback) [[unlikely]]
      out.fn = detach_callback(ev);
    release_slot(slot);
    return true;
  }

  // Zero-copy dispatch protocol for the simulator's run loop: pop_in_place
  // unlinks the earliest event from the heap and returns its slot; the event
  // stays valid at event_at(slot) — chunk storage never relocates — until
  // finish_pop(slot) recycles it. The handler may schedule new events in
  // between (they take other slots). Precondition: !empty().
  uint32_t pop_in_place(Time& when) {
    const uint32_t slot = heap_.top_id();
    when = heap_.top_key().when;
    heap_.pop();
    return slot;
  }
  Event& event_at(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  void finish_pop(uint32_t slot) { release_slot(slot); }
  // Moves a kCallback event's closure out and recycles its side-slab slot.
  std::function<void()> detach_callback(Event& ev) {
    std::function<void()> fn = std::move(fns_[ev.fn_slot]);
    release_fn_slot(ev.fn_slot);
    return fn;
  }

  Time next_time() const {
    return heap_.empty() ? kTimeInfinity : heap_.top_key().when;
  }

  // Slab high-water mark (slots ever allocated), for the steady-state
  // allocation tests: a warmed queue stops growing.
  std::size_t slab_slots() const { return slot_count_; }

 private:
  struct EventKey {
    Time when = 0.0;
    uint64_t seq = 0;
    friend bool operator<(const EventKey& a, const EventKey& b) {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
  };
  static constexpr uint32_t kNilSlot = 0xffffffffu;
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  uint32_t acquire_slot();
  void release_slot(uint32_t slot) {
    ++gens_[slot];  // ids referring to the old occupant stop validating
    next_free_[slot] = free_head_;
    free_head_ = slot;
  }
  static EventId make_id(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }

  uint32_t acquire_fn_slot(std::function<void()> fn);
  void release_fn_slot(uint32_t slot);

  // Slot storage in fixed chunks (stable addresses; see pop_in_place), with
  // generation and free-list bookkeeping in flat side arrays so the Event
  // stride stays a power of two.
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<uint32_t> gens_;
  std::vector<uint32_t> next_free_;
  uint32_t slot_count_ = 0;
  uint32_t free_head_ = kNilSlot;
  IndexedHeap<EventKey, 4> heap_;  // keyed by slot index
  uint64_t next_seq_ = 0;
  // kCallback closures, parallel free-listed slab (kept out of Event so the
  // Event slab stays trivially copyable).
  std::vector<std::function<void()>> fns_;
  std::vector<uint32_t> fn_free_;
};

}  // namespace sfq::sim
