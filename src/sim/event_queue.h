#pragma once

#include <bit>
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
  uint32_t fn_slot = 0xffffffffu;  // kCallback closure slab index (internal)
  EventTarget* target = nullptr; // typed ops
  Time t0 = 0.0;                 // service start / emission time
  double bits = 0.0;             // source emission size
  Packet packet{};               // arrival / service-complete payload
};

static_assert(std::is_trivially_copyable_v<Event>,
              "Event moves must compile to memcpy; keep closures out of it");
static_assert(sizeof(Event) == 128,
              "two cache lines, a power-of-two slab stride; the two 32-bit "
              "fields pair up ahead of the pointer");

// Time-ordered queue of events. Equal-time events fire in scheduling order
// (monotone sequence numbers), which keeps every simulation deterministic:
// the pop order is exactly (time, seq).
//
// Storage is a chunked slab with a free-list: scheduling into a warm queue
// reuses a freed slot and touches no allocator. Chunks give slots stable
// addresses, so the dispatch loop can run an event in place
// (pop_in_place/finish_pop) without copying it out first — handlers may
// schedule freely while their own event is still being read.
//
// Order is kept by three tiers over the slab, split by an event's tick,
// floor(when / 1 us), against the cursor `cur_` (the tick last popped, or
// the tick about to be; 0 at start):
//   * the near heap holds every event with tick <= cur_, ordered exactly by
//     (when, seq) — an index-keyed 4-ary heap (core/indexed_heap.h), small
//     because it only ever holds the current microsecond's events plus any
//     scheduled behind the cursor;
//   * a two-level timing wheel (Varghese & Lauck's hierarchical wheels):
//     L0 buckets hold single ticks later than cur_ within cur_'s
//     kBuckets-tick block, L1 buckets hold later kBuckets-tick blocks within
//     cur_'s kBuckets^2-tick block. Buckets are intrusive doubly-linked
//     slot lists with occupancy bitmaps, so scheduling and cancelling are
//     O(1);
//   * the far heap, exact like the near heap, holds everything beyond
//     (including +inf and times too large to tick).
// Every wheel and far event is strictly later than every near event, so
// popping the near heap's top is popping the global minimum. When the near
// heap runs dry, advance() moves the cursor to the next occupied L0 bucket,
// else cascades the next occupied L1 bucket into L0, else migrates the far
// heap's next kBuckets^2-tick block. The tick width and bucket count affect
// speed only, never order, so they are constants.
//
// EventIds are generation-tagged slot references, so cancel() of an id that
// already fired (or was already cancelled) is a guaranteed no-op even after
// the slot has been reused — the lifetime bug class where a late cancel
// corrupted the live-event count is structurally impossible. Cancellation is
// eager: the event is unlinked from its tier (O(1) in the wheel, an erase in
// a heap) and its payload (including any captured closure state) destroyed
// immediately.
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
    return insert(slot, when);
  }
  EventId schedule_tick(Time when, EventTarget* target, double bits) {
    const uint32_t slot = acquire_slot();
    Event& ev = event_at(slot);
    ev.op = EventOp::kSourceTick;
    ev.target = target;
    ev.bits = bits;
    return insert(slot, when);
  }
  EventId schedule_flow(Time when, EventOp op, EventTarget* target,
                        FlowId flow) {
    const uint32_t slot = acquire_slot();
    Event& ev = event_at(slot);
    ev.op = op;
    ev.flow = flow;
    ev.target = target;
    return insert(slot, when);
  }

  void cancel(EventId id);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

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
    if (empty()) return false;
    const uint32_t slot = pop_in_place(out.when);
    Event& ev = event_at(slot);
    out.event = ev;
    if (ev.op == EventOp::kCallback) [[unlikely]]
      out.fn = detach_callback(ev);
    release_slot(slot);
    return true;
  }

  // Zero-copy dispatch protocol for the simulator's run loop: pop_in_place
  // unlinks the earliest event from the queue and returns its slot; the event
  // stays valid at event_at(slot) — chunk storage never relocates — until
  // finish_pop(slot) recycles it. The handler may schedule new events in
  // between (they take other slots). Precondition: !empty().
  uint32_t pop_in_place(Time& when) {
    if (near_.empty()) advance();
    const uint32_t slot = near_.top_id();
    when = near_.top_key().when;
    near_.pop();
    --size_;
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

  // Time of the earliest event; kTimeInfinity when empty. Not const: it
  // advances the cursor when the near heap is dry.
  Time next_time() {
    if (empty()) return kTimeInfinity;
    if (near_.empty()) advance();
    return near_.top_key().when;
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
  // Per-slot key and bucket links. `prev` is kOffWheel for a slot that is in
  // no wheel bucket; `next` doubles as the free-list link of a free slot.
  // The key is only read back for wheel slots (the heaps keep their own).
  struct Link {
    Time when;
    uint64_t seq;
    uint32_t prev;
    uint32_t next;
  };
  static constexpr uint32_t kNilSlot = 0xffffffffu;
  static constexpr uint32_t kOffWheel = 0xfffffffeu;
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  static constexpr double kTicksPerSecond = 1e6;   // 1 us ticks
  static constexpr uint32_t kBucketBits = 12;      // 4096 buckets per level
  static constexpr uint32_t kBuckets = 1u << kBucketBits;
  static constexpr uint64_t kBucketMask = kBuckets - 1;
  static constexpr uint32_t kBlockBits = 2 * kBucketBits;  // L1's span, 2^24
  static constexpr uint64_t kFarTick = ~uint64_t{0};

  // Monotone in `when`: negative times tick 0; +inf, NaN and times past
  // 2^62 ticks share kFarTick, which only the far heap (or a cursor that
  // has reached it) holds.
  static uint64_t tick_of(Time when) {
    const double t = when * kTicksPerSecond;
    if (!(t < 0x1p62)) return kFarTick;
    return t > 0.0 ? static_cast<uint64_t>(t) : 0;
  }

  // One wheel level: bucket list heads plus a two-level occupancy bitmap
  // (one summary bit per 64-bucket word), so the first occupied bucket is
  // two count-trailing-zeros away. A head is only read while its bit is set.
  struct Wheel {
    uint64_t summary = 0;
    uint64_t words[kBuckets / 64] = {};
    uint32_t head[kBuckets] = {};

    bool empty() const { return summary == 0; }
    bool occupied(uint32_t b) const { return (words[b >> 6] >> (b & 63)) & 1; }
    uint32_t first() const {
      const uint32_t w = static_cast<uint32_t>(std::countr_zero(summary));
      return (w << 6) | static_cast<uint32_t>(std::countr_zero(words[w]));
    }
    void mark(uint32_t b) {
      words[b >> 6] |= uint64_t{1} << (b & 63);
      summary |= uint64_t{1} << (b >> 6);
    }
    void unmark(uint32_t b) {
      words[b >> 6] &= ~(uint64_t{1} << (b & 63));
      if (words[b >> 6] == 0) summary &= ~(uint64_t{1} << (b >> 6));
    }
  };

  EventId insert(uint32_t slot, Time when) {
    ++size_;
    place(slot, EventKey{when, next_seq_++});
    return make_id(slot, gens_[slot]);
  }
  // Files a slot into its tier relative to the cursor.
  void place(uint32_t slot, const EventKey& key) {
    const uint64_t t = tick_of(key.when);
    if (t <= cur_) {
      near_.push(slot, key);
    } else if ((t >> kBucketBits) == (cur_ >> kBucketBits)) {
      link(l0_, static_cast<uint32_t>(t & kBucketMask), slot, key);
    } else if ((t >> kBlockBits) == (cur_ >> kBlockBits)) {
      link(l1_, static_cast<uint32_t>((t >> kBucketBits) & kBucketMask), slot,
           key);
    } else {
      far_.push(slot, key);
    }
  }
  void link(Wheel& w, uint32_t b, uint32_t slot, const EventKey& key) {
    Link& l = links_[slot];
    l.when = key.when;
    l.seq = key.seq;
    l.prev = kNilSlot;
    if (w.occupied(b)) {
      l.next = w.head[b];
      links_[l.next].prev = slot;
    } else {
      l.next = kNilSlot;
      w.mark(b);
    }
    w.head[b] = slot;
  }
  void unlink(uint32_t slot);
  void refile(uint32_t head);
  void advance();

  uint32_t acquire_slot();
  void release_slot(uint32_t slot) {
    ++gens_[slot];  // ids referring to the old occupant stop validating
    links_[slot].next = free_head_;
    free_head_ = slot;
  }
  static EventId make_id(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }

  uint32_t acquire_fn_slot(std::function<void()> fn);
  void release_fn_slot(uint32_t slot);

  // Slot storage in fixed chunks (stable addresses; see pop_in_place), with
  // generations and links in flat side arrays so the Event stride stays a
  // power of two.
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<uint32_t> gens_;
  std::vector<Link> links_;
  uint32_t slot_count_ = 0;
  uint32_t free_head_ = kNilSlot;
  std::size_t size_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t cur_ = 0;  // the cursor tick (see the class comment)
  IndexedHeap<EventKey, 4> near_;  // tick <= cur_, keyed by slot index
  IndexedHeap<EventKey, 4> far_;   // beyond cur_'s L1 block
  Wheel l0_;
  Wheel l1_;
  // kCallback closures, parallel free-listed slab (kept out of Event so the
  // Event slab stays trivially copyable).
  std::vector<std::function<void()>> fns_;
  std::vector<uint32_t> fn_free_;
};

}  // namespace sfq::sim
