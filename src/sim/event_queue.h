#pragma once

#include <bit>
#include <cassert>
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
// heap-allocating closure per event (docs/PERFORMANCE.md). A kArrival or
// kServiceComplete handler reads its packet through Simulator::packet(ev),
// valid until the handler returns.
class EventTarget {
 public:
  virtual void on_event(const Event& ev, Time now) = 0;

 protected:
  ~EventTarget() = default;  // targets are never owned through this interface
};

// What an event means. Typed ops cover the per-packet hot path (arrival,
// service completion, source emission) plus the fault layer's churn ops;
// kCallback is the general-purpose fallback for everything else (TCP timers,
// test fixtures) and is the only op that may heap-allocate.
enum class EventOp : uint8_t {
  kCallback = 0,     // run the closure
  kArrival,          // the packet arrives at `target` (multi-hop propagation)
  kServiceComplete,  // transmission of the packet started at `t0` finishes now
  kSourceTick,       // source emission scheduled for `t0`, size `bits`
  kChurnLeave,       // remove `flow` from the target server
  kChurnJoin,        // rejoin `flow` at the target server
};

constexpr bool carries_packet(EventOp op) {
  return op == EventOp::kArrival || op == EventOp::kServiceComplete;
}

// One scheduled event. A small tagged struct rather than a closure, and
// trivially copyable on purpose: every slab store is a plain memcpy. The
// bulky payloads live in side slabs inside the queue, keyed by `payload`
// (EventQueue-internal, never set by clients): a kCallback's closure, and a
// kArrival's or kServiceComplete's Packet — only those two ops read one, so
// the other ops' events (most of a busy simulation's, the source ticks) do
// not carry its 88 bytes.
struct Event {
  EventOp op = EventOp::kCallback;
  uint32_t aux = 0;              // per-target discriminator (priority band)
  FlowId flow = kInvalidFlow;    // churn ops
  uint32_t payload = 0;          // side-slab index (internal)
  EventTarget* target = nullptr; // typed ops
  Time t0 = 0.0;                 // service start / emission time
  double bits = 0.0;             // source emission size
};

static_assert(std::is_trivially_copyable_v<Event>,
              "Event moves must compile to memcpy; keep closures out of it");
static_assert(sizeof(Event) == 40,
              "with the 24-byte key and links an event fills one cache line");

// Time-ordered queue of events. Equal-time events fire in scheduling order
// (monotone sequence numbers), which keeps every simulation deterministic:
// the pop order is exactly (time, seq).
//
// Storage is a chunked slab of 64-byte slots with a free-list: scheduling
// into a warm queue reuses a freed slot and touches no allocator. A slot
// holds an event and its wheel key and links, one cache line for both the
// cascade and the dispatch. Chunks give slots stable addresses, so the
// dispatch loop runs an event in place (pop_in_place/dispatch) without
// copying it out first — handlers may schedule freely while their own
// event, and its packet in the packet slab (chunked the same way), is still
// being read.
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
//     kBuckets-tick block; L1 is a hashed wheel over the kBuckets - 1
//     blocks after cur_'s (bucket = block mod kBuckets), so it slides with
//     the cursor. Buckets are intrusive doubly-linked slot lists with
//     occupancy bitmaps, so scheduling and cancelling are O(1);
//   * the far heap, exact like the near heap, holds everything beyond
//     (including +inf and times too large to tick).
// Every wheel and far event is strictly later than every near event, and
// every far event later than every wheel event, so popping the near heap's
// top is popping the global minimum. When the near heap runs dry, advance()
// moves the cursor to the next occupied L0 bucket, else cascades the next
// occupied L1 bucket into L0, else jumps to the far heap's top; whenever the
// cursor enters a new block, far events that the slid window now covers
// move into the wheel. The tick width and bucket count affect speed only,
// never order, so they are constants.
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
  EventId schedule(Time when, std::function<void()> action);

  // Hot-path schedule variants that write the slab slot directly, touching
  // only the fields the op dispatches on — no zero-initialised Event temp,
  // no second copy. Stale fields from a slot's previous occupant are never
  // read (each op reads exactly what its scheduler wrote). An op that does
  // not fit the variant throws std::invalid_argument before anything is
  // taken: the payload a slot releases follows from its op alone.
  EventId schedule_packet(Time when, EventOp op, EventTarget* target,
                          const Packet& p, Time t0 = 0.0, uint32_t aux = 0) {
    if (!carries_packet(op)) [[unlikely]]
      throw_wrong_op();
    const uint32_t slot = acquire_slot();
    Event& ev = event_at(slot);
    ev.op = op;
    ev.aux = aux;
    ev.payload = acquire_packet(p);
    ev.target = target;
    ev.t0 = t0;
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
    if (op != EventOp::kChurnLeave && op != EventOp::kChurnJoin) [[unlikely]]
      throw_wrong_op();
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
  Time run_one() {
    if (empty()) return kTimeInfinity;
    Time when;
    const uint32_t slot = pop_in_place(when);
    dispatch(slot, when);
    return when;
  }

  // Zero-copy dispatch protocol for the simulator's run loop: pop_in_place
  // unlinks the earliest event from the queue and returns its slot, so the
  // caller can update its clock; dispatch(slot, now) then runs the event in
  // place and recycles its slot and payload. The handler may schedule new
  // events meanwhile (they take other slots). Precondition: !empty().
  uint32_t pop_in_place(Time& when) {
    if (near_.empty()) advance();
    const uint32_t slot = near_.top_id();
    when = near_.top_key().when;
    near_.pop();
    --size_;
    return slot;
  }
  void dispatch(uint32_t slot, Time now) {
    const Event& ev = event_at(slot);
    if (ev.op == EventOp::kCallback) [[unlikely]] {
      std::function<void()> fn = std::move(fns_[ev.payload]);
      finish_pop(slot);
      fn();  // may outlive the slot; the closure is already moved out
    } else {
      ev.target->on_event(ev, now);
      finish_pop(slot);
    }
  }

  // The packet of a kArrival or kServiceComplete event that is pending or
  // dispatching.
  const Packet& packet(const Event& ev) const { return packet_at(ev.payload); }

  // Time of the earliest event; kTimeInfinity when empty. Not const: it
  // advances the cursor when the near heap is dry.
  Time next_time() {
    if (empty()) return kTimeInfinity;
    if (near_.empty()) advance();
    return near_.top_key().when;
  }

  // Slab high-water marks (slots ever allocated) of the event slab and the
  // packet slab, for the steady-state allocation tests: a warmed queue stops
  // growing.
  std::size_t slab_slots() const { return slot_count_; }
  std::size_t packet_slots() const { return packet_count_; }

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
  static constexpr uint32_t kOffWheel = 0xfffffffeu;
  // One event with its wheel key and bucket links, one cache line. `prev` is
  // kOffWheel for a slot that is in no wheel bucket; `next` doubles as the
  // free-list link of a free slot. The key is only read back for wheel
  // slots (the heaps keep their own).
  struct alignas(64) Slot {
    Time when = 0.0;
    uint64_t seq = 0;
    uint32_t prev = kOffWheel;
    uint32_t next = kNilSlot;
    Event event;
  };
  static_assert(sizeof(Slot) == 64, "one cache line per pending event");
  static_assert(alignof(Slot) == 64, "slots must not straddle cache lines");
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  static constexpr double kTicksPerSecond = 1e6;   // 1 us ticks
  static constexpr uint32_t kBucketBits = 12;      // 4096 buckets per level
  static constexpr uint32_t kBuckets = 1u << kBucketBits;
  static constexpr uint64_t kBucketMask = kBuckets - 1;
  static constexpr uint64_t kFarTick = ~uint64_t{0};

  // Monotone in `when`: negative times tick 0; +inf and times past 2^62
  // ticks share kFarTick, which only the far heap (or a cursor that has
  // reached it) holds. NaN is not a time (Simulator rejects it): it has no
  // place in the (when, seq) order.
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
    // The first occupied bucket at or after `b`, wrapping past the last.
    // Precondition: !empty().
    uint32_t first_from(uint32_t b) const {
      const uint32_t w = b >> 6;
      const uint64_t here = words[w] & (~uint64_t{0} << (b & 63));
      if (here != 0)
        return (w << 6) | static_cast<uint32_t>(std::countr_zero(here));
      const uint64_t later =
          w + 1 < 64 ? summary & (~uint64_t{0} << (w + 1)) : 0;
      if (later == 0) return first();
      const uint32_t v = static_cast<uint32_t>(std::countr_zero(later));
      return (v << 6) | static_cast<uint32_t>(std::countr_zero(words[v]));
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

  Slot& slot_at(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  Event& event_at(uint32_t slot) { return slot_at(slot).event; }
  const Packet& packet_at(uint32_t i) const {
    return packet_chunks_[i >> kChunkShift][i & kChunkMask];
  }
  Packet& packet_at(uint32_t i) {
    return packet_chunks_[i >> kChunkShift][i & kChunkMask];
  }

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
      return;
    }
    const uint64_t ahead = (t >> kBucketBits) - (cur_ >> kBucketBits);
    if (ahead == 0)
      link(l0_, static_cast<uint32_t>(t & kBucketMask), slot, key);
    else if (ahead < kBuckets)
      link(l1_, static_cast<uint32_t>((t >> kBucketBits) & kBucketMask), slot,
           key);
    else
      far_.push(slot, key);
  }
  void link(Wheel& w, uint32_t b, uint32_t slot, const EventKey& key) {
    Slot& s = slot_at(slot);
    s.when = key.when;
    s.seq = key.seq;
    s.prev = kNilSlot;
    if (w.occupied(b)) {
      s.next = w.head[b];
      slot_at(s.next).prev = slot;
    } else {
      s.next = kNilSlot;
      w.mark(b);
    }
    w.head[b] = slot;
  }
  void unlink(uint32_t slot);
  void refile(uint32_t head);
  void advance();
  [[noreturn]] static void throw_wrong_op();

  uint32_t acquire_slot();
  void release_slot(uint32_t slot) {
    ++gens_[slot];  // ids referring to the old occupant stop validating
    slot_at(slot).next = free_head_;
    free_head_ = slot;
  }
  // Recycles a popped slot and whatever payload it still holds.
  void finish_pop(uint32_t slot) {
    release_payload(event_at(slot));
    release_slot(slot);
  }
  void release_payload(const Event& ev) {
    if (ev.op == EventOp::kCallback) [[unlikely]]
      release_fn_slot(ev.payload);
    else if (carries_packet(ev.op))
      release_packet(ev.payload);
  }
  static EventId make_id(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }

  uint32_t acquire_fn_slot(std::function<void()> fn);
  void release_fn_slot(uint32_t slot);
  uint32_t acquire_packet(const Packet& p);
  // A free packet slot's `flow` holds the packet free-list link.
  void release_packet(uint32_t i) {
    packet_at(i).flow = packet_free_;
    packet_free_ = i;
  }

  // Slot storage in fixed chunks (stable addresses; see pop_in_place), with
  // the generations in a flat side array.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> gens_;
  uint32_t slot_count_ = 0;
  uint32_t free_head_ = kNilSlot;
  std::size_t size_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t cur_ = 0;  // the cursor tick (see the class comment)
  IndexedHeap<EventKey, 4> near_;  // tick <= cur_, keyed by slot index
  IndexedHeap<EventKey, 4> far_;   // beyond L1's window
  Wheel l0_;
  Wheel l1_;
  // kArrival/kServiceComplete packets, chunked like the event slots (a
  // handler reads its packet in place while it schedules others) with an
  // intrusive free-list.
  std::vector<std::unique_ptr<Packet[]>> packet_chunks_;
  uint32_t packet_count_ = 0;
  uint32_t packet_free_ = kNilSlot;
  // kCallback closures, parallel free-listed slab (kept out of Event so the
  // Event slab stays trivially copyable).
  std::vector<std::function<void()>> fns_;
  std::vector<uint32_t> fn_free_;
};

}  // namespace sfq::sim
