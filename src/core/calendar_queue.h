// Hierarchical calendar queue (timestamp wheel) over quantized start tags —
// the flow-scale replacement for the per-flow IndexedHeap in SFQ's hot path
// (ROADMAP item 2, docs/PERFORMANCE.md "The flow-scale core").
//
// The heap gives exact min-start-tag order at O(log Q) per operation with Q
// backlogged flows; at Q ~ 10^6 the log factor and the pointer-chasing sifts
// dominate the per-packet budget. SFQ only *needs* tags to be served in
// non-decreasing order up to a bounded perturbation to keep a Theorem-1-style
// fairness bound (the derivation lives next to the bound in
// docs/PERFORMANCE.md): quantize start tags into buckets of `quantum` virtual
// seconds and serve buckets in order, FIFO within a bucket, and every
// operation becomes O(1) amortized regardless of Q, at the cost of a
// documented extra fairness slack of 2*quantum.
//
// Structure: `kLevels` wheels of `kSlots` buckets each. A level-0 bucket
// covers exactly one quantized tick, so FIFO order inside it is FIFO within
// the quantization window; a level-k bucket covers kSlots^k ticks and is
// cascaded (redistributed into lower levels) when the cursor reaches it.
// Entries beyond the top level's horizon (kSlots^kLevels ticks past the
// cursor, i.e. differing from it above the top digit) go to a fallback
// min-heap; they are served straight from there when their tick undercuts the
// wheel minimum. Occupancy bitmaps make find-min a handful of word scans.
//
// Key contract (exactly what SFQ guarantees):
//   * push/update keys are monotone: no key may be below the key of the last
//     popped entry's bucket (SFQ: S = max(v, F_prev) >= v, and v is the tag
//     of the last dequeued packet). Violations are clamped to the cursor,
//     which is semantically a no-op for SFQ and asserted in debug builds.
//   * each id is present at most once (the flow's head packet).
//
// The interface mirrors IndexedHeap (push/update/erase/top_id/pop/contains)
// so SfqScheduler switches cores with a predictable branch.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/indexed_heap.h"

namespace sfq {

class CalendarQueue {
 public:
  static constexpr std::size_t kSlotBits = 8;
  static constexpr std::size_t kSlots = 1u << kSlotBits;  // 256 buckets/level
  static constexpr std::size_t kLevels = 4;               // 2^32-tick horizon
  static constexpr uint64_t kSlotMask = kSlots - 1;

  // `quantum` is the bucket width in virtual seconds (must be > 0); see
  // SfqOptions::wheel_quantum for how callers choose it.
  explicit CalendarQueue(double quantum) : quantum_(quantum) {
    if (!(quantum > 0.0))
      throw std::invalid_argument(
          "CalendarQueue: quantum must be positive and finite");
    for (auto& level : buckets_)
      for (Bucket& b : level) b = Bucket{};
  }

  double quantum() const { return quantum_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  bool contains(uint32_t id) const {
    return id < nodes_.size() && nodes_[id].where != Where::kAbsent;
  }

  // Pre-sizes the per-id stores so pushes up to id `n-1` never allocate
  // (the flow-scale bench's zero-steady-state-allocation gate).
  void reserve(std::size_t n) {
    nodes_.reserve(n);
    overflow_.reserve(n);
  }

  // Inserts id keyed by `tag`; id must not already be present. `floor_tag`
  // is the caller's promise: no future push/update key will ever be below
  // it (SFQ passes v(t) — every tag is S = max(v, F_prev) >= v, and v is
  // monotone in wheel mode). It only matters when the structure is empty:
  // the cursor re-anchors to the floor's tick, NOT to this key's tick —
  // this key may be far ahead of keys still to come (a flow whose F_prev
  // chain outran v), and anchoring on it would clamp those later, perfectly
  // legal keys to the wrong bucket, serving them up to arbitrarily late.
  void push(uint32_t id, double tag, double floor_tag) {
    assert(!contains(id));
    ensure(id);
    uint64_t tick = to_tick(tag);
    if (size_ == 0 && overflow_.empty()) {
      // Nothing live pins the cursor: re-anchor it so a large virtual-time
      // jump (end of a busy period) cannot push the first insert of the next
      // busy period into the overflow heap.
      const uint64_t floor_tick = to_tick(floor_tag);
      cur_ = floor_tick < tick ? floor_tick : tick;
    }
    // Monotone-insert contract (see header). Clamping to the cursor keeps a
    // (contract-violating) low key serviceable instead of stranding it.
    assert(tick + 1 >= cur_ + 1);  // tick >= cur_, robust to tick == 0
    if (tick < cur_) tick = cur_;
    Node& n = nodes_[id];
    n.tick = tick;
    place(id, n);
    ++size_;
  }
  void push(uint32_t id, double tag) { push(id, tag, tag); }

  // Re-keys a present id (keys only grow under SFQ: the next head packet of
  // a flow carries a later start tag).
  void update(uint32_t id, double tag, double floor_tag) {
    detach(id);
    --size_;
    push(id, tag, floor_tag);
  }
  void update(uint32_t id, double tag) { update(id, tag, tag); }

  void push_or_update(uint32_t id, double tag, double floor_tag) {
    if (contains(id)) update(id, tag, floor_tag);
    else push(id, tag, floor_tag);
  }
  void push_or_update(uint32_t id, double tag) {
    push_or_update(id, tag, tag);
  }

  void erase(uint32_t id) {
    detach(id);
    --size_;
  }

  // Id at the front of the earliest non-empty bucket (FIFO within the
  // bucket's quantization window). Amortized O(1): cascades charge each
  // entry at most kLevels re-placements over its lifetime.
  uint32_t top_id() {
    assert(!empty());
    settle_min();
    if (serve_overflow_) return overflow_.top_id();
    return buckets_[0][min_slot_].head;
  }

  void pop() {
    assert(!empty());
    settle_min();
    if (serve_overflow_) {
      const uint32_t id = overflow_.top_id();
      overflow_.pop();
      nodes_[id].where = Where::kAbsent;
      // The cursor does NOT advance to the overflow tick: wheel placements
      // are relative to the cursor, and overflow entries admitted long ago
      // may undercut wheel entries whose buckets would be misread after an
      // arbitrary cursor jump. Leaving it put keeps every placement valid
      // (the cursor only ever trails the live minimum).
    } else {
      const uint32_t id = buckets_[0][min_slot_].head;
      Node& n = nodes_[id];
      cur_ = n.tick;  // level-0 bucket == exactly this tick
      unlink(n, /*level=*/0, min_slot_);
      n.where = Where::kAbsent;
    }
    --size_;
    min_valid_ = false;
  }

  void clear() {
    for (Node& n : nodes_) n.where = Where::kAbsent;
    for (auto& level : buckets_)
      for (Bucket& b : level) b = Bucket{};
    for (auto& words : bitmap_)
      for (uint64_t& w : words) w = 0;
    overflow_.clear();
    size_ = 0;
    cur_ = 0;
    seq_ = 0;
    min_valid_ = false;
  }

  // Observability hooks for tests: the current cursor tick and how many
  // entries sit in the far-future fallback heap.
  uint64_t cursor_tick() const { return cur_; }
  std::size_t overflow_size() const { return overflow_.size(); }

 private:
  enum class Where : uint8_t { kAbsent, kWheel, kOverflow };

  struct Node {
    uint64_t tick = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
    uint8_t level = 0;
    Where where = Where::kAbsent;
    uint16_t slot = 0;
  };

  struct Bucket {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  // FIFO-deterministic far-future fallback: primary key is the tick, ties
  // resolve by admission order.
  struct OverflowKey {
    uint64_t tick = 0;
    uint64_t seq = 0;
    friend bool operator<(const OverflowKey& a, const OverflowKey& b) {
      if (a.tick != b.tick) return a.tick < b.tick;
      return a.seq < b.seq;
    }
  };

  static constexpr uint32_t kNil = static_cast<uint32_t>(-1);

  uint64_t to_tick(double tag) const {
    const double q = tag / quantum_;
    return q <= 0.0 ? 0 : static_cast<uint64_t>(q);
  }

  void ensure(uint32_t id) {
    if (id >= nodes_.size()) nodes_.resize(id + 1);
  }

  // Places id (with n.tick set) into the wheel level derived from the
  // highest digit in which its tick differs from the cursor, or into the
  // overflow heap when it differs above the top level.
  void place(uint32_t id, Node& n) {
    const uint64_t diff = n.tick ^ cur_;
    if (diff >> (kSlotBits * kLevels)) {
      n.where = Where::kOverflow;
      overflow_.push(id, OverflowKey{n.tick, ++seq_});
      return;
    }
    std::size_t level = 0;
    if (diff != 0) {
      const int high = 63 - std::countl_zero(diff);
      level = static_cast<std::size_t>(high) / kSlotBits;
    }
    const uint16_t slot =
        static_cast<uint16_t>((n.tick >> (kSlotBits * level)) & kSlotMask);
    n.where = Where::kWheel;
    n.level = static_cast<uint8_t>(level);
    n.slot = slot;
    n.prev = n.next = kNil;
    Bucket& b = buckets_[level][slot];
    if (b.tail == kNil) {
      b.head = b.tail = id;
      mark(level, slot);
    } else {
      nodes_[b.tail].next = id;
      n.prev = b.tail;
      b.tail = id;
    }
    min_valid_ = false;
  }

  void unlink(Node& n, std::size_t level, std::size_t slot) {
    Bucket& b = buckets_[level][slot];
    if (n.prev != kNil) nodes_[n.prev].next = n.next;
    else b.head = n.next;
    if (n.next != kNil) nodes_[n.next].prev = n.prev;
    else b.tail = n.prev;
    if (b.head == kNil) unmark(level, slot);
    n.prev = n.next = kNil;
  }

  void detach(uint32_t id) {
    assert(contains(id));
    Node& n = nodes_[id];
    if (n.where == Where::kOverflow) {
      overflow_.erase(id);
    } else {
      unlink(n, n.level, n.slot);
    }
    n.where = Where::kAbsent;
    min_valid_ = false;
  }

  void mark(std::size_t level, std::size_t slot) {
    bitmap_[level][slot >> 6] |= uint64_t{1} << (slot & 63);
  }
  void unmark(std::size_t level, std::size_t slot) {
    bitmap_[level][slot >> 6] &= ~(uint64_t{1} << (slot & 63));
  }

  // First occupied slot >= `from` at `level`, or kSlots when none (also for
  // from == kSlots: settle_min asks for the slots above a cursor digit of
  // kSlots - 1).
  std::size_t scan(std::size_t level, std::size_t from) const {
    if (from >= kSlots) return kSlots;
    std::size_t word = from >> 6;
    uint64_t bits = bitmap_[level][word] & (~uint64_t{0} << (from & 63));
    for (;;) {
      if (bits) return (word << 6) + std::countr_zero(bits);
      if (++word >= kSlots / 64) return kSlots;
      bits = bitmap_[level][word];
    }
  }

  // Resolves the current minimum: cascades higher-level buckets down until
  // the minimum sits in a level-0 bucket (or the overflow heap undercuts the
  // wheel). Caches the result until the structure changes.
  void settle_min() {
    if (min_valid_) return;
    for (;;) {
      // Level 0: within the cursor's page, slots >= the cursor's digit.
      const std::size_t s0 = scan(0, cur_ & kSlotMask);
      uint64_t wheel_tick = ~0ull;
      if (s0 < kSlots) {
        wheel_tick = (cur_ & ~kSlotMask) | s0;
        min_slot_ = s0;
      } else {
        // Find the lowest level holding a bucket at or above the cursor's
        // digit there (strictly above: equal digits live below that level).
        std::size_t level = 1;
        std::size_t slot = kSlots;
        for (; level < kLevels; ++level) {
          const std::size_t digit =
              (cur_ >> (kSlotBits * level)) & kSlotMask;
          slot = scan(level, digit + 1);
          if (slot < kSlots) break;
        }
        if (level < kLevels && slot < kSlots) {
          // Advance the cursor to the bucket's base tick (<= every entry in
          // it; levels below are empty, so nothing live is undercut), then
          // redistribute the bucket into lower levels and rescan.
          const uint64_t span = kSlotBits * level;
          const uint64_t prefix = cur_ >> (span + kSlotBits);
          cur_ = ((prefix << kSlotBits) | slot) << span;
          cascade(level, slot);
          continue;
        }
        // Wheel exhausted beyond the cursor: everything live is in the
        // overflow heap.
      }
      const bool have_overflow = !overflow_.empty();
      serve_overflow_ =
          have_overflow &&
          (s0 >= kSlots || overflow_.top_key().tick < wheel_tick);
      assert(serve_overflow_ || s0 < kSlots);
      min_valid_ = true;
      return;
    }
  }

  // Moves every entry of bucket (level, slot) into levels below, relative to
  // the (just advanced) cursor. Order within the list is preserved, so FIFO
  // within a quantization window is deterministic end to end.
  void cascade(std::size_t level, std::size_t slot) {
    Bucket& b = buckets_[level][slot];
    uint32_t id = b.head;
    b.head = b.tail = kNil;
    unmark(level, slot);
    while (id != kNil) {
      Node& n = nodes_[id];
      const uint32_t next = n.next;
      place(id, n);
      assert(n.where != Where::kWheel || n.level < level);
      id = next;
    }
  }

  double quantum_;
  std::vector<Node> nodes_;
  Bucket buckets_[kLevels][kSlots];
  uint64_t bitmap_[kLevels][kSlots / 64] = {};
  IndexedHeap<OverflowKey> overflow_;
  uint64_t cur_ = 0;   // tick of the last wheel pop (trails the live minimum)
  uint64_t seq_ = 0;   // overflow admission order
  std::size_t size_ = 0;
  // find-min cache, invalidated by any structural change.
  bool min_valid_ = false;
  bool serve_overflow_ = false;
  std::size_t min_slot_ = 0;
};

}  // namespace sfq
