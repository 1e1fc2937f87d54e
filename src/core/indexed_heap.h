// A d-ary min-heap over dense integer ids with position tracking, so a
// scheduler can keep each backlogged flow in the heap exactly once and update
// its key in O(log n) when the flow's head packet changes, and the event
// queue can cancel an arbitrary scheduled event in O(log n).
//
// Keys are compared with std::less<Key>; ties therefore resolve through the
// key type itself (schedulers embed an explicit tie-break component in Key).
//
// `Arity` selects the branching factor. The default (2) is the classic
// binary heap; the simulator's event queue uses 4, which shortens the tree
// by half and keeps four sibling keys in one cache line, a measurably better
// trade on pop-heavy workloads (docs/PERFORMANCE.md).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sfq {

template <typename Key, std::size_t Arity = 2>
class IndexedHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");
 public:
  // `capacity_hint` is the expected id universe; ids may exceed it (storage
  // grows on demand).
  explicit IndexedHeap(std::size_t capacity_hint = 0) { pos_.reserve(capacity_hint); }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Pre-sizes both the entry storage and the id->position index so that
  // pushes of ids < n never allocate (zero-alloc steady-state gates). Entry
  // storage grows geometrically, so a caller may raise n step by step.
  void reserve(std::size_t n) {
    if (n > heap_.capacity()) heap_.reserve(std::max(n, 2 * heap_.capacity()));
    if (n > pos_.size()) pos_.resize(n, kAbsent);
  }

  bool contains(uint32_t id) const {
    return id < pos_.size() && pos_[id] != kAbsent;
  }

  // Inserts id with key; id must not already be present.
  void push(uint32_t id, const Key& key) {
    assert(!contains(id));
    ensure(id);
    pos_[id] = static_cast<uint32_t>(heap_.size());
    heap_.push_back(Entry{key, id});
    sift_up(heap_.size() - 1);
  }

  // Replaces the key of a present id (may move either direction).
  void update(uint32_t id, const Key& key) {
    assert(contains(id));
    std::size_t i = pos_[id];
    heap_[i].key = key;
    if (!sift_up(i)) sift_down(i);
  }

  // Inserts or updates.
  void push_or_update(uint32_t id, const Key& key) {
    if (contains(id)) update(id, key); else push(id, key);
  }

  uint32_t top_id() const { assert(!empty()); return heap_[0].id; }
  const Key& top_key() const { assert(!empty()); return heap_[0].key; }

  // Dedicated root removal: the displaced tail can only sink, so this skips
  // erase()'s position lookup and upward probe.
  void pop() {
    assert(!empty());
    pos_[heap_[0].id] = kAbsent;
    if (heap_.size() > 1) {
      heap_[0] = heap_.back();
      heap_.pop_back();
      pos_[heap_[0].id] = 0;
      sift_down(0);
    } else {
      heap_.pop_back();
    }
  }

  void erase(uint32_t id) {
    assert(contains(id));
    std::size_t i = pos_[id];
    pos_[id] = kAbsent;
    if (i + 1 != heap_.size()) {
      heap_[i] = heap_.back();
      pos_[heap_[i].id] = static_cast<uint32_t>(i);
      heap_.pop_back();
      if (!sift_up(i)) sift_down(i);
    } else {
      heap_.pop_back();
    }
  }

  void clear() {
    for (const Entry& e : heap_) pos_[e.id] = kAbsent;
    heap_.clear();
  }

 private:
  struct Entry {
    Key key;
    uint32_t id;
  };
  // Positions are 32-bit like ids: the index costs 4 bytes per id.
  static constexpr uint32_t kAbsent = 0xffffffffu;

  void ensure(uint32_t id) {
    if (id >= pos_.size()) pos_.resize(id + 1, kAbsent);
  }

  // Both sifts move a hole instead of swapping: the displaced entry is held
  // in a local and written exactly once at its final position, halving the
  // entry and pos_ stores per level on the pop-heavy event-queue workload.
  bool sift_up(std::size_t i) {
    if (i == 0) return false;
    const Entry e = heap_[i];
    bool moved = false;
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!(e.key < heap_[parent].key)) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i].id] = static_cast<uint32_t>(i);
      i = parent;
      moved = true;
    }
    if (moved) {
      heap_[i] = e;
      pos_[e.id] = static_cast<uint32_t>(i);
    }
    return moved;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const Entry e = heap_[i];
    bool moved = false;
    for (;;) {
      const std::size_t first = Arity * i + 1;
      if (first >= n) break;
      const std::size_t last = first + Arity < n ? first + Arity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (heap_[c].key < heap_[best].key) best = c;
      if (!(heap_[best].key < e.key)) break;
      heap_[i] = heap_[best];
      pos_[heap_[i].id] = static_cast<uint32_t>(i);
      i = best;
      moved = true;
    }
    if (moved) {
      heap_[i] = e;
      pos_[e.id] = static_cast<uint32_t>(i);
    }
  }

  std::vector<Entry> heap_;
  std::vector<uint32_t> pos_;
};

// Common heap key for tag-based schedulers: primary tag, explicit tie-break
// value, then a monotone sequence number for full determinism.
struct TagKey {
  double tag = 0.0;
  double tiebreak = 0.0;
  uint64_t seq = 0;

  friend bool operator<(const TagKey& a, const TagKey& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    if (a.tiebreak != b.tiebreak) return a.tiebreak < b.tiebreak;
    return a.seq < b.seq;
  }
};

}  // namespace sfq
