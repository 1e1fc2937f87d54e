#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/packet.h"
#include "core/types.h"
#include "rt/spsc_ring.h"

namespace sfq::rt {

// Sharded multi-producer ingress: one bounded SPSC ring per producer thread,
// so the arrival path is lock-free end to end — producers never contend with
// each other, and the single dispatcher merges ring heads by ingress stamp.
//
// A ring slot is the Packet itself: push() stamps `packet.arrival` with the
// producer-side wall-clock reading, and that stamp is both the merge key and
// the packet's arrival time at the engine (queueing delay measured from here
// includes time spent in the ring, which is honest: the ring *is* part of
// the queue).
//
// Ordering note: a producer stamps, then pushes. Two packets stamped
// t1 < t2 on *different* producers can become visible to the dispatcher in
// either order, so the merge is best-effort arrival order (exact per
// producer, approximately global). That is sufficient: scheduler correctness
// only needs the dispatcher's own enqueue timestamps to be monotone, which
// they are (the dispatcher never enqueues at a time below the arrival stamp
// and only ever moves its clock reading forward).
//
// Backpressure: a full ring is a counted drop (or a spin, for producers that
// must not lose packets), never a block inside the scheduler — the same
// philosophy as PR 2's overload policies, applied one stage earlier.
class Ingress {
 public:
  Ingress(std::size_t producers, std::size_t ring_capacity);

  std::size_t producers() const { return shards_.size(); }
  std::size_t ring_capacity() const { return shards_[0]->ring.capacity(); }

  // Producer `i` only. Stamps `p.arrival` with `now` and pushes. False when
  // the ring is full; with `count_full` (the default) the drop has then
  // already been counted against shard i. Blocking producers retry with
  // count_full = false so one lost packet is not counted once per spin.
  bool push(std::size_t i, Packet p, Time now, bool count_full = true);

  // Producer `i` only: records a backpressure drop that happened outside the
  // ring (e.g. an offer rejected because the engine stopped accepting).
  void count_drop(std::size_t i);

  // Dispatcher only: the earliest-stamped head across all rings (ties to the
  // lowest producer index), read in place, with its ring's index in `ring`;
  // nullptr when every ring looked empty. The packet stays valid, and stays
  // the ring's head, until pop(ring).
  const Packet* peek_earliest(std::size_t& ring);

  // Dispatcher only: releases ring `ring`'s head. Precondition: the head was
  // just returned by peek_earliest.
  void pop(std::size_t ring) { shards_[ring]->ring.pop(); }

  // Dispatcher only: discards every item currently visible in every ring and
  // returns how many (the `abandoned` count of a stopping engine).
  uint64_t discard_all();

  // Dispatcher only: true when every ring looked empty in one pass. Racy by
  // nature (a producer may push concurrently); callers use it for idle/stop
  // decisions, not correctness.
  bool empty() const;

  // Any thread (relaxed counters).
  uint64_t pushed(std::size_t i) const;
  uint64_t drops(std::size_t i) const;
  uint64_t total_pushed() const;
  uint64_t total_drops() const;

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : ring(capacity) {}
    SpscRing<Packet> ring;
    alignas(kCacheLineBytes) std::atomic<uint64_t> pushed{0};
    std::atomic<uint64_t> drops{0};
  };
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sfq::rt
