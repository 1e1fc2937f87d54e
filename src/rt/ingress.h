#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/packet.h"
#include "core/types.h"
#include "rt/spsc_ring.h"

namespace sfq::rt {

// One arrival as it crosses an ingress ring: the Packet fields the rt engine
// reads, and nothing else (40 bytes against the Packet's 88). Tags and
// sched_order are set by the scheduler after the ring; source_departure,
// hops and the frag_* fields belong to the simulator's multi-hop and
// fragmentation experiments and are never read in rt, so they are not
// carried. Both conversions live here, so a field rt starts to read is
// added in one place.
struct IngressSlot {
  FlowId flow = kInvalidFlow;
  uint64_t seq = 0;
  double length_bits = 0.0;
  Time arrival = 0.0;  // producer-side stamp; the merge key
  double rate = 0.0;

  // The slot a producer pushes for `p`, stamped `arrival`.
  static IngressSlot of(const Packet& p, Time arrival) {
    return {p.flow, p.seq, p.length_bits, arrival, p.rate};
  }
  // The scheduler's Packet for this slot; the dispatcher builds it on its
  // own stack, so enqueue's by-value copy reads no line a producer wrote.
  Packet to_packet() const {
    return {.flow = flow,
            .seq = seq,
            .length_bits = length_bits,
            .arrival = arrival,
            .rate = rate};
  }
};
static_assert(sizeof(IngressSlot) == 40);

// Sharded multi-producer ingress: one bounded SPSC ring per producer thread,
// so the arrival path is lock-free end to end — producers never contend with
// each other, and the single dispatcher merges ring heads by ingress stamp.
//
// push() copies the packet into an IngressSlot and stamps `arrival` with the
// producer-side wall-clock reading; that stamp is both the merge key and the
// packet's arrival time at the engine (queueing delay measured from here
// includes time spent in the ring, which is honest: the ring *is* part of
// the queue).
//
// Slot release: pop() takes a head without handing its slot back to the
// producer; release() hands back every popped slot of every ring at once
// (the dispatcher calls it once per drain batch). peek_earliest also
// releases a ring whose visible items it has used up, and discard_all
// releases everything, so a drained ring never holds slots back. The cost is
// that a producer can find its ring full for up to one drain batch longer
// than the ring's visible contents alone would explain.
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

  // Producer `i` only. Pushes `p`'s slot fields with `arrival` = `now`.
  // False when the ring is full; with `count_full` (the default) the drop
  // has then already been counted against shard i. Blocking producers retry
  // with count_full = false so one lost packet is not counted once per spin.
  bool push(std::size_t i, const Packet& p, Time now, bool count_full = true);

  // Producer `i` only: records a backpressure drop that happened outside the
  // ring (e.g. an offer rejected because the engine stopped accepting).
  void count_drop(std::size_t i);

  // Dispatcher only: the earliest-stamped head across all rings (ties to the
  // lowest producer index), read in place, with its ring's index in `ring`;
  // nullptr when every ring looked empty. The slot stays valid, and stays
  // the ring's head, until pop(ring).
  const IngressSlot* peek_earliest(std::size_t& ring);

  // Dispatcher only: pops ring `ring`'s head; its slot returns to the
  // producer at the next release(). Precondition: the head was just
  // returned by peek_earliest.
  void pop(std::size_t ring) { shards_[ring]->ring.pop(); }

  // Dispatcher only: hands every popped slot back to its producer.
  void release();

  // Dispatcher only: discards every item currently visible in every ring,
  // releases the rings and returns how many items it discarded (the
  // `abandoned` count of a stopping engine).
  uint64_t discard_all();

  // Dispatcher only: true when every item pushed to every ring (as seen in
  // one pass) has been popped, released or not. Racy by nature (a producer
  // may push concurrently); callers use it for idle/stop decisions, not
  // correctness.
  bool empty() const;

  // Any thread (relaxed counters).
  uint64_t pushed(std::size_t i) const;
  uint64_t drops(std::size_t i) const;
  uint64_t total_pushed() const;
  uint64_t total_drops() const;

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : ring(capacity) {}
    SpscRing<IngressSlot> ring;
    alignas(kCacheLineBytes) std::atomic<uint64_t> pushed{0};
    std::atomic<uint64_t> drops{0};
  };
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sfq::rt
