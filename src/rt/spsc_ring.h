#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace sfq::rt {

// Alignment for index variables so producer and consumer never share a cache
// line (the classic false-sharing trap of ring buffers). 64 bytes covers
// every target we build for; std::hardware_destructive_interference_size is
// deliberately avoided because GCC warns that its value is ABI-fragile.
inline constexpr std::size_t kCacheLineBytes = 64;

// Bounded lock-free single-producer/single-consumer ring (a Lamport queue
// with cached indices). One thread may call the producer API (try_push), one
// thread the consumer API (front/pop/release/empty).
//
// Indices are free-running 64-bit counters; the slot is index & mask, so
// wraparound needs no modular case analysis and full/empty are simply
// tail - head == capacity / tail == head. Each side caches the other's
// index and re-reads it only on apparent full/empty, so the steady-state
// hot path costs one relaxed load + one release store per operation and no
// shared-line ping-pong.
//
// Batched release: the consumer keeps its own head and publishes it to the
// producer (head_) only on release(), so a consumer taking a run of slots
// hands them back with one store instead of moving head_'s cache line to
// the producer and back once per slot. Until then the popped slots still
// count as occupied: the producer may see the ring full. front() releases
// by itself whenever it catches up with the tail it last saw, so a consumer
// that has drained the ring never holds slots back.
template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two (minimum 2). Throws
  // std::length_error when no power of two in std::size_t is large enough.
  explicit SpscRing(std::size_t min_capacity) {
    if (min_capacity > std::numeric_limits<std::size_t>::max() / 2 + 1)
      throw std::length_error(
          "SpscRing: capacity has no power of two in std::size_t");
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  // Producer thread only. False when the ring is full.
  bool try_push(T v) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= slots_.size()) return false;
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer thread only: the oldest element not yet popped, or nullptr
  // when empty. The pointer stays valid until pop(); the producer cannot
  // overwrite the slot because head_ has not advanced past it.
  T* front() {
    if (head_local_ == tail_cache_) {
      release();  // caught up: hand every popped slot back first
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head_local_ == tail_cache_) return nullptr;
    }
    return &slots_[head_local_ & mask_];
  }

  // Consumer thread only. Precondition: front() returned non-null. Drops
  // the front element but keeps its slot from the producer until release().
  void pop() {
    if constexpr (!std::is_trivially_destructible_v<T>)
      slots_[head_local_ & mask_] = T{};  // release resources held by the slot
    ++head_local_;
  }

  // Consumer thread only: hands every popped slot back to the producer.
  void release() {
    if (head_.load(std::memory_order_relaxed) != head_local_)
      head_.store(head_local_, std::memory_order_release);
  }

  // Consumer thread only: true when every element pushed so far has been
  // popped, released or not.
  bool empty() const {
    return head_local_ == tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(kCacheLineBytes) std::atomic<uint64_t> head_{0};  // consumer index
  alignas(kCacheLineBytes) std::atomic<uint64_t> tail_{0};  // producer index
  alignas(kCacheLineBytes) uint64_t head_cache_ = 0;  // producer's view of head_
  alignas(kCacheLineBytes) uint64_t tail_cache_ = 0;  // consumer's view of tail_
  uint64_t head_local_ = 0;  // consumer's head; head_ trails it until release()
};

}  // namespace sfq::rt
