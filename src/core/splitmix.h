// SplitMix64 (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014): a Weyl sequence with step kGoldenGamma run
// through a 64-bit bijective finalizer. Eight bytes of state, full 2^64
// period, passes BigCrush.
//
// The repo uses it two ways:
//   * as a generator (SplitMix64) — the per-flow traffic sources keep one
//     each, so 65,536 sources hold 512 KiB of generator state where
//     std::mt19937_64 (2,504 bytes each) would hold 164 MB;
//   * as a hash (splitmix64 / splitmix64_mix) — seed decorrelation in the
//     chaos generator, the flow-key index probe and the shard router.
#pragma once

#include <cstdint>
#include <limits>

namespace sfq {

// The Weyl step: 2^64 / golden ratio, odd.
inline constexpr uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

// The output finalizer (Stafford's "Mix13" variant): a bijection on 64-bit
// words with full avalanche.
constexpr uint64_t splitmix64_mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One SplitMix64 output from state `x`: the stateless hash form.
constexpr uint64_t splitmix64(uint64_t x) {
  return splitmix64_mix(x + kGoldenGamma);
}

// Meets the standard UniformRandomBitGenerator requirements, so it drives
// std::exponential_distribution, std::normal_distribution and friends.
class SplitMix64 {
 public:
  using result_type = uint64_t;

  constexpr explicit SplitMix64(uint64_t seed = 0) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    state_ += kGoldenGamma;
    return splitmix64_mix(state_);
  }

 private:
  uint64_t state_;
};

}  // namespace sfq
