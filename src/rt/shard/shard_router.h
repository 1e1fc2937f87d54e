// Stable flow -> shard placement for the sharded RT engine
// (docs/REALTIME.md). The route is a pure function of (flow id, shard
// count) — no state, no registration — so a flow that leaves and rejoins
// always lands on the same shard, which is what keeps per-shard SFQ tag
// re-anchoring (rejoin start tag = max(v(t), previous finish)) meaningful
// across churn: the history the tag re-anchors against lives on the shard
// the flow returns to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/splitmix.h"
#include "core/types.h"

namespace sfq::rt {

class ShardRouter {
 public:
  explicit ShardRouter(std::size_t shards) : shards_(shards ? shards : 1) {}

  std::size_t shards() const { return shards_; }

  // SplitMix64 finalizer over the flow id: cheap (a few multiplies), and
  // avalanches low-entropy sequential flow ids across shards far better
  // than a bare modulus would.
  std::size_t shard_of(FlowId f) const {
    return static_cast<std::size_t>(splitmix64(f) % shards_);
  }

  // Failover placement (docs/ROBUSTNESS.md "Shard failover"): the primary
  // placement above when that shard is alive, else rendezvous (highest
  // random weight) hashing over the alive subset. Minimal movement both
  // ways: a flow moves only when its current home dies, and when the home
  // returns the primary preference sends it straight back. Pure function of
  // (flow, alive set), so every observer agrees without coordination.
  // alive[k] == 0 marks shard k dead; an all-dead set returns the primary.
  std::size_t rehome(FlowId f, const std::vector<char>& alive) const {
    const std::size_t home = shard_of(f);
    if (home < alive.size() && alive[home]) return home;
    uint64_t best = 0;
    std::size_t best_k = home;
    bool found = false;
    for (std::size_t k = 0; k < shards_ && k < alive.size(); ++k) {
      if (!alive[k]) continue;
      // Independent per-(flow, shard) score: mix the pair through the same
      // finalizer the primary route uses.
      const uint64_t x =
          splitmix64_mix((static_cast<uint64_t>(f) << 20) ^
                         (static_cast<uint64_t>(k) + kGoldenGamma));
      if (!found || x > best) {
        best = x;
        best_k = k;
        found = true;
      }
    }
    return best_k;
  }

 private:
  std::size_t shards_;
};

}  // namespace sfq::rt
