// Fault-injecting wall clock for the rt engine (docs/ROBUSTNESS.md).
//
// The sim-side fault plan (src/fault/) perturbs the *link*; nothing could
// perturb the *clock* or the dispatcher itself, so the watchdog/recovery
// path had no adversary to train against. RtFaultPlan scripts three rt-layer
// faults on the engine's time axis:
//
//   * jumps — the clock reading steps by `delta` at raw time `at` (forward
//     jumps age every pacing deadline at once, as after a VM freeze or an
//     NTP slew; backward jumps model a misbehaving time source),
//   * skews — between `from` and `until` the clock runs at `factor`× real
//     rate (thermal drift, frequency-scaling artifacts),
//   * pauses — the dispatcher sleeps for `duration` at raw time `at`
//     (GC-like stop-the-world; consumed by RtEngine::run, not by the clock).
//
// FaultClock wraps WallClock and applies jumps/skews as a pure transform of
// the raw reading, then clamps the result monotone: the library-wide
// invariant (enqueue/dequeue timestamps non-decreasing, trace.h) must hold
// even under a backward jump, so the transformed clock freezes at its
// high-water mark until raw time catches up — which is exactly how a robust
// server must treat a time source that steps backwards. With no plan
// configured the fast path is one branch on top of WallClock::now().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "core/types.h"
#include "rt/clock.h"

namespace sfq::rt {

struct RtFaultPlan {
  struct Jump {
    Time at = 0.0;     // raw (untransformed) wall time of the step
    Time delta = 0.0;  // signed step applied to every later reading
  };
  struct Skew {
    Time from = 0.0;
    Time until = 0.0;
    double factor = 1.0;  // clock rate multiplier inside [from, until)
  };
  struct Pause {
    Time at = 0.0;        // raw wall time the dispatcher stops dead
    Time duration = 0.0;  // how long it sleeps (seconds)
  };
  struct Kill {
    Time at = 0.0;  // raw wall time the dispatcher dies permanently
  };

  std::vector<Jump> jumps;
  std::vector<Skew> skews;
  std::vector<Pause> pauses;
  // Shard-kill: the dispatcher stops accepting, abandons its rings and exits
  // with StallStage::kKilled — the adversary the shard supervisor trains
  // against. Consumed by RtEngine::run on the raw axis, not by the clock.
  std::vector<Kill> kills;

  bool empty() const {
    return jumps.empty() && skews.empty() && pauses.empty() && kills.empty();
  }
};

class FaultClock {
 public:
  // `base` fixes the raw axis's origin; engines that must share one time
  // axis (the shards and restart epochs of a ShardedEngine) pass the same
  // WallClock.
  explicit FaultClock(WallClock base = WallClock{}) : base_(base) {}

  // Installs the plan. Sorts pauses by trigger time; jumps/skews are summed
  // so order does not matter. Call before the dispatcher starts.
  void set_plan(RtFaultPlan plan) {
    plan_ = std::move(plan);
    std::sort(plan_.pauses.begin(), plan_.pauses.end(),
              [](const RtFaultPlan::Pause& a, const RtFaultPlan::Pause& b) {
                return a.at < b.at;
              });
    std::sort(plan_.kills.begin(), plan_.kills.end(),
              [](const RtFaultPlan::Kill& a, const RtFaultPlan::Kill& b) {
                return a.at < b.at;
              });
    // Kills (like pauses) do not transform the clock reading.
    active_ = !plan_.jumps.empty() || !plan_.skews.empty();
  }
  const RtFaultPlan& plan() const { return plan_; }

  // The engine's time axis: transformed reading, clamped monotone.
  Time now() const {
    const Time raw = base_.now();
    if (!active_) return raw;
    Time t = transform(raw);
    // Monotone clamp (CAS-max): a backward jump freezes the clock at its
    // high-water mark until the raw axis catches back up.
    Time hw = high_water_.load(std::memory_order_relaxed);
    while (t > hw &&
           !high_water_.compare_exchange_weak(hw, t, std::memory_order_relaxed))
      ;
    return std::max(t, hw);
  }

  // Untransformed reading — fault triggers (pauses, jump `at` times) are
  // scripted on this axis so a jump cannot reorder later faults.
  Time raw_now() const { return base_.now(); }

  // Pure jump+skew transform of a raw reading (exposed for tests).
  Time transform(Time raw) const {
    Time t = raw;
    for (const auto& s : plan_.skews)
      if (raw > s.from)
        t += (std::min(raw, s.until) - s.from) * (s.factor - 1.0);
    for (const auto& j : plan_.jumps)
      if (raw >= j.at) t += j.delta;
    return t;
  }

  bool has_faults() const { return active_; }

 private:
  WallClock base_;
  RtFaultPlan plan_;
  bool active_ = false;
  // Mutable through const now(): the clamp is observer state, not plan state.
  mutable std::atomic<Time> high_water_{0.0};
};

}  // namespace sfq::rt
