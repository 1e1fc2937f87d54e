#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/types.h"
#include "rt/ingress_target.h"

namespace sfq::rt {

// One traffic model bound to one flow, reusing the traffic/ source
// implementations (CBR / Poisson / Markov on-off) unchanged: each producer
// thread hosts a private sim::Simulator whose sources generate the arrival
// process, and the generated timeline is replayed against the shared wall
// clock. Generation runs ahead of the replay in small slices, so arbitrarily
// long runs need only a slice of buffered arrivals, and the replay hot loop
// is free of model arithmetic — which is what lets a handful of producer
// threads drive millions of packets per second in unpaced mode.
struct FlowLoad {
  enum class Model { kCbr, kPoisson, kOnOff };

  FlowId flow = kInvalidFlow;
  Model model = Model::kCbr;
  double rate = 0.0;         // offered bits/s (peak rate for on-off)
  double packet_bits = 0.0;  // fixed packet size
  Time mean_on = 0.05;       // on-off only
  Time mean_off = 0.05;      // on-off only
  uint64_t seed = 1;
  Time start = 0.0;          // offset of the first emission
};

struct LoadGenOptions {
  // Replay arrival times against the wall clock (1:1). When false, producers
  // blast the generated sequence as fast as the rings accept it — the mode
  // throughput benchmarks use.
  bool paced = true;
  // On a full ring: spin (offer_wait) instead of dropping. Benchmarks that
  // must account every packet set this; paced runs normally leave it off so
  // backpressure surfaces as counted ingress drops, not as generator stall.
  bool block_on_full = false;

  // Bounded-retry backpressure handling (docs/ROBUSTNESS.md). Active when
  // block_on_full is false and max_retries > 0 or offer_deadline > 0: a full
  // ring (RtEngine::try_offer -> kBackpressure) is retried with exponential
  // backoff and multiplicative jitter instead of dropped (20 us doubling to
  // a 2 ms cap, each wait scaled by uniform[0.5, 1.5]; constants in
  // load_gen.cc). max_retries == 0 with a deadline means "retry until the
  // deadline". A packet that exhausts its retries or deadline is given up —
  // counted `abandoned` on both the producer stats and the engine ledger
  // (note_offer_abandoned), keeping attempts == pushed + dropped + abandoned
  // exact.
  std::size_t max_retries = 0;
  // Per-packet freshness deadline measured from the first offer attempt;
  // 0 disables. A stale packet is abandoned, not delivered late.
  Time offer_deadline = 0.0;
};

// Multi-threaded load generator: producer thread i feeds ingress slot i with
// the flows of `producers[i]`. The target is any IngressTarget — a single
// RtEngine or a ShardedEngine routing behind the interface. Start the engine
// first; join() returns when every producer has emitted its full `duration`
// of traffic.
class LoadGen {
 public:
  // Throws std::invalid_argument on malformed options or flow specs
  // (rt::validate); try_create is the no-throw path.
  LoadGen(IngressTarget& engine, std::vector<std::vector<FlowLoad>> producers,
          LoadGenOptions opts = {});
  static std::unique_ptr<LoadGen> try_create(
      IngressTarget& engine, std::vector<std::vector<FlowLoad>> producers,
      LoadGenOptions opts = {}, std::string* error = nullptr);
  ~LoadGen();  // joins

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // Generates `duration` seconds (of *model* time) of traffic per producer
  // and replays it. May be called once.
  void start(Time duration);
  void join();

  // Asks every producer to stop at its next packet boundary (graceful drain:
  // sfq_serve's SIGINT/SIGTERM path). Paced waits are interrupted, the
  // current slice is discarded, and the per-producer ledgers are published
  // exactly — attempts == pushed + dropped + abandoned still holds, only the
  // un-offered tail of the timeline is never counted as attempted. Safe from
  // any thread (including a signal-watcher); join() afterwards as usual.
  void request_stop();

  // Per-producer offer accounting. Exact once join() returned; relaxed
  // (periodically published) while producing. Identity, exact after join:
  //   attempts == pushed + dropped + abandoned
  // `dropped` are plain-offer failures the engine counted as ingress drops;
  // `abandoned` are backpressured packets given up after retries/deadline
  // (also ingress drops on the engine ledger, via note_offer_abandoned).
  struct ProducerStats {
    uint64_t attempts = 0;
    uint64_t pushed = 0;
    uint64_t dropped = 0;
    uint64_t abandoned = 0;
    uint64_t retries = 0;  // backoff retries (not attempts: one per re-offer)
  };
  ProducerStats producer_stats(std::size_t i) const;

  // Offer attempts by producer i (pushed + dropped + abandoned).
  uint64_t produced(std::size_t i) const;
  uint64_t produced_total() const;

 private:
  struct Cells {  // one cache line of per-producer atomics
    std::atomic<uint64_t> attempts{0};
    std::atomic<uint64_t> pushed{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> abandoned{0};
    std::atomic<uint64_t> retries{0};
  };

  void produce(std::size_t i, Time duration);

  IngressTarget& engine_;
  std::vector<std::vector<FlowLoad>> specs_;
  LoadGenOptions opts_;
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<Cells>> cells_;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;
};

}  // namespace sfq::rt
