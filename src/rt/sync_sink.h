#pragma once

#include <mutex>
#include <utility>

#include "obs/trace.h"

namespace sfq::rt {

// Thread-safe adapter around any TraceSink (obs/trace.h), so the
// simulator's observability stack — the online InvariantChecker, JSONL
// writers, ring buffers — works on live wall-clock runs.
//
// The RtEngine dispatcher emits every trace event from its own thread, so a
// sink's internal state is single-writer; what needs serialising is *reads*
// from other threads while the run is in flight (a test asserting on the
// checker mid-run). SyncSink wraps each on_event/finish in a mutex and
// exposes locked() so readers can inspect the inner sink under the same
// mutex.
//
// After RtEngine::stop() returns, the dispatcher has been joined, so
// reading the inner sink directly — without locked() — is also safe.
class SyncSink final : public obs::TraceSink {
 public:
  explicit SyncSink(obs::TraceSink& inner) : inner_(inner) {}

  void on_event(const obs::TraceEvent& e) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_.on_event(e);
  }

  void finish() override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_.finish();
  }

  bool discards_events() const override { return inner_.discards_events(); }

  // Runs `fn()` holding the event mutex: the only safe way to read the inner
  // sink (or the registry/checker behind it) while the engine is running.
  template <typename Fn>
  auto locked(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    return std::forward<Fn>(fn)();
  }

  obs::TraceSink& inner() { return inner_; }

 private:
  std::mutex mu_;
  obs::TraceSink& inner_;
};

}  // namespace sfq::rt
