#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/event_queue.h"

namespace sfq::sim {

// The simulation clock plus event queue. All components hold a Simulator&
// and schedule work on it; `run_until`/`run` advance the clock.
//
// Two scheduling flavours: the typed-event overloads are the per-packet hot
// path (allocation-free in steady state — see sim/event_queue.h); the
// std::function overloads are the general-purpose fallback for cold paths.
class Simulator {
 public:
  Time now() const { return now_; }

  EventId at(Time when, std::function<void()> action);
  EventId after(Time delay, std::function<void()> action) {
    return at(now_ + delay, std::move(action));
  }

  // Hot-path typed scheduling (see EventQueue::schedule_packet &c.): the
  // event is written straight into the queue's slab, no Event temp.
  EventId at_packet(Time when, EventOp op, EventTarget* target,
                    const Packet& p, Time t0 = 0.0, uint32_t aux = 0) {
    check_future(when);
    return note_scheduled(
        events_.schedule_packet(when, op, target, p, t0, aux));
  }
  EventId at_tick(Time when, EventTarget* target, double bits) {
    check_future(when);
    return note_scheduled(events_.schedule_tick(when, target, bits));
  }
  EventId at_flow(Time when, EventOp op, EventTarget* target, FlowId flow) {
    check_future(when);
    return note_scheduled(events_.schedule_flow(when, op, target, flow));
  }

  void cancel(EventId id) { events_.cancel(id); }

  // The packet of the kArrival or kServiceComplete event being dispatched
  // (it lives in the event queue's packet slab until the handler returns).
  const Packet& packet(const Event& ev) const { return events_.packet(ev); }

  // Runs events until the queue drains or the clock would pass `deadline`
  // (events at exactly `deadline` run). The clock ends at
  // min(deadline, last event time).
  void run_until(Time deadline);

  // Runs until the event queue is empty.
  void run();

  std::size_t pending_events() const { return events_.size(); }

  // Event-loop counters (always maintained; they cost one increment each).
  uint64_t events_executed() const { return executed_; }
  uint64_t events_scheduled() const { return scheduled_; }
  std::size_t max_pending_events() const { return max_pending_; }

 private:
  // Zero-copy dispatch: the event is run in place in the queue's slab
  // (stable chunk addresses) and its slot recycled afterwards. Handlers may
  // schedule new events while theirs is live — they take other slots.
  void dispatch_next() {
    Time when;
    const uint32_t slot = events_.pop_in_place(when);
    now_ = when;
    ++executed_;
    events_.dispatch(slot, when);
  }
  // Written so that NaN fails too: NaN is no point in time, and were it
  // ever the clock, every later time would pass a `when < now_` test.
  void check_future(Time when) const {
    if (!(when >= now_)) [[unlikely]]
      throw_past_event();
  }
  [[noreturn]] static void throw_past_event();
  EventId note_scheduled(EventId id) {
    ++scheduled_;
    if (events_.size() > max_pending_) max_pending_ = events_.size();
    return id;
  }

  EventQueue events_;
  Time now_ = 0.0;
  uint64_t executed_ = 0;
  uint64_t scheduled_ = 0;
  std::size_t max_pending_ = 0;
};

}  // namespace sfq::sim
