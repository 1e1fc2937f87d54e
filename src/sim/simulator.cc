#include "sim/simulator.h"

#include <stdexcept>

namespace sfq::sim {

void Simulator::throw_past_event() {
  throw std::invalid_argument("Simulator: event in the past or at NaN");
}

EventId Simulator::at(Time when, std::function<void()> action) {
  check_future(when);
  return note_scheduled(events_.schedule(when, std::move(action)));
}

void Simulator::run_until(Time deadline) {
  while (!events_.empty() && events_.next_time() <= deadline) dispatch_next();
  if (deadline > now_ && deadline != kTimeInfinity) now_ = deadline;
}

void Simulator::run() {
  while (!events_.empty()) dispatch_next();
}

}  // namespace sfq::sim
