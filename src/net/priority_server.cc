#include "net/priority_server.h"

#include <utility>

namespace sfq::net {

PriorityServer::PriorityServer(sim::Simulator& sim, Scheduler& low_sched,
                               std::unique_ptr<RateProfile> profile)
    : sim_(sim), low_sched_(low_sched), profile_(std::move(profile)) {}

void PriorityServer::inject_high(Packet p) {
  p.arrival = sim_.now();
  high_q_.push_back(std::move(p));
  try_start();
}

void PriorityServer::inject_low(Packet p) {
  const Time now = sim_.now();
  p.arrival = now;
  if (recorder_) recorder_->on_arrival(p.flow, now);
  low_sched_.enqueue(std::move(p), now);
  try_start();
}

double PriorityServer::high_backlog_bits() const {
  double b = 0.0;
  for (const Packet& p : high_q_) b += p.length_bits;
  return b;
}

void PriorityServer::try_start() {
  if (busy_) return;
  const Time now = sim_.now();

  if (!high_q_.empty()) {
    Packet p = std::move(high_q_.front());
    high_q_.pop_front();
    busy_ = true;
    const Time finish = profile_->finish_time(now, p.length_bits);
    sim_.at_packet(finish, sim::EventOp::kServiceComplete, this, p,
                   /*t0=*/now, kHighBand);
    return;
  }

  std::optional<Packet> next = low_sched_.dequeue(now);
  if (!next) return;
  busy_ = true;
  const Time finish = profile_->finish_time(now, next->length_bits);
  sim_.at_packet(finish, sim::EventOp::kServiceComplete, this, *next,
                 /*t0=*/now, kLowBand);
}

void PriorityServer::on_event(const sim::Event& ev, Time now) {
  if (ev.op != sim::EventOp::kServiceComplete) return;
  const Packet& p = sim_.packet(ev);
  busy_ = false;
  if (ev.aux == kHighBand) {
    if (on_high_dep_) on_high_dep_(p, now);
  } else {
    low_sched_.on_transmit_complete(p, now);
    if (recorder_)
      recorder_->on_service(p.flow, p.length_bits, p.arrival, ev.t0, now);
    if (on_low_dep_) on_low_dep_(p, now);
  }
  try_start();
}

}  // namespace sfq::net
