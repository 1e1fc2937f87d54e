#include "net/multi_priority_server.h"

#include <stdexcept>

namespace sfq::net {

MultiPriorityServer::MultiPriorityServer(
    sim::Simulator& sim, std::vector<std::unique_ptr<Scheduler>> bands,
    std::unique_ptr<RateProfile> profile)
    : sim_(sim), bands_(std::move(bands)), profile_(std::move(profile)) {
  if (bands_.empty())
    throw std::invalid_argument("MultiPriorityServer: no bands");
  recorders_.resize(bands_.size(), nullptr);
}

void MultiPriorityServer::set_recorder(std::size_t band,
                                       stats::ServiceRecorder* rec) {
  recorders_.at(band) = rec;
}

void MultiPriorityServer::inject(std::size_t band, Packet p) {
  if (band >= bands_.size())
    throw std::out_of_range("MultiPriorityServer: bad band");
  const Time now = sim_.now();
  p.arrival = now;
  if (recorders_[band]) recorders_[band]->on_arrival(p.flow, now);
  bands_[band]->enqueue(std::move(p), now);
  try_start();
}

void MultiPriorityServer::try_start() {
  if (busy_) return;
  const Time now = sim_.now();
  for (std::size_t b = 0; b < bands_.size(); ++b) {
    std::optional<Packet> next = bands_[b]->dequeue(now);
    if (!next) continue;
    busy_ = true;
    const Time finish = profile_->finish_time(now, next->length_bits);
    sim_.at_packet(finish, sim::EventOp::kServiceComplete, this, *next,
                   /*t0=*/now, static_cast<uint32_t>(b));
    return;
  }
}

void MultiPriorityServer::on_event(const sim::Event& ev, Time now) {
  if (ev.op != sim::EventOp::kServiceComplete) return;
  const std::size_t b = ev.aux;
  const Packet& p = sim_.packet(ev);
  busy_ = false;
  bands_[b]->on_transmit_complete(p, now);
  if (recorders_[b])
    recorders_[b]->on_service(p.flow, p.length_bits, p.arrival, ev.t0, now);
  if (on_departure_) on_departure_(b, p, now);
  try_start();
}

}  // namespace sfq::net
