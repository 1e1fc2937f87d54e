#include "net/scheduled_server.h"

#include <utility>
#include <vector>

namespace sfq::net {

ScheduledServer::ScheduledServer(sim::Simulator& sim, Scheduler& sched,
                                 std::unique_ptr<RateProfile> profile)
    : sim_(sim), sched_(sched), profile_(std::move(profile)) {}

bool ScheduledServer::drop(Packet&& p, Time now, obs::DropCause cause) {
  ++drops_;
  ++cause_drops_[static_cast<std::size_t>(cause)];
  if (trace_on_) [[unlikely]]
    tracer_->emit(obs::make_event(obs::TraceEventType::kDrop, p, now,
                                  /*vtime=*/0.0, sched_.backlog_packets(),
                                  cause));
  if (on_drop_) on_drop_(p, now);
  return false;
}

FlowId ScheduledServer::longest_queue() const {
  FlowId best = kInvalidFlow;
  double best_bits = 0.0;
  const std::size_t n = sched_.flows().size();
  for (FlowId f = 0; f < n; ++f) {
    const double b = sched_.backlog_bits(f);
    if (b > best_bits) {  // strict: ties resolve to the lowest flow id
      best_bits = b;
      best = f;
    }
  }
  return best;
}

std::size_t ScheduledServer::remove_flow(FlowId f) {
  const Time now = sim_.now();
  std::vector<Packet> flushed = sched_.remove_flow(f, now);
  for (Packet& p : flushed) drop(std::move(p), now, obs::DropCause::kFlowRemoved);
  if (link_stats_) link_stats_->on_queue_sample(now, sched_.backlog_packets());
  return flushed.size();
}

void ScheduledServer::rejoin_flow(FlowId f) {
  sched_.rejoin_flow(f, sim_.now());
}

bool ScheduledServer::inject(Packet p) {
  const Time now = sim_.now();
  if (fault_filter_) {
    if (auto cause = fault_filter_(p, now))
      return drop(std::move(p), now, *cause);
  }
  const FlowTable& table = sched_.flows();
  const bool registered = p.flow < table.size();
  // A registered-but-removed flow drops here whatever the discipline; an
  // unregistered id drops only when the discipline insists on registration.
  if (registered ? !table.active(p.flow) : sched_.requires_registered_flows())
    return drop(std::move(p), now, obs::DropCause::kUnknownFlow);
  if (buffer_limit_ != 0 && sched_.backlog_packets() >= buffer_limit_) {
    bool made_room = false;
    if (overload_policy_ == OverloadPolicy::kPushout) {
      const FlowId victim = longest_queue();
      if (victim != kInvalidFlow) {
        if (std::optional<Packet> evicted = sched_.pushout(victim, now)) {
          drop(std::move(*evicted), now, obs::DropCause::kPushout);
          made_room = true;
        }
      }
    }
    if (!made_room)
      return drop(std::move(p), now, obs::DropCause::kBufferLimit);
  }
  p.arrival = now;
  const FlowId flow = p.flow;
  const uint64_t seq = p.seq;
  const double bits = p.length_bits;
  if (!sched_.enqueue(std::move(p), now)) {
    // The discipline itself refused the packet (its admit gate already
    // counted and traced the drop); mirror it in the server counters.
    ++drops_;
    ++cause_drops_[static_cast<std::size_t>(obs::DropCause::kUnknownFlow)];
    return false;
  }
  if (recorder_) recorder_->on_arrival(flow, now);
  if (trace_on_) [[unlikely]] {
    // The scheduler's kTag event carries the tag detail; this one marks
    // server acceptance (post-enqueue backlog).
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kEnqueue;
    e.flow = flow;
    e.seq = seq;
    e.length_bits = bits;
    e.t = now;
    e.arrival = now;
    e.backlog = sched_.backlog_packets();
    tracer_->emit(e);
  }
  if (link_stats_) link_stats_->on_queue_sample(now, sched_.backlog_packets());
  try_start();
  return true;
}

void ScheduledServer::try_start() {
  if (busy_) return;
  const Time now = sim_.now();
  std::optional<Packet> next = sched_.dequeue(now);
  if (!next) return;
  busy_ = true;
  if (link_stats_) {
    link_stats_->on_transmit_start(now);
    link_stats_->on_queue_sample(now, sched_.backlog_packets());
  }
  const Time finish = profile_->finish_time(now, next->length_bits);
  if (trace_on_) [[unlikely]]
    tracer_->emit(obs::make_event(obs::TraceEventType::kTxStart, *next, now,
                                  /*vtime=*/0.0, sched_.backlog_packets()));
  // The in-flight packet rides with the typed completion event (in the event
  // queue's packet slab); schedulers keep no reference to in-flight packets.
  sim_.at_packet(finish, sim::EventOp::kServiceComplete, this, *next,
                 /*t0=*/now);
}

void ScheduledServer::complete_transmission(const Packet& p, Time start,
                                            Time finish) {
  busy_ = false;
  if (link_stats_) link_stats_->on_transmit_end(finish);
  sched_.on_transmit_complete(p, finish);
  if (trace_on_) [[unlikely]]
    tracer_->emit(obs::make_event(obs::TraceEventType::kTxEnd, p, finish,
                                  /*vtime=*/0.0, sched_.backlog_packets()));
  if (recorder_)
    recorder_->on_service(p.flow, p.length_bits, p.arrival, start, finish);
  if (on_departure_) on_departure_(p, finish);
  try_start();
}

void ScheduledServer::on_event(const sim::Event& ev, Time now) {
  switch (ev.op) {
    case sim::EventOp::kServiceComplete:
      complete_transmission(sim_.packet(ev), /*start=*/ev.t0,
                            /*finish=*/now);
      break;
    case sim::EventOp::kArrival:
      inject(sim_.packet(ev));
      break;
    case sim::EventOp::kChurnLeave:
      remove_flow(ev.flow);
      break;
    case sim::EventOp::kChurnJoin:
      rejoin_flow(ev.flow);
      break;
    default:
      break;  // not a server op; ignore rather than crash the run
  }
}

}  // namespace sfq::net
