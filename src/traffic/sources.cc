#include "traffic/sources.h"

namespace sfq::traffic {

void Source::run(Time at, Time until) {
  until_ = until;
  double bits = 0.0;
  const Time first = first_emission(at, bits);
  if (first >= until_ || first == kTimeInfinity) return;
  schedule_tick(first, bits);
}

void Source::schedule_tick(Time when, double bits) {
  sim_.at_tick(when, this, bits);
}

void Source::on_event(const sim::Event& ev, Time now) {
  if (ev.op != sim::EventOp::kSourceTick) return;
  tick(now, ev.bits);
}

void Source::emit_packet(double bits) {
  Packet p;
  p.flow = flow_;
  p.seq = ++seq_;
  p.length_bits = bits;
  p.source_departure = sim_.now();
  emit_(std::move(p));
}

void Source::tick(Time scheduled, double bits) {
  emit_packet(bits);
  double next_bits = 0.0;
  const Time next = next_emission(scheduled, next_bits);
  if (next >= until_ || next == kTimeInfinity) return;
  schedule_tick(next, next_bits);
}

Time OnOffSource::next_emission(Time now, double& bits_out) {
  bits_out = packet_bits_;
  if (on_until_ < 0.0) {
    // Fresh ON period starting now.
    on_until_ = now + on_dist_(rng_);
  }
  Time t = now + interval_;
  if (t <= on_until_) return t;
  // ON period exhausted: jump over the OFF period, start a new ON burst.
  const Time off = off_dist_(rng_);
  const Time start = on_until_ + off;
  on_until_ = start + on_dist_(rng_);
  return start;
}

}  // namespace sfq::traffic
