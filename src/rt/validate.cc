#include "rt/validate.h"

#include <cmath>

#include "rt/engine.h"
#include "rt/load_gen.h"

namespace sfq::rt {

namespace {

bool bad(double v) { return !std::isfinite(v); }

// Largest per-producer ring: 2^24 slots, 640 MiB of 40-byte ingress slots
// per producer. Far beyond any useful backlog, and far below the 2^63 at
// which rounding the capacity up to a power of two overflows.
constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 24;

}  // namespace

std::optional<std::string> validate(const EngineOptions& opts) {
  if (opts.producers == 0) return "EngineOptions: producers must be > 0";
  if (opts.ring_capacity == 0 || opts.ring_capacity > kMaxRingCapacity)
    return "EngineOptions: ring_capacity must be in [1, 2^24]";
  if (bad(opts.stall_timeout) || opts.stall_timeout < 0.0)
    return "EngineOptions: stall_timeout must be finite and >= 0";
  for (const auto& j : opts.fault_plan.jumps)
    if (bad(j.at) || bad(j.delta) || j.at < 0.0)
      return "EngineOptions: fault jump must have finite delta and at >= 0";
  for (const auto& s : opts.fault_plan.skews) {
    if (bad(s.from) || bad(s.until) || s.from < 0.0 || s.until < s.from)
      return "EngineOptions: fault skew window must be finite with "
             "0 <= from <= until";
    if (bad(s.factor) || s.factor <= 0.0)
      return "EngineOptions: fault skew factor must be > 0";
  }
  for (const auto& p : opts.fault_plan.pauses)
    if (bad(p.at) || bad(p.duration) || p.at < 0.0 || p.duration < 0.0)
      return "EngineOptions: fault pause must have at >= 0 and duration >= 0";
  for (const auto& k : opts.fault_plan.kills)
    if (bad(k.at) || k.at < 0.0)
      return "EngineOptions: fault kill must have finite at >= 0";
  return std::nullopt;
}

std::optional<std::string> validate(const LoadGenOptions& opts) {
  if (bad(opts.offer_deadline) || opts.offer_deadline < 0.0)
    return "LoadGenOptions: offer_deadline must be finite and >= 0";
  return std::nullopt;
}

std::optional<std::string> validate(const FlowLoad& load) {
  if (load.flow == kInvalidFlow) return "FlowLoad: flow id is invalid";
  if (bad(load.rate) || load.rate <= 0.0)
    return "FlowLoad: rate must be finite and > 0";
  if (bad(load.packet_bits) || load.packet_bits <= 0.0)
    return "FlowLoad: packet_bits must be finite and > 0";
  if (bad(load.start) || load.start < 0.0)
    return "FlowLoad: start must be finite and >= 0";
  if (load.model == FlowLoad::Model::kOnOff &&
      (bad(load.mean_on) || bad(load.mean_off) || load.mean_on <= 0.0 ||
       load.mean_off <= 0.0))
    return "FlowLoad: on-off dwell times must be finite and > 0";
  return std::nullopt;
}

}  // namespace sfq::rt
