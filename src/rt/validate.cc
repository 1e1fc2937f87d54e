#include "rt/validate.h"

#include <cmath>

#include "rt/engine.h"
#include "rt/load_gen.h"

namespace sfq::rt {

namespace {

bool bad(double v) { return !std::isfinite(v); }

}  // namespace

std::optional<std::string> validate(const EngineOptions& opts) {
  if (opts.producers == 0) return "EngineOptions: producers must be > 0";
  if (opts.ring_capacity == 0)
    return "EngineOptions: ring_capacity must be > 0";
  if (bad(opts.spin_threshold) || opts.spin_threshold < 0.0)
    return "EngineOptions: spin_threshold must be finite and >= 0";
  if (bad(opts.stall_timeout) || opts.stall_timeout < 0.0)
    return "EngineOptions: stall_timeout must be finite and >= 0";
  if (opts.admission_control) {
    if (bad(opts.shed_exit) || bad(opts.shed_enter) || bad(opts.shed_critical))
      return "EngineOptions: shed thresholds must be finite";
    if (!(opts.shed_exit > 0.0 && opts.shed_exit < opts.shed_enter &&
          opts.shed_enter <= opts.shed_critical && opts.shed_critical <= 1.0))
      return "EngineOptions: shed thresholds must satisfy "
             "0 < shed_exit < shed_enter <= shed_critical <= 1";
    if (bad(opts.shed_critical_factor) || opts.shed_critical_factor <= 0.0 ||
        opts.shed_critical_factor > 1.0)
      return "EngineOptions: shed_critical_factor must be in (0, 1]";
    if (bad(opts.shed_burst) || opts.shed_burst <= 0.0)
      return "EngineOptions: shed_burst must be > 0";
  }
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
  if (bad(opts.slice) || opts.slice <= 0.0)
    return "LoadGenOptions: slice must be finite and > 0";
  if (bad(opts.backoff_initial) || opts.backoff_initial <= 0.0)
    return "LoadGenOptions: backoff_initial must be finite and > 0";
  if (bad(opts.backoff_max) || opts.backoff_max < opts.backoff_initial)
    return "LoadGenOptions: backoff_max must be finite and >= backoff_initial";
  if (bad(opts.backoff_multiplier) || opts.backoff_multiplier < 1.0)
    return "LoadGenOptions: backoff_multiplier must be finite and >= 1";
  if (bad(opts.backoff_jitter) || opts.backoff_jitter < 0.0 ||
      opts.backoff_jitter >= 1.0)
    return "LoadGenOptions: backoff_jitter must be in [0, 1)";
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
