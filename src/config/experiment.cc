#include "config/experiment.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/scheduler_factory.h"
#include "hier/hsfq_scheduler.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "net/rate_profile.h"
#include "net/network.h"
#include "net/scheduled_server.h"
#include "obs/invariant_checker.h"
#include "obs/telemetry/exposition.h"
#include "obs/telemetry/trace_sink.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "stats/delay_stats.h"
#include "stats/fairness.h"
#include "stats/service_recorder.h"
#include "traffic/sources.h"
#include "traffic/vbr_video.h"

namespace sfq::config {

namespace {

// Splits "12.5Mbps" into value and suffix.
void split_unit(const std::string& text, double& value, std::string& unit) {
  std::size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.' ||
          text[i] == '-' || text[i] == '+' || text[i] == 'e' ||
          (text[i] == 'E' && i + 1 < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[i + 1])) ||
            text[i + 1] == '-' || text[i + 1] == '+'))))
    ++i;
  const std::string num = text.substr(0, i);
  unit = text.substr(i);
  std::size_t used = 0;
  try {
    value = std::stod(num, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("cannot parse number in '" + text + "'");
  }
  if (used != num.size() || num.empty())
    throw std::invalid_argument("cannot parse number in '" + text + "'");
}

}  // namespace

double parse_rate(const std::string& text) {
  double v;
  std::string unit;
  split_unit(text, v, unit);
  if (unit.empty() || unit == "bps") return v;
  if (unit == "Kbps") return v * 1e3;
  if (unit == "Mbps") return v * 1e6;
  if (unit == "Gbps") return v * 1e9;
  throw std::invalid_argument("unknown rate unit '" + unit + "'");
}

double parse_size(const std::string& text) {
  double v;
  std::string unit;
  split_unit(text, v, unit);
  if (unit.empty() || unit == "b") return v;
  if (unit == "Kb") return v * 1e3;
  if (unit == "Mb") return v * 1e6;
  if (unit == "B") return v * 8.0;
  if (unit == "KB") return v * 8e3;
  if (unit == "MB") return v * 8e6;
  throw std::invalid_argument("unknown size unit '" + unit + "'");
}

Time parse_time(const std::string& text) {
  double v;
  std::string unit;
  split_unit(text, v, unit);
  if (unit.empty() || unit == "s") return v;
  if (unit == "ms") return v * 1e-3;
  if (unit == "us") return v * 1e-6;
  throw std::invalid_argument("unknown time unit '" + unit + "'");
}

namespace {

std::map<std::string, std::string> parse_kv(std::istringstream& ss,
                                            std::size_t lineno) {
  std::map<std::string, std::string> kv;
  std::string tok;
  while (ss >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size())
      throw std::invalid_argument("line " + std::to_string(lineno) +
                                  ": expected key=value, got '" + tok + "'");
    kv[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return kv;
}

bool parse_bool(const std::string& value, std::size_t lineno) {
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  throw std::invalid_argument("line " + std::to_string(lineno) +
                              ": expected on/off, got '" + value + "'");
}

// Non-negative integer fields (buffer sizes, seeds). std::stoul would accept
// "-1" and wrap it to a huge value — reject anything but digits outright.
uint64_t parse_u64(const std::string& value, std::size_t lineno,
                   const char* what) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument("line " + std::to_string(lineno) + ": " +
                                what + " must be a non-negative integer, got '" +
                                value + "'");
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    throw std::invalid_argument("line " + std::to_string(lineno) + ": " +
                                what + " out of range: '" + value + "'");
  }
}

Time parse_nonneg_time(const std::string& value, std::size_t lineno,
                       const char* what) {
  const Time t = parse_time(value);
  if (t < 0.0)
    throw std::invalid_argument("line " + std::to_string(lineno) + ": " +
                                what + " must not be negative, got '" + value +
                                "'");
  return t;
}

double parse_fraction(const std::string& value, std::size_t lineno,
                      const char* what) {
  double v;
  std::string unit;
  split_unit(value, v, unit);
  if (!unit.empty() || v < 0.0 || v > 1.0)
    throw std::invalid_argument("line " + std::to_string(lineno) + ": " +
                                what + " must be in [0,1], got '" + value +
                                "'");
  return v;
}

FlowSpec parse_flow(std::map<std::string, std::string> kv, std::size_t lineno,
                    std::size_t index) {
  FlowSpec f;
  f.name = "flow" + std::to_string(index);
  f.seed = 1 + index;
  for (const auto& [key, value] : kv) {
    if (key == "name") f.name = value;
    else if (key == "kind") f.kind = value;
    else if (key == "rate") f.rate = parse_rate(value);
    else if (key == "packet") f.packet = parse_size(value);
    else if (key == "weight") f.weight = parse_rate(value);
    else if (key == "start") f.start = parse_nonneg_time(value, lineno, "start");
    else if (key == "stop") f.stop = parse_nonneg_time(value, lineno, "stop");
    else if (key == "mean_on")
      f.mean_on = parse_nonneg_time(value, lineno, "mean_on");
    else if (key == "mean_off")
      f.mean_off = parse_nonneg_time(value, lineno, "mean_off");
    else if (key == "seed") f.seed = parse_u64(value, lineno, "seed");
    else if (key == "leave") f.leave = parse_nonneg_time(value, lineno, "leave");
    else if (key == "join") f.rejoin = parse_nonneg_time(value, lineno, "join");
    else if (key == "class") f.cls = value;
    else
      throw std::invalid_argument("line " + std::to_string(lineno) +
                                  ": unknown flow key '" + key + "'");
  }
  if (f.kind != "cbr" && f.kind != "poisson" && f.kind != "onoff" &&
      f.kind != "greedy" && f.kind != "vbr")
    throw std::invalid_argument("line " + std::to_string(lineno) +
                                ": unknown flow kind '" + f.kind + "'");
  if (f.rate < 0.0 || f.packet < 0.0 || f.weight < 0.0)
    throw std::invalid_argument(
        "line " + std::to_string(lineno) +
        ": flow rate/packet/weight must not be negative");
  if (f.weight <= 0.0) f.weight = f.rate;
  if (f.weight <= 0.0)
    throw std::invalid_argument("line " + std::to_string(lineno) +
                                ": flow needs rate= or weight=");
  if (f.packet <= 0.0 && f.kind != "vbr")
    throw std::invalid_argument("line " + std::to_string(lineno) +
                                ": flow needs packet=");
  // Only greedy flows derive their offered load from the weight; a rateless
  // cbr/poisson/onoff/vbr source would emit nothing useful.
  if (f.rate <= 0.0 && f.kind != "greedy")
    throw std::invalid_argument("line " + std::to_string(lineno) + ": " +
                                f.kind + " flow needs rate=");
  // A zero dwell makes the on-off source spin at one simulated instant.
  if (f.kind == "onoff" && (f.mean_on <= 0.0 || f.mean_off <= 0.0))
    throw std::invalid_argument("line " + std::to_string(lineno) +
                                ": onoff flow needs mean_on= and mean_off= "
                                "above zero");
  if (f.stop >= 0.0 && f.stop < f.start)
    throw std::invalid_argument("line " + std::to_string(lineno) +
                                ": flow stop= precedes start=");
  if (f.rejoin >= 0.0 && f.leave < 0.0)
    throw std::invalid_argument("line " + std::to_string(lineno) +
                                ": flow join= needs leave=");
  if (f.rejoin >= 0.0 && f.rejoin <= f.leave)
    throw std::invalid_argument("line " + std::to_string(lineno) +
                                ": flow join= must come after leave=");
  return f;
}

}  // namespace

ExperimentSpec ExperimentSpec::parse(std::istream& in) {
  ExperimentSpec spec;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ss(line);
    std::string directive;
    if (!(ss >> directive)) continue;

    if (directive == "scheduler") {
      if (!(ss >> spec.scheduler))
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": scheduler needs a name");
      for (const auto& [key, value] : parse_kv(ss, lineno)) {
        if (key == "quantum") {
          spec.sfq_quantum = parse_time(value);
          if (spec.sfq_quantum <= 0.0)
            throw std::invalid_argument(
                "line " + std::to_string(lineno) +
                ": scheduler quantum must be positive");
        } else {
          throw std::invalid_argument("line " + std::to_string(lineno) +
                                      ": unknown scheduler key '" + key + "'");
        }
      }
      if (spec.sfq_quantum > 0.0 && spec.scheduler != "SFQ-W")
        throw std::invalid_argument(
            "line " + std::to_string(lineno) +
            ": scheduler quantum= requires SFQ-W (got '" + spec.scheduler +
            "')");
    } else if (directive == "duration") {
      std::string v;
      if (!(ss >> v))
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": duration needs a value");
      spec.duration = parse_time(v);
      if (spec.duration <= 0.0)
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": duration must be positive");
    } else if (directive == "link") {
      HopSpec hop;
      for (const auto& [key, value] : parse_kv(ss, lineno)) {
        if (key == "rate") hop.rate = parse_rate(value);
        else if (key == "delta") hop.delta = parse_size(value);
        else if (key == "buffer")
          hop.buffer_packets = static_cast<std::size_t>(
              parse_u64(value, lineno, "buffer"));
        else if (key == "prop")
          hop.propagation = parse_nonneg_time(value, lineno, "prop");
        else if (key == "policy") {
          if (value == "pushout") hop.pushout = true;
          else if (value == "taildrop") hop.pushout = false;
          else
            throw std::invalid_argument(
                "line " + std::to_string(lineno) +
                ": link policy must be pushout or taildrop, got '" + value +
                "'");
        } else
          throw std::invalid_argument("line " + std::to_string(lineno) +
                                      ": unknown link key '" + key + "'");
      }
      if (hop.rate <= 0.0)
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": link rate must be positive");
      spec.hops.push_back(hop);
    } else if (directive == "fault") {
      std::string kind;
      if (!(ss >> kind))
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": fault needs a kind (link|loss)");
      if (kind == "link") {
        LinkFaultSpec lf;
        bool have_down = false, have_degrade = false;
        for (const auto& [key, value] : parse_kv(ss, lineno)) {
          if (key == "down") {
            lf.from = parse_nonneg_time(value, lineno, "down");
            have_down = true;
          } else if (key == "up") {
            lf.until = parse_nonneg_time(value, lineno, "up");
          } else if (key == "degrade") {
            lf.factor = parse_fraction(value, lineno, "degrade");
            have_degrade = true;
          } else if (key == "from") {
            lf.from = parse_nonneg_time(value, lineno, "from");
          } else if (key == "until") {
            lf.until = parse_nonneg_time(value, lineno, "until");
          } else
            throw std::invalid_argument("line " + std::to_string(lineno) +
                                        ": unknown fault link key '" + key +
                                        "'");
        }
        if (have_down == have_degrade)
          throw std::invalid_argument(
              "line " + std::to_string(lineno) +
              ": fault link needs exactly one of down= or degrade=");
        if (lf.until <= lf.from)
          throw std::invalid_argument("line " + std::to_string(lineno) +
                                      ": fault link interval must end after "
                                      "it starts");
        spec.faults.link.push_back(lf);
      } else if (kind == "loss") {
        LossFaultSpec ls;
        bool have_p = false;
        for (const auto& [key, value] : parse_kv(ss, lineno)) {
          if (key == "p") {
            ls.probability = parse_fraction(value, lineno, "p");
            have_p = true;
          } else if (key == "from") {
            ls.from = parse_nonneg_time(value, lineno, "from");
          } else if (key == "until") {
            ls.until = parse_nonneg_time(value, lineno, "until");
          } else if (key == "corrupt") {
            ls.corrupt = parse_bool(value, lineno);
          } else if (key == "seed") {
            spec.faults.seed = parse_u64(value, lineno, "seed");
          } else
            throw std::invalid_argument("line " + std::to_string(lineno) +
                                        ": unknown fault loss key '" + key +
                                        "'");
        }
        if (!have_p)
          throw std::invalid_argument("line " + std::to_string(lineno) +
                                      ": fault loss needs p=");
        if (ls.until <= ls.from)
          throw std::invalid_argument("line " + std::to_string(lineno) +
                                      ": fault loss interval must end after "
                                      "it starts");
        spec.faults.loss.push_back(ls);
      } else {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": unknown fault kind '" + kind + "'");
      }
    } else if (directive == "flow") {
      spec.flows.push_back(
          parse_flow(parse_kv(ss, lineno), lineno, spec.flows.size()));
    } else if (directive == "class") {
      ClassSpec c;
      for (const auto& [key, value] : parse_kv(ss, lineno)) {
        if (key == "name") c.name = value;
        else if (key == "weight") c.weight = parse_rate(value);
        else if (key == "parent") c.parent = value;
        else
          throw std::invalid_argument("line " + std::to_string(lineno) +
                                      ": unknown class key '" + key + "'");
      }
      if (c.name.empty())
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": class needs name=");
      if (c.weight <= 0.0)
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": class weight must be positive");
      for (const ClassSpec& prev : spec.classes)
        if (prev.name == c.name)
          throw std::invalid_argument("line " + std::to_string(lineno) +
                                      ": duplicate class name '" + c.name +
                                      "'");
      if (!c.parent.empty()) {
        bool found = false;
        for (const ClassSpec& prev : spec.classes)
          if (prev.name == c.parent) found = true;
        // Parents must be declared first, which also rules out cycles.
        if (!found)
          throw std::invalid_argument("line " + std::to_string(lineno) +
                                      ": class parent '" + c.parent +
                                      "' not declared (classes must be "
                                      "declared before use)");
      }
      spec.classes.push_back(std::move(c));
    } else if (directive == "trace") {
      for (const auto& [key, value] : parse_kv(ss, lineno)) {
        if (key == "jsonl") spec.obs.trace_jsonl = value;
        else if (key == "invariants")
          spec.obs.check_invariants = parse_bool(value, lineno);
        else
          throw std::invalid_argument("line " + std::to_string(lineno) +
                                      ": unknown trace key '" + key + "'");
      }
    } else if (directive == "metrics") {
      for (const auto& [key, value] : parse_kv(ss, lineno)) {
        if (key == "json") spec.obs.metrics_json = value;
        else if (key == "text") spec.obs.metrics_text = value;
        else
          throw std::invalid_argument("line " + std::to_string(lineno) +
                                      ": unknown metrics key '" + key + "'");
      }
    } else {
      throw std::invalid_argument("line " + std::to_string(lineno) +
                                  ": unknown directive '" + directive + "'");
    }
  }
  if (spec.flows.empty())
    throw std::invalid_argument("experiment has no flows");
  for (std::size_t i = 0; i < spec.flows.size(); ++i)
    for (std::size_t j = i + 1; j < spec.flows.size(); ++j)
      if (spec.flows[i].name == spec.flows[j].name)
        throw std::invalid_argument("duplicate flow name '" +
                                    spec.flows[i].name + "'");
  if (spec.hops.empty()) spec.hops.push_back(HopSpec{});
  if (!spec.classes.empty()) {
    if (spec.scheduler != "HSFQ")
      throw std::invalid_argument(
          "class directives require scheduler HSFQ (got '" + spec.scheduler +
          "')");
    if (spec.hops.size() > 1)
      throw std::invalid_argument(
          "class directives are only supported on a single hop");
  }
  for (const FlowSpec& f : spec.flows) {
    if (f.cls.empty()) continue;
    bool found = false;
    for (const ClassSpec& c : spec.classes)
      if (c.name == f.cls) found = true;
    if (!found)
      throw std::invalid_argument("flow '" + f.name +
                                  "' references undeclared class '" + f.cls +
                                  "'");
  }
  return spec;
}

ExperimentSpec ExperimentSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config: " + path);
  return parse(in);
}

std::optional<ExperimentSpec> ExperimentSpec::try_parse(std::istream& in,
                                                        std::string* error) {
  try {
    return parse(in);
  } catch (const std::exception& e) {
    if (error) *error = e.what();
  } catch (...) {
    if (error) *error = "unknown parse error";
  }
  return std::nullopt;
}

std::optional<ExperimentSpec> ExperimentSpec::try_parse_file(
    const std::string& path, std::string* error) {
  try {
    return parse_file(path);
  } catch (const std::exception& e) {
    if (error) *error = e.what();
  } catch (...) {
    if (error) *error = "unknown parse error";
  }
  return std::nullopt;
}

namespace {

// Round-trippable double formatting: shortest-ish decimal that std::stod
// reads back bit-identically. Values are emitted unitless (bits, seconds,
// bits/s), which every parse_* accepts.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Opens a `metrics json=`/`text=` file target ("-" is stdout, "" is off).
void open_metrics_target(const std::string& target, std::ofstream& out) {
  if (target.empty() || target == "-") return;
  out.open(target);
  if (!out) throw std::runtime_error("cannot write metrics file: " + target);
}

}  // namespace

std::string ExperimentSpec::serialize() const {
  std::ostringstream out;
  out << "scheduler " << scheduler;
  if (sfq_quantum > 0.0) out << " quantum=" << num(sfq_quantum);
  out << "\n";
  for (const HopSpec& h : hops) {
    out << "link rate=" << num(h.rate);
    if (h.delta > 0.0) out << " delta=" << num(h.delta);
    if (h.buffer_packets) out << " buffer=" << h.buffer_packets;
    if (h.propagation > 0.0) out << " prop=" << num(h.propagation);
    if (h.pushout) out << " policy=pushout";
    out << "\n";
  }
  out << "duration " << num(duration) << "\n";
  for (const ClassSpec& c : classes) {
    out << "class name=" << c.name << " weight=" << num(c.weight);
    if (!c.parent.empty()) out << " parent=" << c.parent;
    out << "\n";
  }
  for (const LinkFaultSpec& lf : faults.link) {
    if (lf.factor <= 0.0) {
      out << "fault link down=" << num(lf.from);
      if (lf.until != kTimeInfinity) out << " up=" << num(lf.until);
    } else {
      out << "fault link degrade=" << num(lf.factor)
          << " from=" << num(lf.from);
      if (lf.until != kTimeInfinity) out << " until=" << num(lf.until);
    }
    out << "\n";
  }
  for (std::size_t i = 0; i < faults.loss.size(); ++i) {
    const LossFaultSpec& ls = faults.loss[i];
    out << "fault loss p=" << num(ls.probability);
    if (ls.from > 0.0) out << " from=" << num(ls.from);
    if (ls.until != kTimeInfinity) out << " until=" << num(ls.until);
    if (ls.corrupt) out << " corrupt=on";
    if (i == 0) out << " seed=" << faults.seed;  // one global loss-draw seed
    out << "\n";
  }
  if (!obs.trace_jsonl.empty() || obs.check_invariants) {
    out << "trace";
    if (!obs.trace_jsonl.empty()) out << " jsonl=" << obs.trace_jsonl;
    if (obs.check_invariants) out << " invariants=on";
    out << "\n";
  }
  if (obs.metrics_enabled()) {
    out << "metrics";
    if (!obs.metrics_json.empty()) out << " json=" << obs.metrics_json;
    if (!obs.metrics_text.empty()) out << " text=" << obs.metrics_text;
    out << "\n";
  }
  for (const FlowSpec& f : flows) {
    out << "flow name=" << f.name << " kind=" << f.kind;
    if (f.rate > 0.0) out << " rate=" << num(f.rate);
    if (f.packet > 0.0) out << " packet=" << num(f.packet);
    out << " weight=" << num(f.weight);
    if (f.start > 0.0) out << " start=" << num(f.start);
    if (f.stop >= 0.0) out << " stop=" << num(f.stop);
    if (f.kind == "onoff")
      out << " mean_on=" << num(f.mean_on) << " mean_off=" << num(f.mean_off);
    out << " seed=" << f.seed;
    if (f.leave >= 0.0) out << " leave=" << num(f.leave);
    if (f.rejoin >= 0.0) out << " join=" << num(f.rejoin);
    if (!f.cls.empty()) out << " class=" << f.cls;
    out << "\n";
  }
  return out.str();
}

double sfq_wheel_quantum(const ExperimentSpec& spec) {
  if (spec.scheduler != "SFQ-W") return 0.0;
  if (spec.sfq_quantum > 0.0) return spec.sfq_quantum;
  double max_packet = 0.0;
  for (const FlowSpec& f : spec.flows)
    max_packet = std::max(max_packet, f.packet > 0.0 ? f.packet : 400.0);
  if (max_packet <= 0.0) max_packet = 400.0;
  return max_packet / spec.link_rate();
}

BuiltScheduler build_experiment_scheduler(const ExperimentSpec& spec,
                                          const SchedulerOptions& opts) {
  BuiltScheduler built;
  auto lmax = [](const FlowSpec& f) {
    return f.packet > 0.0 ? f.packet : 400.0;
  };
  if (spec.classes.empty()) {
    built.scheduler = make_scheduler(spec.scheduler, opts);
    for (const FlowSpec& f : spec.flows)
      built.flow_ids.push_back(
          built.scheduler->add_flow(f.weight, lmax(f), f.name));
    return built;
  }
  auto h = std::make_unique<hier::HsfqScheduler>();
  std::map<std::string, hier::HsfqScheduler::ClassId> class_ids;
  class_ids[""] = hier::HsfqScheduler::kRootClass;
  for (const ClassSpec& c : spec.classes)
    class_ids[c.name] = h->add_class(class_ids.at(c.parent), c.weight, c.name);
  for (const FlowSpec& f : spec.flows)
    built.flow_ids.push_back(
        h->add_flow_in_class(class_ids.at(f.cls), f.weight, lmax(f), f.name));
  built.scheduler = std::move(h);
  return built;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                obs::TraceSink* extra_sink) {
  sim::Simulator sim;
  SchedulerOptions opts;
  opts.assumed_capacity = spec.link_rate();
  // DRR: a few max-packets of quantum per weight share of the link.
  double max_packet = 0.0;
  for (const FlowSpec& f : spec.flows)
    max_packet = std::max(max_packet, f.packet);
  opts.quantum_per_weight =
      max_packet > 0.0 ? max_packet / spec.link_rate() * 4.0 : 1.0;
  // SFQ-W: one deterministic quantum for every hop and every oracle.
  opts.sfq_wheel_quantum = sfq_wheel_quantum(spec);
  const double qwindow = opts.sfq_wheel_quantum;

  auto make_profile = [](const HopSpec& hop) -> std::unique_ptr<net::RateProfile> {
    if (hop.delta > 0.0)
      return std::make_unique<net::FcOnOffRate>(hop.rate, hop.delta, 0.5);
    return std::make_unique<net::ConstantRate>(hop.rate);
  };

  // Build either a single server or a tandem path; both expose an inject
  // function, a first-hop recorder, and a delivery point.
  stats::DelayStats delays;
  uint64_t drops = 0;
  std::vector<FlowId> ids;
  std::function<void(Packet)> inject;
  stats::ServiceRecorder* recorder = nullptr;

  std::unique_ptr<Scheduler> single_sched;
  std::unique_ptr<net::ScheduledServer> single_server;
  std::unique_ptr<net::TandemNetwork> tandem;
  stats::ServiceRecorder single_recorder;

  const bool multi_hop = spec.hops.size() > 1;
  if (!multi_hop) {
    BuiltScheduler built = build_experiment_scheduler(spec, opts);
    single_sched = std::move(built.scheduler);
    ids = std::move(built.flow_ids);
    single_server = std::make_unique<net::ScheduledServer>(
        sim, *single_sched, make_profile(spec.hops.front()));
    if (spec.hops.front().buffer_packets)
      single_server->set_buffer_limit(spec.hops.front().buffer_packets);
    if (spec.hops.front().pushout)
      single_server->set_overload_policy(net::OverloadPolicy::kPushout);
    single_server->set_recorder(&single_recorder);
    recorder = &single_recorder;
    single_server->set_departure(
        [&](const Packet& p, Time t) { delays.add(p.flow, t - p.arrival); });
    inject = [&, server = single_server.get()](Packet p) {
      server->inject(std::move(p));
    };
  } else {
    std::vector<net::TandemNetwork::Hop> hops;
    for (std::size_t i = 0; i < spec.hops.size(); ++i) {
      net::TandemNetwork::Hop h;
      h.scheduler = make_scheduler(spec.scheduler, opts);
      h.profile = make_profile(spec.hops[i]);
      h.propagation_to_next =
          i + 1 < spec.hops.size() ? spec.hops[i].propagation : 0.0;
      hops.push_back(std::move(h));
    }
    tandem = std::make_unique<net::TandemNetwork>(sim, std::move(hops));
    for (std::size_t i = 0; i < spec.hops.size(); ++i) {
      if (spec.hops[i].buffer_packets)
        tandem->server(i).set_buffer_limit(spec.hops[i].buffer_packets);
      if (spec.hops[i].pushout)
        tandem->server(i).set_overload_policy(net::OverloadPolicy::kPushout);
    }
    recorder = &tandem->recorder(0);
    // End-to-end delay, measured from the source emission.
    tandem->set_delivery([&](const Packet& p, Time t) {
      delays.add(p.flow, t - p.source_departure);
    });
    inject = [&, t = tandem.get()](Packet p) {
      p.source_departure = sim.now();
      t->inject(std::move(p));
    };
  }

  if (multi_hop) {
    for (const FlowSpec& f : spec.flows) {
      const double lmax = f.packet > 0.0 ? f.packet : 400.0;
      ids.push_back(tandem->add_flow(f.weight, lmax, f.name));
    }
  }

  // Observability: instrument the first (usually bottleneck-shared) hop.
  obs::Tracer tracer;
  std::optional<obs::telemetry::Telemetry> plane;
  obs::InvariantChecker* checker = nullptr;
  std::ofstream metrics_json_out, metrics_text_out;
  const bool obs_on = spec.obs.enabled() || extra_sink != nullptr;
  if (extra_sink != nullptr) tracer.add_sink(extra_sink);
  if (obs_on) {
    if (!spec.obs.trace_jsonl.empty()) {
      auto jsonl = std::make_unique<obs::JsonlSink>(spec.obs.trace_jsonl);
      jsonl->meta("scheduler", spec.scheduler);
      for (std::size_t i = 0; i < spec.flows.size(); ++i)
        jsonl->meta("flow." + std::to_string(ids[i]), spec.flows[i].name);
      tracer.own(std::move(jsonl));
    }
    if (spec.obs.check_invariants) {
      auto copts = obs::InvariantChecker::for_scheduler(spec.scheduler);
      // The wheel serves start tags only up to one quantization window out
      // of order; everything else (vtime, per-flow chains) stays exact.
      copts.order_slack = qwindow;
      auto c = std::make_unique<obs::InvariantChecker>(copts);
      checker = c.get();
      tracer.own(std::move(c));
    }
    if (spec.obs.metrics_enabled()) {
      // Opened before the run, like the trace file: an unwritable path
      // fails before any event executes, not after the whole simulation.
      open_metrics_target(spec.obs.metrics_json, metrics_json_out);
      open_metrics_target(spec.obs.metrics_text, metrics_text_out);
      plane.emplace();
      tracer.own(std::make_unique<obs::telemetry::TraceSink>(*plane));
    }
    if (multi_hop) tandem->server(0).set_tracer(&tracer);
    else single_server->set_tracer(&tracer);
  }

  auto emit = [&](Packet p) { inject(std::move(p)); };
  std::vector<std::unique_ptr<traffic::Source>> sources;
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    const FlowSpec& f = spec.flows[i];
    const FlowId id = ids[i];
    if (f.kind == "cbr") {
      sources.push_back(std::make_unique<traffic::CbrSource>(
          sim, id, emit, f.rate, f.packet));
    } else if (f.kind == "greedy") {
      const double offered = f.rate > 0.0 ? f.rate : 2.0 * f.weight;
      sources.push_back(std::make_unique<traffic::CbrSource>(
          sim, id, emit, offered, f.packet));
    } else if (f.kind == "poisson") {
      sources.push_back(std::make_unique<traffic::PoissonSource>(
          sim, id, emit, f.rate, f.packet, f.seed));
    } else if (f.kind == "onoff") {
      sources.push_back(std::make_unique<traffic::OnOffSource>(
          sim, id, emit, f.rate, f.packet, f.mean_on, f.mean_off, f.seed));
    } else {  // vbr
      traffic::MpegVbrSource::Params vp;
      vp.average_rate = f.rate;
      if (f.packet > 0.0) vp.packet_bits = f.packet;
      vp.seed = f.seed;
      sources.push_back(
          std::make_unique<traffic::MpegVbrSource>(sim, id, emit, vp));
    }
    const Time stop = f.stop < 0.0 ? spec.duration : f.stop;
    sources.back()->run(f.start, stop);
  }

  // Faults apply to the first (bottleneck-shared) hop. Armed after the
  // sources so churn events interleave with arrivals in a fixed order.
  std::unique_ptr<fault::FaultInjector> injector;
  if (spec.has_faults()) {
    fault::FaultPlan plan;
    plan.seed(spec.faults.seed);
    for (const LinkFaultSpec& lf : spec.faults.link)
      plan.degrade(lf.from, lf.until, lf.factor);
    for (const LossFaultSpec& ls : spec.faults.loss) {
      if (ls.corrupt) plan.corruption(ls.from, ls.until, ls.probability);
      else plan.loss(ls.from, ls.until, ls.probability);
    }
    for (std::size_t i = 0; i < spec.flows.size(); ++i) {
      if (spec.flows[i].leave >= 0.0)
        plan.flow_leave(spec.flows[i].leave, ids[i]);
      if (spec.flows[i].rejoin >= 0.0)
        plan.flow_join(spec.flows[i].rejoin, ids[i]);
    }
    net::ScheduledServer& first_server =
        multi_hop ? tandem->server(0) : *single_server;
    injector = std::make_unique<fault::FaultInjector>(sim, first_server,
                                                      std::move(plan));
    injector->arm();
  }

  sim.run_until(spec.duration);
  recorder->finish(sim.now());
  if (multi_hop) tandem->finish_recording();

  ExperimentResult result;
  if (obs_on) {
    tracer.finish();
    result.trace_events = tracer.emitted();
    if (checker) {
      result.invariant_violations = checker->violation_count();
      result.invariant_report = checker->report();
    }
    if (plane) {
      using obs::telemetry::GaugeId;
      plane->set_gauge(GaugeId::kSimEventsExecuted,
                       static_cast<double>(sim.events_executed()));
      plane->set_gauge(GaugeId::kSimEventsScheduled,
                       static_cast<double>(sim.events_scheduled()));
      plane->set_gauge(GaugeId::kSimPendingEvents,
                       static_cast<double>(sim.pending_events()));
      plane->set_gauge(GaugeId::kSimMaxPendingEvents,
                       static_cast<double>(sim.max_pending_events()));
      plane->set_gauge(GaugeId::kSimNow, sim.now());
      const obs::telemetry::TelemetrySnapshot snap = plane->snapshot();
      result.metrics_json = obs::telemetry::to_json(snap);
      auto write_to = [](const std::string& target, std::ofstream& file,
                         const std::string& doc) {
        if (target.empty()) return;
        std::ostream& out = target == "-" ? std::cout : file;
        if (!(out << doc))
          throw std::runtime_error("cannot write metrics file: " + target);
      };
      write_to(spec.obs.metrics_json, metrics_json_out,
               result.metrics_json + "\n");
      write_to(spec.obs.metrics_text, metrics_text_out,
               obs::telemetry::to_prometheus(snap));
    }
  }
  if (!multi_hop) {
    drops = single_server->drops();
  } else {
    for (std::size_t i = 0; i < spec.hops.size(); ++i)
      drops += tandem->server(i).drops();
  }
  result.drops = drops;
  for (std::size_t c = 1; c < obs::kDropCauseCount; ++c) {
    const auto cause = static_cast<obs::DropCause>(c);
    uint64_t n = 0;
    if (!multi_hop) {
      n = single_server->drops(cause);
    } else {
      for (std::size_t i = 0; i < spec.hops.size(); ++i)
        n += tandem->server(i).drops(cause);
    }
    if (n) result.drop_causes.emplace_back(obs::to_string(cause), n);
  }

  // Throughput / counts come from the *last* scheduling point for a tandem
  // (what actually left the path) and the single server otherwise.
  stats::ServiceRecorder* tail_rec =
      multi_hop ? &tandem->recorder(spec.hops.size() - 1) : recorder;
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    FlowResult fr;
    fr.name = spec.flows[i].name;
    fr.packets_delivered = tail_rec->served_packets(ids[i]);
    fr.throughput = tail_rec->served_bits(ids[i]) / spec.duration;
    fr.mean_delay = delays.mean(ids[i]);
    fr.max_delay = delays.max(ids[i]);
    fr.p99_delay = delays.percentile(ids[i], 99.0);
    result.flows.push_back(std::move(fr));
  }
  // Fairness evaluated at the first (usually bottleneck-shared) hop.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      const double h = stats::empirical_fairness(
          *recorder, ids[i], spec.flows[i].weight, ids[j],
          spec.flows[j].weight);
      // Theorem-1 bound, plus the derived 2*quantum quantization slack when
      // the wheel core ran (docs/PERFORMANCE.md, "Quantization slack").
      const double bound = stats::sfq_fairness_bound(
                               std::max(spec.flows[i].packet, 1.0),
                               spec.flows[i].weight,
                               std::max(spec.flows[j].packet, 1.0),
                               spec.flows[j].weight) +
                           2.0 * qwindow;
      result.worst_fairness_ratio =
          std::max(result.worst_fairness_ratio, h / bound);
    }
  }
  result.quantization_window = qwindow;
  return result;
}

}  // namespace sfq::config
