// Example: sfq_lab — a config-driven single-switch scheduling lab.
//
//   sfq_lab experiment.conf        run one experiment
//   sfq_lab --sweep experiment.conf  run it under every scheduler
//   sfq_lab                        run a built-in demo config
//
// Observability overrides (equivalent to `trace` / `metrics` directives in
// the config; see docs/OBSERVABILITY.md):
//   --trace FILE     write a JSONL packet-lifecycle trace of the first hop
//   --metrics FILE   write the telemetry plane's JSON document, the one
//                    sfq_serve's /metrics.json serves ("-" = stdout)
//   --check          run the online invariant checker; exit 1 on violations
//
// A malformed config, an output file that cannot be opened, an unknown
// flag, a flag without its value or a second config path prints a
// diagnostic and exits 2.
//
// Fault injection (equivalent to `fault` directives; docs/ROBUSTNESS.md):
//   --faults "link down=3s up=4s; loss p=0.02 from=1s until=9s"
// Each semicolon-separated group is one `fault` directive appended to the
// config before parsing.
//
// Config format (see src/config/experiment.h):
//
//   scheduler SFQ
//   link rate=10Mbps delta=20Kb buffer=0
//   duration 10s
//   flow name=voice kind=cbr     rate=64Kbps packet=160B
//   flow name=tv    kind=vbr     rate=1.21Mbps packet=50B
//   flow name=bulk  kind=greedy  packet=1500B weight=4Mbps
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "config/experiment.h"
#include "core/scheduler_factory.h"

using namespace sfq;

namespace {

const char* kDemoConfig = R"(
# Built-in demo: interactive voice + VBR TV + two elephants on 10 Mb/s.
scheduler SFQ
link rate=10Mbps
duration 10s
flow name=voice kind=cbr    rate=64Kbps   packet=160B
flow name=tv    kind=vbr    rate=1.21Mbps packet=50B
flow name=web   kind=onoff  rate=8Mbps    packet=1000B weight=2Mbps mean_on=40ms mean_off=120ms
flow name=bulk1 kind=greedy packet=1500B  weight=3Mbps
flow name=bulk2 kind=greedy packet=1500B  weight=3Mbps start=5s
)";

void print_result(const config::ExperimentSpec& spec,
                  const config::ExperimentResult& r) {
  std::printf("scheduler %-12s %zu hop(s), first %.1f Mb/s  duration %.1f s"
              "  drops %llu\n",
              spec.scheduler.c_str(), spec.hops.size(),
              spec.link_rate() / 1e6, spec.duration,
              static_cast<unsigned long long>(r.drops));
  std::printf("  %-10s %10s %12s %12s %12s\n", "flow", "Mb/s", "mean(ms)",
              "p99(ms)", "max(ms)");
  for (const auto& f : r.flows) {
    std::printf("  %-10s %10.3f %12.3f %12.3f %12.3f\n", f.name.c_str(),
                f.throughput / 1e6, to_milliseconds(f.mean_delay),
                to_milliseconds(f.p99_delay), to_milliseconds(f.max_delay));
  }
  std::printf("  worst pairwise H / Theorem-1 bound: %.3f %s\n",
              r.worst_fairness_ratio,
              r.worst_fairness_ratio <= 1.0 + 1e-9
                  ? "(within fair-queueing bound)"
                  : "(UNFAIR)");
  if (!r.drop_causes.empty()) {
    std::printf("  drops by cause:");
    for (const auto& [cause, n] : r.drop_causes)
      std::printf(" %s=%llu", cause.c_str(),
                  static_cast<unsigned long long>(n));
    std::printf("\n");
  }
  if (spec.obs.enabled())
    std::printf("  trace: %llu events%s%s\n",
                static_cast<unsigned long long>(r.trace_events),
                spec.obs.trace_jsonl.empty() ? "" : " -> ",
                spec.obs.trace_jsonl.c_str());
  if (!r.invariant_report.empty())
    std::printf("  %s\n", r.invariant_report.c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep = false;
  bool check = false;
  std::string file, trace_file, metrics_file, faults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool takes_value =
        arg == "--trace" || arg == "--metrics" || arg == "--faults";
    if (takes_value && i + 1 >= argc) {
      std::fprintf(stderr, "sfq_lab: %s needs a value\n", arg.c_str());
      return 2;
    }
    if (arg == "--sweep") sweep = true;
    else if (arg == "--check") check = true;
    else if (arg == "--trace") trace_file = argv[++i];
    else if (arg == "--metrics") metrics_file = argv[++i];
    else if (arg == "--faults") faults = argv[++i];
    else if (arg.starts_with("-") || !file.empty()) {
      std::fprintf(stderr, "sfq_lab: unexpected argument: %s\n", arg.c_str());
      return 2;
    } else {
      file = arg;
    }
  }

  // Load the config text so --faults directives can be appended before the
  // (single-pass) parse.
  std::string text;
  if (file.empty()) {
    std::printf("no config given - running the built-in demo\n\n");
    text = kDemoConfig;
  } else {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open config: %s\n", file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  std::istringstream fs(faults);
  for (std::string group; std::getline(fs, group, ';');) {
    if (group.find_first_not_of(" \t") == std::string::npos) continue;
    text += "\nfault " + group + "\n";
  }

  std::istringstream in(text);
  std::string error;
  std::optional<config::ExperimentSpec> parsed =
      config::ExperimentSpec::try_parse(in, &error);
  if (!parsed) {
    std::fprintf(stderr, "sfq_lab: %s\n", error.c_str());
    return 2;
  }
  config::ExperimentSpec& spec = *parsed;
  if (!trace_file.empty()) spec.obs.trace_jsonl = trace_file;
  if (!metrics_file.empty()) spec.obs.metrics_json = metrics_file;
  if (check) spec.obs.check_invariants = true;

  // An output file that cannot be opened ends the run with a runtime_error.
  uint64_t violations = 0;
  try {
    if (!sweep) {
      const auto r = config::run_experiment(spec);
      print_result(spec, r);
      violations = r.invariant_violations;
    } else {
      for (const std::string& name : scheduler_names()) {
        if (name == "EDD") continue;  // needs per-flow deadlines
        spec.scheduler = name;
        const auto r = config::run_experiment(spec);
        print_result(spec, r);
        violations += r.invariant_violations;
      }
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "sfq_lab: %s\n", e.what());
    return 2;
  }
  return violations == 0 ? 0 : 1;
}
