// sfq_perfbench: one workload, one seed, one mode per invocation.
//
//   sfq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--sha SHA] [--spans PATH]
//
// Prints a human-readable report (metrics with units and sample counts,
// run metadata, noise diagnostics), then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exits 1 when an output check fails, 2 on bad arguments.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "sfq_perfbench: %s\nusage: sfq_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--sha SHA] [--spans PATH]\n"
               "workloads: rt_blast rt_paced50 rt_paced90 rt_paced150 "
               "sim_flowscale\n",
               why);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold (glibc otherwise raises it after each free of a
  // large block) makes resident-set growth repeat from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  std::string sha = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0)
        return usage("--seconds takes a number in (0, 600]");
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace takes 0 or 1");
      args.trace = v[0] == '1';
      have_trace = true;
    } else if (k == "--sha") {
      sha = v;
    } else if (k == "--spans") {
      args.spans_path = v;
    } else {
      return usage(("unknown option " + k).c_str());
    }
  }
  if (args.workload.empty() || !have_trace)
    return usage("--workload and --trace are required");

  Result r;
  const std::string& w = args.workload;
  if (w == "rt_blast") r = run_rt_blast(args);
  else if (w == "rt_paced50") r = run_rt_paced(args, 0.5);
  else if (w == "rt_paced90") r = run_rt_paced(args, 0.9);
  else if (w == "rt_paced150") r = run_rt_paced(args, 1.5);
  else if (w == "sim_flowscale") r = run_sim_flowscale(args);
  else return usage(("unknown workload " + w).c_str());

  for (const Metric& m : r.metrics)
    r.check(std::isfinite(m.value), m.name + " is not a finite number");

  std::printf("# sfq_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# meta nproc=%u compiler=\"%s\" build_type=%s lto=%s sha=%s\n",
              nproc(), __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_LTO,
              sha.c_str());
  for (const Metric& m : r.metrics)
    std::printf("%-36s %16.6g %-6s samples=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  for (const Metric& m : r.reported)
    std::printf("%-36s %16.6g %-6s samples=%llu (not gated)\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  for (const Metric& m : r.diagnostics)
    std::printf("# diag %-30s %16.6g %-6s samples=%llu\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  for (const std::string& n : r.notes) std::printf("# note %s\n", n.c_str());
  for (const std::string& e : r.errors)
    std::printf("# CHECK FAILED: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) json += ", ";
    json += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
