// Workload entry points. Each generates its inputs from the seed before any
// program set-up, runs one warm-up window and then equal measured windows,
// checks the program's outputs, and returns the metrics of its mode:
// end-to-end metrics untraced, per-layer metrics traced.
#pragma once

#include <cstdint>
#include <string>

#include "measure.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // traced runs write their spans here when set
};

Result run_rt_blast(const Args& args);
Result run_rt_paced(const Args& args, double load);
Result run_sim_flowscale(const Args& args);

// Deterministic SplitMix64 stream for input generation.
inline uint64_t mix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
inline double unit_draw(uint64_t& state) {  // [0, 1)
  return static_cast<double>(mix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace perfbench
