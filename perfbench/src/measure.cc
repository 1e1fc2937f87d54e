#include "measure.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <dirent.h>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  auto it = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), it, v.end());
  return *it;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(v.begin(), mid, v.end());
  const double hi = *mid;
  if (n % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), mid);
  return 0.5 * (lo + hi);
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

sfq::obs::telemetry::HistogramSnapshot hist_delta(
    const sfq::obs::telemetry::HistogramSnapshot& before,
    const sfq::obs::telemetry::HistogramSnapshot& after) {
  sfq::obs::telemetry::HistogramSnapshot d = after;
  if (before.counts.empty()) return d;
  if (d.counts.empty()) d.counts.assign(before.counts.size(), 0);
  for (std::size_t i = 0; i < d.counts.size(); ++i)
    d.counts[i] -= before.counts[i];
  d.count -= before.count;
  d.sum_ns -= before.sum_ns;
  return d;
}

double self_time(const Span& parent, std::vector<Span> children) {
  for (Span& c : children) {
    c.t0 = std::max(c.t0, parent.t0);
    c.t1 = std::min(c.t1, parent.t1);
  }
  std::erase_if(children, [](const Span& c) { return c.t1 <= c.t0; });
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.t0 < b.t0; });
  double covered = 0.0;
  double run_t0 = 0.0, run_t1 = -1.0;  // current merged run; empty when t1<t0
  for (const Span& c : children) {
    if (c.t0 > run_t1) {
      if (run_t1 > run_t0) covered += run_t1 - run_t0;
      run_t0 = c.t0;
      run_t1 = c.t1;
    } else {
      run_t1 = std::max(run_t1, c.t1);
    }
  }
  if (run_t1 > run_t0) covered += run_t1 - run_t0;
  return (parent.t1 - parent.t0) - covered;
}

double timer_overhead_ns() {
  constexpr int kReads = 200'000;
  const auto t0 = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point last{};
  for (int i = 0; i < kReads; ++i) last = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(last - t0).count();
  // A timed call's interval spans one read (the second) plus the call.
  return ns / kReads;
}

namespace {
double ts_s(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts_s(ts);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts_s(ts);
}

double thread_cpu_s(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return ts_s(ts);
}

clockid_t cpu_clock_of(pthread_t t) {
  clockid_t c{};
  pthread_getcpuclockid(t, &c);
  return c;
}

std::vector<int> task_ids() {
  std::vector<int> out;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d))
      if (e->d_name[0] != '.') out.push_back(std::atoi(e->d_name));
    closedir(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TaskStat task_stat(const std::vector<int>& tids) {
  TaskStat s;
  for (int tid : tids) {
    const std::string base = "/proc/self/task/" + std::to_string(tid);
    std::ifstream sched(base + "/schedstat");
    double run_ns = 0.0, wait_ns = 0.0;
    if (!(sched >> run_ns >> wait_ns)) continue;
    s.run_s += run_ns * 1e-9;
    s.wait_s += wait_ns * 1e-9;
    std::ifstream status(base + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0)
        s.vol_cs += std::stoull(line.substr(line.find(':') + 1));
      else if (line.rfind("nonvoluntary_ctxt_switches:", 0) == 0)
        s.invol_cs += std::stoull(line.substr(line.find(':') + 1));
    }
  }
  return s;
}

double steal_ms() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return 0.0;
  for (uint64_t& x : v)
    if (!(f >> x)) return 0.0;
  return 1000.0 * static_cast<double>(v[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

uint64_t invol_ctx_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_nivcsw);
}

double rss_mb() {
  std::ifstream f("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(f >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

unsigned nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

unsigned busy_cpu(unsigned k) { return (nproc() - 1 - k % nproc()); }

void pin_to_cpu(int tid, unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % nproc(), &set);
  sched_setaffinity(tid, sizeof set, &set);
}

void keep_off_busy_cpus(unsigned busy) {
  const unsigned n = nproc();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = 0; c < n; ++c)
    if (busy >= n || c < n - busy) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double calib_ns() {
  constexpr int kIters = 20'000;  // ~70 us on a 2 GHz core
  volatile uint64_t sink = 0;
  uint64_t x = 0x9e3779b97f4a7c15ull ^ sink;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x2545f4914f6cdd1dull;
  }
  sink = x;
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
