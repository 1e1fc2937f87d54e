// Measurement helpers shared by every perfbench workload: window statistics,
// CPU and /proc accounting, the calibration kernel, span arithmetic and the
// result record the command prints.
#pragma once

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry/histogram.h"

namespace perfbench {

// ---------------------------------------------------------------- statistics

// Nearest-rank quantile: the ceil(q*n)-th smallest sample (q in [0,1],
// rank clamped to [1, n]). Reorders `v`; returns 0 for an empty vector.
double quantile(std::vector<double>& v, double q);

// Median with the two middle samples averaged for even counts.
double median(std::vector<double> v);

// Smallest sample; 0 for an empty vector.
double min_of(const std::vector<double>& v);

// Histogram of the samples recorded between two snapshots of one cumulative
// telemetry histogram (bucket-wise difference).
sfq::obs::telemetry::HistogramSnapshot hist_delta(
    const sfq::obs::telemetry::HistogramSnapshot& before,
    const sfq::obs::telemetry::HistogramSnapshot& after);

// --------------------------------------------------------------------- spans

// One traced interval on a wall-clock axis (seconds). `id` is the request id
// (the packet's seq); `layer` indexes kLayerNames.
struct Span {
  uint64_t id = 0;
  uint32_t layer = 0;
  double t0 = 0.0;
  double t1 = 0.0;
};

// Self time of `parent`: its duration minus the part of it that the union of
// `children` (clipped to the parent) covers. Overlapping children count once.
double self_time(const Span& parent, std::vector<Span> children);

// Steady-clock seconds relative to an epoch, so benchmark-side stamps can
// share an axis with an engine's own clock (align() after construction).
class SpanClock {
 public:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }
  // Makes now() read `t` at this instant.
  void align(double t) {
    epoch_ = std::chrono::steady_clock::now() -
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(t));
  }

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

// Mean cost of one steady-clock read, in ns: the bias every externally timed
// call carries (reported beside the per-layer metrics).
double timer_overhead_ns();

// --------------------------------------------------------- CPU and the host

double process_cpu_s();                 // CLOCK_PROCESS_CPUTIME_ID
double thread_cpu_s();                  // calling thread
double thread_cpu_s(clockid_t clock);   // another thread's CPU clock
clockid_t cpu_clock_of(pthread_t t);

// Kernel thread ids of this process (/proc/self/task).
std::vector<int> task_ids();

struct TaskStat {
  double run_s = 0.0;      // time on CPU (schedstat)
  double wait_s = 0.0;     // time runnable but waiting for a CPU
  uint64_t vol_cs = 0;     // voluntary context switches
  uint64_t invol_cs = 0;   // involuntary context switches
};
// Sum over the given tasks; tasks that have exited contribute nothing.
TaskStat task_stat(const std::vector<int>& tids);

double steal_ms();           // cumulative host steal time, all CPUs (/proc/stat)
uint64_t invol_ctx_switches();  // this process, getrusage
double rss_mb();             // resident set (/proc/self/statm)
unsigned nproc();

// CPU plan: busy thread k (dispatchers first, then producers) runs alone on
// CPU nproc-1-k, so busy threads never share or migrate; pin_to_cpu applies
// it to a thread of this process (kernel tid; 0 = the caller). The measuring
// thread keeps to the CPUs left over (all of them when none are), so its
// sampling and calibration never preempt a busy thread.
unsigned busy_cpu(unsigned k);
void pin_to_cpu(int tid, unsigned cpu);
void keep_off_busy_cpus(unsigned busy);

// Joins `threads` when the scope ends, error paths included, raising `stop`
// first (when given) so loops that poll it return.
class JoinAll {
 public:
  JoinAll(std::vector<std::thread>& threads, std::atomic<bool>* stop)
      : threads_(threads), stop_(stop) {}
  ~JoinAll() {
    if (stop_ != nullptr) stop_->store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }
  JoinAll(const JoinAll&) = delete;
  JoinAll& operator=(const JoinAll&) = delete;

 private:
  std::vector<std::thread>& threads_;
  std::atomic<bool>* stop_;
};

// Fixed pure-ALU kernel; returns its wall time in ns. Interleaved with the
// measured windows as a host-speed diagnostic.
double calib_ns();

// -------------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // windows (or events) the value summarises
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;   // failed output checks
  std::vector<std::string> notes;    // human-readable report lines
  std::vector<Metric> reported;      // end-to-end, printed but not gated
  std::vector<Metric> diagnostics;   // noise and host diagnostics

  void add(std::string name, double value, std::string unit,
           uint64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void ungated(std::string name, double value, std::string unit,
               uint64_t samples) {
    reported.push_back({std::move(name), value, std::move(unit), samples});
  }
  void diag(std::string name, double value, std::string unit,
            uint64_t samples = 1) {
    diagnostics.push_back({std::move(name), value, std::move(unit), samples});
  }
  // Records a failed output check (the command then exits non-zero).
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

std::string json_number(double v);

}  // namespace perfbench
