// Shared plumbing for the wall-time benchmark: clocks, a log-uniform draw,
// order statistics, /proc readers, and the result record every workload
// returns.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "sorel/util/rng.hpp"

namespace wallbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Every input a workload generates is a pure function of the --seed
/// argument, drawn through sorel::util::Rng (no std:: distributions, whose
/// output is implementation-defined). Log-uniform in [lo, hi).
inline double log_uniform(sorel::util::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

/// Quantile with linear interpolation between order statistics (the
/// "inclusive" definition). Returns 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Length of the blocks a timed phase is cut into.
inline constexpr double kBlockSeconds = 1.0;

/// Per-block summaries of a timed phase. The end-to-end numbers are medians
/// over blocks, so a burst of outside load that covers a minority of the
/// blocks does not move them.
struct BlockStats {
  std::vector<double> rates, p50s, p99s;

  /// Close one block of `ops` operations over `seconds`; `latencies` holds
  /// the block's per-op latencies and is cleared.
  void add(double ops, double seconds, std::vector<double>& latencies) {
    rates.push_back(ops / seconds);
    p50s.push_back(quantile(latencies, 0.50));
    p99s.push_back(quantile(latencies, 0.99));
    latencies.clear();
  }
  double rate() const { return median(rates); }
  double p50() const { return median(p50s); }
  double p99() const { return median(p99s); }
};

/// One metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `attempted`/`failed` count timed ops and
/// failed correctness checks on them; `errors` holds human-readable details
/// of the first few failures.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::string message) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(message));
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  std::string work_dir;  // work area inside the checkout (specs, sockets, traces)
  std::string cli;       // sorel_cli binary for the daemon workload

  /// Length of each timed phase. The traced run splits its time between an
  /// untraced and a traced phase, so it takes no longer than the untraced run.
  double phase_seconds() const { return trace ? seconds / 2 : seconds; }
};

// -- /proc readers -----------------------------------------------------------

/// VmHWM (peak resident set) of `pid` in MiB; pid 0 reads this process.
double peak_rss_mb(pid_t pid);

/// utime + stime of every thread of `pid`, in microseconds.
double process_cpu_us(pid_t pid);

/// Voluntary + involuntary context switches summed over `pid`'s threads.
std::uint64_t context_switches(pid_t pid);

}  // namespace wallbench
