#pragma once

#include <cstdint>
#include <string>
#include <vector>

// Process and host measurements shared by every workload: clocks, CPU time,
// peak RSS, host steal time, order statistics, and the result line.
namespace lclbench {

/// Monotonic wall clock in seconds.
double now_s();

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_s();

/// Peak resident set size of the process in MiB (VmHWM).
double peak_rss_mb();

/// Restricts the process (and every thread it starts later) to the last
/// `count` CPUs it may run on. Returns the CPU list, e.g. "2,3"; empty when
/// the affinity cannot be read or set.
std::string pin_to_cpus(std::size_t count);

/// Aggregate CPU jiffies from /proc/stat; zeros where it is unreadable.
struct HostTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostTimes read_host_times();
/// Share of host CPU time stolen by the hypervisor between two readings.
double steal_frac(const HostTimes& before, const HostTimes& after);

/// Order statistics over a copy of `values` (0 for an empty sample).
/// `quantile` interpolates linearly between closest ranks.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// What a timed run reports over its repetitions (surveys, request
/// rounds): the fastest. The rest of a shared host only ever adds time, in
/// phases of seconds to minutes that slow a whole stretch of repetitions by
/// up to half, so the fastest repetition reads the code's own cost whenever
/// a run holds any quiet moment, while medians and low percentiles read the
/// share of the run the slow phases took.
double fastest(const std::vector<double>& values);

/// " <what> min .. p10 .. p25 .. p50 .. max ..;" for the log.
std::string spread(const char* what, const std::vector<double>& values);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Build and run provenance, printed before every result line.
struct Provenance {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string cpus;
  /// SHA-256 of the built sources, from run.py; the git SHA is "unknown"
  /// in a checkout without history.
  std::string source_digest;
  double steal_frac = 0.0;
};
std::string provenance_json(const Provenance& provenance);

/// The result line: the last line of standard output.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace lclbench
