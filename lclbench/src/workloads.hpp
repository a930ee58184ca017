#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

// The benchmark's workloads. Each runs in its own process: the timed mode
// reports the end-to-end metrics, the traced mode (a separate invocation)
// the per-layer ones.
namespace lclbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string ref_dir;   // committed survey references
  std::string golden;    // the Delta=3 l=2 survey golden (lcld reference)
  std::string out_dir;   // traces are written here
};

/// A timed run is kSegments equal stretches. setup_s is the median over
/// them of each stretch's fastest set-up: set-up phases are short, and the
/// rest of a shared host slows whole stretches of a run by up to half, so a
/// median over all set-ups reads how much of the run such phases took, while
/// a stretch's fastest reads the code whenever the stretch has a quiet
/// moment. lcld sets up once per stretch, on a freshly started service.
constexpr std::size_t kSegments = 11;

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric name -> value; names absent here are reported as 0.
  std::map<std::string, double> metrics;
};

/// Survey workloads: "survey-d2l2", "survey-d2l3", "survey-d2l3-j2",
/// "survey-d4l2".
bool is_survey_workload(const std::string& name);
RunResult run_survey_workload(const RunArgs& args);

/// "lcld-classify": warm /v1/classify requests over loopback from one
/// closed-loop client.
RunResult run_lcld_workload(const RunArgs& args);

/// CPUs a workload's process is pinned to: one per busy worker for the
/// surveys, one for lcld, whose client, connection thread and pool worker
/// hand each request on and never run at once. Pinning keeps every
/// workload to at most two busy vCPUs of the four the bounds were set on,
/// and off CPU 0, where most interrupts and other processes land; on one
/// vCPU a request's hand-offs need no wake-up of another vCPU. 0 = unknown
/// workload.
std::size_t workload_cpus(const std::string& name);

}  // namespace lclbench
