#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace lcl::obs {

class RunContext;

/// Snapshot of this process's memory/CPU standing, read from
/// /proc/self/status and getrusage.
struct ResourceUsage {
  std::uint64_t rss_kb = 0;       // VmRSS
  std::uint64_t peak_rss_kb = 0;  // VmHWM
  std::uint64_t cpu_ms = 0;       // user + system CPU time
};

/// Reads the current usage; returns false (leaving `out` untouched) when
/// /proc is unavailable. Exposed for tests and one-shot reporting.
bool read_resource_usage(ResourceUsage* out);

/// Background sampling thread. Every `interval` it takes two samples, in
/// this order:
///
///  - RSS / peak RSS / CPU time into `process.*` gauges plus a
///    `process.rss_sample_kb` histogram, and a "resource" record into the
///    current TraceSession;
///  - with a `run`: `run->publish_gauges()` plus a "progress" record
///    (run_id, phase, rows done/total) into the current TraceSession.
///
/// Default-on in lcl_batch / lcl_fuzz behind the LCL_OBS kill switch: in
/// LCL_OBS=0 builds `start()` fails fast (same contract as Exporter).
class ResourceSampler {
 public:
  struct Options {
    std::chrono::milliseconds interval{1000};
    /// Optional run to publish progress for; may be null (resource
    /// sampling only).
    RunContext* run = nullptr;
  };

  ResourceSampler() = default;
  explicit ResourceSampler(Options options) : options_(std::move(options)) {}
  ~ResourceSampler();

  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  /// Spawns the sampling thread; false (with `error()` set) in LCL_OBS=0
  /// builds. Idempotent while running.
  bool start();
  /// Stops the thread, then takes one final sample of each kind.
  /// Idempotent; called by the destructor.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  std::uint64_t samples() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }
  const std::string& error() const noexcept { return error_; }

 private:
  void sample_loop();
  void sample_resources();
  void sample_progress();

  Options options_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> samples_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::string error_;
};

}  // namespace lcl::obs
