#include "obs/resource_sampler.hpp"

#include <cstdio>
#include <cstring>

#include <sys/resource.h>

#include "obs/obs.hpp"
#include "obs/run_context.hpp"

namespace lcl::obs {

bool read_resource_usage(ResourceUsage* out) {
  ResourceUsage usage;

  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return false;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
      usage.rss_kb = kb;
    } else if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      usage.peak_rss_kb = kb;
    }
  }
  std::fclose(status);

  rusage self{};
  if (::getrusage(RUSAGE_SELF, &self) == 0) {
    const auto to_ms = [](const timeval& tv) {
      return static_cast<std::uint64_t>(tv.tv_sec) * 1000 +
             static_cast<std::uint64_t>(tv.tv_usec) / 1000;
    };
    usage.cpu_ms = to_ms(self.ru_utime) + to_ms(self.ru_stime);
  }

  *out = usage;
  return true;
}

ResourceSampler::~ResourceSampler() { stop(); }

#if LCL_OBS

bool ResourceSampler::start() {
  if (running()) return true;
  error_.clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { sample_loop(); });
  return true;
}

void ResourceSampler::stop() {
  if (!running() && !thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final samples so short runs record at least one data point of each
  // kind and the gauges reflect the end state.
  sample_resources();
  sample_progress();
  running_.store(false, std::memory_order_release);
}

void ResourceSampler::sample_loop() {
  using clock = std::chrono::steady_clock;
  auto next = clock::now() + options_.interval;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!cv_.wait_until(lock, next, [this] { return stop_requested_; })) {
    next = clock::now() + options_.interval;
    lock.unlock();
    sample_resources();
    sample_progress();
    lock.lock();
  }
}

void ResourceSampler::sample_resources() {
  ResourceUsage usage;
  if (!read_resource_usage(&usage)) return;

  if (metrics_enabled()) {
    auto& reg = registry();
    reg.gauge("process.rss_kb")
        .set(static_cast<std::int64_t>(usage.rss_kb));
    reg.gauge("process.peak_rss_kb")
        .set(static_cast<std::int64_t>(usage.peak_rss_kb));
    reg.gauge("process.cpu_ms")
        .set(static_cast<std::int64_t>(usage.cpu_ms));
    reg.histogram("process.rss_sample_kb").record(usage.rss_kb);
  }

  if (TraceSession* session = TraceSession::current(); session != nullptr) {
    const TraceArg args[] = {
        {"rss_kb", static_cast<std::int64_t>(usage.rss_kb)},
        {"peak_rss_kb", static_cast<std::int64_t>(usage.peak_rss_kb)},
        {"cpu_ms", static_cast<std::int64_t>(usage.cpu_ms)},
    };
    session->emit_resource(args, 3);
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
}

void ResourceSampler::sample_progress() {
  RunContext* run = options_.run;
  if (run == nullptr) return;
  run->publish_gauges();

  if (TraceSession* session = TraceSession::current(); session != nullptr) {
    const TraceArg args[] = {
        {"rows_done", static_cast<std::int64_t>(run->rows_done())},
        {"rows_total", static_cast<std::int64_t>(run->rows_total())},
        {"errors", static_cast<std::int64_t>(run->errors())},
    };
    session->emit_progress(run->run_id(), run->phase(), args, 3);
  }
}

#else  // !LCL_OBS

bool ResourceSampler::start() {
  error_ = "telemetry compiled out (built with LCL_OBS=0)";
  return false;
}

void ResourceSampler::stop() {}

void ResourceSampler::sample_loop() {}
void ResourceSampler::sample_resources() {}
void ResourceSampler::sample_progress() {}

#endif  // LCL_OBS

}  // namespace lcl::obs
