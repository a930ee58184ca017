#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "util/version.hpp"

namespace lclbench {

namespace json = lcl::obs::json;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string pin_to_cpus(std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.size() < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.insert(cpus.begin(), cpu);
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (const int cpu : cpus) {
    CPU_SET(cpu, &pinned);
    if (!list.empty()) list += ',';
    list += std::to_string(cpu);
  }
  if (cpus.empty() || sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return {};
  }
  return list;
}

HostTimes read_host_times() {
  HostTimes times;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  if (!(stat >> cpu) || cpu != "cpu") return times;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) return HostTimes{};
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double steal_frac(const HostTimes& before, const HostTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double fastest(const std::vector<double>& values) {
  return quantile(values, 0.0);
}

std::string spread(const char* what, const std::vector<double>& values) {
  std::ostringstream out;
  out << " " << what << " min " << quantile(values, 0.0) << " p10 "
      << quantile(values, 0.1) << " p25 " << quantile(values, 0.25)
      << " p50 " << quantile(values, 0.5) << " max "
      << quantile(values, 1.0) << ";";
  return out.str();
}

std::string provenance_json(const Provenance& p) {
  json::Value root = json::Value::make_object();
  auto& fields = root.object();
  fields["git_sha"] = json::Value(std::string(lcl::git_sha()));
  fields["source_sha256"] = json::Value(p.source_digest);
  fields["compiler"] = json::Value(std::string(LCLBENCH_COMPILER));
  fields["flags"] = json::Value(std::string(LCLBENCH_FLAGS));
  fields["build_type"] = json::Value(std::string(LCLBENCH_BUILD_TYPE));
  fields["nproc"] =
      json::Value(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  fields["workload"] = json::Value(p.workload);
  fields["seed"] = json::Value(static_cast<std::int64_t>(p.seed));
  fields["seconds"] = json::Value(static_cast<std::int64_t>(p.seconds));
  fields["trace"] = json::Value(p.trace);
  fields["cpus"] = json::Value(p.cpus);
  fields["host.steal_frac"] = json::Value(p.steal_frac);
  json::Value wrapper = json::Value::make_object();
  wrapper.object()["provenance"] = std::move(root);
  return json::dump(wrapper);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  // Hand-rendered so every value keeps all its digits (%.17g round-trips a
  // double exactly).
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace lclbench
