// lclbench: the lclscape end-to-end benchmark program. One workload per
// process; the last line of standard output is the result JSON.
//
//   lclbench --workload survey-d2l2 --seed 1 --seconds 20 --trace 0
//            [--ref-dir lclbench/ref] [--golden tests/golden/survey-d3-l2.json]
//            [--out-dir .bench_build/lclbench/out] [--source-digest HEX]
//
// --trace 0 times the workload and reports the end-to-end metrics; --trace 1
// is a separate invocation that runs the same inputs under the library's
// own spans and reports the per-layer metrics. Exit codes: 0 = a result was
// printed, 1 = the workload could not run, 2 = usage error.

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "host.hpp"
#include "workloads.hpp"

namespace {

using lclbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},   {"cpu_s", "s"},         {"p50_ms", "ms"},
    {"setup_s", "s"},  {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"re.reduce.s", "s"},
    {"re.reduce.calls", "count"},
    {"re.reduce.max_s", "s"},
    {"re.reduce.labels_in", "labels"},
    {"re.R.s", "s"},
    {"re.Rbar.s", "s"},
    {"re.zero_round.s", "s"},
    {"re.zero_round.calls", "count"},
    {"classify.cycles.s", "s"},
    {"classify.paths.s", "s"},
    {"classify.calls", "count"},
    {"lint.canonical_form.s", "s"},
    {"lint.canonical_form.calls", "count"},
    {"lint.run.s", "s"},
    {"lint.run.calls", "count"},
    {"lint.spec_io.s", "s"},
    {"batch.cache.hits", "count"},
    {"batch.cache.misses", "count"},
    {"batch.cache.canonical_hits", "count"},
    {"batch.cache.dup_misses", "count"},
    {"batch.pool.busy_s", "s"},
    {"batch.pool.idle_frac", "ratio"},
    {"batch.member.max_s", "s"},
    {"batch.member.top10_share", "ratio"},
    {"batch.member.self_s", "s"},
    {"batch.report.s", "s"},
    {"batch.note_drift", "count"},
    {"svc.handle_ms.p50", "ms"},
    {"svc.transport_ms.p50", "ms"},
    {"svc.p99_ms", "ms"},
    {"svc.req_per_s", "1/s"},
    {"svc.non2xx", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"host.steal_frac", "ratio"},
};

int usage(const std::string& error) {
  std::cerr << "lclbench: " << error
            << "\nusage: lclbench --workload <survey-d2l2|lcld-classify|"
               "survey-d2l3|survey-d2l3-j2|survey-d4l2> --seed N --seconds N "
               "--trace 0|1 "
               "[--ref-dir D] [--golden F] [--out-dir D] "
               "[--source-digest HEX]\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18) {
    return false;
  }
  out = std::stoull(text);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  lclbench::RunArgs args;
  args.ref_dir = "lclbench/ref";
  args.golden = "tests/golden/survey-d3-l2.json";
  args.out_dir = ".bench_build/lclbench/out";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage("missing value for " + flag);
    }
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, number)) return usage("bad --seed");
      args.seed = number;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, number) || number < 1 || number > 600) {
        return usage("--seconds wants 1..600");
      }
      args.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace wants 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--ref-dir") {
      args.ref_dir = value;
    } else if (flag == "--golden") {
      args.golden = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  const std::size_t cpu_count = lclbench::workload_cpus(args.workload);
  if (cpu_count == 0) {
    return usage("unknown workload '" + args.workload + "'");
  }
  const bool survey = lclbench::is_survey_workload(args.workload);
  const std::string cpus = lclbench::pin_to_cpus(cpu_count);

  const lclbench::HostTimes host_start = lclbench::read_host_times();
  lclbench::RunResult result;
  try {
    if (args.trace) std::filesystem::create_directories(args.out_dir);
    result = survey ? lclbench::run_survey_workload(args)
                    : lclbench::run_lcld_workload(args);
  } catch (const std::exception& e) {
    std::cerr << "lclbench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
  const double steal =
      lclbench::steal_frac(host_start, lclbench::read_host_times());

  std::vector<Metric> metrics;
  if (args.trace) {
    result.metrics["host.steal_frac"] = steal;
    for (const auto& spec : kPerLayer) {
      metrics.push_back(Metric{spec.name, result.metrics[spec.name], spec.unit});
    }
  } else {
    result.metrics["peak_rss_mb"] = lclbench::peak_rss_mb();
    for (const auto& spec : kEndToEnd) {
      metrics.push_back(Metric{spec.name, result.metrics[spec.name], spec.unit});
    }
  }

  lclbench::Provenance provenance;
  provenance.workload = args.workload;
  provenance.seed = args.seed;
  provenance.seconds = args.seconds;
  provenance.trace = args.trace;
  provenance.cpus = cpus;
  provenance.source_digest = source_digest;
  provenance.steal_frac = steal;
  std::cout << lclbench::provenance_json(provenance) << "\n"
            << lclbench::result_json(result.failed == 0, result.attempted,
                                     result.failed, metrics)
            << std::endl;
  return 0;
}
