// Differential fuzzing CLI for the lclscape libraries.
//
//   lcl_fuzz --seeds=500                 # fuzz 500 seeds over the whole bank
//   lcl_fuzz --seeds=100000 --budget=60s # stop after ~60 seconds
//   lcl_fuzz --replay=tests/corpus       # re-check every saved counterexample
//   lcl_fuzz --list-oracles
//
// Exit codes: 0 = all checks passed, 1 = at least one oracle failure,
// 2 = usage or I/O error.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/case_io.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "obs/exporter.hpp"
#include "obs/obs.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/run_context.hpp"
#include "util/parse.hpp"
#include "util/version.hpp"

namespace {

using lcl::parse_u64;
using lcl::fuzz::FuzzRunOptions;

/// Runtime leg of the LCL_OBS kill switch (same contract as lcl_batch):
/// telemetry defaults on, LCL_OBS=0 in the environment disables it.
bool telemetry_wanted() {
  if (!lcl::obs::telemetry_compiled_in()) return false;
  const char* env = std::getenv("LCL_OBS");
  return env == nullptr || std::string(env) != "0";
}

int usage(std::ostream& out, int code) {
  out << "usage: lcl_fuzz [options]\n"
         "  --seeds=N              number of generator seeds (default 100)\n"
         "  --seed-start=N         first seed (default 1)\n"
         "  --jobs=N               worker threads (default 1; 0 = all "
         "cores)\n"
         "  --budget=T             wall-clock budget, e.g. 45, 60s, 10m\n"
         "  --corpus-dir=DIR       write shrunk failing cases here\n"
         "  --oracle=ID            run only this oracle\n"
         "  --lint=POLICY          degenerate-problem policy: off, annotate\n"
         "                         (default; lint codes land in the case\n"
         "                         note), or reject (redraw)\n"
         "  --wide-alphabets       draw 64-130 label alphabets with a small\n"
         "                         live core (exercises the pre-flight's\n"
         "                         pruning and reduce() past one 64-label\n"
         "                         word; pairs well with --oracle=synthesis,\n"
         "                         lift-soundness or step-parity)\n"
         "  --no-shrink            keep failing cases unminimized\n"
         "  --inject-bug=NAME      fault injection (drop-rbar-config)\n"
         "  --replay=FILE_OR_DIR   replay saved case(s) instead of fuzzing\n"
         "  --list-oracles         print the oracle bank and exit\n"
         "  --run-id=ID            correlation id for telemetry (default\n"
         "                         run-<unix-time>-<pid>)\n"
         "  --metrics-port=N       serve GET /metrics, /healthz, /progress\n"
         "                         on 127.0.0.1:N (0 = pick a free port)\n"
         "  --progress-interval=MS periodic progress/resource records\n"
         "                         every MS ms (default 2000)\n"
         "  --progress-log=FILE    append progress/resource JSONL records\n"
         "  (set LCL_OBS=0 in the environment to disable all telemetry)\n";
  return code;
}

/// "45" / "45s" -> 45 seconds, "10m" -> 600 seconds.
bool parse_budget(const std::string& text, double& out) {
  if (text.empty()) return false;
  double scale = 1.0;
  std::string digits = text;
  if (digits.back() == 's') {
    digits.pop_back();
  } else if (digits.back() == 'm') {
    scale = 60.0;
    digits.pop_back();
  }
  std::uint64_t value = 0;
  if (!parse_u64(digits, value)) return false;
  out = static_cast<double>(value) * scale;
  return true;
}

int replay(const std::string& target, const lcl::fuzz::OracleOptions& oracle) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  if (fs::is_directory(target)) {
    for (const auto& entry : fs::directory_iterator(target)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(target);
  }
  if (files.empty()) {
    std::cerr << "lcl_fuzz: no .json cases under '" << target << "'\n";
    return 2;
  }

  int failures = 0;
  for (const auto& file : files) {
    lcl::fuzz::FuzzCase fuzz_case;
    try {
      fuzz_case = lcl::fuzz::load_case(file);
    } catch (const std::exception& e) {
      std::cerr << "lcl_fuzz: " << e.what() << "\n";
      return 2;
    }
    const auto result = lcl::fuzz::replay_case(fuzz_case, oracle);
    const char* verdict = !result.applicable ? "SKIP"
                          : result.failed    ? "FAIL"
                                             : "PASS";
    std::cout << verdict << " " << file << " [" << fuzz_case.oracle << "]";
    if (!fuzz_case.note.empty()) std::cout << " (" << fuzz_case.note << ")";
    std::cout << "\n";
    if (result.failed) {
      std::cout << "  " << result.message << "\n";
      ++failures;
    }
  }
  std::cout << files.size() << " case(s), " << failures << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzRunOptions options;
  std::string replay_target;
  bool list_oracles = false;
  std::string run_id;
  bool metrics_server = false;
  std::uint64_t metrics_port = 0;
  std::uint64_t progress_interval_ms = 2000;
  std::string progress_log;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--version") {
      std::cout << lcl::version_string("lcl_fuzz") << "\n";
      return 0;
    } else if (arg == "--list-oracles") {
      list_oracles = true;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--wide-alphabets") {
      options.generator.wide_alphabets = true;
    } else if (arg.rfind("--seeds=", 0) == 0) {
      if (!parse_u64(value_of("--seeds="), options.seeds)) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--seed-start=", 0) == 0) {
      if (!parse_u64(value_of("--seed-start="), options.seed_start)) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      std::uint64_t jobs = 0;
      if (!parse_u64(value_of("--jobs="), jobs)) {
        return usage(std::cerr, 2);
      }
      options.jobs = static_cast<std::size_t>(jobs);
    } else if (arg.rfind("--budget=", 0) == 0) {
      if (!parse_budget(value_of("--budget="), options.budget_seconds)) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--corpus-dir=", 0) == 0) {
      options.corpus_dir = value_of("--corpus-dir=");
    } else if (arg.rfind("--oracle=", 0) == 0) {
      options.only_oracle = value_of("--oracle=");
    } else if (arg.rfind("--lint=", 0) == 0) {
      const std::string policy = value_of("--lint=");
      if (policy == "off") {
        options.generator.lint_policy = lcl::fuzz::LintPolicy::kOff;
      } else if (policy == "annotate") {
        options.generator.lint_policy = lcl::fuzz::LintPolicy::kAnnotate;
      } else if (policy == "reject") {
        options.generator.lint_policy = lcl::fuzz::LintPolicy::kReject;
      } else {
        std::cerr << "lcl_fuzz: unknown lint policy '" << policy
                  << "' (off | annotate | reject)\n";
        return 2;
      }
    } else if (arg.rfind("--inject-bug=", 0) == 0) {
      options.oracle.inject = value_of("--inject-bug=");
      if (options.oracle.inject != "drop-rbar-config") {
        std::cerr << "lcl_fuzz: unknown injection '" << options.oracle.inject
                  << "'\n";
        return 2;
      }
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay_target = value_of("--replay=");
    } else if (arg.rfind("--run-id=", 0) == 0) {
      run_id = value_of("--run-id=");
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      std::uint64_t port = 0;
      if (!parse_u64(value_of("--metrics-port="), port) || port > 65535) {
        return usage(std::cerr, 2);
      }
      metrics_port = port;
      metrics_server = true;
    } else if (arg.rfind("--progress-interval=", 0) == 0) {
      if (!parse_u64(value_of("--progress-interval="),
                     progress_interval_ms) ||
          progress_interval_ms == 0) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--progress-log=", 0) == 0) {
      progress_log = value_of("--progress-log=");
    } else {
      std::cerr << "lcl_fuzz: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  if (list_oracles) {
    for (const auto& entry : lcl::fuzz::oracle_bank()) {
      std::cout << entry.id << "\n  " << entry.description << "\n";
    }
    return 0;
  }
  if (!replay_target.empty()) {
    return replay(replay_target, options.oracle);
  }
  if (!options.only_oracle.empty()) {
    try {
      // Validate the id up front so a typo is exit 2, not a silent no-op run.
      (void)lcl::fuzz::oracle_bank();
      bool known = false;
      for (const auto& entry : lcl::fuzz::oracle_bank()) {
        known = known || options.only_oracle == entry.id;
      }
      if (!known) {
        std::cerr << "lcl_fuzz: unknown oracle '" << options.only_oracle
                  << "' (see --list-oracles)\n";
        return 2;
      }
    } catch (...) {
      return 2;
    }
  }

  const bool telemetry = telemetry_wanted();
  if (telemetry) lcl::obs::set_metrics_enabled(true);
  if (run_id.empty()) run_id = lcl::obs::default_run_id();

  // Teardown order mirrors declaration order: exporter and sampler stop
  // before the RunContext / progress log they read go away.
  lcl::obs::RunContext run(run_id, "fuzz");
  options.run = &run;
  lcl::obs::RunContext::set_current(&run);

  std::unique_ptr<lcl::obs::TraceSession> progress_session;
  if (!progress_log.empty()) {
    try {
      progress_session = std::make_unique<lcl::obs::TraceSession>(
          progress_log, lcl::obs::TraceFormat::kJsonl);
    } catch (const std::exception& e) {
      std::cerr << "lcl_fuzz: " << e.what() << "\n";
      return 2;
    }
    lcl::obs::TraceSession::set_current(progress_session.get());
  }

  lcl::obs::ResourceSampler::Options sampler_options;
  sampler_options.resource_interval =
      std::chrono::milliseconds(progress_interval_ms);
  sampler_options.progress_interval =
      std::chrono::milliseconds(progress_interval_ms);
  sampler_options.run = &run;
  lcl::obs::ResourceSampler sampler(std::move(sampler_options));
  if (telemetry) sampler.start();

  lcl::obs::Exporter::Options exporter_options;
  exporter_options.port = static_cast<std::uint16_t>(metrics_port);
  exporter_options.const_labels = {{"run_id", run_id}};
  exporter_options.progress_provider = [&run]() {
    return run.progress_json() + "\n";
  };
  lcl::obs::Exporter exporter(std::move(exporter_options));
  if (metrics_server) {
    if (!telemetry) {
      std::cerr << "lcl_fuzz: --metrics-port ignored: telemetry is "
                   "disabled (LCL_OBS=0)\n";
    } else if (!exporter.start()) {
      std::cerr << "lcl_fuzz: metrics exporter: " << exporter.error() << "\n";
      return 2;
    } else {
      std::cout << "metrics:    http://127.0.0.1:" << exporter.port()
                << "/metrics  (run_id " << run_id << ")\n";
    }
  }

  const auto report = lcl::fuzz::run_fuzz(options);

  sampler.stop();
  lcl::obs::RunContext::set_current(nullptr);

  std::cout << "seeds run:  " << report.seeds_run << "/" << options.seeds
            << (report.budget_exhausted ? " (budget exhausted)" : "") << "\n";
  std::cout << "checks:     " << report.checks << "\n";
  std::cout << "skipped:    " << report.skipped << "\n";
  std::cout << "failures:   " << report.failures << "\n";
  for (const auto& [id, tally] : report.per_oracle) {
    std::cout << "  " << id << ": " << tally.checks << " checked, "
              << tally.skipped << " skipped, " << tally.failures
              << " failed\n";
  }
  for (const auto& message : report.failure_messages) {
    std::cout << "FAIL " << message << "\n";
  }
  for (const auto& file : report.corpus_files) {
    std::cout << "wrote " << file << "\n";
  }
  return report.ok() ? 0 : 1;
}
