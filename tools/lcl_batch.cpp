// Parallel landscape-survey CLI: sweeps a problem family through
// lint -> classify -> speedup-synthesis on a worker pool, with a shared
// content-addressed result cache.
//
//   lcl_batch --family=exhaustive --delta=2 --labels=2 --jobs=8
//   lcl_batch --family=generator --seeds=200 --jobs=0 --cache-dir=.cache
//   lcl_batch --spec-dir=tests/corpus --report-json=report.json
//   lcl_batch --family=exhaustive --cache-dir=.cache --resume   # warm rerun
//   lcl_batch --shard=0/4 --cache-dir=.cache --report-json=shard0.json
//
// The report JSON is deterministic: byte-identical for any --jobs value and
// for cold vs. warm caches. `--shard=I/N` restricts the run to the members
// whose deterministic shard key lands on shard I; N independent processes
// cover the family exactly once, each writing its own cache tier
// (`cache-shard-I-of-N.jsonl`) and a report carrying its
// `lclscape.shards.v1` manifest, which `lcl_survey_merge` joins back into
// the byte-identical single-pool report.
//
// Exit codes: 0 = survey completed and every member was processed cleanly,
// 1 = at least one member recorded a task error, 2 = usage or I/O error.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "batch/cache.hpp"
#include "batch/shard.hpp"
#include "batch/survey.hpp"
#include "fuzz/generator.hpp"
#include "obs/exporter.hpp"
#include "obs/obs.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/run_context.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/version.hpp"

namespace {

using lcl::parse_u64;
using lcl::batch::Cache;
using lcl::batch::Family;
using lcl::batch::SurveyOptions;
namespace json = lcl::obs::json;

/// Runtime leg of the LCL_OBS kill switch: telemetry defaults on in this
/// tool, LCL_OBS=0 in the environment turns it off (and an LCL_OBS=0
/// *build* compiles it out - telemetry_compiled_in() is then false).
bool telemetry_wanted() {
  if (!lcl::obs::telemetry_compiled_in()) return false;
  const char* env = std::getenv("LCL_OBS");
  return env == nullptr || std::string(env) != "0";
}

/// The obs counter/gauge delta (start -> end) embedded in v2 reports:
/// cache hit/miss/evict/collision stats and peak RSS travel with the
/// report instead of requiring a separate trace file.
json::Value telemetry_block(const lcl::obs::RunContext& run,
                            const lcl::obs::MetricsRegistry::Snapshot& start,
                            const lcl::obs::MetricsRegistry::Snapshot& end) {
  json::Value block = json::Value::make_object();
  auto& top = block.object();
  top.emplace("run_id", json::Value(run.run_id()));
  top.emplace("elapsed_s", json::Value(run.elapsed_seconds()));
  top.emplace("rows_per_s", json::Value(run.rows_per_second()));

  json::Value counters = json::Value::make_object();
  for (const auto& [name, value] : end.counters) {
    const auto before = start.counters.find(name);
    const std::uint64_t delta =
        value - (before == start.counters.end() ? 0 : before->second);
    if (delta != 0) {
      counters.object().emplace(
          name, json::Value(static_cast<std::int64_t>(delta)));
    }
  }
  top.emplace("counters", std::move(counters));

  json::Value gauges = json::Value::make_object();
  for (const auto& [name, gauge] : end.gauges) {
    gauges.object().emplace(name, json::Value(gauge.value));
  }
  top.emplace("gauges", std::move(gauges));

  const auto busy = run.busy_fractions();
  if (!busy.empty()) {
    json::Value fractions = json::Value::make_array();
    for (const double f : busy) fractions.array().emplace_back(f);
    top.emplace("worker_busy", std::move(fractions));
  }
  return block;
}

int usage(std::ostream& out, int code) {
  out << "usage: lcl_batch [options]\n"
         "  --family=KIND          exhaustive (default) | generator\n"
         "  --spec-dir=DIR         survey every *.json spec under DIR\n"
         "                         (overrides --family)\n"
         "  --jobs=N               worker threads (default 1; 0 = all "
         "cores)\n"
         "  --cache-dir=DIR        keep the on-disk result cache here\n"
         "  --cache-key=KIND       raw (default) | canonical: canonical also\n"
         "                         indexes results by the label-permutation\n"
         "                         canonical signature, so permutation-\n"
         "                         equivalent members replay each other's\n"
         "                         verdicts (each hit confirmed exactly;\n"
         "                         implies an in-memory cache even without\n"
         "                         --cache-dir)\n"
         "  --resume[=strict]      reuse an existing on-disk cache (default\n"
         "                         truncates it); a tier recorded by a\n"
         "                         different engine git SHA warns, or errors\n"
         "                         under --resume=strict\n"
         "  --shard=I/N            survey only shard I of N (deterministic\n"
         "                         signature-keyed partition; the report\n"
         "                         embeds the shard manifest and the cache\n"
         "                         tier becomes cache-shard-I-of-N.jsonl)\n"
         "  --manifest=FILE        also write the lclscape.shards.v1 shard\n"
         "                         manifest JSON here (requires --shard)\n"
         "  --classify=on|off      run the cycle/path classifiers (default\n"
         "                         on; off records \"n/a\" columns and the\n"
         "                         landscape class falls through to the\n"
         "                         engine verdicts)\n"
         "  --report-json=FILE     write the landscape report JSON here\n"
         "  --delta=N              exhaustive family: max degree (default "
         "2)\n"
         "  --labels=N             exhaustive family: output labels "
         "(default 2)\n"
         "  --max-problems=N       cap the family size (0 = no cap)\n"
         "  --seeds=N              generator family: problem count "
         "(default 50)\n"
         "  --seed-start=N         generator family: first seed (default "
         "1)\n"
         "  --max-steps=N          speedup-synthesis step budget (default "
         "3)\n"
         "  --degrees=CSV          degree set, e.g. 2 or 2,3; empty = "
         "forest\n"
         "  --check-nodes=N        brute-force cross-check on an N-node "
         "path\n"
         "  --check-budget=N       cross-check step budget (default "
         "250000)\n"
         "  --quiet                suppress the per-class summary\n"
         "  --run-id=ID            correlation id for telemetry (default\n"
         "                         run-<unix-time>-<pid>)\n"
         "  --metrics-port=N       serve GET /metrics, /healthz, /progress\n"
         "                         on 127.0.0.1:N (0 = pick a free port;\n"
         "                         the bound port is printed)\n"
         "  --progress-interval=MS periodic progress records every MS ms\n"
         "                         (default 2000; resource samples at the\n"
         "                         same cadence)\n"
         "  --progress-log=FILE    append progress/resource JSONL records\n"
         "                         (trace dialect; see trace_summary "
         "--progress)\n"
         "  --report-telemetry=B   on (default) | off: embed the obs\n"
         "                         counter/gauge delta in --report-json\n"
         "                         (off gives byte-reproducible reports)\n"
         "  (set LCL_OBS=0 in the environment to disable all telemetry)\n";
  return code;
}

bool parse_shard(const std::string& text, lcl::batch::ShardRef& out) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return false;
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  if (!parse_u64(text.substr(0, slash), index) ||
      !parse_u64(text.substr(slash + 1), count)) {
    return false;
  }
  if (count == 0 || index >= count) return false;
  out.index = static_cast<std::size_t>(index);
  out.count = static_cast<std::size_t>(count);
  return true;
}

bool parse_degrees(const std::string& text, std::vector<int>& out) {
  out.clear();
  if (text.empty() || text == "forest") return true;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    std::uint64_t value = 0;
    if (!parse_u64(item, value) || value == 0) return false;
    out.push_back(static_cast<int>(value));
  }
  return !out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string family_kind = "exhaustive";
  std::string spec_dir;
  std::string cache_dir;
  std::string report_path;
  bool resume = false;
  bool resume_strict = false;
  bool quiet = false;
  bool canonical_key = false;
  bool sharded = false;
  lcl::batch::ShardRef shard;
  std::string manifest_path;
  lcl::batch::ExhaustiveFamilyOptions exhaustive;
  std::uint64_t seeds = 50;
  std::uint64_t seed_start = 1;
  std::string run_id;
  bool metrics_server = false;
  std::uint64_t metrics_port = 0;
  std::uint64_t progress_interval_ms = 2000;
  std::string progress_log;
  bool report_telemetry = true;
  SurveyOptions survey;
  survey.engine.max_steps = 3;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    std::uint64_t value = 0;
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--version") {
      std::cout << lcl::version_string("lcl_batch") << "\n";
      return 0;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--resume=strict") {
      resume = true;
      resume_strict = true;
    } else if (arg.rfind("--shard=", 0) == 0) {
      if (!parse_shard(value_of("--shard="), shard)) {
        std::cerr << "lcl_batch: --shard wants I/N with I < N\n";
        return 2;
      }
      sharded = true;
    } else if (arg.rfind("--manifest=", 0) == 0) {
      manifest_path = value_of("--manifest=");
    } else if (arg.rfind("--classify=", 0) == 0) {
      const std::string mode = value_of("--classify=");
      if (mode == "on") {
        survey.classify_cycles = true;
        survey.classify_paths = true;
      } else if (mode == "off") {
        survey.classify_cycles = false;
        survey.classify_paths = false;
      } else {
        std::cerr << "lcl_batch: --classify wants on|off\n";
        return 2;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--family=", 0) == 0) {
      family_kind = value_of("--family=");
      if (family_kind != "exhaustive" && family_kind != "generator") {
        std::cerr << "lcl_batch: unknown family '" << family_kind << "'\n";
        return 2;
      }
    } else if (arg.rfind("--spec-dir=", 0) == 0) {
      spec_dir = value_of("--spec-dir=");
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      cache_dir = value_of("--cache-dir=");
    } else if (arg.rfind("--cache-key=", 0) == 0) {
      const std::string mode = value_of("--cache-key=");
      if (mode == "raw") {
        canonical_key = false;
      } else if (mode == "canonical") {
        canonical_key = true;
      } else {
        std::cerr << "lcl_batch: --cache-key wants raw|canonical\n";
        return 2;
      }
    } else if (arg.rfind("--report-json=", 0) == 0) {
      report_path = value_of("--report-json=");
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_u64(value_of("--jobs="), value)) return usage(std::cerr, 2);
      survey.jobs = static_cast<std::size_t>(value);
    } else if (arg.rfind("--delta=", 0) == 0) {
      if (!parse_u64(value_of("--delta="), value)) return usage(std::cerr, 2);
      exhaustive.max_degree = static_cast<int>(value);
    } else if (arg.rfind("--labels=", 0) == 0) {
      if (!parse_u64(value_of("--labels="), value)) return usage(std::cerr, 2);
      exhaustive.labels = static_cast<std::size_t>(value);
    } else if (arg.rfind("--max-problems=", 0) == 0) {
      if (!parse_u64(value_of("--max-problems="), value)) {
        return usage(std::cerr, 2);
      }
      exhaustive.max_problems = static_cast<std::size_t>(value);
    } else if (arg.rfind("--seeds=", 0) == 0) {
      if (!parse_u64(value_of("--seeds="), seeds)) return usage(std::cerr, 2);
    } else if (arg.rfind("--seed-start=", 0) == 0) {
      if (!parse_u64(value_of("--seed-start="), seed_start)) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--max-steps=", 0) == 0) {
      if (!parse_u64(value_of("--max-steps="), value)) {
        return usage(std::cerr, 2);
      }
      survey.engine.max_steps = static_cast<int>(value);
    } else if (arg.rfind("--degrees=", 0) == 0) {
      if (!parse_degrees(value_of("--degrees="), survey.engine.degrees)) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--check-nodes=", 0) == 0) {
      if (!parse_u64(value_of("--check-nodes="), value)) {
        return usage(std::cerr, 2);
      }
      survey.check_nodes = static_cast<std::size_t>(value);
    } else if (arg.rfind("--check-budget=", 0) == 0) {
      if (!parse_u64(value_of("--check-budget="), survey.check_budget)) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--run-id=", 0) == 0) {
      run_id = value_of("--run-id=");
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      if (!parse_u64(value_of("--metrics-port="), metrics_port) ||
          metrics_port > 65535) {
        return usage(std::cerr, 2);
      }
      metrics_server = true;
    } else if (arg.rfind("--progress-interval=", 0) == 0) {
      if (!parse_u64(value_of("--progress-interval="),
                     progress_interval_ms) ||
          progress_interval_ms == 0) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--progress-log=", 0) == 0) {
      progress_log = value_of("--progress-log=");
    } else if (arg.rfind("--report-telemetry=", 0) == 0) {
      const std::string mode = value_of("--report-telemetry=");
      if (mode == "on") {
        report_telemetry = true;
      } else if (mode == "off") {
        report_telemetry = false;
      } else {
        std::cerr << "lcl_batch: --report-telemetry wants on|off\n";
        return 2;
      }
    } else {
      std::cerr << "lcl_batch: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }
  if (!manifest_path.empty() && !sharded) {
    std::cerr << "lcl_batch: --manifest requires --shard\n";
    return 2;
  }

  try {
    const bool telemetry = telemetry_wanted();
    if (telemetry) lcl::obs::set_metrics_enabled(true);
    if (run_id.empty()) run_id = lcl::obs::default_run_id();

    // Declaration order doubles as teardown order: the exporter and the
    // sampler (destroyed first) must stop before the RunContext and the
    // progress log they read from go away.
    lcl::obs::RunContext run(run_id, "survey");
    survey.run = &run;
    lcl::obs::RunContext::set_current(&run);

    std::unique_ptr<lcl::obs::TraceSession> progress_session;
    if (!progress_log.empty()) {
      progress_session = std::make_unique<lcl::obs::TraceSession>(
          progress_log, lcl::obs::TraceFormat::kJsonl);
      lcl::obs::TraceSession::set_current(progress_session.get());
    }

    lcl::obs::ResourceSampler::Options sampler_options;
    sampler_options.interval = std::chrono::milliseconds(progress_interval_ms);
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
        std::cerr << "lcl_batch: --metrics-port ignored: telemetry is "
                     "disabled (LCL_OBS=0)\n";
      } else if (!exporter.start()) {
        std::cerr << "lcl_batch: metrics exporter: " << exporter.error()
                  << "\n";
        return 2;
      } else if (!quiet) {
        std::cout << "metrics:   http://127.0.0.1:" << exporter.port()
                  << "/metrics  (run_id " << run_id << ")\n";
      }
    }

    lcl::obs::MetricsRegistry::Snapshot start_snapshot;
    if (telemetry && report_telemetry) {
      start_snapshot = lcl::obs::registry().snapshot();
    }

    Family family;
    if (!spec_dir.empty()) {
      family = lcl::batch::spec_dir_family(spec_dir);
    } else if (family_kind == "generator") {
      // The generator corpus is assembled here (not in lcl_batch the
      // library) so the library stays independent of lcl_fuzz - which
      // itself uses the batch pool for --jobs.
      family.description = "generator:s" + std::to_string(seed_start) + "+" +
                           std::to_string(seeds);
      lcl::fuzz::GeneratorOptions generator;
      generator.max_input_labels = 1;  // keep the classifiers applicable
      for (std::uint64_t s = 0; s < seeds; ++s) {
        const std::uint64_t seed = seed_start + s;
        lcl::SplitRng rng(seed);
        family.members.push_back(lcl::batch::FamilyMember{
            "seed" + std::to_string(seed),
            lcl::fuzz::random_problem(generator, rng)});
      }
    } else {
      family = lcl::batch::exhaustive_family(exhaustive);
    }

    // Each shard owns its cache tier, so N shard processes never contend on
    // one file and a single shard can be killed and resumed independently.
    std::string cache_tier;
    if (!cache_dir.empty()) {
      const std::string file =
          sharded ? "cache-shard-" + std::to_string(shard.index) + "-of-" +
                        std::to_string(shard.count) + ".jsonl"
                  : "cache.jsonl";
      cache_tier = (std::filesystem::path(cache_dir) / file).string();
    }

    lcl::batch::ShardPlan plan;
    if (sharded) {
      plan = lcl::batch::plan_shard(family, shard, cache_tier,
                                    lcl::git_sha());
      family = std::move(plan.members);
    }

    std::unique_ptr<Cache> cache;
    if (!cache_tier.empty() || canonical_key) {
      Cache::Options cache_options;
      if (!cache_tier.empty()) {
        std::filesystem::create_directories(cache_dir);
        cache_options.disk_path = cache_tier;
        cache_options.load_existing = resume;
        cache_options.meta_git_sha = lcl::git_sha();
      }
      cache_options.canonical_tier = canonical_key;
      cache = std::make_unique<Cache>(std::move(cache_options));
      survey.cache = cache.get();
      if (resume) {
        // A tier written by a different engine silently mixes verdict
        // generations into one report - surface it.
        const auto loaded_sha = cache->loaded_git_sha();
        if (loaded_sha.has_value() && *loaded_sha != lcl::git_sha()) {
          std::cerr << "lcl_batch: " << (resume_strict ? "error" : "warning")
                    << ": resumed cache tier '" << cache_tier
                    << "' was written by engine " << *loaded_sha
                    << " but this binary is " << lcl::git_sha()
                    << (resume_strict
                            ? ""
                            : " (use --resume=strict to refuse, or delete "
                              "the tier)")
                    << "\n";
          if (resume_strict) return 2;
        }
      }
    }

    if (!manifest_path.empty()) {
      std::ofstream out(manifest_path);
      if (!out.is_open()) {
        std::cerr << "lcl_batch: cannot write '" << manifest_path << "'\n";
        return 2;
      }
      out << plan.manifest.to_json();
    }

    const auto report = lcl::batch::run_survey(family, survey);

    // Final samples + gauges land before the end snapshot is taken.
    sampler.stop();
    lcl::obs::RunContext::set_current(nullptr);

    if (!report_path.empty()) {
      std::ofstream out(report_path);
      if (!out.is_open()) {
        std::cerr << "lcl_batch: cannot write '" << report_path << "'\n";
        return 2;
      }
      json::Value document = report.to_json_value();
      if (sharded) {
        document.object()["shard"] = plan.manifest.to_json_value();
      }
      if (telemetry && report_telemetry) {
        document.object()["telemetry"] = telemetry_block(
            run, start_snapshot, lcl::obs::registry().snapshot());
      }
      out << json::dump(document) << "\n";
    }
    if (!quiet) {
      std::cout << "family:    " << report.family << "\n";
      if (sharded) {
        std::cout << "shard:     " << shard.index << "/" << shard.count
                  << "  (" << report.problems << " of "
                  << plan.manifest.members_total << " members)\n";
      }
      std::cout << "problems:  " << report.problems << "\n";
      for (const auto& [name, count] : report.class_counts) {
        std::cout << "  " << name << ": " << count << "  (e.g. "
                  << report.class_exemplars.at(name) << ")\n";
      }
      std::cout << "canonical: " << report.canonical_classes
                << " label-permutation classes\n";
      if (cache != nullptr) {
        const auto stats = cache->stats();
        std::cout << "cache:     " << stats.hits << " hits, " << stats.misses
                  << " misses, " << stats.collisions << " collisions, "
                  << stats.disk_loaded << " loaded from disk\n";
        if (canonical_key) {
          std::cout << "           " << stats.canonical_hits
                    << " canonical hits, " << stats.canonical_collisions
                    << " canonical collisions\n";
        }
      }
      if (report.errors != 0) {
        std::cout << "errors:    " << report.errors << "\n";
      }
    }
    return report.errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "lcl_batch: " << e.what() << "\n";
    return 2;
  }
}
