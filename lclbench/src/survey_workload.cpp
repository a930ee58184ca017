// Survey workloads: exhaustive families swept by `batch::run_survey` with
// lcl_batch's defaults (max_steps 3, forest degrees, classifiers on) and
// `--cache-key=canonical`, from a cold in-memory cache each time.

#include <algorithm>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/cache.hpp"
#include "batch/survey.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "lint/canonical.hpp"
#include "lint/spec_io.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace lclbench {

namespace {

using lcl::batch::Cache;

struct SurveyWorkload {
  const char* name;
  int max_degree;
  std::size_t labels;
  std::size_t jobs;
  const char* reference;  // file under the reference directory
};

constexpr SurveyWorkload kSurveys[] = {
    {"survey-d2l2", 2, 2, 1, "survey-d2l2.tsv"},
    {"survey-d2l3", 2, 3, 1, "survey-d2l3.tsv"},
    {"survey-d2l3-j2", 2, 3, 2, "survey-d2l3.tsv"},
    {"survey-d4l2", 4, 2, 1, "survey-d4l2.tsv"},
};

const SurveyWorkload* find_workload(const std::string& name) {
  for (const auto& w : kSurveys) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Everything a survey needs before its first timed operation.
struct Setup {
  lcl::batch::Family family;
  std::unique_ptr<Cache> cache;
};

Setup set_up(const SurveyWorkload& w) {
  Setup setup;
  lcl::batch::ExhaustiveFamilyOptions family;
  family.max_degree = w.max_degree;
  family.labels = w.labels;
  setup.family = lcl::batch::exhaustive_family(family);
  Cache::Options cache;
  cache.canonical_tier = true;
  setup.cache = std::make_unique<Cache>(std::move(cache));
  return setup;
}

lcl::batch::SurveyOptions survey_options(std::size_t jobs, Cache* cache) {
  lcl::batch::SurveyOptions options;
  options.jobs = jobs;
  options.engine.max_steps = 3;
  options.cache = cache;
  return options;
}

void log_failures(const CheckResult& check) {
  for (const auto& what : check.failures) {
    std::cerr << "lclbench: FAILED " << what << "\n";
  }
}

RunResult timed(const SurveyWorkload& w, const RunArgs& args,
                const Reference& reference) {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  CheckResult check;
  double timed_total = 0.0;
  // The fastest set-up of each of the run's kSegments equal stretches.
  std::vector<double> segment_setup_s(kSegments, 0.0);
  while (wall_s.empty() || timed_total < args.seconds) {
    const double setup_start = now_s();
    Setup setup = set_up(w);
    const double took = now_s() - setup_start;
    setup_s.push_back(took);
    const auto segment = std::min<std::size_t>(
        kSegments - 1,
        static_cast<std::size_t>(timed_total * kSegments / args.seconds));
    if (segment_setup_s[segment] == 0.0 || took < segment_setup_s[segment]) {
      segment_setup_s[segment] = took;
    }
    const auto options = survey_options(w.jobs, setup.cache.get());
    const double cpu_start = process_cpu_s();
    const double start = now_s();
    const lcl::batch::SurveyReport report =
        lcl::batch::run_survey(setup.family, options);
    const std::string rendered = report.to_json();
    const double wall = now_s() - start;
    cpu_s.push_back(process_cpu_s() - cpu_start);
    wall_s.push_back(wall);
    timed_total += wall;

    CheckResult one = check_survey(report.outcomes, reference);
    if (rendered.empty()) one.fail("empty report rendering");
    check += one;
  }
  log_failures(check);
  std::cerr << "lclbench: " << wall_s.size() << " surveys:"
            << spread("wall s", wall_s) << spread("cpu s", cpu_s)
            << spread("set-up s", setup_s) << " note drift "
            << check.note_drift << " rows\n";

  RunResult result;
  result.attempted = check.checked;
  result.failed = check.failed;
  result.metrics["wall_s"] = fastest(wall_s);
  result.metrics["cpu_s"] = fastest(cpu_s);
  // The operation a survey user waits on is the whole survey.
  result.metrics["p50_ms"] = fastest(wall_s) * 1e3;
  // Segments a survey spanned whole have no set-up of their own.
  std::erase(segment_setup_s, 0.0);
  result.metrics["setup_s"] = median(segment_setup_s);
  return result;
}

/// One library survey on a fresh cache, checked against the reference.
struct LibraryRun {
  lcl::batch::SurveyReport report;
  lcl::batch::CacheStats stats;
  double wall_s = 0.0;
};

LibraryRun library_run(const SurveyWorkload& w, std::size_t jobs,
                       const Reference& reference, CheckResult& check) {
  Setup setup = set_up(w);
  LibraryRun run;
  const double start = now_s();
  run.report = lcl::batch::run_survey(
      setup.family, survey_options(jobs, setup.cache.get()));
  run.wall_s = now_s() - start;
  run.stats = setup.cache->stats();
  check += check_survey(run.report.outcomes, reference);
  return run;
}

/// Worker time of the survey's pool from the batch/task spans (the members
/// themselves at jobs=1, where the caller is the only worker) against
/// `jobs` workers over the batch/survey span.
void add_pool_metrics(const lcl::obs::ParsedTrace& trace, std::size_t jobs,
                      std::map<std::string, double>& m) {
  const auto total_s = [&trace](const char* name) {
    double s = 0.0;
    for (const auto* span : spans_named(trace, name)) {
      s += static_cast<double>(span->dur_us) * 1e-6;
    }
    return s;
  };
  const double busy = total_s(jobs > 1 ? "batch/task" : "batch/problem");
  const double wall = total_s("batch/survey");
  m["batch.pool.busy_s"] = busy;
  m["batch.pool.idle_frac"] =
      wall > 0.0 ? 1.0 - busy / (static_cast<double>(jobs) * wall) : 0.0;
}

/// The traced invocation. Self times need spans from one thread at a time,
/// so the layer split comes from serial library runs: pairs of one
/// untraced and one traced survey until `--seconds` have passed, the
/// overhead from their walls and the layers from the last traced one. A
/// jobs>1 workload then adds one traced survey at its own jobs for the pool,
/// the slowest member and the duplicated cache misses. Functions the
/// library does not instrument - canonical form, the spec<->JSON
/// conversions and the report rendering - are timed by calling them on the
/// family's members directly.
RunResult traced(const SurveyWorkload& w, const RunArgs& args,
                 const Reference& reference) {
  RunResult result;
  auto& m = result.metrics;
  CheckResult check;
  const std::string trace_path = args.out_dir + "/" + w.name + "-seed" +
                                 std::to_string(args.seed) + ".trace.json";

  std::vector<double> overhead;
  lcl::obs::ParsedTrace serial_trace;
  LibraryRun serial;
  const double start = now_s();
  while (overhead.empty() || now_s() - start < args.seconds) {
    const LibraryRun untraced = library_run(w, 1, reference, check);
    LibraryTrace trace(trace_path);
    serial = library_run(w, 1, reference, check);
    serial_trace = trace.finish();
    overhead.push_back(serial.wall_s / untraced.wall_s - 1.0);
  }

  Setup setup = set_up(w);
  std::vector<std::string> names;
  double canonical_s = 0.0;
  double spec_io_s = 0.0;
  for (const auto& member : setup.family.members) {
    names.push_back(member.name);
    const double t0 = now_s();
    const lcl::lint::ProblemSpec spec =
        lcl::lint::spec_from_problem(member.problem);
    const double t1 = now_s();
    const lcl::lint::CanonicalForm form = lcl::lint::canonical_form(spec);
    const double t2 = now_s();
    const auto round_trip = lcl::lint::build_spec(
        lcl::lint::spec_from_json_value(lcl::lint::spec_to_json_value(spec)));
    const double t3 = now_s();
    canonical_s += t2 - t1;
    spec_io_s += (t1 - t0) + (t3 - t2);
    ++check.checked;
    if (form.spec.outputs.size() != spec.outputs.size() ||
        round_trip.output_alphabet().size() !=
            member.problem.output_alphabet().size()) {
      check.fail(member.name + ": canonical form or JSON round trip lost labels");
    }
  }
  m["lint.canonical_form.s"] = canonical_s;
  m["lint.canonical_form.calls"] =
      static_cast<double>(setup.family.members.size());
  m["lint.spec_io.s"] = spec_io_s;
  const double render_start = now_s();
  const std::string rendered = serial.report.to_json();
  m["batch.report.s"] = now_s() - render_start;
  if (rendered.empty()) check.fail("empty report rendering");

  add_layer_metrics(serial_trace, names, m, std::cerr);
  std::cerr << "lclbench: spans of the last traced survey in " << trace_path
            << "\n";

  LibraryRun run = serial;
  if (w.jobs > 1) {
    const std::string path = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + ".jobs" +
                             std::to_string(w.jobs) + ".trace.json";
    LibraryTrace trace(path);
    run = library_run(w, w.jobs, reference, check);
    const lcl::obs::ParsedTrace parallel = trace.finish();
    add_pool_metrics(parallel, w.jobs, m);
    // The slowest member under contention; names are in the serial table.
    add_member_metrics(parallel, {}, m, std::cerr);
  } else {
    add_pool_metrics(serial_trace, 1, m);
  }
  const std::uint64_t serial_misses = serial.stats.misses;
  m["batch.cache.hits"] = static_cast<double>(run.stats.hits);
  m["batch.cache.misses"] = static_cast<double>(run.stats.misses);
  m["batch.cache.canonical_hits"] =
      static_cast<double>(run.stats.canonical_hits);
  m["batch.cache.dup_misses"] = static_cast<double>(
      run.stats.misses - std::min(run.stats.misses, serial_misses));
  m["obs.trace_overhead_frac"] = median(overhead);
  // Note drift of the last library run at the workload's own jobs.
  m["batch.note_drift"] = static_cast<double>(
      check_survey(run.report.outcomes, reference).note_drift);
  std::cerr << "lclbench: " << overhead.size()
            << " untraced/traced pairs; cache " << run.stats.hits
            << " hits, " << run.stats.misses << " misses (serial "
            << serial_misses << "), " << run.stats.canonical_hits
            << " canonical hits\n";

  log_failures(check);
  result.attempted = check.checked;
  result.failed = check.failed;
  return result;
}

}  // namespace

bool is_survey_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

std::size_t workload_cpus(const std::string& name) {
  if (const SurveyWorkload* w = find_workload(name)) return w->jobs;
  return name == "lcld-classify" ? 1 : 0;
}

RunResult run_survey_workload(const RunArgs& args) {
  const SurveyWorkload* w = find_workload(args.workload);
  if (w == nullptr) {
    throw std::invalid_argument("unknown survey workload " + args.workload);
  }
  // The families are fixed enumerations: the seed is recorded, not used.
  const Reference reference =
      load_reference_tsv(args.ref_dir + "/" + w->reference);
  return args.trace ? traced(*w, args, reference)
                    : timed(*w, args, reference);
}

}  // namespace lclbench
