#include "batch/survey.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <future>
#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "batch/pool.hpp"
#include "classify/cycle_classifier.hpp"
#include "classify/path_classifier.hpp"
#include "core/brute_force.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "lint/analyzer.hpp"
#include "lint/canonical.hpp"
#include "lint/spec_io.hpp"
#include "obs/obs.hpp"
#include "util/combinatorics.hpp"

namespace lcl::batch {

namespace json = lcl::obs::json;

namespace {

std::string hex_signature(std::uint64_t sig) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << sig;
  return out.str();
}

std::string degrees_tag(const std::vector<int>& degrees) {
  if (degrees.empty()) return "forest";
  std::string tag;
  for (const int d : degrees) {
    if (!tag.empty()) tag += '-';
    tag += std::to_string(d);
  }
  return tag;
}

/// The value of the "zr:" and "check:" kinds.
json::Value solvable_value(bool solvable) {
  json::Value value = json::Value::make_object();
  value.object()["solvable"] = json::Value(solvable);
  return value;
}

/// The survey's one cache path: the entry stored under `kind` for
/// `problem`, or else what `compute()` returns - a JSON value, or a whole
/// `Cache::Hit` when it derives a problem - which is stored. Callers read
/// their columns from the returned value, so a hit and a miss fill them
/// the same way. `form`, the problem's canonical form, is passed for the
/// kinds whose payloads name no label ("engine:", "cycle:", "path:",
/// "check:"), which a canonical-tier hit therefore replays verbatim. Without
/// a cache this is `compute()`.
template <typename Compute>
Cache::Hit cached(Cache* cache, const std::string& kind,
                  const NodeEdgeCheckableLcl& problem,
                  const lint::CanonicalForm* form, const Compute& compute) {
  if (cache == nullptr) return Cache::Hit{compute()};
  if (auto hit = cache->find(kind, problem, form)) return std::move(*hit);
  Cache::Hit computed{compute()};
  cache->insert(kind, problem, computed.value, form,
                computed.next ? &*computed.next : nullptr);
  return computed;
}

/// `SpeedupEngine`'s memo over the cache: reduced iterates under "step:"
/// and 0-round verdicts under "zr:", both passed to `cached` without a
/// form, so both stay on the exact tier. A stored iterate lives in the
/// stored problem's label space, which a canonical hit would permute; and
/// an exact lookup costs no orbit search. Iterates are stored as derived
/// problems, so a hit hands back the stored object (sharing its tables)
/// and JSON is written only for a disk tier. With `verdicts` off it leaves
/// 0-round verdicts uncached: the classifiers' degree-{2} and {1,2}
/// verdicts would grow the cache more than they save.
class CacheMemo final : public SpeedupEngine::Memo {
 public:
  CacheMemo(Cache& cache, bool verdicts) : cache_(cache), verdicts_(verdicts) {}

  Step step(const NodeEdgeCheckableLcl& current,
            const SpeedupEngine::Options& options,
            const std::function<Step()>& compute) override {
    // The limits are part of the kind: an iterate computed under generous
    // limits must not be served to a run whose limits would have aborted
    // it.
    const std::string kind =
        std::string("step:") + (options.reduce ? "r" : "f") + ":l" +
        std::to_string(options.limits.max_labels) + ":c" +
        std::to_string(options.limits.max_configs);
    Cache::Hit hit = cached(&cache_, kind, current, nullptr, [&compute]() {
      Step step = compute();
      Cache::Hit computed{json::Value::make_object(), std::move(step.next)};
      computed.value.object()["psi_labels"] =
          json::Value(static_cast<std::int64_t>(step.labels_psi));
      return computed;
    });
    // A record without its iterate (a hand-edited tier) is recomputed.
    if (!hit.next) return compute();
    Step step{std::move(*hit.next), 0};
    // Tiers written before "psi_labels" was stored serve 0.
    if (const auto* psi = hit.value.find("psi_labels");
        psi != nullptr && psi->is_number()) {
      step.labels_psi = static_cast<std::size_t>(psi->as_int());
    }
    return step;
  }

  bool zero_round(const NodeEdgeCheckableLcl& problem,
                  const std::vector<int>& degrees,
                  const std::function<bool()>& compute) override {
    if (!verdicts_) return compute();
    // The verdict depends on the degree set, so it is part of the kind.
    const Cache::Hit hit =
        cached(&cache_, "zr:" + degrees_tag(degrees), problem, nullptr,
               [&compute]() { return solvable_value(compute()); });
    // A record without the verdict (a hand-edited tier) is recomputed.
    const auto* solvable = hit.value.find("solvable");
    return solvable != nullptr && solvable->is_bool() ? solvable->as_bool()
                                                      : compute();
  }

 private:
  Cache& cache_;
  bool verdicts_;
};

/// Stands for the base problem's name in a stored engine note.
constexpr char kNameMarker = '\x1f';

/// Fills `out`'s engine columns with what `SpeedupEngine::run` reports for
/// `base`. The whole run is memoized per base problem, and on a miss the
/// engine runs with `memo`, so base problems whose sequences merge (common
/// after reduction) share the tail. The engine runs under the name
/// `kNameMarker`, which makes its note (naming iterates such as
/// `Rbar(R(<name>))`) a template: every replay renders it with the
/// requesting member's name, whichever member stored it. Notes stored
/// without the marker replay verbatim.
void cached_speedup(const NodeEdgeCheckableLcl& base,
                    const SpeedupEngine::Options& options, Cache* cache,
                    SpeedupEngine::Memo* memo,
                    const lint::CanonicalForm* base_form,
                    ProblemOutcome& out) {
  const std::string kind =
      "engine:" + degrees_tag(options.degrees) + ":s" +
      std::to_string(options.max_steps) + ":l" +
      std::to_string(options.limits.max_labels) + ":c" +
      std::to_string(options.limits.max_configs) +
      (options.reduce ? ":r" : ":f");
  const Cache::Hit hit = cached(cache, kind, base, base_form, [&]() {
    SpeedupEngine engine(
        NodeEdgeCheckableLcl(base).renamed(std::string(1, kNameMarker)));
    const auto outcome = engine.run(options, memo);
    json::Value value = json::Value::make_object();
    auto& object = value.object();
    object["zero_round_step"] =
        json::Value(static_cast<std::int64_t>(outcome.zero_round_step));
    object["steps_applied"] =
        json::Value(static_cast<std::int64_t>(engine.steps_applied()));
    object["fixed_point"] = json::Value(outcome.fixed_point);
    object["budget_exhausted"] = json::Value(outcome.budget_exhausted);
    object["detected_unsolvable"] = json::Value(outcome.detected_unsolvable);
    object["preflight_dead_labels"] =
        json::Value(static_cast<std::int64_t>(outcome.preflight_dead_labels));
    object["message"] = json::Value(outcome.blowup_message);
    return value;
  });
  const auto read_int = [&hit](const char* key, auto& field) {
    if (const auto* v = hit.value.find(key); v != nullptr && v->is_number()) {
      field = static_cast<std::remove_reference_t<decltype(field)>>(v->as_int());
    }
  };
  const auto read_bool = [&hit](const char* key, bool& field) {
    if (const auto* v = hit.value.find(key); v != nullptr && v->is_bool()) {
      field = v->as_bool();
    }
  };
  read_int("zero_round_step", out.zero_round_step);
  read_int("steps_applied", out.steps_applied);
  read_int("preflight_dead_labels", out.preflight_dead_labels);
  read_bool("fixed_point", out.fixed_point);
  read_bool("budget_exhausted", out.budget_exhausted);
  read_bool("detected_unsolvable", out.detected_unsolvable);
  if (const auto* m = hit.value.find("message");
      m != nullptr && m->is_string()) {
    out.note = m->as_string();
  }
  for (auto at = out.note.find(kNameMarker); at != std::string::npos;
       at = out.note.find(kNameMarker, at + base.name().size())) {
    out.note.replace(at, 1, base.name());
  }
}

bool classifiers_applicable(const NodeEdgeCheckableLcl& problem) {
  return problem.input_alphabet().size() == 1 && problem.max_degree() >= 2;
}

}  // namespace

ProblemOutcome survey_member(const FamilyMember& member,
                             const SurveyOptions& options) {
  LCL_OBS_SPAN(span, "batch/problem", "batch");
  const NodeEdgeCheckableLcl& problem = member.problem;
  ProblemOutcome out;
  out.name = member.name;
  out.signature = constraint_signature(problem);
  out.key = hex_signature(out.signature) + "/" + member.name;
  out.labels = problem.output_alphabet().size();
  out.node_configs = problem.total_node_configs();
  out.edge_configs = problem.edge_configs().size();

  try {
    Cache* cache = options.cache;
    std::optional<CacheMemo> memo, step_memo;
    if (cache != nullptr) {
      memo.emplace(*cache, /*verdicts=*/true);
      step_memo.emplace(*cache, /*verdicts=*/false);
    }
    // One orbit search per member, shared by the canonical-key column and
    // every canonical-tier lookup below. The key is permutation-invariant
    // only when the search completed; an exhausted form falls back to the
    // raw constraint signature (grouping only exact duplicates), so the
    // report never claims two members equivalent on a truncated search.
    const lint::CanonicalForm canonical =
        lint::canonical_form(lint::spec_from_problem(problem));
    out.canonical_key =
        canonical.complete
            ? hex_signature(lint::spec_signature(canonical.spec))
            : hex_signature(out.signature) + "/incomplete";
    const lint::CanonicalForm* form = &canonical;
    if (classifiers_applicable(problem)) {
      const auto classify = [&](const std::string& kind,
                                const auto& verdict_of, std::string& column) {
        const Cache::Hit hit = cached(cache, kind, problem, form, [&]() {
          const auto verdict = verdict_of();
          json::Value value = json::Value::make_object();
          value.object()["complexity"] =
              json::Value(to_string(verdict.complexity));
          value.object()["collapse"] = json::Value(
              static_cast<std::int64_t>(verdict.zero_round_collapse_step));
          value.object()["pruned"] =
              json::Value(static_cast<std::int64_t>(verdict.pruned_labels));
          return value;
        });
        if (const auto* c = hit.value.find("complexity");
            c != nullptr && c->is_string()) {
          column = c->as_string();
        }
      };
      const int steps = kClassifierSpeedupSteps;
      SpeedupEngine::Memo* const steps_only = step_memo ? &*step_memo : nullptr;
      if (options.classify_cycles) {
        classify(
            "cycle:s" + std::to_string(steps),
            [&]() { return classify_on_cycles(problem, steps, steps_only); },
            out.cycle_class);
      }
      if (options.classify_paths) {
        classify(
            "path:s" + std::to_string(steps),
            [&]() { return classify_on_paths(problem, steps, steps_only); },
            out.path_class);
      }
    }

    cached_speedup(problem, options.engine, cache, memo ? &*memo : nullptr,
                   form, out);

    if (options.check_nodes >= 2) {
      const std::string kind = "check:n" +
                               std::to_string(options.check_nodes) + ":b" +
                               std::to_string(options.check_budget);
      const Cache::Hit hit = cached(cache, kind, problem, form, [&]() {
        const Graph graph = make_path(options.check_nodes);
        return solvable_value(brute_force_solvable(
            problem, graph, uniform_labeling(graph, 0), options.check_budget));
      });
      if (const auto* s = hit.value.find("solvable");
          s != nullptr && s->is_bool()) {
        out.check = s->as_bool() ? "solvable" : "unsolvable";
      }
    }
  } catch (const StepBudgetExceeded& e) {
    // Budget blow-ups are per-member verdicts, not survey failures: the row
    // records the exhausted budget and the sweep continues.
    out.error = e.what();
    out.error_budget = e.budget();
    LCL_OBS_EVENT1("batch/task_budget_exceeded", "batch", "budget",
                   static_cast<std::int64_t>(e.budget()));
  } catch (const std::exception& e) {
    out.error = e.what();
  }

  if (!out.error.empty()) {
    out.landscape_class = "error";
  } else if (out.cycle_class != "n/a") {
    out.landscape_class = out.cycle_class;
  } else if (out.detected_unsolvable) {
    out.landscape_class = "unsolvable";
  } else if (out.zero_round_step >= 0) {
    out.landscape_class = "O(1)";
  } else if (out.fixed_point) {
    out.landscape_class = "fixed-point";
  } else if (out.budget_exhausted) {
    out.landscape_class = "blow-up";
  } else {
    out.landscape_class = "unresolved";
  }
  return out;
}

Family exhaustive_family(const ExhaustiveFamilyOptions& options) {
  if (options.max_degree < 2) {
    throw std::invalid_argument("exhaustive_family: max_degree must be >= 2");
  }
  if (options.labels < 1 || options.labels > 26) {
    throw std::invalid_argument("exhaustive_family: labels must be in 1..26");
  }
  const auto node_candidates =
      enumerate_multisets(options.labels,
                          static_cast<std::size_t>(options.max_degree));
  const auto edge_candidates = enumerate_multisets(options.labels, 2);
  if (node_candidates.size() > 20 || edge_candidates.size() > 20) {
    throw std::invalid_argument(
        "exhaustive_family: bounds give more than 2^20 constraint subsets; "
        "shrink labels or max_degree");
  }

  std::vector<std::string> names(options.labels);
  for (std::size_t i = 0; i < options.labels; ++i) {
    names[i] = std::string(1, static_cast<char>('a' + i));
  }

  Family family;
  family.description = "exhaustive:d" + std::to_string(options.max_degree) +
                       ":l" + std::to_string(options.labels);
  const std::uint64_t node_masks = std::uint64_t{1} << node_candidates.size();
  const std::uint64_t edge_masks = std::uint64_t{1} << edge_candidates.size();
  for (std::uint64_t node_mask = 1; node_mask < node_masks; ++node_mask) {
    for (std::uint64_t edge_mask = 1; edge_mask < edge_masks; ++edge_mask) {
      if (options.max_problems != 0 &&
          family.members.size() >= options.max_problems) {
        family.description += ":capped" +
                              std::to_string(options.max_problems);
        return family;
      }
      const std::string name = "d" + std::to_string(options.max_degree) +
                               "l" + std::to_string(options.labels) + "-n" +
                               std::to_string(node_mask) + "-e" +
                               std::to_string(edge_mask);
      NodeEdgeCheckableLcl::Builder builder(name, Alphabet({"-"}),
                                            Alphabet(names),
                                            options.max_degree);
      for (std::size_t i = 0; i < node_candidates.size(); ++i) {
        if ((node_mask >> i) & 1) builder.allow_node(node_candidates[i]);
      }
      // Degrees below Delta are unconstrained: every multiset allowed. This
      // keeps the family size at 2^|N_Delta| * 2^|E| while still giving the
      // path classifier meaningful endpoint states.
      for (int degree = 1; degree < options.max_degree; ++degree) {
        for (const auto& config :
             enumerate_multisets(options.labels,
                                 static_cast<std::size_t>(degree))) {
          builder.allow_node(config);
        }
      }
      for (std::size_t i = 0; i < edge_candidates.size(); ++i) {
        if ((edge_mask >> i) & 1) {
          builder.allow_edge(edge_candidates[i][0], edge_candidates[i][1]);
        }
      }
      builder.unrestricted_inputs();
      family.members.push_back(FamilyMember{name, builder.build()});
    }
  }
  return family;
}

Family spec_dir_family(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("spec_dir_family: '" + dir +
                             "' is not a directory");
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  Family family;
  family.description = "specs:" + dir;
  for (const auto& file : files) {
    const auto spec = lint::load_spec(file.string());
    const auto report = lint::lint_spec(spec);
    if (!report.structurally_valid) {
      throw std::runtime_error("spec_dir_family: '" + file.string() +
                               "' has structural lint errors (run lcl_lint)");
    }
    family.members.push_back(
        FamilyMember{file.stem().string(), lint::build_spec(spec)});
  }
  return family;
}

SurveyReport run_survey(const Family& family, const SurveyOptions& options) {
  LCL_OBS_SPAN(span, "batch/survey", "batch");
  LCL_OBS_SPAN_ARG(span, "problems", family.members.size());
  SurveyReport report;
  report.family = family.description;
  report.problems = family.members.size();
  report.engine_max_steps = options.engine.max_steps;
  report.engine_degrees = options.engine.degrees;
  report.check_nodes = options.check_nodes;
  report.check_budget = options.check_budget;
  report.classify_cycles = options.classify_cycles;
  report.classify_paths = options.classify_paths;
  report.classifier_speedup_steps = kClassifierSpeedupSteps;

  obs::RunContext* run = options.run;
  if (run != nullptr) {
    run->set_phase("survey");
    run->set_rows_total(family.members.size());
    if (options.cache != nullptr) {
      Cache* cache = options.cache;
      run->set_cache_stats_provider([cache]() {
        const auto stats = cache->stats();
        return std::make_pair(stats.hits, stats.misses);
      });
    }
  }

  std::vector<ProblemOutcome> outcomes(family.members.size());
  const auto work = [&](std::size_t i) {
    outcomes[i] = survey_member(family.members[i], options);
    if (run != nullptr) {
      run->add_rows_done(1);
      if (!outcomes[i].error.empty()) run->add_errors(1);
      // Gauges track row completions immediately (a scrape between
      // sampler ticks still sees fresh survey.rows_done).
      run->publish_gauges();
    }
  };

  std::size_t jobs = options.jobs;
  if (jobs == 0) {
    jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (jobs <= 1) {
    for (std::size_t i = 0; i < outcomes.size(); ++i) work(i);
  } else {
    Pool pool(Pool::Options{jobs});
    std::vector<std::future<void>> futures;
    futures.reserve(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      futures.push_back(pool.submit([&work, i]() { work(i); }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      try {
        futures[i].get();
      } catch (const std::exception& e) {
        // survey_member captures task errors itself; this is the last-resort
        // net (e.g. bad_alloc constructing the outcome). The slot still
        // renders deterministically.
        outcomes[i].name = family.members[i].name;
        outcomes[i].error = e.what();
        outcomes[i].landscape_class = "error";
      }
    }
    if (run != nullptr) run->record_busy_fractions(pool.busy_fractions());
  }
  if (run != nullptr) {
    run->set_phase("report");
    run->publish_gauges();
  }

  // Canonical order: the report is byte-identical for any thread count.
  report.set_outcomes(std::move(outcomes));
  return report;
}

void SurveyReport::set_outcomes(std::vector<ProblemOutcome> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const ProblemOutcome& a, const ProblemOutcome& b) {
              return a.key < b.key;
            });
  class_counts.clear();
  class_exemplars.clear();
  errors = 0;
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const auto& outcome : rows) {
    ++class_counts[outcome.landscape_class];
    class_exemplars.emplace(outcome.landscape_class, outcome.name);
    if (!outcome.error.empty()) ++errors;
    if (!outcome.canonical_key.empty()) keys.push_back(outcome.canonical_key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  canonical_classes = keys.size();
  outcomes = std::move(rows);
}

json::Value SurveyReport::to_json_value() const {
  json::Value root = json::Value::make_object();
  auto& top = root.object();
  top["schema"] = json::Value(std::string("lclscape.survey.v3"));

  json::Value survey = json::Value::make_object();
  survey.object()["family"] = json::Value(family);
  survey.object()["problems"] =
      json::Value(static_cast<std::int64_t>(problems));
  survey.object()["engine_max_steps"] =
      json::Value(static_cast<std::int64_t>(engine_max_steps));
  json::Value degrees = json::Value::make_array();
  for (const int d : engine_degrees) {
    degrees.array().push_back(json::Value(static_cast<std::int64_t>(d)));
  }
  survey.object()["engine_degrees"] = std::move(degrees);
  survey.object()["check_nodes"] =
      json::Value(static_cast<std::int64_t>(check_nodes));
  survey.object()["check_budget"] =
      json::Value(static_cast<std::int64_t>(check_budget));
  survey.object()["classify_cycles"] = json::Value(classify_cycles);
  survey.object()["classify_paths"] = json::Value(classify_paths);
  survey.object()["classifier_speedup_steps"] =
      json::Value(static_cast<std::int64_t>(classifier_speedup_steps));
  survey.object()["errors"] = json::Value(static_cast<std::int64_t>(errors));
  survey.object()["canonical_classes"] =
      json::Value(static_cast<std::int64_t>(canonical_classes));
  top["survey"] = std::move(survey);

  json::Value classes = json::Value::make_object();
  for (const auto& [name, count] : class_counts) {
    json::Value entry = json::Value::make_object();
    entry.object()["count"] = json::Value(static_cast<std::int64_t>(count));
    const auto exemplar = class_exemplars.find(name);
    entry.object()["exemplar"] = json::Value(
        exemplar == class_exemplars.end() ? std::string() : exemplar->second);
    classes.object()[name] = std::move(entry);
  }
  top["classes"] = std::move(classes);

  json::Value rows = json::Value::make_array();
  for (const auto& o : outcomes) {
    rows.array().push_back(outcome_to_json_value(o));
  }
  top["problems"] = std::move(rows);
  return root;
}

json::Value outcome_to_json_value(const ProblemOutcome& o) {
  json::Value row = json::Value::make_object();
  auto& fields = row.object();
  fields["name"] = json::Value(o.name);
  fields["key"] = json::Value(o.key);
  fields["canonical_key"] = json::Value(o.canonical_key);
  fields["labels"] = json::Value(static_cast<std::int64_t>(o.labels));
  fields["node_configs"] =
      json::Value(static_cast<std::int64_t>(o.node_configs));
  fields["edge_configs"] =
      json::Value(static_cast<std::int64_t>(o.edge_configs));
  fields["cycle"] = json::Value(o.cycle_class);
  fields["path"] = json::Value(o.path_class);
  fields["class"] = json::Value(o.landscape_class);
  fields["zero_round_step"] =
      json::Value(static_cast<std::int64_t>(o.zero_round_step));
  fields["steps_applied"] =
      json::Value(static_cast<std::int64_t>(o.steps_applied));
  fields["fixed_point"] = json::Value(o.fixed_point);
  fields["budget_exhausted"] = json::Value(o.budget_exhausted);
  fields["detected_unsolvable"] = json::Value(o.detected_unsolvable);
  fields["preflight_dead_labels"] =
      json::Value(static_cast<std::int64_t>(o.preflight_dead_labels));
  fields["check"] = json::Value(o.check);
  fields["note"] = json::Value(o.note);
  fields["error"] = json::Value(o.error);
  fields["error_budget"] =
      json::Value(static_cast<std::int64_t>(o.error_budget));
  return row;
}

ProblemOutcome outcome_from_json_value(const json::Value& row) {
  if (!row.is_object()) {
    throw std::runtime_error("survey row is not a JSON object");
  }
  const auto require_string = [&row](const char* key) -> const std::string& {
    const auto* v = row.find(key);
    if (v == nullptr || !v->is_string()) {
      throw std::runtime_error(std::string("survey row is missing string "
                                           "field \"") +
                               key + "\"");
    }
    return v->as_string();
  };
  const auto read_int = [&row](const char* key, auto& out) {
    const auto* v = row.find(key);
    if (v == nullptr || !v->is_number()) {
      throw std::runtime_error(std::string("survey row is missing numeric "
                                           "field \"") +
                               key + "\"");
    }
    out = static_cast<std::remove_reference_t<decltype(out)>>(v->as_int());
  };
  const auto read_bool = [&row](const char* key, bool& out) {
    const auto* v = row.find(key);
    if (v == nullptr || !v->is_bool()) {
      throw std::runtime_error(std::string("survey row is missing boolean "
                                           "field \"") +
                               key + "\"");
    }
    out = v->as_bool();
  };
  ProblemOutcome o;
  o.name = require_string("name");
  o.key = require_string("key");
  o.canonical_key = require_string("canonical_key");
  read_int("labels", o.labels);
  read_int("node_configs", o.node_configs);
  read_int("edge_configs", o.edge_configs);
  o.cycle_class = require_string("cycle");
  o.path_class = require_string("path");
  o.landscape_class = require_string("class");
  read_int("zero_round_step", o.zero_round_step);
  read_int("steps_applied", o.steps_applied);
  read_bool("fixed_point", o.fixed_point);
  read_bool("budget_exhausted", o.budget_exhausted);
  read_bool("detected_unsolvable", o.detected_unsolvable);
  read_int("preflight_dead_labels", o.preflight_dead_labels);
  o.check = require_string("check");
  o.note = require_string("note");
  o.error = require_string("error");
  read_int("error_budget", o.error_budget);
  return o;
}

std::string SurveyReport::to_json() const {
  return json::dump(to_json_value());
}

}  // namespace lcl::batch
