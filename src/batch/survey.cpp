#include "batch/survey.hpp"

#include <algorithm>
#include <filesystem>
#include <future>
#include <iomanip>
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
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "re/zero_round.hpp"
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

/// Two-tier lookup for label-permutation-invariant verdict kinds
/// ("engine:", "zr:", "cycle:", "path:", "check:"): nothing in those
/// payloads names a label, so a canonical-tier hit can be replayed verbatim
/// - the permutation evidence degenerates to "no field needs mapping". With
/// the tier off this is exactly the raw confirmed lookup.
std::optional<json::Value> cache_find(
    Cache* cache, const std::string& kind, const NodeEdgeCheckableLcl& problem,
    const lint::CanonicalForm* form = nullptr,
    std::optional<lint::CanonicalForm>* computed = nullptr) {
  if (cache == nullptr) return std::nullopt;
  if (auto hit = cache->find_canonical(kind, problem, form, computed)) {
    return std::move(hit->value);
  }
  return std::nullopt;
}

void cache_put(Cache* cache, const std::string& kind,
               const NodeEdgeCheckableLcl& problem, const json::Value& value,
               const lint::CanonicalForm* form = nullptr,
               bool index_canonical = true) {
  if (cache != nullptr) {
    cache->insert(kind, problem, value, form, index_canonical);
  }
}

/// 0-round solvability through the cache (the verdict depends on the degree
/// set, so it is part of the kind). A miss hands the canonical form its
/// lookup computed to the insert, so the orbit search runs once.
bool zero_round_cached(const NodeEdgeCheckableLcl& problem,
                       const std::vector<int>& degrees, Cache* cache) {
  const std::string kind = "zr:" + degrees_tag(degrees);
  std::optional<lint::CanonicalForm> form;
  if (const auto hit = cache_find(cache, kind, problem, nullptr, &form)) {
    if (const auto* solvable = hit->find("solvable");
        solvable != nullptr && solvable->is_bool()) {
      return solvable->as_bool();
    }
  }
  const bool solvable = zero_round_solvable(problem, degrees);
  json::Value value = json::Value::make_object();
  value.object()["solvable"] = json::Value(solvable);
  cache_put(cache, kind, problem, value, form ? &*form : nullptr);
  return solvable;
}

/// One reduced `Rbar(R(.))` iterate through the cache. The enumeration
/// limits are part of the kind: an iterate computed under generous limits
/// must not be served to a run whose limits would have aborted it. Throws
/// `ReBlowupError` / `std::runtime_error` exactly like the uncached step.
NodeEdgeCheckableLcl speedup_step_cached(const NodeEdgeCheckableLcl& current,
                                         const ReLimits& limits,
                                         bool reduce_labels, Cache* cache) {
  const std::string kind = std::string("step:") + (reduce_labels ? "r" : "f") +
                           ":l" + std::to_string(limits.max_labels) + ":c" +
                           std::to_string(limits.max_configs);
  if (auto* run = obs::RunContext::current(); run != nullptr) {
    run->bump("engine_steps");
  }
  // Exact tier ONLY: the payload embeds the derived next problem in the
  // *stored* problem's label space, and a canonical-tier hit would come
  // with an unknown induced permutation on that derived spec. Every other
  // survey kind stores label-invariant verdicts and goes two-tier.
  if (cache != nullptr) {
    if (const auto hit = cache->find(kind, current)) {
      if (const auto* next = hit->find("next"); next != nullptr) {
        return lint::build_spec(lint::spec_from_json_value(*next));
      }
    }
  }
  ReStep psi = apply_r(current, limits);
  if (reduce_labels) psi = reduce_step(std::move(psi), limits.kernel);
  ReStep next = apply_rbar(psi.problem, limits);
  if (reduce_labels) next = reduce_step(std::move(next), limits.kernel);
  json::Value value = json::Value::make_object();
  value.object()["next"] =
      lint::spec_to_json_value(lint::spec_from_problem(next.problem));
  cache_put(cache, kind, current, value, nullptr,
            /*index_canonical=*/false);  // payload is not label-invariant
  return std::move(next.problem);
}

/// The speedup-synthesis certificate the survey records per problem: the
/// observable outcome of `SpeedupEngine::run`, without the lifting data the
/// survey does not consume.
struct EngineSummary {
  int zero_round_step = -1;
  int steps_applied = 0;
  bool fixed_point = false;
  bool budget_exhausted = false;
  bool detected_unsolvable = false;
  std::size_t preflight_dead_labels = 0;
  std::string message;
};

json::Value summary_to_json(const EngineSummary& s) {
  json::Value value = json::Value::make_object();
  auto& object = value.object();
  object["zero_round_step"] =
      json::Value(static_cast<std::int64_t>(s.zero_round_step));
  object["steps_applied"] =
      json::Value(static_cast<std::int64_t>(s.steps_applied));
  object["fixed_point"] = json::Value(s.fixed_point);
  object["budget_exhausted"] = json::Value(s.budget_exhausted);
  object["detected_unsolvable"] = json::Value(s.detected_unsolvable);
  object["preflight_dead_labels"] =
      json::Value(static_cast<std::int64_t>(s.preflight_dead_labels));
  object["message"] = json::Value(s.message);
  return value;
}

EngineSummary summary_from_json(const json::Value& value) {
  EngineSummary s;
  const auto read_int = [&value](const char* key, auto& out) {
    if (const auto* v = value.find(key); v != nullptr && v->is_number()) {
      out = static_cast<std::remove_reference_t<decltype(out)>>(v->as_int());
    }
  };
  read_int("zero_round_step", s.zero_round_step);
  read_int("steps_applied", s.steps_applied);
  read_int("preflight_dead_labels", s.preflight_dead_labels);
  const auto read_bool = [&value](const char* key, bool& out) {
    if (const auto* v = value.find(key); v != nullptr && v->is_bool()) {
      out = v->as_bool();
    }
  };
  read_bool("fixed_point", s.fixed_point);
  read_bool("budget_exhausted", s.budget_exhausted);
  read_bool("detected_unsolvable", s.detected_unsolvable);
  if (const auto* m = value.find("message"); m != nullptr && m->is_string()) {
    s.message = m->as_string();
  }
  return s;
}

/// `SpeedupEngine::run` semantics, re-expressed over the result cache: the
/// whole-run summary is memoized per base problem, and on a miss every
/// `Rbar o R` iterate and 0-round verdict flows through the shared step
/// cache - so two different base problems whose sequences merge (common
/// after reduction) never recompute the shared tail.
EngineSummary cached_speedup(const NodeEdgeCheckableLcl& base,
                             const SpeedupEngine::Options& options,
                             Cache* cache,
                             const lint::CanonicalForm* base_form) {
  const std::string kind =
      "engine:" + degrees_tag(options.degrees) + ":s" +
      std::to_string(options.max_steps) + ":l" +
      std::to_string(options.limits.max_labels) + ":c" +
      std::to_string(options.limits.max_configs) +
      (options.reduce ? ":r" : ":f");
  if (const auto hit = cache_find(cache, kind, base, base_form)) {
    return summary_from_json(*hit);
  }

  EngineSummary s;
  NodeEdgeCheckableLcl effective = base;
  if (options.preflight_lint) {
    lint::LintOptions lint_options;
    lint_options.zero_round = false;
    auto preflight = lint::prune_problem(base, lint_options);
    s.preflight_dead_labels = preflight.report.dead_labels;
    if (preflight.report.trivially_unsolvable) {
      s.detected_unsolvable = true;
      s.message = "preflight lint (L020): the pruned constraint set is empty";
      cache_put(cache, kind, base, summary_to_json(s), base_form);
      return s;
    }
    if (preflight.changed) effective = std::move(preflight.problem);
  }

  const auto finish = [&]() {
    cache_put(cache, kind, base, summary_to_json(s), base_form);
    return s;
  };

  if (zero_round_cached(effective, options.degrees, cache)) {
    s.zero_round_step = 0;
    return finish();
  }
  NodeEdgeCheckableLcl current = std::move(effective);
  std::uint64_t current_signature = constraint_signature(current);
  for (int step = 0; step < options.max_steps; ++step) {
    NodeEdgeCheckableLcl next;
    try {
      next = speedup_step_cached(current, options.limits, options.reduce,
                                 cache);
    } catch (const ReBlowupError& e) {
      s.budget_exhausted = true;
      s.message = e.what();
      return finish();
    } catch (const std::runtime_error& e) {
      // reduce() trimmed every output label: unsolvable on any graph with
      // an edge (same interpretation as SpeedupEngine::run).
      s.detected_unsolvable = true;
      s.message = e.what();
      return finish();
    }
    s.steps_applied = step + 1;
    if (zero_round_cached(next, options.degrees, cache)) {
      s.zero_round_step = step + 1;
      return finish();
    }
    const std::uint64_t next_signature = constraint_signature(next);
    if (next_signature == current_signature &&
        (same_constraints(next, current) ||
         isomorphic_constraints(next, current))) {
      s.fixed_point = true;
      return finish();
    }
    current = std::move(next);
    current_signature = next_signature;
  }
  return finish();
}

bool classifiers_applicable(const NodeEdgeCheckableLcl& problem) {
  return problem.input_alphabet().size() == 1 && problem.max_degree() >= 2;
}

ProblemOutcome survey_one(const FamilyMember& member,
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
      if (options.classify_cycles) {
        const std::string kind =
            "cycle:s" + std::to_string(options.classifier_speedup_steps);
        if (const auto hit = cache_find(cache, kind, problem, form)) {
          if (const auto* c = hit->find("complexity");
              c != nullptr && c->is_string()) {
            out.cycle_class = c->as_string();
          }
        } else {
          const auto verdict =
              classify_on_cycles(problem, options.classifier_speedup_steps);
          out.cycle_class = to_string(verdict.complexity);
          json::Value value = json::Value::make_object();
          value.object()["complexity"] = json::Value(out.cycle_class);
          value.object()["collapse"] = json::Value(
              static_cast<std::int64_t>(verdict.zero_round_collapse_step));
          value.object()["pruned"] =
              json::Value(static_cast<std::int64_t>(verdict.pruned_labels));
          cache_put(cache, kind, problem, value, form);
        }
      }
      if (options.classify_paths) {
        const std::string kind =
            "path:s" + std::to_string(options.classifier_speedup_steps);
        if (const auto hit = cache_find(cache, kind, problem, form)) {
          if (const auto* c = hit->find("complexity");
              c != nullptr && c->is_string()) {
            out.path_class = c->as_string();
          }
        } else {
          const auto verdict =
              classify_on_paths(problem, options.classifier_speedup_steps);
          out.path_class = to_string(verdict.complexity);
          json::Value value = json::Value::make_object();
          value.object()["complexity"] = json::Value(out.path_class);
          value.object()["collapse"] = json::Value(
              static_cast<std::int64_t>(verdict.zero_round_collapse_step));
          value.object()["pruned"] =
              json::Value(static_cast<std::int64_t>(verdict.pruned_labels));
          cache_put(cache, kind, problem, value, form);
        }
      }
    }

    const EngineSummary summary =
        cached_speedup(problem, options.engine, options.cache, form);
    out.zero_round_step = summary.zero_round_step;
    out.steps_applied = summary.steps_applied;
    out.fixed_point = summary.fixed_point;
    out.budget_exhausted = summary.budget_exhausted;
    out.detected_unsolvable = summary.detected_unsolvable;
    out.preflight_dead_labels = summary.preflight_dead_labels;
    out.note = summary.message;

    if (options.check_nodes >= 2) {
      const std::string kind = "check:n" +
                               std::to_string(options.check_nodes) + ":b" +
                               std::to_string(options.check_budget);
      if (const auto hit = cache_find(cache, kind, problem, form)) {
        if (const auto* s = hit->find("solvable");
            s != nullptr && s->is_bool()) {
          out.check = s->as_bool() ? "solvable" : "unsolvable";
        }
      } else {
        const Graph graph = make_path(options.check_nodes);
        const bool solvable = brute_force_solvable(
            problem, graph, uniform_labeling(graph, 0), options.check_budget);
        out.check = solvable ? "solvable" : "unsolvable";
        json::Value value = json::Value::make_object();
        value.object()["solvable"] = json::Value(solvable);
        cache_put(cache, kind, problem, value, form);
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

}  // namespace

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
  report.classifier_speedup_steps = options.classifier_speedup_steps;

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
    outcomes[i] = survey_one(family.members[i], options);
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
        // survey_one captures task errors itself; this is the last-resort
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
  std::sort(outcomes.begin(), outcomes.end(),
            [](const ProblemOutcome& a, const ProblemOutcome& b) {
              return a.key < b.key;
            });
  for (const auto& outcome : outcomes) {
    ++report.class_counts[outcome.landscape_class];
    report.class_exemplars.emplace(outcome.landscape_class, outcome.name);
    if (!outcome.error.empty()) ++report.errors;
  }
  {
    std::vector<std::string> keys;
    keys.reserve(outcomes.size());
    for (const auto& outcome : outcomes) {
      if (!outcome.canonical_key.empty()) keys.push_back(outcome.canonical_key);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    report.canonical_classes = keys.size();
  }
  report.outcomes = std::move(outcomes);
  return report;
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
