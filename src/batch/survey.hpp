#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "batch/cache.hpp"
#include "core/lcl.hpp"
#include "obs/json.hpp"
#include "obs/run_context.hpp"
#include "re/engine.hpp"

namespace lcl::batch {

/// One problem of a survey family, with the name the report refers to it by.
struct FamilyMember {
  std::string name;
  NodeEdgeCheckableLcl problem;
};

/// A problem family to sweep: exhaustive enumerations, generator corpora
/// (assembled by the caller - e.g. `tools/lcl_batch` drives the fuzz
/// generator), or a directory of spec-JSON files.
struct Family {
  std::string description;
  std::vector<FamilyMember> members;
};

/// Exhaustive enumeration of the no-input LCL problems with `labels` output
/// labels and maximum degree `max_degree`: every non-empty subset of the
/// degree-`max_degree` node configurations crossed with every non-empty
/// subset of the edge configurations. Degrees below `max_degree` (path/tree
/// endpoints and internal low-degree nodes) are unconstrained - all
/// configurations allowed - so the family is the "interior-constrained"
/// slice of the landscape; this is the family the Delta=2 exhaustive tables
/// are computed over. Enumeration order (and member naming) is canonical:
/// node subsets in mask order, edge subsets innermost.
struct ExhaustiveFamilyOptions {
  int max_degree = 2;
  std::size_t labels = 2;
  /// Stop after this many members (0 = no cap). The prefix is deterministic.
  std::size_t max_problems = 0;
};
Family exhaustive_family(const ExhaustiveFamilyOptions& options);

/// Loads every `*.json` problem spec under `dir` (sorted by filename; both
/// bare specs and fuzz-case wrappers are accepted). Throws
/// `std::runtime_error` naming the file on I/O or validation failure.
Family spec_dir_family(const std::string& dir);

/// The speedup-step budget both classifiers get in a survey; the report
/// echoes it (`SurveyReport::classifier_speedup_steps`) and the "member:"
/// cache kind names it (`...:k<N>`).
inline constexpr int kClassifierSpeedupSteps = 2;

/// Knobs of one survey run. Everything that influences a *verdict* is part
/// of the cache key derivation; `jobs` and `cache` only influence how fast
/// the same report is produced.
struct SurveyOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = run inline (no pool).
  std::size_t jobs = 1;
  /// Speedup-synthesis settings (step budget, enumeration limits, degree
  /// set - leave `degrees` empty for the forest setting, `{2}` for cycles).
  SpeedupEngine::Options engine;
  /// Classify on cycles / paths (only applies to members without inputs and
  /// with max degree >= 2; others record "n/a"), with a speedup budget of
  /// `kClassifierSpeedupSteps`.
  bool classify_cycles = true;
  bool classify_paths = true;
  /// When > 0: cross-check solvability on the path with this many nodes via
  /// the brute-force reference (inputs all-0). A `StepBudgetExceeded` from
  /// an expensive member fails only that member's report row.
  std::size_t check_nodes = 0;
  std::uint64_t check_budget = 250'000;
  /// Shared result cache; nullptr = compute everything.
  Cache* cache = nullptr;
  /// Optional progress sink: rows done/total, errors, cache hit ratio and
  /// the pool's per-worker busy fractions are reported here as the sweep
  /// runs (the caller owns it and typically hands it to an obs::Exporter
  /// / ResourceSampler). Never influences a verdict or the report bytes.
  obs::RunContext* run = nullptr;
};

/// Everything the survey learned about one member. `key` is the canonical
/// sort key (constraint signature + name), so report order is independent
/// of the thread count.
struct ProblemOutcome {
  std::string name;
  std::string key;
  std::uint64_t signature = 0;
  /// Hex of `lint::canonical_signature` - equal for permutation-equivalent
  /// members (that is how `SurveyReport::canonical_classes` counts). When
  /// the orbit search exhausts its budget the key falls back to the raw
  /// constraint signature plus "/incomplete" (grouping only exact
  /// duplicates - a truncated search is not permutation-invariant).
  /// Computed directly per member, so the column is identical for
  /// cold/warm caches and any `jobs` value.
  std::string canonical_key;
  std::size_t labels = 0;
  std::size_t node_configs = 0;
  std::size_t edge_configs = 0;
  /// `to_string(CycleComplexity)` verdicts; "n/a" when inapplicable.
  std::string cycle_class = "n/a";
  std::string path_class = "n/a";
  /// Speedup-synthesis certificate: step at which `f^k(pi)` became 0-round
  /// solvable (the synthesized algorithm's radius), or -1.
  int zero_round_step = -1;
  int steps_applied = 0;
  bool fixed_point = false;
  bool budget_exhausted = false;
  bool detected_unsolvable = false;
  std::size_t preflight_dead_labels = 0;
  std::string note;  // engine blow-up / unsolvability message
  /// Brute-force cross-check verdict ("solvable" / "unsolvable" / "n/a").
  std::string check = "n/a";
  /// Task-local failure: the task's exception message; empty = clean. A
  /// `StepBudgetExceeded` additionally records its budget.
  std::string error;
  std::uint64_t error_budget = 0;
  /// The headline landscape class this member is counted under.
  std::string landscape_class;
};

/// The deterministic landscape report: member outcomes sorted by canonical
/// key, complexity-class counts, and one exemplar per class (the first
/// member in key order). Contains no timings, thread counts, or cache
/// statistics, so its JSON rendering is byte-identical for any `jobs`
/// value and for cold vs. warm caches. The JSON document carries
/// `"schema": "lclscape.survey.v3"`; v2 = v1 plus the schema marker and
/// the optional CLI-attached "telemetry" block (`lcl_batch` adds that one
/// outside this struct precisely to keep the library rendering
/// deterministic); v3 = v2 plus the per-row `canonical_key` column and the
/// `canonical_classes` count.
struct SurveyReport {
  std::string family;
  std::size_t problems = 0;
  /// Echo of the verdict-relevant options.
  int engine_max_steps = 0;
  std::vector<int> engine_degrees;
  std::size_t check_nodes = 0;
  std::uint64_t check_budget = 0;
  /// Classifier echo (verdict-relevant too: `lcl_batch --classify=off`
  /// records "n/a" columns and the landscape class falls through to the
  /// engine verdicts). The shard merge refuses to join reports whose
  /// echoes disagree.
  bool classify_cycles = true;
  bool classify_paths = true;
  int classifier_speedup_steps = 0;
  std::vector<ProblemOutcome> outcomes;
  std::map<std::string, std::size_t> class_counts;
  std::map<std::string, std::string> class_exemplars;
  /// Number of members whose task failed (error rows).
  std::size_t errors = 0;
  /// Distinct `canonical_key` values among the outcomes - the number of
  /// label-permutation equivalence classes in the family, and hence the
  /// number of engine runs a `--cache-key=canonical` sweep pays for
  /// (permutation-equivalent members resolve as confirmed canonical-tier
  /// hits).
  std::size_t canonical_classes = 0;

  /// Stores `rows` sorted by canonical key and recomputes `class_counts`,
  /// `class_exemplars`, `errors` and `canonical_classes` from them.
  /// `run_survey` and the shard merge both end here, so a merged report is
  /// byte-identical to a single-pool one.
  void set_outcomes(std::vector<ProblemOutcome> rows);

  obs::json::Value to_json_value() const;
  std::string to_json() const;
};

/// Sweeps the family through classify -> speedup-synthesis
/// (`survey_member`) on `options.jobs` workers, sharing `options.cache`
/// across tasks. Members are not linted here: `spec_dir_family` lints the
/// spec files when it loads them. Per-member failures (budget blow-ups,
/// pathological specs) are recorded in that member's row; they never abort
/// the survey or the pool.
SurveyReport run_survey(const Family& family, const SurveyOptions& options);

/// One member's report row, computed inline on the calling thread: the
/// classifier verdicts, the speedup certificate and the optional
/// brute-force check, through `options.cache` when set. `run_survey` calls
/// this for every member (`options.jobs` and `options.run` are not read
/// here), and lcld's `/v1/classify` answers with it, so both serve
/// verdicts from one source. Per-member failures are recorded in the
/// row's `error` column.
ProblemOutcome survey_member(const FamilyMember& member,
                             const SurveyOptions& options);

/// One report row as JSON - exactly the rendering `SurveyReport::to_json`
/// uses - and its lossless inverse. The round-trip is what lets the shard
/// merge (`batch::merge_shard_reports`) reassemble a byte-identical
/// single-pool report from independently produced shard reports.
/// `outcome_from_json_value` throws `std::runtime_error` on a row missing
/// required fields.
obs::json::Value outcome_to_json_value(const ProblemOutcome& outcome);
ProblemOutcome outcome_from_json_value(const obs::json::Value& row);

}  // namespace lcl::batch
