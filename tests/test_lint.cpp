// Tests for lclscape::lint - the diagnostic framework, every L0xx pass,
// pruning soundness, the pre-flight integrations (speedup engine,
// classifiers, fuzz generator), and the lcl_lint CLI's exit-code contract.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "batch/survey.hpp"
#include "classify/cycle_classifier.hpp"
#include "classify/path_classifier.hpp"
#include "core/brute_force.hpp"
#include "core/checker.hpp"
#include "core/problems.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "lint/analyzer.hpp"
#include "lint/diagnostic.hpp"
#include "lint/spec.hpp"
#include "lint/spec_io.hpp"
#include "local/view.hpp"
#include "re/engine.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"

namespace lcl {
namespace {

using lint::Code;
using lint::Diagnostic;
using lint::LintOptions;
using lint::LintReport;
using lint::ProblemSpec;
using lint::Severity;

int count_code(const LintReport& report, const char* code) {
  return static_cast<int>(
      std::count_if(report.diagnostics.begin(), report.diagnostics.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

// ---------------------------------------------------------------------------
// Diagnostic framework.

TEST(LintDiagnostic, SeverityOrderAndExitCodes) {
  EXPECT_LT(Severity::kInfo, Severity::kWarning);
  EXPECT_LT(Severity::kWarning, Severity::kError);

  std::vector<Diagnostic> diags;
  EXPECT_EQ(lint::exit_code(diags), 0);
  diags.push_back({Code::kZeroRoundTrivial, Severity::kInfo, "m", "o", 0});
  EXPECT_EQ(lint::exit_code(diags), 0);  // info does not dirty the exit
  diags.push_back({Code::kDeadLabel, Severity::kWarning, "m", "o", 1});
  EXPECT_EQ(lint::exit_code(diags), 1);
  diags.push_back({Code::kAlphabetArity, Severity::kError, "m", "o", 2});
  EXPECT_EQ(lint::exit_code(diags), 2);
  EXPECT_EQ(lint::max_severity(diags), Severity::kError);
}

TEST(LintDiagnostic, ToStringCarriesCodeSeverityAndLocation) {
  const Diagnostic d{Code::kDeadLabel, Severity::kWarning, "dead label",
                     "output_label", 3};
  const auto text = d.to_string();
  EXPECT_NE(text.find("L010"), std::string::npos);
  EXPECT_NE(text.find("warning"), std::string::npos);
  EXPECT_NE(text.find("output_label 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// L001: alphabet / arity consistency.

TEST(LintStructural, FlagsEveryClassOfSpecBreakage) {
  ProblemSpec spec;
  spec.name = "broken";
  spec.max_degree = 2;
  spec.inputs = {"-", "-"};           // duplicate input name
  spec.outputs = {"a", "a"};          // duplicate output name
  spec.node_configs = {{0, 1, 0}};    // arity 3 > max_degree
  spec.edge_configs = {{0}, {0, 7}};  // arity 1; undeclared label 7
  spec.g = {{0}};                     // 1 row for 2 inputs

  const auto report = lint::lint_spec(spec);
  EXPECT_FALSE(report.structurally_valid);
  EXPECT_EQ(report.severity(), Severity::kError);
  EXPECT_EQ(report.status(), 2);
  EXPECT_GE(count_code(report, Code::kAlphabetArity), 5);
  // Semantic passes are skipped on structural errors.
  EXPECT_EQ(count_code(report, Code::kDeadLabel), 0);
  EXPECT_TRUE(report.old_to_new.empty());
}

TEST(LintStructural, RejectsNonPositiveMaxDegreeAndEmptyAlphabets) {
  ProblemSpec spec;
  spec.name = "empty";
  spec.max_degree = 0;
  const auto report = lint::lint_spec(spec);
  EXPECT_FALSE(report.structurally_valid);
  EXPECT_GE(count_code(report, Code::kAlphabetArity), 3);
}

// ---------------------------------------------------------------------------
// L040 / L041: duplicates and canonical order.

TEST(LintCanonical, FlagsDuplicatesAndNonCanonicalOrder) {
  ProblemSpec spec;
  spec.name = "dups";
  spec.max_degree = 2;
  spec.inputs = {"-"};
  spec.outputs = {"a", "b"};
  spec.node_configs = {{1, 0}, {0, 1}, {0}};  // {b,a} unsorted + duplicate
  spec.edge_configs = {{0, 0}, {0, 0}};       // duplicate
  spec.g = {{1, 1, 0}};                       // duplicate g entry, unsorted

  const auto report = lint::lint_spec(spec);
  EXPECT_TRUE(report.structurally_valid);
  EXPECT_GE(count_code(report, Code::kDuplicateConfig), 3);
  EXPECT_GE(count_code(report, Code::kNonCanonicalConfig), 1);
  EXPECT_EQ(report.severity(), Severity::kWarning);

  // The canonical spec is deduped, sorted, and lint-stable: re-linting it
  // yields no L040/L041 (and no new warnings at all here).
  const auto again = lint::lint_spec(report.canonical);
  EXPECT_EQ(count_code(again, Code::kDuplicateConfig), 0);
  EXPECT_EQ(count_code(again, Code::kNonCanonicalConfig), 0);
  EXPECT_TRUE(again.clean());
  EXPECT_EQ(again.canonical, report.canonical);
}

// ---------------------------------------------------------------------------
// L010-L013: the support fixpoint.

ProblemSpec cascade_spec() {
  // 'c' has no edge configuration -> dies in sweep 1, killing {a, c};
  // that starves 'a' (its only node configuration) -> dies in sweep 2.
  ProblemSpec spec;
  spec.name = "cascade";
  spec.max_degree = 2;
  spec.inputs = {"-"};
  spec.outputs = {"a", "b", "c"};
  spec.node_configs = {{0, 2}, {1}, {1, 1}};
  spec.edge_configs = {{0, 0}, {0, 1}, {1, 1}};
  spec.g = {{0, 1, 2}};
  return spec;
}

TEST(LintSupportFixpoint, CascadeTakesTwoSweepsAndPrunesToTheLiveCore) {
  const auto report = lint::lint_spec(cascade_spec());
  ASSERT_TRUE(report.structurally_valid);
  EXPECT_GE(report.fixpoint_iterations, 2);
  EXPECT_EQ(report.dead_labels, 2u);
  EXPECT_EQ(count_code(report, Code::kDeadLabel), 2);
  EXPECT_GE(count_code(report, Code::kVacuousConfig), 1);

  // Only 'b' survives; the mappings agree in both directions.
  ASSERT_EQ(report.canonical.outputs, std::vector<std::string>{"b"});
  ASSERT_EQ(report.new_to_old.size(), 1u);
  EXPECT_EQ(report.new_to_old[0], 1u);
  ASSERT_EQ(report.old_to_new.size(), 3u);
  EXPECT_EQ(report.old_to_new[0], LintReport::kDropped);
  EXPECT_EQ(report.old_to_new[1], 0u);
  EXPECT_EQ(report.old_to_new[2], LintReport::kDropped);

  // The live core is 0-round trivial via uniform 'b'.
  EXPECT_EQ(report.zero_round_label, 1);
  EXPECT_EQ(count_code(report, Code::kZeroRoundTrivial), 1);
}

TEST(LintSupportFixpoint, StarvedInputIsReportedPerGRow) {
  ProblemSpec spec;
  spec.name = "starved";
  spec.max_degree = 2;
  spec.inputs = {"i0", "i1"};
  spec.outputs = {"a", "b"};
  spec.node_configs = {{0}, {0, 0}};
  spec.edge_configs = {{0, 0}};
  spec.g = {{0}, {1}};  // i1 permits only 'b', and 'b' is dead

  const auto report = lint::lint_spec(spec);
  ASSERT_TRUE(report.structurally_valid);
  EXPECT_EQ(count_code(report, Code::kDeadLabel), 1);
  EXPECT_EQ(count_code(report, Code::kStarvedInput), 1);
  EXPECT_EQ(report.severity(), Severity::kWarning);
}

TEST(LintSupportFixpoint, UnpopulatedDegreeIsInfoOnly) {
  ProblemSpec spec;
  spec.name = "no-degree-1";
  spec.max_degree = 2;
  spec.inputs = {"-"};
  spec.outputs = {"a"};
  spec.node_configs = {{0, 0}};  // nothing of degree 1
  spec.edge_configs = {{0, 0}};
  spec.g = {{0}};

  const auto report = lint::lint_spec(spec);
  EXPECT_EQ(count_code(report, Code::kUnpopulatedDegree), 1);
  EXPECT_TRUE(report.clean());  // info only: exit 0
  EXPECT_EQ(report.status(), 0);
}

// ---------------------------------------------------------------------------
// L020 / L030: the semantic verdicts.

ProblemSpec unsolvable_spec() {
  // Node constraint uses only 'a', edge constraint only 'b': the support
  // fixpoint erases everything.
  ProblemSpec spec;
  spec.name = "void";
  spec.max_degree = 2;
  spec.inputs = {"-"};
  spec.outputs = {"a", "b"};
  spec.node_configs = {{0}, {0, 0}};
  spec.edge_configs = {{1, 1}};
  spec.g = {{0, 1}};
  return spec;
}

TEST(LintVerdicts, TrivialUnsolvabilityIsAnError) {
  const auto report = lint::lint_spec(unsolvable_spec());
  ASSERT_TRUE(report.structurally_valid);
  EXPECT_TRUE(report.trivially_unsolvable);
  EXPECT_EQ(count_code(report, Code::kUnsolvable), 1);
  EXPECT_EQ(report.status(), 2);

  // Ground truth: no solution on the 3-node path.
  const auto problem = lint::build_spec(unsolvable_spec());
  const Graph g = make_path(3);
  EXPECT_FALSE(
      brute_force_solvable(problem, g, uniform_labeling(g, 0), 100000));
}

TEST(LintVerdicts, ZeroRoundTrivialityMatchesTheExactDecisionProcedure) {
  const auto trivial = lint::lint_problem(problems::trivial(3));
  EXPECT_EQ(count_code(trivial, Code::kZeroRoundTrivial), 1);
  EXPECT_GE(trivial.zero_round_label, 0);
  EXPECT_TRUE(trivial.clean());

  // Maximal matching forbids {U,U}, so no uniform label works - and indeed
  // it is not 0-round solvable at all.
  const auto matching = lint::lint_problem(problems::maximal_matching(3));
  EXPECT_EQ(count_code(matching, Code::kZeroRoundTrivial), 0);
  EXPECT_EQ(matching.zero_round_label, -1);

  const auto coloring = lint::lint_problem(problems::coloring(3, 2));
  EXPECT_EQ(coloring.zero_round_label, -1);
}

TEST(LintVerdicts, WellFormedLandscapeProblemsAreClean) {
  for (const auto& problem :
       {problems::mis(3), problems::maximal_matching(3),
        problems::sinkless_orientation(3), problems::two_coloring(2)}) {
    const auto report = lint::lint_problem(problem);
    EXPECT_TRUE(report.clean()) << problem.name() << ":\n"
                                << report.to_text();
    EXPECT_EQ(report.dead_labels, 0u) << problem.name();
    EXPECT_FALSE(report.trivially_unsolvable) << problem.name();
  }
}

// ---------------------------------------------------------------------------
// prune_problem: the evidence-carrying rebuild.

NodeEdgeCheckableLcl with_junk_label(const NodeEdgeCheckableLcl& p,
                                     const std::string& junk) {
  // Append an output label that no constraint supports (dead on arrival).
  Alphabet output;
  for (Label l = 0; l < p.output_alphabet().size(); ++l) {
    output.add(p.output_alphabet().name(l));
  }
  output.add(junk);
  NodeEdgeCheckableLcl::Builder builder(p.name() + "+junk",
                                        p.input_alphabet(), std::move(output),
                                        p.max_degree());
  for (int d = 1; d <= p.max_degree(); ++d) {
    for (const auto& config : p.node_configs(d)) {
      builder.allow_node(config.labels());
    }
  }
  for (const auto& config : p.edge_configs()) {
    builder.allow_edge(config[0], config[1]);
  }
  for (Label in = 0; in < p.input_alphabet().size(); ++in) {
    for (const auto out : p.allowed_outputs(in).to_vector()) {
      builder.allow_output_for_input(in, out);
    }
    builder.allow_output_for_input(
        in, static_cast<Label>(p.output_alphabet().size()));
  }
  return builder.build();
}

TEST(LintPrune, RemovesJunkAndPreservesTheLiveProblem) {
  const auto original = problems::maximal_matching(3);
  const auto junked = with_junk_label(original, "J");
  ASSERT_EQ(junked.output_alphabet().size(),
            original.output_alphabet().size() + 1);

  const auto pruned = lint::prune_problem(junked);
  EXPECT_TRUE(pruned.changed);
  EXPECT_EQ(pruned.report.dead_labels, 1u);
  EXPECT_FALSE(pruned.report.trivially_unsolvable);
  EXPECT_EQ(pruned.problem.output_alphabet().size(),
            original.output_alphabet().size());
  EXPECT_TRUE(same_constraints(pruned.problem, original));
}

TEST(LintPrune, CleanProblemsComeBackUnchanged) {
  const auto original = problems::mis(3);
  const auto pruned = lint::prune_problem(original);
  EXPECT_FALSE(pruned.changed);
  EXPECT_EQ(pruned.report.dead_labels, 0u);
  EXPECT_TRUE(same_constraints(pruned.problem, original));
  // Nothing to prune: the input itself, not a rebuild of it.
  EXPECT_EQ(&pruned.problem.edge_configs(), &original.edge_configs());
  EXPECT_EQ(pruned.problem.name(), original.name());
}

// ---------------------------------------------------------------------------
// Speedup-engine pre-flight.

TEST(LintEnginePreflight, TriviallyUnsolvableShortCircuitsTheRun) {
  SpeedupEngine engine(lint::build_spec(unsolvable_spec()));
  SpeedupEngine::Options options;
  options.max_steps = 3;
  const auto outcome = engine.run(options);
  EXPECT_TRUE(outcome.detected_unsolvable);
  EXPECT_EQ(outcome.zero_round_step, -1);
  EXPECT_TRUE(outcome.steps.empty());  // no operator was ever applied
  EXPECT_NE(outcome.blowup_message.find("L020"), std::string::npos);
}

TEST(LintEnginePreflight, EffectiveBaseIsPrunedFromConstruction) {
  const auto junked = with_junk_label(problems::maximal_matching(2), "J");
  SpeedupEngine engine(junked);
  // The constructor ran the pre-flight; no `run()` is needed.
  EXPECT_EQ(engine.preflight().dead_labels, 1u);
  EXPECT_EQ(engine.effective_base().output_alphabet().size(), 3u);
  EXPECT_EQ(engine.problem_at(0).output_alphabet().size(), 4u);

  // After an L020 verdict there is no pruned problem: the base stands in.
  SpeedupEngine unsolvable(lint::build_spec(unsolvable_spec()));
  EXPECT_TRUE(unsolvable.preflight().trivially_unsolvable);
  EXPECT_EQ(&unsolvable.effective_base(), &unsolvable.problem_at(0));
}

TEST(LintEnginePreflight, PrunedBaseShrinksTheFirstOperatorApplication) {
  const auto junked = with_junk_label(problems::maximal_matching(2), "J");

  SpeedupEngine pruned_engine(junked);
  SpeedupEngine::Options with_lint;
  with_lint.max_steps = 1;
  // Reduction's trim would erase the J-contaminated power-set labels again
  // after the fact; run the faithful operators to expose what the pre-flight
  // saves the enumeration from paying.
  with_lint.reduce = false;
  const auto pruned_run = pruned_engine.run(with_lint);
  EXPECT_EQ(pruned_run.preflight_dead_labels, 1u);
  EXPECT_EQ(pruned_engine.effective_base().output_alphabet().size(), 3u);
  // problem_at(0) is the problem as given, junk label included.
  EXPECT_EQ(pruned_engine.problem_at(0).output_alphabet().size(), 4u);

  // Pruned base: 3 live labels, so the faithful R produces 2^3 - 1 = 7 and
  // the step fits comfortably in the default limits.
  ASSERT_FALSE(pruned_run.steps.empty());
  EXPECT_FALSE(pruned_run.budget_exhausted);
  EXPECT_EQ(pruned_run.steps[0].labels_psi, 7u);

  // Without the pre-flight the dead label rides into R (2^4 - 1 = 15
  // labels), and Rbar's 2^15 - 1 then busts the enumeration limit: the
  // exact blow-up the pre-flight exists to cut off.
  const ReStep raw_r = apply_r(junked);
  EXPECT_EQ(raw_r.problem.output_alphabet().size(), 15u);
  try {
    apply_rbar(raw_r.problem);
    FAIL() << "expected ReBlowupError";
  } catch (const ReBlowupError& e) {
    EXPECT_NE(std::string(e.what()).find("2^15-1"), std::string::npos)
        << e.what();
  }
}

TEST(LintEnginePreflight, SynthesizedAlgorithmAnswersTheOriginalProblem) {
  // The cascade problem is 0-round trivial after pruning (uniform 'b'), but
  // label indices shift: pruned 0 must translate back to original 1.
  const auto problem = lint::build_spec(cascade_spec());
  SpeedupEngine engine(problem);
  SpeedupEngine::Options options;
  options.max_steps = 2;
  const auto outcome = engine.run(options);
  EXPECT_GT(outcome.preflight_dead_labels, 0u);
  ASSERT_EQ(outcome.zero_round_step, 0);

  const auto algorithm = engine.synthesize();
  const Graph g = make_path(5);
  const auto input = uniform_labeling(g, 0);
  const auto produced =
      run_ball_algorithm(*algorithm, g, input, sequential_ids(g));
  const auto check = check_solution(problem, g, input, produced);
  EXPECT_TRUE(check.ok()) << check.to_string();
  for (const auto label : produced) EXPECT_EQ(label, 1u);
}

// ---------------------------------------------------------------------------
// Classifier pre-flight.

TEST(LintClassifierPreflight, DeadLabelsDoNotChangeTheCycleClass) {
  const auto base = problems::two_coloring(2);
  const auto junked = with_junk_label(base, "J");

  const auto clean = classify_on_cycles(base);
  const auto pruned = classify_on_cycles(junked);
  EXPECT_EQ(clean.pruned_labels, 0u);
  EXPECT_EQ(pruned.pruned_labels, 1u);
  EXPECT_EQ(pruned.complexity, clean.complexity);
  EXPECT_EQ(pruned.complexity, CycleComplexity::kGlobal);
  EXPECT_EQ(pruned.scc_gcds, clean.scc_gcds);
}

TEST(LintClassifierPreflight, L020ShortCircuitsBothClassifiers) {
  const auto problem = lint::build_spec(unsolvable_spec());
  const auto cycles = classify_on_cycles(problem);
  EXPECT_EQ(cycles.complexity, CycleComplexity::kUnsolvable);
  EXPECT_EQ(cycles.pruned_labels, 2u);
  const auto paths = classify_on_paths(problem);
  EXPECT_EQ(paths.complexity, CycleComplexity::kUnsolvable);
  EXPECT_FALSE(paths.solvable_for_all_lengths);
  EXPECT_EQ(paths.pruned_labels, 2u);
}

TEST(LintClassifierPreflight, PathClassUnchangedUnderJunk) {
  const auto base = problems::maximal_matching(2);
  const auto junked = with_junk_label(base, "J");
  const auto clean = classify_on_paths(base);
  const auto pruned = classify_on_paths(junked);
  EXPECT_EQ(pruned.complexity, clean.complexity);
  EXPECT_EQ(pruned.pruned_labels, 1u);
}

// ---------------------------------------------------------------------------
// The table pre-flight: the engine and both classifiers run reduce's trim
// pass (`preflight_trim`) where they used to lint a spec; it must find what
// `lint::prune_problem` finds.

/// Empty when `preflight_trim` and `lint::prune_problem` agree on `p` - dead
/// labels, the L020 verdict, `new_to_old` and, without L020, the pruned
/// problem with its name and label names; otherwise what differs.
std::string preflight_difference(const NodeEdgeCheckableLcl& p) {
  LintOptions options;
  options.zero_round = false;
  const auto pruned = lint::prune_problem(p, options);
  const TrimmedProblem trimmed = preflight_trim(p);
  if (trimmed.dead_labels != pruned.report.dead_labels) {
    return std::to_string(trimmed.dead_labels) + " vs " +
           std::to_string(pruned.report.dead_labels) + " dead labels";
  }
  if (trimmed.trivially_unsolvable != pruned.report.trivially_unsolvable) {
    return "L020 verdicts differ";
  }
  if (trimmed.new_to_old != pruned.report.new_to_old) {
    return "new_to_old differs";
  }
  if (trimmed.trivially_unsolvable) return {};
  const auto& a = trimmed.problem;
  const auto& b = pruned.problem;
  if (a.name() != b.name()) return "name '" + a.name() + "' vs '" + b.name();
  if (a.output_alphabet().size() != b.output_alphabet().size()) {
    return "output alphabet sizes differ";
  }
  for (Label l = 0; l < a.output_alphabet().size(); ++l) {
    if (a.output_alphabet().name(l) != b.output_alphabet().name(l)) {
      return "label " + std::to_string(l) + " is named differently";
    }
  }
  if (!same_constraints(a, b)) return "constraints differ";
  return {};
}

TEST(TablePreflight, MatchesLintPruneOnEveryExhaustiveMember) {
  std::size_t members = 0;
  std::size_t with_dead_labels = 0;
  for (const auto& [degree, labels] :
       {std::pair{2, 2}, std::pair{2, 3}, std::pair{3, 2}, std::pair{4, 2}}) {
    batch::ExhaustiveFamilyOptions options;
    options.max_degree = degree;
    options.labels = static_cast<std::size_t>(labels);
    for (const auto& member : batch::exhaustive_family(options).members) {
      const std::string difference = preflight_difference(member.problem);
      ASSERT_TRUE(difference.empty()) << member.name << ": " << difference;
      ++members;
      if (preflight_trim(member.problem).dead_labels > 0) ++with_dead_labels;
    }
  }
  EXPECT_EQ(members, 4340u);
  // The families exercise the pruning, not just the no-op path.
  EXPECT_EQ(with_dead_labels, 1240u);
}

TEST(TablePreflight, MatchesLintOnHandBuiltProblems) {
  // L020 three ways: every label dies at once, an edge-less cascade, and no
  // input permitting anything.
  ProblemSpec edge_cascade;
  edge_cascade.name = "edge-cascade";
  edge_cascade.max_degree = 2;
  edge_cascade.inputs = {"-"};
  edge_cascade.outputs = {"a", "b"};
  edge_cascade.node_configs = {{0}, {1}, {0, 0}};
  edge_cascade.edge_configs = {{0, 1}};
  edge_cascade.g = {{0}};
  ProblemSpec no_outputs = cascade_spec();
  no_outputs.name = "no-outputs";
  no_outputs.g = {{}};
  // Not L020: the second input permits only a dead label and starves.
  ProblemSpec starved = cascade_spec();
  starved.name = "starved";
  starved.inputs = {"x", "y"};
  starved.g = {{0, 1}, {2}};

  const std::vector<std::pair<NodeEdgeCheckableLcl, bool>> cases = {
      {lint::build_spec(unsolvable_spec()), true},
      {lint::build_spec(edge_cascade), true},
      {lint::build_spec(no_outputs), true},
      {lint::build_spec(cascade_spec()), false},
      {lint::build_spec(starved), false},
      {with_junk_label(problems::maximal_matching(3), "J"), false},
  };
  for (const auto& [problem, l020] : cases) {
    SCOPED_TRACE(problem.name());
    EXPECT_EQ(preflight_difference(problem), "");
    const TrimmedProblem trimmed = preflight_trim(problem);
    EXPECT_EQ(trimmed.trivially_unsolvable, l020);
    EXPECT_GT(trimmed.dead_labels, 0u);
  }
}

TEST(TablePreflight, CleanProblemsComeBackAsTheInput) {
  const auto original = problems::mis(3);
  const TrimmedProblem trimmed = preflight_trim(original);
  EXPECT_EQ(trimmed.dead_labels, 0u);
  EXPECT_FALSE(trimmed.trivially_unsolvable);
  EXPECT_EQ(trimmed.new_to_old, (std::vector<Label>{0, 1, 2}));
  EXPECT_EQ(&trimmed.problem.edge_configs(), &original.edge_configs());
  EXPECT_EQ(trimmed.problem.name(), original.name());
}

/// Dead labels `lint::prune_problem` finds in `p`.
std::size_t dead_labels_by_lint(const NodeEdgeCheckableLcl& p) {
  LintOptions options;
  options.zero_round = false;
  return lint::prune_problem(p, options).report.dead_labels;
}

TEST(TablePreflight, FusedIteratesHaveNoDeadLabels) {
  // reduce()'s trim runs the pre-flight's fixpoint on both problems a fused
  // step builds, so the engine needs no pre-flight past the base problem.
  // The bases: the kernel-parity battery and two exhaustive families.
  std::vector<NodeEdgeCheckableLcl> bases = {
      problems::trivial(3),
      problems::coloring(3, 2),
      problems::coloring(3, 3),
      problems::two_coloring(2),
      problems::mis(3),
      problems::maximal_matching(3),
      problems::sinkless_orientation(3),
      problems::any_orientation(3),
      problems::edge_coloring(3, 2),
      problems::forbidden_color(4, 2),
      problems::perfect_matching(3),
      problems::weak_coloring(2, 3),
      problems::threshold_band(6, 1),
      problems::threshold_band(64, 8)};
  for (const auto& [degree, labels] : {std::pair{2, 2}, std::pair{3, 2}}) {
    batch::ExhaustiveFamilyOptions options;
    options.max_degree = degree;
    options.labels = static_cast<std::size_t>(labels);
    for (auto& member : batch::exhaustive_family(options).members) {
      bases.push_back(std::move(member.problem));
    }
  }
  ASSERT_EQ(bases.size(), 14u + 49u + 105u);
  std::size_t steps = 0;
  for (const auto& base : bases) {
    NodeEdgeCheckableLcl pi = base;
    for (int step = 0; step < 3; ++step) {
      SequenceLevel level;
      try {
        level = speedup_step(pi, ReLimits{});
      } catch (const std::exception&) {
        break;  // a blow-up or a derived problem that does not build
      }
      EXPECT_EQ(dead_labels_by_lint(level.psi.problem), 0u)
          << base.name() << " step " << step << ": psi";
      EXPECT_EQ(dead_labels_by_lint(level.next.problem), 0u)
          << base.name() << " step " << step << ": f(pi)";
      ++steps;
      pi = std::move(level.next.problem);
    }
  }
  EXPECT_GT(steps, bases.size());
}

TEST(StepParityOracle, IsLastInTheBankAndPassesASeedSweep) {
  ASSERT_FALSE(fuzz::oracle_bank().empty());
  EXPECT_EQ(std::string(fuzz::oracle_bank().back().id), "step-parity");
  fuzz::OracleOptions oracle;
  for (const bool wide : {false, true}) {
    fuzz::GeneratorOptions generator;
    generator.wide_alphabets = wide;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const auto c = fuzz::random_case(generator, seed);
      const auto result = fuzz::run_oracle("step-parity", c, oracle);
      EXPECT_TRUE(result.applicable);
      EXPECT_FALSE(result.failed)
          << (wide ? "wide " : "") << "seed " << seed << ": "
          << result.message;
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzz-generator policies and the lint-soundness oracle.

TEST(LintFuzzGenerator, AnnotatePutsCodesInTheNote) {
  fuzz::GeneratorOptions options;
  options.lint_policy = fuzz::LintPolicy::kAnnotate;
  bool saw_annotation = false;
  for (std::uint64_t seed = 1; seed <= 200 && !saw_annotation; ++seed) {
    const auto c = fuzz::random_case(options, seed);
    if (!c.note.empty()) {
      EXPECT_EQ(c.note.rfind("lint: L0", 0), 0u) << c.note;
      saw_annotation = true;
    }
  }
  EXPECT_TRUE(saw_annotation)
      << "no degenerate draw in 200 seeds - generator or lint changed?";
}

TEST(LintFuzzGenerator, RejectBiasesTheStreamTowardCleanProblems) {
  fuzz::GeneratorOptions annotate;
  annotate.lint_policy = fuzz::LintPolicy::kAnnotate;
  fuzz::GeneratorOptions reject;
  reject.lint_policy = fuzz::LintPolicy::kReject;

  int degenerate_annotate = 0, degenerate_reject = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    if (!fuzz::random_case(annotate, seed).note.empty()) {
      ++degenerate_annotate;
    }
    SplitRng rng(seed);
    const auto problem = fuzz::random_problem(reject, rng);
    const auto report = lint::lint_problem(problem);
    if (report.severity() >= lint::Severity::kWarning) ++degenerate_reject;
  }
  ASSERT_GT(degenerate_annotate, 0);
  // Redraws may exhaust their budget, but most degenerate draws vanish.
  EXPECT_LT(degenerate_reject, degenerate_annotate);
}

TEST(LintSoundnessOracle, IsInTheBankAndPassesASeedSweep) {
  bool found = false;
  for (const auto& entry : fuzz::oracle_bank()) {
    found = found || std::string(entry.id) == "lint-soundness";
  }
  ASSERT_TRUE(found);

  fuzz::GeneratorOptions generator;  // annotate: degenerates stay in stream
  fuzz::OracleOptions oracle;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto c = fuzz::random_case(generator, seed);
    const auto result = fuzz::run_oracle("lint-soundness", c, oracle);
    if (result.applicable) ++checked;
    EXPECT_FALSE(result.failed) << "seed " << seed << ": " << result.message;
  }
  EXPECT_GT(checked, 30);
}

TEST(LintSoundnessOracle, ConfirmsAHandBuiltL020Verdict) {
  fuzz::FuzzCase c;
  c.problem = lint::build_spec(unsolvable_spec());
  c.graph = make_path(4);
  c.input = uniform_labeling(c.graph, 0);
  c.family = "path";
  const auto result =
      fuzz::run_oracle("lint-soundness", c, fuzz::OracleOptions{});
  EXPECT_TRUE(result.applicable);
  EXPECT_FALSE(result.failed) << result.message;
}

// ---------------------------------------------------------------------------
// Spec I/O.

TEST(LintSpecIo, RoundTripsThroughJsonAndDetectsWrappers) {
  const auto spec =
      lint::spec_from_problem(problems::maximal_matching(3));
  bool wrapped = true;
  const auto back = lint::spec_from_json(lint::spec_to_json(spec), &wrapped);
  EXPECT_FALSE(wrapped);
  EXPECT_EQ(back, spec);

  const std::string as_case =
      "{\"oracle\":\"synthesis\",\"problem\":" + lint::spec_to_json(spec) +
      "}";
  const auto from_case = lint::spec_from_json(as_case, &wrapped);
  EXPECT_TRUE(wrapped);
  EXPECT_EQ(from_case, spec);

  // A built problem round-trips through build_spec as the same constraints.
  const auto rebuilt = lint::build_spec(back);
  EXPECT_TRUE(same_constraints(rebuilt, problems::maximal_matching(3)));
}

TEST(LintBuildSpec, RefusesWhatL001Refuses) {
  // Two output labels, one input. `build_spec` narrows labels to `Label`
  // (32 bits), so an unchecked 2^32 would wrap to label 0, and a missing
  // `g` row would read as "permits nothing".
  ProblemSpec good;
  good.name = "two";
  good.max_degree = 2;
  good.inputs = {"-"};
  good.outputs = {"a", "b"};
  good.node_configs = {{0}, {1}, {0, 1}};
  good.edge_configs = {{0, 1}};
  good.g = {{0, 1}};
  ASSERT_TRUE(lint::lint_spec(good).structurally_valid);
  EXPECT_NO_THROW(lint::build_spec(good));

  std::vector<std::pair<std::string, ProblemSpec>> bad;
  for (const std::int64_t label : {std::int64_t{1} << 32, std::int64_t{-1},
                                   std::int64_t{2}}) {
    const std::string tag = " label " + std::to_string(label);
    ProblemSpec spec = good;
    spec.node_configs[1] = {label};
    bad.emplace_back("node" + tag, spec);
    spec = good;
    spec.edge_configs[0] = {0, label};
    bad.emplace_back("edge" + tag, spec);
    spec = good;
    spec.g[0] = {0, label};
    bad.emplace_back("g" + tag, spec);
  }
  ProblemSpec spec = good;
  spec.g.clear();
  bad.emplace_back("missing g row", spec);
  spec = good;
  spec.g.push_back({0});
  bad.emplace_back("extra g row", spec);

  for (const auto& [what, broken] : bad) {
    SCOPED_TRACE(what);
    EXPECT_FALSE(lint::lint_spec(broken).structurally_valid);
    EXPECT_THROW(lint::build_spec(broken), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// The lcl_lint CLI: exit codes 0 / 1 / 2 / 3 and --fix.

class LintCliTest : public ::testing::Test {
 protected:
  static std::string write_spec(const std::string& name,
                                const ProblemSpec& spec) {
    const std::string path = ::testing::TempDir() + "lcl_lint_" + name;
    lint::save_spec(path, spec);
    return path;
  }

  static int run_cli(const std::string& args) {
    const std::string command =
        std::string(LCL_LINT_CLI_PATH) + " " + args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WEXITSTATUS(status);
  }
};

TEST_F(LintCliTest, ExitCodeReflectsTheWorstDiagnostic) {
  const auto clean = write_spec(
      "clean.json", lint::spec_from_problem(problems::maximal_matching(2)));
  const auto warn = write_spec("warn.json", cascade_spec());
  ProblemSpec invalid = cascade_spec();
  invalid.edge_configs.push_back({0});  // arity error
  const auto error = write_spec("error.json", invalid);

  EXPECT_EQ(run_cli(clean), 0);
  EXPECT_EQ(run_cli(warn), 1);
  EXPECT_EQ(run_cli(error), 2);
  EXPECT_EQ(run_cli("--json " + clean), 0);
  // Several files: the worst verdict wins.
  EXPECT_EQ(run_cli(clean + " " + warn), 1);
  EXPECT_EQ(run_cli(clean + " " + warn + " " + error), 2);
  // Usage / IO errors are 3, distinct from lint verdicts.
  EXPECT_EQ(run_cli(""), 3);
  EXPECT_EQ(run_cli("--no-such-flag " + clean), 3);
  EXPECT_EQ(run_cli(::testing::TempDir() + "lcl_lint_does_not_exist.json"),
            3);
}

TEST_F(LintCliTest, FixRewritesInPlaceUntilClean) {
  const auto path = write_spec("fixme.json", cascade_spec());
  EXPECT_EQ(run_cli("--fix " + path), 1);  // reports, then repairs
  EXPECT_EQ(run_cli(path), 0);             // now at worst info

  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  bool wrapped = true;
  const auto fixed = lint::spec_from_json(text, &wrapped);
  EXPECT_FALSE(wrapped);
  EXPECT_EQ(fixed.outputs, std::vector<std::string>{"b"});
}

TEST_F(LintCliTest, FixRefusesStructurallyInvalidSpecs) {
  ProblemSpec invalid = cascade_spec();
  invalid.node_configs.push_back({9});  // undeclared label
  const auto path = write_spec("invalid.json", invalid);
  // L001 is in the non-fixable set: the batch is refused with the usage/
  // refusal exit code, distinct from the lint verdict.
  EXPECT_EQ(run_cli("--fix " + path), 3);
  // The file is untouched: it still lints as an error.
  EXPECT_EQ(run_cli(path), 2);
}

}  // namespace
}  // namespace lcl
