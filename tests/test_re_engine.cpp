#include "re/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/brute_force.hpp"
#include "core/checker.hpp"
#include "core/problems.hpp"
#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "re/lift.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "re/zero_round.hpp"

namespace lcl {
namespace {

TEST(ZeroRound, TrivialProblemIsZeroRoundSolvable) {
  const auto witness = find_zero_round_algorithm(problems::trivial(3));
  ASSERT_TRUE(witness.has_value());
  // Applying the witness on any input tuple yields label 0 everywhere.
  EXPECT_EQ(witness->apply({0, 0, 0}), (std::vector<Label>{0, 0, 0}));
}

TEST(ZeroRound, ColoringIsNot) {
  EXPECT_FALSE(zero_round_solvable(problems::coloring(3, 2)));
  EXPECT_FALSE(zero_round_solvable(problems::coloring(4, 3)));
  EXPECT_FALSE(zero_round_solvable(problems::two_coloring(2)));
}

TEST(ZeroRound, OrientationNeedsSymmetryBreaking) {
  // any_orientation is O(1) (orient toward larger ID) but NOT 0-round: a
  // 0-round map would put some fixed label on two adjacent equal-degree
  // nodes, and neither {O,O} nor {I,I} is a valid edge.
  EXPECT_FALSE(zero_round_solvable(problems::any_orientation(2)));
  EXPECT_FALSE(zero_round_solvable(problems::sinkless_orientation(3)));
  EXPECT_FALSE(zero_round_solvable(problems::mis(3)));
  EXPECT_FALSE(zero_round_solvable(problems::maximal_matching(3)));
}

TEST(ZeroRound, WitnessRespectsInputs) {
  // Inputful problem where a 0-round solution exists: two output labels
  // u, v; every node/edge combination allowed; g forces u on input "a" and
  // v on input "b".
  Alphabet in({"a", "b"});
  Alphabet out({"u", "v"});
  NodeEdgeCheckableLcl::Builder b("forced-by-input", in, out, 2);
  b.allow_node({0}).allow_node({1}).allow_node({0, 0}).allow_node({0, 1});
  b.allow_node({1, 1});
  b.allow_edge(0, 0).allow_edge(0, 1).allow_edge(1, 1);
  b.allow_output_for_input(0, 0);
  b.allow_output_for_input(1, 1);
  const auto problem = b.build();

  const auto witness = find_zero_round_algorithm(problem);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->apply({0, 1}), (std::vector<Label>{0, 1}));
  EXPECT_EQ(witness->apply({1, 0}), (std::vector<Label>{1, 0}));

  // Same problem, but the mixed edge is forbidden: now inputs "a" and "b"
  // on the two sides of an edge force an invalid configuration, so no
  // 0-round (in fact no) algorithm exists.
  NodeEdgeCheckableLcl::Builder b2("forced-conflict", in, out, 2);
  b2.allow_node({0}).allow_node({1}).allow_node({0, 0}).allow_node({0, 1});
  b2.allow_node({1, 1});
  b2.allow_edge(0, 0).allow_edge(1, 1);
  b2.allow_output_for_input(0, 0);
  b2.allow_output_for_input(1, 1);
  EXPECT_FALSE(zero_round_solvable(b2.build()));
}

TEST(ZeroRound, ApplyUndoesSorting) {
  Alphabet in({"a", "b"});
  Alphabet out({"u", "v"});
  ZeroRoundAlgorithm algo;
  algo.outputs[{0, 1}] = {0, 1};  // sorted inputs a,b -> u,v
  EXPECT_EQ(algo.apply({1, 0}), (std::vector<Label>{1, 0}));
  EXPECT_EQ(algo.apply({0, 1}), (std::vector<Label>{0, 1}));
  EXPECT_THROW(algo.apply({0, 0}), std::out_of_range);
}

TEST(Lift, Lemma39OnPaths) {
  // Compute f(two_coloring) = Rbar(R(.)), solve it by brute force on an
  // even path, lift, and check the lifted labeling properly 2-colors.
  const auto pi = problems::two_coloring(2);
  SequenceLevel level;
  level.psi = apply_r(pi);
  level.next = apply_rbar(level.psi.problem);

  Graph g = make_path(6);
  const auto input = uniform_labeling(g, 0);
  const auto derived_solution =
      brute_force_solve(level.next.problem, g, input);
  ASSERT_TRUE(derived_solution.has_value());
  const auto check_derived =
      check_solution(level.next.problem, g, input, *derived_solution);
  ASSERT_TRUE(check_derived.ok()) << check_derived.to_string();

  const auto lifted = lift_solution(pi, level, g, input, *derived_solution);
  const auto check = check_solution(pi, g, input, lifted);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST(Lift, Lemma39OnTreesForColoring) {
  const auto pi = problems::coloring(3, 3);
  SequenceLevel level;
  level.psi = apply_r(pi);
  level.next = apply_rbar(level.psi.problem);

  SplitRng rng(5);
  Graph g = make_random_tree(14, 3, rng);
  const auto input = uniform_labeling(g, 0);
  const auto derived_solution =
      brute_force_solve(level.next.problem, g, input);
  ASSERT_TRUE(derived_solution.has_value());
  const auto lifted = lift_solution(pi, level, g, input, *derived_solution);
  EXPECT_TRUE(is_correct_solution(pi, g, input, lifted));
}

TEST(Engine, TrivialCollapsesAtStepZero) {
  SpeedupEngine engine(problems::trivial(3));
  const auto outcome = engine.run({});
  EXPECT_EQ(outcome.zero_round_step, 0);
  EXPECT_FALSE(outcome.budget_exhausted);
}

TEST(Engine, OrientationCollapsesQuicklyAndSynthesizes) {
  // any_orientation is 1-round solvable, so by the Theorem 3.10 machinery
  // f^1 of it must be 0-round solvable; the engine should find a small k
  // and synthesize a correct k-round algorithm.
  SpeedupEngine engine(problems::any_orientation(2));
  SpeedupEngine::Options options;
  options.max_steps = 3;
  const auto outcome = engine.run(options);
  ASSERT_GE(outcome.zero_round_step, 1);
  ASSERT_LE(outcome.zero_round_step, 3);

  const auto algorithm = engine.synthesize();
  EXPECT_EQ(algorithm->radius(1u << 20), outcome.zero_round_step);

  SplitRng rng(11);
  const auto problem = problems::any_orientation(2);
  for (std::size_t n : {2u, 7u, 40u}) {
    Graph g = make_path(n);
    const auto input = uniform_labeling(g, 0);
    const auto ids = random_distinct_ids(g, 3, rng);
    const auto output = run_ball_algorithm(*algorithm, g, input, ids);
    const auto check = check_solution(problem, g, input, output);
    EXPECT_TRUE(check.ok()) << "n=" << n << "\n" << check.to_string();
  }
}

TEST(Engine, LogStarProblemDoesNotCollapse) {
  // 3-coloring has complexity Theta(log* n): no f^k may become 0-round
  // solvable. Within a small step budget the engine must not claim success.
  SpeedupEngine engine(problems::coloring(3, 2));
  SpeedupEngine::Options options;
  options.max_steps = 3;
  options.limits.max_labels = 1u << 14;
  options.limits.max_configs = 2'000'000;
  const auto outcome = engine.run(options);
  EXPECT_EQ(outcome.zero_round_step, -1);
}

TEST(Engine, GlobalProblemDoesNotCollapse) {
  SpeedupEngine engine(problems::two_coloring(2));
  SpeedupEngine::Options options;
  options.max_steps = 3;
  const auto outcome = engine.run(options);
  EXPECT_EQ(outcome.zero_round_step, -1);
}

TEST(Engine, DetectsUnsolvableProblems) {
  // Output b is demanded by the edge constraint but allowed around no
  // node: trimming empties the alphabet and the engine reports it.
  Alphabet in({"-"});
  Alphabet out({"a", "b"});
  NodeEdgeCheckableLcl::Builder b("dead-end", in, out, 2);
  b.allow_node({0, 0}).allow_node({0});
  b.allow_edge(0, 1);
  b.unrestricted_inputs();
  SpeedupEngine engine(b.build());
  const auto outcome = engine.run({});
  EXPECT_TRUE(outcome.detected_unsolvable);
  EXPECT_EQ(outcome.zero_round_step, -1);
}

TEST(Engine, SynthesizeWithoutWitnessThrows) {
  SpeedupEngine engine(problems::coloring(3, 2));
  SpeedupEngine::Options options;
  options.max_steps = 1;
  engine.run(options);
  EXPECT_THROW(engine.synthesize(), std::logic_error);
}

TEST(Engine, ProblemAtTracksSequence) {
  SpeedupEngine engine(problems::two_coloring(2));
  SpeedupEngine::Options options;
  options.max_steps = 2;
  const auto outcome = engine.run(options);
  (void)outcome;
  EXPECT_EQ(&engine.problem_at(0), &engine.problem_at(0));
  if (engine.steps_applied() >= 1) {
    EXPECT_NE(engine.problem_at(1).name().find("Rbar"), std::string::npos);
  }
  EXPECT_THROW(engine.problem_at(engine.steps_applied() + 1),
               std::out_of_range);
}

// ---------------------------------------------------------------------------
// The step memo (SpeedupEngine::Memo).

/// An in-memory memo keyed on exact constraints (one degree set per memo).
/// Counts what it serves and what it had computed.
class FakeMemo final : public SpeedupEngine::Memo {
 public:
  Step step(const NodeEdgeCheckableLcl& current,
            const SpeedupEngine::Options& /*options*/,
            const std::function<Step()>& compute) override {
    for (const auto& [key, value] : steps_) {
      if (same_constraints(key, current)) {
        ++served;
        return value;
      }
    }
    steps_.emplace_back(current, compute());
    ++computed;
    return steps_.back().second;
  }
  bool zero_round(const NodeEdgeCheckableLcl& problem,
                  const std::vector<int>& /*degrees*/,
                  const std::function<bool()>& compute) override {
    for (const auto& [key, value] : verdicts_) {
      if (same_constraints(key, problem)) {
        ++served;
        return value;
      }
    }
    verdicts_.emplace_back(problem, compute());
    ++computed;
    return verdicts_.back().second;
  }

  int served = 0;
  int computed = 0;

 private:
  std::vector<std::pair<NodeEdgeCheckableLcl, Step>> steps_;
  std::vector<std::pair<NodeEdgeCheckableLcl, bool>> verdicts_;
};

/// Every `Outcome` field but the step timings.
void expect_same_outcome(const SpeedupEngine::Outcome& got,
                         const SpeedupEngine::Outcome& want) {
  EXPECT_EQ(got.zero_round_step, want.zero_round_step);
  EXPECT_EQ(got.budget_exhausted, want.budget_exhausted);
  EXPECT_EQ(got.blowup_message, want.blowup_message);
  EXPECT_EQ(got.detected_unsolvable, want.detected_unsolvable);
  EXPECT_EQ(got.fixed_point, want.fixed_point);
  EXPECT_EQ(got.preflight_dead_labels, want.preflight_dead_labels);
  EXPECT_EQ(got.preflight_pruned, want.preflight_pruned);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < got.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(got.steps[i].index, want.steps[i].index);
    EXPECT_EQ(got.steps[i].labels_psi, want.steps[i].labels_psi);
    EXPECT_EQ(got.steps[i].labels_next, want.steps[i].labels_next);
    EXPECT_EQ(got.steps[i].node_configs, want.steps[i].node_configs);
    EXPECT_EQ(got.steps[i].edge_configs, want.steps[i].edge_configs);
    EXPECT_EQ(got.steps[i].zero_round_solvable,
              want.steps[i].zero_round_solvable);
    EXPECT_EQ(got.steps[i].lint_dead_labels, want.steps[i].lint_dead_labels);
  }
}

TEST(EngineMemo, RunServedFromTheMemoMatchesTheMemoLessRun) {
  // Output b is demanded by the edge constraint but allowed around no
  // node; without the pre-flight it is the reduction that finds it.
  NodeEdgeCheckableLcl::Builder dead_end("dead-end", Alphabet({"-"}),
                                         Alphabet({"a", "b"}), 2);
  dead_end.allow_node({0, 0}).allow_node({0});
  dead_end.allow_edge(0, 1);
  dead_end.unrestricted_inputs();
  struct Case {
    const char* what;
    NodeEdgeCheckableLcl problem;
    bool preflight_lint;
  };
  const std::vector<Case> cases = {
      {"0-round at step 1", problems::any_orientation(2), true},
      {"fixed point", problems::sinkless_orientation(3), true},
      {"blow-up after a step", problems::coloring(3, 2), true},
      {"unsolvable", dead_end.build(), false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    SpeedupEngine::Options options;
    options.max_steps = 4;
    options.preflight_lint = c.preflight_lint;

    // A first run fills the memo under another name. The 0-round one is
    // served nothing, so it keeps its lifting data.
    FakeMemo memo;
    SpeedupEngine filler(NodeEdgeCheckableLcl(c.problem).renamed("first"));
    if (filler.run(options, &memo).zero_round_step >= 0) {
      EXPECT_EQ(memo.served, 0);
      EXPECT_NO_THROW(filler.synthesize());
    }

    // The second run is served everything the memo can hold and must
    // match a memo-less run of its own problem, names included.
    SpeedupEngine plain(NodeEdgeCheckableLcl(c.problem).renamed("second"));
    const auto want = plain.run(options);
    const int served_before = memo.served;
    const int computed_before = memo.computed;
    SpeedupEngine served(NodeEdgeCheckableLcl(c.problem).renamed("second"));
    const auto got = served.run(options, &memo);
    expect_same_outcome(got, want);
    EXPECT_GT(memo.served, served_before);
    EXPECT_EQ(memo.computed, computed_before);
    ASSERT_EQ(served.steps_applied(), plain.steps_applied());
    for (std::size_t i = 0; i <= plain.steps_applied(); ++i) {
      EXPECT_EQ(served.problem_at(i).name(), plain.problem_at(i).name());
      EXPECT_TRUE(same_constraints(served.problem_at(i), plain.problem_at(i)));
    }
    // Served steps keep no lifting data.
    EXPECT_THROW(served.synthesize(), std::logic_error);
  }
}

}  // namespace
}  // namespace lcl
