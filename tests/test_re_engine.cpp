#include "re/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "batch/survey.hpp"
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
  EXPECT_EQ(&engine.problem_at(0), &engine.problem_at(0));
  if (!outcome.steps.empty()) {
    EXPECT_NE(engine.problem_at(1).name().find("Rbar"), std::string::npos);
  }
  EXPECT_THROW(engine.problem_at(outcome.steps.size() + 1),
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
  }
}

TEST(EngineMemo, RunServedFromTheMemoMatchesTheMemoLessRun) {
  // Output b is demanded by the edge constraint but allowed around no
  // node, and a's only edge partner is b: the pre-flight's L020 verdict.
  NodeEdgeCheckableLcl::Builder dead_end("dead-end", Alphabet({"-"}),
                                         Alphabet({"a", "b"}), 2);
  dead_end.allow_node({0, 0}).allow_node({0});
  dead_end.allow_edge(0, 1);
  dead_end.unrestricted_inputs();
  struct Case {
    const char* what;
    NodeEdgeCheckableLcl problem;
  };
  const std::vector<Case> cases = {
      {"0-round at step 1", problems::any_orientation(2)},
      {"fixed point", problems::sinkless_orientation(3)},
      {"blow-up after a step", problems::coloring(3, 2)},
      {"unsolvable", dead_end.build()},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    SpeedupEngine::Options options;
    options.max_steps = 4;

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
    if (want.detected_unsolvable) {
      // The L020 short-circuit ends both runs before the memo is asked.
      EXPECT_TRUE(want.steps.empty());
      EXPECT_EQ(memo.served, 0);
      EXPECT_EQ(memo.computed, 0);
    } else {
      EXPECT_GT(memo.served, served_before);
    }
    EXPECT_EQ(memo.computed, computed_before);
    for (std::size_t i = 0; i <= want.steps.size(); ++i) {
      EXPECT_EQ(served.problem_at(i).name(), plain.problem_at(i).name());
      EXPECT_TRUE(same_constraints(served.problem_at(i), plain.problem_at(i)));
    }
    // Served steps keep no lifting data.
    EXPECT_THROW(served.synthesize(), std::logic_error);
  }
}

// ---------------------------------------------------------------------------
// Held levels: an engine keeps the levels it computed across runs.

/// Runs `engine` under `options` and expects what a fresh engine over
/// `problem` gives: the outcome (but for timings) and every iterate the run
/// reached, names included.
void expect_fresh_run(SpeedupEngine& engine,
                      const NodeEdgeCheckableLcl& problem,
                      const SpeedupEngine::Options& options) {
  SpeedupEngine fresh(problem);
  const auto want = fresh.run(options);
  const auto got = engine.run(options);
  expect_same_outcome(got, want);
  for (std::size_t i = 0; i <= want.steps.size(); ++i) {
    EXPECT_EQ(engine.problem_at(i).name(), fresh.problem_at(i).name());
    EXPECT_TRUE(same_constraints(engine.problem_at(i), fresh.problem_at(i)));
  }
}

TEST(EngineHeldLevels, ReRunsMatchFreshEngines) {
  // The survey's three runs of one engine: the cycle classifier's, the path
  // classifier's and the forest certificate's, in that order and reversed.
  std::vector<SpeedupEngine::Options> runs(3);
  runs[0].max_steps = 2;
  runs[0].degrees = {2};
  runs[1].max_steps = 2;
  runs[1].degrees = {1, 2};
  runs[2].max_steps = 3;
  std::size_t members = 0;
  for (const int delta : {2, 3}) {
    batch::ExhaustiveFamilyOptions family;
    family.max_degree = delta;
    for (const auto& member : batch::exhaustive_family(family).members) {
      ++members;
      for (const bool reversed : {false, true}) {
        SCOPED_TRACE(member.name + (reversed ? ", reversed" : ""));
        SpeedupEngine engine(member.problem);
        for (std::size_t k = 0; k < runs.size(); ++k) {
          expect_fresh_run(engine, member.problem,
                           runs[reversed ? runs.size() - 1 - k : k]);
        }
      }
    }
  }
  EXPECT_EQ(members, 49u + 105u);
}

TEST(EngineHeldLevels, ARunUnderOtherLimitsStartsOver) {
  SpeedupEngine::Options generous;
  generous.max_steps = 3;
  SpeedupEngine::Options tight = generous;
  tight.limits.max_labels = 7;
  SpeedupEngine::Options faithful = generous;
  faithful.reduce = false;
  for (const auto& problem :
       {problems::any_orientation(2), problems::coloring(3, 2),
        problems::sinkless_orientation(3), problems::maximal_matching(3)}) {
    SCOPED_TRACE(problem.name());
    SpeedupEngine engine(problem);
    for (const auto* options : {&generous, &tight, &generous, &faithful,
                                &tight}) {
      expect_fresh_run(engine, problem, *options);
    }
  }
}

/// A memo that holds nothing: it computes every step and verdict, and counts
/// the steps it is asked for.
class CountingMemo final : public SpeedupEngine::Memo {
 public:
  Step step(const NodeEdgeCheckableLcl& /*current*/,
            const SpeedupEngine::Options& /*options*/,
            const std::function<Step()>& compute) override {
    ++steps;
    return compute();
  }
  bool zero_round(const NodeEdgeCheckableLcl& /*problem*/,
                  const std::vector<int>& /*degrees*/,
                  const std::function<bool()>& compute) override {
    return compute();
  }

  int steps = 0;
};

TEST(EngineHeldLevels, AFailedStepIsTakenOnce) {
  // The survey's three runs of one engine: cycles, paths, forests. No
  // iterate of 3-coloring on paths is 0-round solvable, and a step past
  // the first exceeds the default limits, so each run ends at that step.
  std::vector<SpeedupEngine::Options> runs(3);
  runs[0].degrees = {2};
  runs[1].degrees = {1, 2};
  const auto problem = problems::coloring(3, 2);
  CountingMemo memo;
  SpeedupEngine engine(problem);
  std::size_t levels = 0;
  for (const auto& options : runs) {
    SpeedupEngine fresh(problem);
    const auto want = fresh.run(options);
    ASSERT_TRUE(want.budget_exhausted);
    ASSERT_FALSE(want.steps.empty());
    levels = want.steps.size();
    expect_same_outcome(engine.run(options, &memo), want);
  }
  // Each level once, and the step that failed once.
  EXPECT_EQ(memo.steps, static_cast<int>(levels) + 1);
}

/// The exhaustive Delta=3 l=2 member `name`.
NodeEdgeCheckableLcl d3l2_member(const std::string& name) {
  batch::ExhaustiveFamilyOptions family;
  family.max_degree = 3;
  for (auto& member : batch::exhaustive_family(family).members) {
    if (member.name == name) return std::move(member.problem);
  }
  throw std::invalid_argument("no Delta=3 l=2 member " + name);
}

TEST(EngineHeldLevels, SynthesizesFromAWitnessBelowTheHeldLevels) {
  // Every edge joins an a and a b, and degree-3 nodes must read (a, a, b):
  // on forests no step within three is 0-round solvable, while on degree 2,
  // where any orientation is allowed, f(pi) is.
  const auto problem = d3l2_member("d3l2-n2-e2");
  SpeedupEngine engine(problem);
  SpeedupEngine::Options forest;
  forest.max_steps = 3;
  const auto deep = engine.run(forest);
  ASSERT_EQ(deep.zero_round_step, -1);
  ASSERT_EQ(deep.steps.size(), 3u);

  SpeedupEngine::Options cycles;
  cycles.max_steps = 3;
  cycles.degrees = {2};
  ASSERT_EQ(engine.run(cycles).zero_round_step, 1);
  const auto algorithm = engine.synthesize();
  EXPECT_EQ(algorithm->radius(1u << 20), 1);

  SplitRng rng(3);
  for (std::size_t n : {3u, 8u, 21u}) {
    Graph g = make_cycle(n);
    const auto input = uniform_labeling(g, 0);
    const auto ids = random_distinct_ids(g, 3, rng);
    const auto output = run_ball_algorithm(*algorithm, g, input, ids);
    const auto check = check_solution(problem, g, input, output);
    EXPECT_TRUE(check.ok()) << "n=" << n << "\n" << check.to_string();
  }
}

TEST(EngineHeldLevels, AHeldLevelAMemoServedBlocksSynthesis) {
  // any_orientation(2) becomes 0-round solvable at step 1.
  const auto problem = problems::any_orientation(2);
  SpeedupEngine::Options options;
  options.max_steps = 2;
  FakeMemo memo;
  SpeedupEngine filler(problem);
  ASSERT_EQ(filler.run(options, &memo).zero_round_step, 1);

  SpeedupEngine engine(problem);
  ASSERT_EQ(engine.run(options, &memo).zero_round_step, 1);
  ASSERT_GT(memo.served, 0);
  // No memo now, but level 0 is the one the memo served.
  ASSERT_EQ(engine.run(options).zero_round_step, 1);
  EXPECT_THROW(engine.synthesize(), std::logic_error);

  // An engine that never saw the memo synthesizes.
  SpeedupEngine plain(problem);
  ASSERT_EQ(plain.run(options).zero_round_step, 1);
  EXPECT_NO_THROW(plain.synthesize());
}

}  // namespace
}  // namespace lcl
