#include "re/operators.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/problems.hpp"
#include "obs/obs.hpp"
#include "obs/trace_reader.hpp"
#include "re/reduce.hpp"

namespace lcl {
namespace {

/// Finds the derived label whose meaning is exactly `labels` (over the base
/// output alphabet of size `universe`).
Label label_for(const ReStep& step, std::size_t universe,
                std::initializer_list<std::uint32_t> labels) {
  const LabelSet want(universe, labels);
  for (std::size_t l = 0; l < step.meaning.size(); ++l) {
    if (step.meaning[l] == want) return static_cast<Label>(l);
  }
  throw std::logic_error("label_for: no such derived label");
}

TEST(ApplyR, TwoColoringHandComputation) {
  // Base: 2-coloring at Delta=2. Sigma_out = {A, B}; N = const multisets;
  // E = {{A,B}}.
  const auto pi = problems::two_coloring(2);
  const auto step = apply_r(pi);
  ASSERT_EQ(step.meaning.size(), 3u);  // {A}, {B}, {A,B}

  const Label a = label_for(step, 2, {0});
  const Label b = label_for(step, 2, {1});
  const Label ab = label_for(step, 2, {0, 1});
  const auto& r = step.problem;

  // Edge constraint (FORALL): only {A} vs {B} survives.
  EXPECT_TRUE(r.edge_allows(a, b));
  EXPECT_FALSE(r.edge_allows(a, a));
  EXPECT_FALSE(r.edge_allows(b, b));
  EXPECT_FALSE(r.edge_allows(ab, a));
  EXPECT_FALSE(r.edge_allows(ab, b));
  EXPECT_FALSE(r.edge_allows(ab, ab));

  // Node constraint (EXISTS a selection in N = {AA, BB}).
  EXPECT_TRUE(r.node_allows(Configuration({a, a})));
  EXPECT_TRUE(r.node_allows(Configuration({b, b})));
  EXPECT_FALSE(r.node_allows(Configuration({a, b})));
  EXPECT_TRUE(r.node_allows(Configuration({ab, a})));
  EXPECT_TRUE(r.node_allows(Configuration({ab, b})));
  EXPECT_TRUE(r.node_allows(Configuration({ab, ab})));
  // Degree 1: N^1 = {A}, {B}.
  EXPECT_TRUE(r.node_allows(Configuration({a})));
  EXPECT_TRUE(r.node_allows(Configuration({ab})));
}

TEST(ApplyRbar, TwoColoringHandComputation) {
  const auto pi = problems::two_coloring(2);
  const auto step = apply_rbar(pi);
  const Label a = label_for(step, 2, {0});
  const Label b = label_for(step, 2, {1});
  const Label ab = label_for(step, 2, {0, 1});
  const auto& rb = step.problem;

  // Edge constraint (EXISTS): any pair containing complementary elements.
  EXPECT_TRUE(rb.edge_allows(a, b));
  EXPECT_FALSE(rb.edge_allows(a, a));
  EXPECT_TRUE(rb.edge_allows(ab, a));
  EXPECT_TRUE(rb.edge_allows(ab, b));
  EXPECT_TRUE(rb.edge_allows(ab, ab));

  // Node constraint (FORALL selections in N).
  EXPECT_TRUE(rb.node_allows(Configuration({a, a})));
  EXPECT_TRUE(rb.node_allows(Configuration({b, b})));
  EXPECT_FALSE(rb.node_allows(Configuration({a, b})));
  EXPECT_FALSE(rb.node_allows(Configuration({ab, a})));
  EXPECT_FALSE(rb.node_allows(Configuration({ab, ab})));
}

TEST(ApplyR, GRespectsInputRestrictions) {
  // forbidden_color: g(forbid_c) excludes color c; in R, a derived label is
  // allowed for an input iff its meaning avoids the forbidden color.
  const auto pi = problems::forbidden_color(2, 2);
  const auto step = apply_r(pi);
  const Label forbid0 = pi.input_alphabet().at("forbid0");
  const Label free = pi.input_alphabet().at("free");

  const Label only0 = label_for(step, 2, {0});
  const Label only1 = label_for(step, 2, {1});
  const Label both = label_for(step, 2, {0, 1});
  EXPECT_FALSE(step.problem.allowed_outputs(forbid0).contains(only0));
  EXPECT_TRUE(step.problem.allowed_outputs(forbid0).contains(only1));
  EXPECT_FALSE(step.problem.allowed_outputs(forbid0).contains(both));
  EXPECT_TRUE(step.problem.allowed_outputs(free).contains(both));
}

TEST(ApplyR, BlowupGuard) {
  const auto pi = problems::coloring(3, 2);
  ReLimits limits;
  limits.max_labels = 3;  // 2^3 - 1 = 7 > 3
  EXPECT_THROW(apply_r(pi, limits), ReBlowupError);

  ReLimits config_limits;
  config_limits.max_configs = 5;
  EXPECT_THROW(apply_r(pi, config_limits), ReBlowupError);
}

TEST(ApplyR, MeaningNamesAreReadable) {
  const auto pi = problems::two_coloring(2);
  const auto step = apply_r(pi);
  bool found = false;
  for (Label l = 0; l < step.problem.output_alphabet().size(); ++l) {
    if (step.problem.output_alphabet().name(l) == "{c0,c1}") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Reduce, TrimsUnusableLabels) {
  // A problem with a label that appears in no edge configuration.
  Alphabet in({"-"});
  Alphabet out({"x", "y", "dead"});
  NodeEdgeCheckableLcl::Builder b("with-dead-label", in, out, 2);
  b.allow_node({0, 0}).allow_node({1, 1}).allow_node({0}).allow_node({1});
  b.allow_node({2, 2});  // dead appears in a node config...
  b.allow_edge(0, 1);    // ...but has no edge partner
  b.unrestricted_inputs();
  const auto problem = b.build();

  const auto red = reduce(problem);
  EXPECT_EQ(red.problem.output_alphabet().size(), 2u);
  EXPECT_EQ(red.old_to_new[2], Reduction::kDropped);
  EXPECT_NE(red.old_to_new[0], Reduction::kDropped);
  // Mapping round-trips.
  for (Label l = 0; l < red.problem.output_alphabet().size(); ++l) {
    EXPECT_EQ(red.old_to_new[red.new_to_old[l]], l);
  }
}

TEST(Reduce, MergesEquivalentLabels) {
  // Two interchangeable labels y1, y2: same partners, same node contexts.
  Alphabet in({"-"});
  Alphabet out({"x", "y1", "y2"});
  NodeEdgeCheckableLcl::Builder b("mergeable", in, out, 2);
  b.allow_node({0, 1}).allow_node({0, 2});  // x with either y
  b.allow_node({0}).allow_node({1}).allow_node({2});
  b.allow_edge(0, 1).allow_edge(0, 2);
  b.unrestricted_inputs();
  const auto problem = b.build();

  const auto red = reduce(problem);
  EXPECT_EQ(red.problem.output_alphabet().size(), 2u);
  EXPECT_EQ(red.old_to_new[1], red.old_to_new[2]);
  EXPECT_NE(red.old_to_new[0], red.old_to_new[1]);
}

TEST(Reduce, FixedProblemsUntouched) {
  for (const auto& problem :
       {problems::coloring(3, 3), problems::sinkless_orientation(3),
        problems::mis(3)}) {
    const auto red = reduce(problem);
    EXPECT_EQ(red.problem.output_alphabet().size(),
              problem.output_alphabet().size())
        << problem.name();
    EXPECT_EQ(red.problem.total_node_configs(), problem.total_node_configs());
    EXPECT_EQ(red.problem.edge_configs().size(),
              problem.edge_configs().size());
  }
}

TEST(Reduce, ThrowsWhenNothingUsable) {
  Alphabet in({"-"});
  Alphabet out({"x", "y"});
  NodeEdgeCheckableLcl::Builder b("hopeless", in, out, 2);
  b.allow_node({0});   // only x at nodes
  b.allow_edge(1, 1);  // only y at edges
  b.unrestricted_inputs();
  const auto problem = b.build();
  EXPECT_THROW(reduce(problem), std::runtime_error);
}

TEST(Reduce, RApplicationShrinks) {
  // R of 3-coloring at Delta=2 has 7 raw labels; reduction should shrink it
  // (e.g. {c0,c1,c2} has no edge partner under the FORALL constraint).
  const auto pi = problems::coloring(3, 2);
  const auto step = apply_r(pi);
  EXPECT_EQ(step.problem.output_alphabet().size(), 7u);
  const auto red = reduce(step.problem);
  EXPECT_LT(red.problem.output_alphabet().size(), 7u);
}

TEST(Reduce, TrimmingThatEmptiesTheNodeConstraintThrows) {
  // `dead` has no edge partner; trimming it removes every node
  // configuration, although x and y are usable themselves.
  Alphabet in({"-"});
  Alphabet out({"x", "y", "dead"});
  NodeEdgeCheckableLcl::Builder b("emptied", in, out, 2);
  b.allow_node({0, 2}).allow_node({1, 2});
  b.allow_edge(0, 1);
  b.unrestricted_inputs();
  try {
    reduce(b.build());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trimming emptied"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("no node configuration"),
              std::string::npos)
        << e.what();
  }
}

#if LCL_OBS
/// Calls `run` under a trace session and returns the args of the first
/// `span` span it records.
std::map<std::string, std::int64_t> traced_span_args(
    const std::string& span, const std::function<void()>& run) {
  const std::string path =
      testing::TempDir() + "lcl_trace_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".jsonl";
  {
    obs::TraceSession session(path, obs::TraceFormat::kJsonl);
    obs::TraceSession* previous = obs::TraceSession::set_current(&session);
    run();
    obs::TraceSession::set_current(previous);
    session.close();
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  obs::ParsedTrace trace;
  std::string error;
  EXPECT_TRUE(obs::parse_trace(text.str(), &trace, &error)) << error;
  for (const auto& record : trace.records) {
    if (record.kind == obs::TraceRecord::Kind::kSpan && record.name == span) {
      return record.args;
    }
  }
  ADD_FAILURE() << "no " << span << " span in " << path;
  return {};
}

TEST(ApplyRbar, AcceptedArgCountsTheConfigurationsTheFillKept) {
  // The `accepted` arg of an operator span is what the fill appended: with
  // reduce off, every node and edge configuration of the derived problem.
  for (const auto& pi : {problems::mis(3), problems::coloring(3, 3),
                         problems::sinkless_orientation(3)}) {
    for (const bool use_r : {true, false}) {
      SCOPED_TRACE(pi.name() + (use_r ? " / R" : " / Rbar"));
      ReStep step;
      const auto args = traced_span_args(use_r ? "re/R" : "re/Rbar", [&] {
        step = use_r ? apply_r(pi) : apply_rbar(pi);
      });
      EXPECT_EQ(args.at("accepted"),
                static_cast<std::int64_t>(step.problem.total_node_configs() +
                                          step.problem.edge_configs().size()));
      EXPECT_LT(args.at("accepted"), args.at("configs"));
    }
  }
}
#endif  // LCL_OBS

TEST(Reduce, DominationChainDropsInOnePass) {
  // x < y < z strictly, through nested g-preimages; every other feature is
  // shared. u holds an input no other label has, so nothing dominates it.
  Alphabet in({"i0", "i1", "i2", "i3"});
  Alphabet out({"x", "y", "z", "u"});
  NodeEdgeCheckableLcl::Builder b("chain", in, out, 1);
  b.allow_node({0}).allow_node({1}).allow_node({2}).allow_node({3});
  for (Label a = 0; a < 3; ++a) {
    for (Label c = a; c < 3; ++c) b.allow_edge(a, c);
  }
  b.allow_edge(3, 3).allow_edge(2, 3);
  for (const Label l : {0u, 1u, 2u}) b.allow_output_for_input(0, l);
  for (const Label l : {1u, 2u}) b.allow_output_for_input(1, l);
  b.allow_output_for_input(2, 2);
  b.allow_output_for_input(3, 3);
  const auto problem = b.build();

  Reduction red;
#if LCL_OBS
  const auto args =
      traced_span_args("re/reduce", [&] { red = reduce(problem); });
  EXPECT_EQ(args.at("dominate_passes"), 1);
  EXPECT_EQ(args.at("dominated"), 2);
  EXPECT_EQ(args.at("trim_passes"), 0);
  EXPECT_EQ(args.at("merge_passes"), 0);
  EXPECT_EQ(args.at("labels_in"), 4);
  EXPECT_EQ(args.at("labels_out"), 2);
#else
  red = reduce(problem);
#endif
  // Both dropped labels follow the maximal dominator z, not y.
  EXPECT_EQ(red.old_to_new, (std::vector<Label>{0, 0, 0, 1}));
  EXPECT_EQ(red.new_to_old, (std::vector<Label>{2, 3}));
  EXPECT_EQ(red.problem.output_alphabet().name(0), "z");
  EXPECT_EQ(red.problem.output_alphabet().name(1), "u");
}

TEST(Reduce, MutualTieKeepsTheSmallerLabel) {
  // p (1) and q (3) dominate each other - equal partners, g-preimages and
  // node contexts - so they tie; merge catches ties before the dominate
  // pass, and either way the smaller label represents the class.
  Alphabet in({"-"});
  Alphabet out({"x", "p", "y", "q"});
  NodeEdgeCheckableLcl::Builder b("tie", in, out, 2);
  b.allow_node({0, 1}).allow_node({0, 3}).allow_node({0, 2});
  b.allow_node({0}).allow_node({1}).allow_node({2}).allow_node({3});
  b.allow_edge(0, 1).allow_edge(0, 3).allow_edge(2, 2);
  b.unrestricted_inputs();
  const auto red = reduce(b.build());
  ASSERT_EQ(red.problem.output_alphabet().size(), 3u);
  EXPECT_EQ(red.old_to_new[1], red.old_to_new[3]);
  EXPECT_EQ(red.new_to_old[red.old_to_new[3]], 1u);
  EXPECT_EQ(red.problem.output_alphabet().name(red.old_to_new[3]), "p");
}

TEST(Reduce, DegreesPastOneWordKeepLabelVectors) {
  // 5 labels pack 3 bits each, so degree 22 (66 bits) is stored as label
  // vectors while degree 1 packs. Label 4 has no node configuration
  // (trim); 1, 2 and 3 share every feature (merge); their class is
  // dominated by 0 (dominate).
  Alphabet out({"a", "b", "c", "d", "e"});
  NodeEdgeCheckableLcl::Builder b("wide-degree", Alphabet({"-"}), out, 22);
  std::vector<Label> config(22, 0);
  b.allow_node(config);
  for (const Label x : {1u, 2u, 3u}) {
    config.back() = x;
    b.allow_node(config);
  }
  for (const Label x : {0u, 1u, 2u, 3u}) b.allow_node({x});
  for (Label a = 0; a < 5; ++a) {
    for (Label c = a; c < 5; ++c) b.allow_edge(a, c);
  }
  b.unrestricted_inputs();
  const auto problem = b.build();
  for (const ReKernel kernel : {ReKernel::kGeneric, ReKernel::kMask}) {
    const auto red = reduce(problem, kernel);
    EXPECT_EQ(red.old_to_new,
              (std::vector<Label>{0, 0, 0, 0, Reduction::kDropped}));
    EXPECT_EQ(red.new_to_old, (std::vector<Label>{0}));
    EXPECT_EQ(red.problem.node_configs(22).size(), 1u);
    EXPECT_TRUE(red.problem.node_allows(
        Configuration(std::vector<Label>(22, 0))));
    EXPECT_EQ(red.problem.node_configs(1).size(), 1u);
    EXPECT_EQ(red.problem.edge_configs().size(), 1u);
  }
}

#if LCL_OBS
TEST(Reduce, FiveHundredElevenLabelIterateReducesInOneMergePass) {
  // d2l3-n13-e34 of the exhaustive Delta=2, 3-label family: N_2 = {aa, ac,
  // bb}, E = {ab, cc}, every degree-1 configuration. Its third R iterate
  // has 511 labels and 128631 node configurations, and shrinks to 14 - the
  // slowest reduce of the Delta=2 l=3 survey. The pass counts, not the
  // wall time, pin how much work that takes.
  Alphabet out({"a", "b", "c"});
  NodeEdgeCheckableLcl::Builder b("d2l3-n13-e34", Alphabet({"-"}), out, 2);
  b.allow_node({0, 0}).allow_node({0, 2}).allow_node({1, 1});
  b.allow_node({0}).allow_node({1}).allow_node({2});
  b.allow_edge(0, 1).allow_edge(2, 2);
  b.unrestricted_inputs();
  NodeEdgeCheckableLcl current = b.build();
  for (int half = 0; half < 4; ++half) {
    const ReStep step = half % 2 == 0 ? apply_r(current) : apply_rbar(current);
    current = reduce(step.problem).problem;
  }
  const ReStep wide = apply_r(current);
  ASSERT_EQ(wide.problem.output_alphabet().size(), 511u);

  Reduction red;
  const auto args =
      traced_span_args("re/reduce", [&] { red = reduce(wide.problem); });
  EXPECT_EQ(red.problem.output_alphabet().size(), 14u);
  EXPECT_EQ(args.at("labels_in"), 511);
  EXPECT_EQ(args.at("labels_out"), 14);
  // One merge pass collapses it: its labels fall into 14 classes of equal
  // features, so no domination is left to drop.
  EXPECT_EQ(args.at("merge_passes"), 1);
  EXPECT_EQ(args.at("trim_passes"), 0);
  EXPECT_EQ(args.at("dominate_passes"), 0);
  EXPECT_EQ(args.at("dominated"), 0);
}
#endif  // LCL_OBS

}  // namespace
}  // namespace lcl
