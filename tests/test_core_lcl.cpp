#include "core/lcl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "batch/cache.hpp"
#include "core/problems.hpp"
#include "lint/spec.hpp"

namespace lcl {
namespace {

TEST(Alphabet, BasicLookup) {
  Alphabet a({"A", "B", "C"});
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.name(0), "A");
  EXPECT_EQ(a.at("C"), 2u);
  EXPECT_EQ(a.find("Z"), std::nullopt);
  EXPECT_THROW(a.at("Z"), std::out_of_range);
  EXPECT_THROW(a.name(3), std::out_of_range);
  EXPECT_THROW(Alphabet({"A", "A"}), std::invalid_argument);
  EXPECT_EQ(a.add("D"), 3u);
  EXPECT_THROW(a.add("A"), std::invalid_argument);
}

TEST(Configuration, CanonicalOrder) {
  const Configuration c({3, 1, 2});
  EXPECT_EQ(c.labels(), (std::vector<Label>{1, 2, 3}));
  EXPECT_EQ(Configuration({1, 2, 3}), c);
  EXPECT_EQ(Configuration::pair(5, 2), Configuration::pair(2, 5));
  EXPECT_EQ(Configuration({1, 1, 2}).hash(), Configuration({2, 1, 1}).hash());
  EXPECT_NE(Configuration({1, 1}), Configuration({1, 1, 1}));
}

TEST(Configuration, ToString) {
  Alphabet a({"A", "B"});
  EXPECT_EQ(Configuration({1, 0}).to_string(a), "[A B]");
}

TEST(Builder, RejectsBadArguments) {
  Alphabet in({"-"});
  Alphabet out({"x", "y"});
  EXPECT_THROW(NodeEdgeCheckableLcl::Builder("p", in, out, 0),
               std::invalid_argument);
  EXPECT_THROW(NodeEdgeCheckableLcl::Builder("p", Alphabet(), out, 2),
               std::invalid_argument);
  EXPECT_THROW(NodeEdgeCheckableLcl::Builder("p", in, Alphabet(), 2),
               std::invalid_argument);

  NodeEdgeCheckableLcl::Builder b("p", in, out, 2);
  EXPECT_THROW(b.allow_node({}), std::invalid_argument);
  EXPECT_THROW(b.allow_node({0, 0, 0}), std::invalid_argument);  // degree > 2
  EXPECT_THROW(b.allow_node({5}), std::out_of_range);
  EXPECT_THROW(b.allow_edge(0, 9), std::out_of_range);
  EXPECT_THROW(b.allow_output_for_input(7, 0), std::out_of_range);
}

TEST(Builder, RequiresConstraintsAndG) {
  Alphabet in({"-"});
  Alphabet out({"x"});
  {
    NodeEdgeCheckableLcl::Builder b("p", in, out, 2);
    b.allow_edge(0, 0).unrestricted_inputs();
    EXPECT_THROW(b.build(), std::logic_error);  // no node config
  }
  {
    NodeEdgeCheckableLcl::Builder b("p", in, out, 2);
    b.allow_node({0}).unrestricted_inputs();
    EXPECT_THROW(b.build(), std::logic_error);  // no edge config
  }
  {
    NodeEdgeCheckableLcl::Builder b("p", in, out, 2);
    b.allow_node({0}).allow_edge(0, 0);
    EXPECT_THROW(b.build(), std::logic_error);  // g empty
  }
}

TEST(Builder, BuildTwiceThrows) {
  NodeEdgeCheckableLcl::Builder b("p", Alphabet({"-"}), Alphabet({"x"}), 2);
  b.allow_node({0}).allow_edge(0, 0).unrestricted_inputs();
  b.build();
  EXPECT_THROW(b.build(), std::logic_error);
}

TEST(Lcl, MembershipQueries) {
  auto p = problems::coloring(3, 3);
  EXPECT_EQ(p.output_alphabet().size(), 3u);
  // Node: constant multisets only.
  EXPECT_TRUE(p.node_allows(Configuration({0, 0, 0})));
  EXPECT_TRUE(p.node_allows(Configuration({2, 2})));
  EXPECT_FALSE(p.node_allows(Configuration({0, 1})));
  EXPECT_FALSE(p.node_allows(Configuration({0, 0, 0, 0})));  // degree > 3
  // Edge: distinct colors only.
  EXPECT_TRUE(p.edge_allows(0, 1));
  EXPECT_TRUE(p.edge_allows(1, 0));
  EXPECT_FALSE(p.edge_allows(1, 1));
  // Partner sets.
  EXPECT_EQ(p.edge_partners(0), (LabelSet{3, {1, 2}}));
  EXPECT_THROW(p.edge_partners(3), std::out_of_range);
  // g is unrestricted.
  EXPECT_EQ(p.allowed_outputs(0), LabelSet::full(3));
  EXPECT_THROW(p.allowed_outputs(1), std::out_of_range);
}

TEST(Lcl, NodeConfigsByDegree) {
  auto p = problems::coloring(2, 3);
  EXPECT_EQ(p.node_configs(1).size(), 2u);
  EXPECT_EQ(p.node_configs(2).size(), 2u);
  EXPECT_EQ(p.node_configs(3).size(), 2u);
  EXPECT_TRUE(p.node_configs(4).empty());
  EXPECT_TRUE(p.node_configs(-1).empty());
  EXPECT_EQ(p.total_node_configs(), 6u);
}

TEST(Lcl, ToStringMentionsEverything) {
  auto p = problems::sinkless_orientation(3);
  const std::string s = p.to_string();
  EXPECT_NE(s.find("sinkless-orientation"), std::string::npos);
  EXPECT_NE(s.find("Sigma_out"), std::string::npos);
  EXPECT_NE(s.find("edge configurations"), std::string::npos);
}

TEST(Problems, TrivialIsEverywhereAllowed) {
  auto p = problems::trivial(4);
  for (int d = 1; d <= 4; ++d) {
    EXPECT_EQ(p.node_configs(d).size(), 1u);
  }
  EXPECT_TRUE(p.edge_allows(0, 0));
}

TEST(Problems, SinklessOrientationConstraints) {
  auto p = problems::sinkless_orientation(3);
  const Label kOut = p.output_alphabet().at("O");
  const Label kIn = p.output_alphabet().at("I");
  // Degree 3 (= Delta): all-in forbidden, rest allowed.
  EXPECT_FALSE(p.node_allows(Configuration({kIn, kIn, kIn})));
  EXPECT_TRUE(p.node_allows(Configuration({kOut, kIn, kIn})));
  // Degree < Delta: anything.
  EXPECT_TRUE(p.node_allows(Configuration({kIn})));
  EXPECT_TRUE(p.node_allows(Configuration({kIn, kIn})));
  // Edges must be consistently oriented.
  EXPECT_TRUE(p.edge_allows(kOut, kIn));
  EXPECT_FALSE(p.edge_allows(kOut, kOut));
  EXPECT_FALSE(p.edge_allows(kIn, kIn));
}

TEST(Problems, MisConstraints) {
  auto p = problems::mis(3);
  const Label kI = p.output_alphabet().at("I");
  const Label kP = p.output_alphabet().at("P");
  const Label kO = p.output_alphabet().at("O");
  EXPECT_TRUE(p.node_allows(Configuration({kI, kI, kI})));
  EXPECT_TRUE(p.node_allows(Configuration({kP, kO, kO})));
  EXPECT_FALSE(p.node_allows(Configuration({kP, kP, kO})));
  EXPECT_FALSE(p.node_allows(Configuration({kO, kO, kO})));
  EXPECT_FALSE(p.edge_allows(kI, kI));
  EXPECT_TRUE(p.edge_allows(kP, kI));
  EXPECT_FALSE(p.edge_allows(kP, kO));
  EXPECT_FALSE(p.edge_allows(kP, kP));
}

TEST(Problems, MaximalMatchingConstraints) {
  auto p = problems::maximal_matching(3);
  const Label kM = p.output_alphabet().at("M");
  const Label kY = p.output_alphabet().at("Y");
  const Label kU = p.output_alphabet().at("U");
  EXPECT_TRUE(p.node_allows(Configuration({kM, kY, kY})));
  EXPECT_FALSE(p.node_allows(Configuration({kM, kM, kY})));
  EXPECT_TRUE(p.node_allows(Configuration({kU, kU, kU})));
  EXPECT_FALSE(p.edge_allows(kU, kU));  // maximality
  EXPECT_TRUE(p.edge_allows(kM, kM));
  EXPECT_FALSE(p.edge_allows(kM, kY));
}

TEST(Problems, EdgeColoringConstraints) {
  auto p = problems::edge_coloring(3, 3);
  EXPECT_TRUE(p.node_allows(Configuration({0, 1, 2})));
  EXPECT_FALSE(p.node_allows(Configuration({0, 0, 1})));
  EXPECT_TRUE(p.edge_allows(1, 1));
  EXPECT_FALSE(p.edge_allows(0, 1));
  EXPECT_THROW(problems::edge_coloring(2, 3), std::invalid_argument);
}

TEST(Problems, ForbiddenColorUsesG) {
  auto p = problems::forbidden_color(4, 3);
  const Label forbid2 = p.input_alphabet().at("forbid2");
  const Label free = p.input_alphabet().at("free");
  EXPECT_FALSE(p.allowed_outputs(forbid2).contains(2));
  EXPECT_TRUE(p.allowed_outputs(forbid2).contains(1));
  EXPECT_EQ(p.allowed_outputs(free).size(), 4u);
}

TEST(Problems, WeakColoringWitnessEdges) {
  auto p = problems::weak_coloring(2, 3);
  const Label c0 = p.output_alphabet().at("c0");
  const Label c0w = p.output_alphabet().at("c0!");
  const Label c1 = p.output_alphabet().at("c1");
  const Label c1w = p.output_alphabet().at("c1!");
  // Node: same color everywhere, exactly one witness flag.
  EXPECT_TRUE(p.node_allows(Configuration({c0w, c0, c0})));
  EXPECT_FALSE(p.node_allows(Configuration({c0, c0, c0})));
  EXPECT_FALSE(p.node_allows(Configuration({c0w, c0w, c0})));
  // Witness half-edge must see the other color on the other side.
  EXPECT_FALSE(p.edge_allows(c0w, c0));
  EXPECT_TRUE(p.edge_allows(c0w, c1));
  EXPECT_TRUE(p.edge_allows(c0w, c1w));
  EXPECT_TRUE(p.edge_allows(c0, c0));
}

TEST(Problems, PerfectMatchingConstraints) {
  auto p = problems::perfect_matching(3);
  const Label kM = p.output_alphabet().at("M");
  const Label kY = p.output_alphabet().at("Y");
  EXPECT_TRUE(p.node_allows(Configuration({kM, kY, kY})));
  EXPECT_FALSE(p.node_allows(Configuration({kY, kY, kY})));  // must match
  EXPECT_FALSE(p.node_allows(Configuration({kM, kM, kY})));
  EXPECT_TRUE(p.edge_allows(kM, kM));
  EXPECT_FALSE(p.edge_allows(kM, kY));
}

TEST(Problems, ArgumentValidation) {
  EXPECT_THROW(problems::coloring(0, 3), std::invalid_argument);
  EXPECT_THROW(problems::trivial(0), std::invalid_argument);
  EXPECT_THROW(problems::sinkless_orientation(1), std::invalid_argument);
  EXPECT_THROW(problems::weak_coloring(1, 3), std::invalid_argument);
  EXPECT_THROW(problems::forbidden_color(1, 3), std::invalid_argument);
}

TEST(ProblemEquality, SameConstraintsIgnoresNames) {
  const auto a = problems::coloring(3, 2);
  auto b = problems::coloring(3, 2);
  EXPECT_TRUE(same_constraints(a, b));
  EXPECT_TRUE(isomorphic_constraints(a, b));
}

TEST(ProblemEquality, DetectsDifferingConstraints) {
  const auto a = problems::coloring(3, 3);
  const auto b = problems::mis(3);
  EXPECT_FALSE(same_constraints(a, b));
}

TEST(ProblemEquality, IsomorphicUnderLabelRenaming) {
  // 2-coloring with the color indices swapped: not equal index-by-index,
  // but isomorphic via the transposition.
  NodeEdgeCheckableLcl::Builder builder("swapped", Alphabet({"-"}),
                                        Alphabet({"B", "W"}), 2);
  for (Label l = 0; l < 2; ++l) {
    builder.allow_node({l});
    builder.allow_node({l, l});
    builder.allow_output_for_input(0, l);
  }
  builder.allow_edge(0, 1);
  const auto swapped = builder.build();
  const auto canonical = problems::two_coloring(2);
  EXPECT_TRUE(same_constraints(canonical, swapped));  // symmetric problem
  EXPECT_TRUE(isomorphic_constraints(canonical, swapped));
}

/// Two problems the cheap engine signature cannot tell apart (same label
/// count, same number of configurations per degree, same edge count) that
/// are NOT equal up to output renaming - the exact confirmation behind
/// `SpeedupEngine`'s fixed-point check must separate them.
TEST(ProblemEquality, CollidingSignaturesAreNotIsomorphic) {
  NodeEdgeCheckableLcl::Builder a_b("a", Alphabet({"-"}),
                                    Alphabet({"x", "y"}), 2);
  a_b.allow_node({0});
  a_b.allow_node({0, 0});  // repeated label
  a_b.allow_edge(0, 0);
  a_b.allow_output_for_input(0, 0);
  a_b.allow_output_for_input(0, 1);
  const auto a = a_b.build();

  NodeEdgeCheckableLcl::Builder b_b("b", Alphabet({"-"}),
                                    Alphabet({"x", "y"}), 2);
  b_b.allow_node({0});
  b_b.allow_node({0, 1});  // two distinct labels
  b_b.allow_edge(0, 1);
  b_b.allow_output_for_input(0, 0);
  b_b.allow_output_for_input(0, 1);
  const auto b = b_b.build();

  // The signature components agree...
  EXPECT_EQ(a.output_alphabet().size(), b.output_alphabet().size());
  EXPECT_EQ(a.edge_configs().size(), b.edge_configs().size());
  for (int d = 1; d <= 2; ++d) {
    EXPECT_EQ(a.node_configs(d).size(), b.node_configs(d).size());
  }
  // ...yet no output-label permutation maps one onto the other.
  EXPECT_FALSE(same_constraints(a, b));
  EXPECT_FALSE(isomorphic_constraints(a, b));
  EXPECT_FALSE(isomorphic_constraints(b, a));
}

// ---------------------------------------------------------------------------
// Representation: one shared block of sorted, deduplicated tables.

/// Three labels, degrees 1..3, a restricted `g`. `scrambled` supplies the
/// same constraints with every list reversed, every configuration twice
/// and each configuration's labels in descending order.
NodeEdgeCheckableLcl three_label_problem(bool scrambled) {
  std::vector<std::vector<Label>> nodes = {
      {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {0, 1, 2}, {2, 2, 2}};
  std::vector<std::pair<Label, Label>> edges = {
      {0, 0}, {0, 1}, {0, 2}, {1, 2}, {2, 2}};
  if (scrambled) {
    std::reverse(nodes.begin(), nodes.end());
    std::reverse(edges.begin(), edges.end());
  }
  NodeEdgeCheckableLcl::Builder builder(
      scrambled ? "scrambled" : "ordered", Alphabet({"i", "j"}),
      Alphabet({"x", "y", "z"}), 3);
  for (int copy = 0; copy < (scrambled ? 2 : 1); ++copy) {
    for (auto labels : nodes) {
      if (scrambled) std::reverse(labels.begin(), labels.end());
      builder.allow_node(labels);
    }
    for (const auto& [a, b] : edges) {
      if (scrambled) {
        builder.allow_edge(b, a);
      } else {
        builder.allow_edge(a, b);
      }
    }
  }
  builder.allow_all_outputs_for_input(0);
  builder.allow_output_for_input(1, 2);
  return builder.build();
}

bool sorted_and_unique(const std::vector<Configuration>& configs) {
  return std::is_sorted(configs.begin(), configs.end()) &&
         std::adjacent_find(configs.begin(), configs.end()) == configs.end();
}

TEST(LclRepresentation, OutOfOrderBuildEqualsTheInOrderBuild) {
  const auto ordered = three_label_problem(false);
  const auto scrambled = three_label_problem(true);
  for (int d = -1; d <= 4; ++d) {
    EXPECT_TRUE(sorted_and_unique(scrambled.node_configs(d))) << d;
    EXPECT_EQ(scrambled.node_configs(d), ordered.node_configs(d)) << d;
  }
  EXPECT_EQ(scrambled.node_configs(2).size(), 4u);
  EXPECT_TRUE(sorted_and_unique(scrambled.edge_configs()));
  EXPECT_EQ(scrambled.edge_configs(), ordered.edge_configs());
  EXPECT_EQ(scrambled.total_node_configs(), 9u);

  // Every membership query over the alphabet (and one label past it).
  std::vector<std::vector<Label>> probes;
  for (Label a = 0; a <= 3; ++a) {
    probes.push_back({a});
    for (Label b = a; b <= 3; ++b) {
      probes.push_back({a, b});
      for (Label c = b; c <= 3; ++c) probes.push_back({a, b, c});
    }
  }
  probes.push_back({0, 0, 0, 0});  // past max_degree
  for (const auto& labels : probes) {
    const Configuration config(labels);
    EXPECT_EQ(scrambled.node_allows(config), ordered.node_allows(config))
        << config.to_string(Alphabet({"x", "y", "z", "w"}));
  }
  for (Label a = 0; a <= 3; ++a) {
    for (Label b = 0; b <= 3; ++b) {
      EXPECT_EQ(scrambled.edge_allows(a, b), ordered.edge_allows(a, b))
          << a << "," << b;
    }
  }

  EXPECT_TRUE(same_constraints(scrambled, ordered));
  EXPECT_EQ(batch::constraint_signature(scrambled),
            batch::constraint_signature(ordered));
  auto scrambled_spec = lint::spec_from_problem(scrambled);
  scrambled_spec.name = "ordered";
  EXPECT_EQ(scrambled_spec, lint::spec_from_problem(ordered));
}

TEST(LclRepresentation, CopiesShareTheOriginalsTables) {
  const auto original = problems::maximal_matching(3);
  const NodeEdgeCheckableLcl copy = original;
  const auto renamed = NodeEdgeCheckableLcl(original).renamed("other");
  for (const auto* problem : {&copy, &renamed}) {
    // The same objects, not equal copies of them.
    EXPECT_EQ(&problem->output_alphabet(), &original.output_alphabet());
    EXPECT_EQ(&problem->edge_configs(), &original.edge_configs());
    EXPECT_EQ(&problem->node_configs(3), &original.node_configs(3));
    EXPECT_EQ(&problem->allowed_outputs(0), &original.allowed_outputs(0));
    EXPECT_TRUE(same_constraints(*problem, original));
    EXPECT_TRUE(same_constraints(original, *problem));
  }
  EXPECT_EQ(renamed.name(), "other");
  EXPECT_EQ(copy.name(), original.name());
  EXPECT_NE(original.name(), "other");

  // A second build has tables of its own and still compares equal.
  const auto rebuilt = problems::maximal_matching(3);
  EXPECT_NE(&rebuilt.edge_configs(), &original.edge_configs());
  EXPECT_TRUE(same_constraints(rebuilt, original));
}

TEST(LclRepresentation, DefaultConstructedProblemAllowsNothing) {
  const NodeEdgeCheckableLcl empty;
  EXPECT_EQ(empty.name(), "");
  EXPECT_EQ(empty.input_alphabet().size(), 0u);
  EXPECT_EQ(empty.output_alphabet().size(), 0u);
  EXPECT_EQ(empty.max_degree(), 0);
  for (int d = -1; d <= 3; ++d) EXPECT_TRUE(empty.node_configs(d).empty());
  EXPECT_TRUE(empty.edge_configs().empty());
  EXPECT_EQ(empty.total_node_configs(), 0u);
  EXPECT_FALSE(empty.node_allows(Configuration()));
  EXPECT_FALSE(empty.node_allows(Configuration({0})));
  EXPECT_FALSE(empty.node_allows(Configuration({0, 0})));
  EXPECT_FALSE(empty.edge_allows(0, 0));
  EXPECT_THROW(empty.edge_partners(0), std::out_of_range);
  EXPECT_THROW(empty.allowed_outputs(0), std::out_of_range);
  EXPECT_NE(empty.to_string().find("Delta = 0"), std::string::npos);
  EXPECT_TRUE(same_constraints(empty, NodeEdgeCheckableLcl()));
  EXPECT_FALSE(same_constraints(empty, problems::trivial(2)));
  EXPECT_FALSE(same_constraints(problems::trivial(2), empty));
}

}  // namespace
}  // namespace lcl
