#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <typeinfo>
#include <vector>

#include "batch/cache.hpp"
#include "batch/survey.hpp"
#include "core/lcl.hpp"
#include "core/problems.hpp"
#include "re/engine.hpp"
#include "re/kernel.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "re/step.hpp"
#include "re/working_set.hpp"

namespace lcl {
namespace {

ReLimits with_kernel(ReKernel kernel) {
  ReLimits limits;
  limits.kernel = kernel;
  return limits;
}

/// The parity fence of the kernel rewrite: on every battery problem, the
/// default mask kernel and the original generic enumeration must build the
/// *same* derived problem - same alphabet names in the same order, same
/// constraints, same g, same meanings - for both operators. Anything the
/// engine, batch surveys, lint preflight, or fuzz oracles observe is
/// downstream of these objects, so byte-identical verdicts follow.
void expect_kernels_agree(const NodeEdgeCheckableLcl& pi) {
  for (const bool use_r : {true, false}) {
    const auto apply = use_r ? &apply_r : &apply_rbar;
    SCOPED_TRACE(pi.name() + (use_r ? " / R" : " / Rbar"));
    const ReStep generic = apply(pi, with_kernel(ReKernel::kGeneric));
    const ReStep mask = apply(pi, ReLimits{});

    ASSERT_EQ(generic.problem.output_alphabet().size(),
              mask.problem.output_alphabet().size());
    for (Label l = 0; l < generic.problem.output_alphabet().size(); ++l) {
      ASSERT_EQ(generic.problem.output_alphabet().name(l),
                mask.problem.output_alphabet().name(l));
    }
    EXPECT_TRUE(same_constraints(generic.problem, mask.problem));
    EXPECT_EQ(generic.problem.name(), mask.problem.name());
    ASSERT_EQ(generic.meaning.size(), mask.meaning.size());
    for (std::size_t i = 0; i < generic.meaning.size(); ++i) {
      EXPECT_EQ(generic.meaning[i], mask.meaning[i]) << "meaning " << i;
    }
    EXPECT_EQ(batch::constraint_signature(generic.problem),
              batch::constraint_signature(mask.problem));
  }
}

TEST(ReKernelParity, BatteryProblemsDeriveIdentically) {
  expect_kernels_agree(problems::two_coloring(2));
  expect_kernels_agree(problems::coloring(3, 2));
  expect_kernels_agree(problems::coloring(3, 3));
  expect_kernels_agree(problems::mis(3));
  expect_kernels_agree(problems::maximal_matching(3));
  expect_kernels_agree(problems::sinkless_orientation(3));
  expect_kernels_agree(problems::any_orientation(3));
  expect_kernels_agree(problems::perfect_matching(3));
  expect_kernels_agree(problems::weak_coloring(2, 3));
  expect_kernels_agree(problems::trivial(3));
}

// One iterate deep: parity must survive composition, i.e. hold on problems
// that are themselves kernel outputs (reduced, as the engine runs them).
TEST(ReKernelParity, HoldsOnReducedFirstIterates) {
  for (const auto& seed :
       {problems::coloring(3, 3), problems::sinkless_orientation(3)}) {
    ReStep step = apply_r(seed, with_kernel(ReKernel::kGeneric));
    const Reduction reduced = reduce(step.problem);
    expect_kernels_agree(reduced.problem);
  }
}

// A one-label problem whose only node configuration has degree `degree`:
// every derived multiset is that one label repeated, so the generic
// kernel's backtracking stays trivial at any degree.
NodeEdgeCheckableLcl one_label_at_degree(int degree) {
  NodeEdgeCheckableLcl::Builder b("one-label-d" + std::to_string(degree),
                                  Alphabet({"-"}), Alphabet({"x"}), degree);
  b.allow_node(std::vector<Label>(static_cast<std::size_t>(degree), 0));
  b.allow_edge(0, 0);
  b.unrestricted_inputs();
  return b.build();
}

TEST(ReKernelParity, HighDegreesAgreeWithGeneric) {
  // The mask kernel's node DP must rank tuples of any number of slots:
  // 32/33 and 64/65 bracket the degrees a 32- or 64-bit slot mask would
  // overflow.
  for (const int degree : {32, 33, 64, 65}) {
    expect_kernels_agree(one_label_at_degree(degree));
  }
}

TEST(ReKernelParity, BlowupErrorsMatchAcrossKernels) {
  // 13 output labels -> 2^13 - 1 = 8191 derived labels > max_labels = 4096:
  // both kernels must refuse identically (the guard runs pre-dispatch), so
  // ReLimits blow-up diagnostics never depend on the kernel in use.
  const auto big = problems::coloring(13, 2);
  std::string generic_message;
  try {
    apply_r(big, with_kernel(ReKernel::kGeneric));
    FAIL() << "expected ReBlowupError";
  } catch (const ReBlowupError& e) {
    generic_message = e.what();
  }
  EXPECT_FALSE(generic_message.empty());
  std::string mask_message;
  try {
    apply_r(big);
    FAIL() << "expected ReBlowupError";
  } catch (const ReBlowupError& e) {
    mask_message = e.what();
  }
  EXPECT_EQ(generic_message, mask_message);
}

TEST(ReKernelParity, ConfigBlowupErrorsMatchAcrossKernels) {
  // A base that passes the alphabet guard but trips the configuration-count
  // guard: 11 labels at degree 3 -> 2047 derived labels, ~1.4e9 candidate
  // multisets > max_configs. The counting happens pre-dispatch too.
  const auto big = problems::coloring(11, 3);
  std::string generic_message;
  try {
    apply_rbar(big, with_kernel(ReKernel::kGeneric));
    FAIL() << "expected ReBlowupError";
  } catch (const ReBlowupError& e) {
    generic_message = e.what();
  }
  EXPECT_NE(generic_message.find("candidate configurations"),
            std::string::npos);
  std::string mask_message;
  try {
    apply_rbar(big);
    FAIL() << "expected ReBlowupError";
  } catch (const ReBlowupError& e) {
    mask_message = e.what();
  }
  EXPECT_EQ(generic_message, mask_message);
}

/// Reduction parity: both kernels must drop/merge exactly the same labels
/// in the same order - the maps record the full history, so comparing them
/// fences the scan order, not just the fixed point.
void expect_reduce_parity(const NodeEdgeCheckableLcl& p) {
  SCOPED_TRACE(p.name());
  const Reduction generic = reduce(p, ReKernel::kGeneric);
  const Reduction masked = reduce(p);
  EXPECT_TRUE(same_constraints(generic.problem, masked.problem));
  ASSERT_EQ(generic.problem.output_alphabet().size(),
            masked.problem.output_alphabet().size());
  for (Label l = 0; l < generic.problem.output_alphabet().size(); ++l) {
    EXPECT_EQ(generic.problem.output_alphabet().name(l),
              masked.problem.output_alphabet().name(l));
  }
  EXPECT_EQ(generic.old_to_new, masked.old_to_new);
  EXPECT_EQ(generic.new_to_old, masked.new_to_old);
}

TEST(ReKernelParity, ReduceAgreesOnWordBoundaryAlphabets) {
  // threshold_band keeps the dominated-label pass firing across the whole
  // alphabet, so reducing a 65..129-label instance walks the pass through
  // every intermediate size, and with it the holder masks through one,
  // two and three words. The sizes bracket the 64- and 128-label seams.
  for (const int labels : {63, 64, 65, 127, 128, 129}) {
    expect_reduce_parity(problems::threshold_band(labels, 8));
  }
}

TEST(ReKernelParity, WideIterateStaysOnMaskTiersUnderAuto) {
  // A 7-label base derives a 2^7 - 1 = 127-label iterate; reducing it under
  // the default mask kernel must agree with the generic scan byte for byte.
  // Degree 1 keeps the (many) dominated-label cascades cheap while still
  // walking the pass through every alphabet size from 127 down across the
  // 64-label seam.
  const auto base = problems::coloring(7, 1);
  ReStep step = apply_r(base);
  ASSERT_EQ(step.problem.output_alphabet().size(), 127u);

  const Reduction masked = reduce(step.problem);
  const Reduction generic = reduce(step.problem, ReKernel::kGeneric);
  EXPECT_TRUE(same_constraints(generic.problem, masked.problem));
  EXPECT_EQ(generic.old_to_new, masked.old_to_new);
  EXPECT_EQ(generic.new_to_old, masked.new_to_old);
  EXPECT_EQ(batch::constraint_signature(generic.problem),
            batch::constraint_signature(masked.problem));
}

/// A degree-1 band of `labels` labels: each label's edge partners are the
/// next eight labels, so the dominated-label pass keeps firing as the
/// alphabet shrinks.
NodeEdgeCheckableLcl wide_band(int labels) {
  Alphabet out;
  for (int l = 0; l < labels; ++l) {
    std::ostringstream os;
    os << 'w' << l;
    out.add(os.str());
  }
  NodeEdgeCheckableLcl::Builder b("wide-band-" + std::to_string(labels),
                                  Alphabet({"-"}), std::move(out),
                                  /*max_degree=*/1);
  const auto n = static_cast<Label>(labels);
  for (Label l = 0; l < n; ++l) {
    b.allow_node({l});
    for (Label p = l; p < std::min<Label>(n, l + 9); ++p) b.allow_edge(l, p);
  }
  b.unrestricted_inputs();
  return b.build();
}

TEST(ReKernelParity, KernelFallbackPastWidestTierIsCountedAndSound) {
  // Named for the generic fallback that once took over past 512 labels.
  // The sizes are the seams where the mask width used to change (256 and
  // 512 labels) and where that fallback began; the runtime-width pass must
  // match the pair scan on each.
  for (const int labels : {255, 256, 257, 511, 512, 513, 516}) {
    expect_reduce_parity(wide_band(labels));
  }
}

/// Every sorted multiset of `d` labels over `n` labels, in ascending order.
template <typename Visit>
void for_each_sorted_multiset(std::size_t n, int d, Visit&& visit) {
  std::vector<Label> tuple(static_cast<std::size_t>(d), 0);
  while (true) {
    visit(tuple);
    std::size_t pos = tuple.size();
    while (pos > 0 && tuple[pos - 1] + 1 == n) --pos;
    if (pos == 0) return;
    ++tuple[pos - 1];
    std::fill(tuple.begin() + static_cast<std::ptrdiff_t>(pos), tuple.end(),
              tuple[pos - 1]);
  }
}

// `Rbar`'s mask fill decides its FORALL quantifier by looking each sorted
// selection up in the base problem's configurations, packed as a
// `DegreeConfigs`: one-word keys while `degree * bits` fits 64 bits, label
// vectors past that.

TEST(ForallProbe, AgreesWithNodeAllowsOnAllMultisets) {
  for (const auto& pi : {problems::mis(3), problems::coloring(3, 3),
                         problems::maximal_matching(3)}) {
    for (int d = 1; d <= pi.max_degree(); ++d) {
      const DegreeConfigs probe(pi, static_cast<std::size_t>(d));
      ASSERT_TRUE(probe.packed());
      for_each_sorted_multiset(
          pi.output_alphabet().size(), d, [&](const std::vector<Label>& m) {
            EXPECT_EQ(probe.contains(m.data()),
                      pi.node_allows(Configuration(m)))
                << pi.name() << " d=" << d;
          });
    }
  }
}

TEST(ForallProbe, LabelVectorsCoverDegreesPast64Bits) {
  // 5 labels -> 3 bits per label. One word covers degrees up to 21
  // (63 bits); degree 22 (66 bits) keeps label vectors.
  const auto pi = problems::coloring(5, 22);
  EXPECT_TRUE(DegreeConfigs(pi, 21).packed());
  const DegreeConfigs probe(pi, 22);
  EXPECT_FALSE(probe.packed());

  // Probes through the label vectors answer exactly like node_allows.
  std::vector<Label> rainbow;
  for (Label l = 0; l < 22; ++l) rainbow.push_back(l % 5);
  std::sort(rainbow.begin(), rainbow.end());
  EXPECT_EQ(probe.contains(rainbow.data()),
            pi.node_allows(Configuration(rainbow)));
  for (Label c = 0; c < 5; ++c) {
    const std::vector<Label> mono(22, c);
    EXPECT_EQ(probe.contains(mono.data()),
              pi.node_allows(Configuration(mono)));
    EXPECT_TRUE(probe.contains(mono.data()));
  }
  // Two configurations differing only in the last label are told apart.
  std::vector<Label> near_mono(22, 1);
  near_mono[21] = 2;  // sorted: {1 x21, 2}
  EXPECT_EQ(probe.contains(near_mono.data()),
            pi.node_allows(Configuration(near_mono)));
  EXPECT_FALSE(probe.contains(near_mono.data()));
}

TEST(ForallProbe, FallsBackToLabelVectorsWhenDegreeDoesNotPack) {
  // 5 labels -> 3 bits per label; degree 43 needs 129 bits, so probes
  // answer from label vectors while degree 21 still packs.
  const auto pi = problems::coloring(5, 43);
  EXPECT_TRUE(DegreeConfigs(pi, 21).packed());
  const DegreeConfigs probe(pi, 43);
  EXPECT_FALSE(probe.packed());
  std::vector<Label> rainbow;
  for (Label l = 0; l < 43; ++l) rainbow.push_back(l % 5);
  std::sort(rainbow.begin(), rainbow.end());
  EXPECT_EQ(probe.contains(rainbow.data()),
            pi.node_allows(Configuration(rainbow)));
  const std::vector<Label> mono(43, 0);
  EXPECT_EQ(probe.contains(mono.data()), pi.node_allows(Configuration(mono)));
  EXPECT_TRUE(probe.contains(mono.data()));
}

// ---------------------------------------------------------------------------
// The fused speedup step: `speedup_step` fills working sets and reduces them
// in place, building only psi and f(pi); its definition builds R(pi) and
// Rbar(psi) in full and reduces the built problems.

/// What one step computation produced: the level, or the type and text of
/// the exception it threw.
struct StepResult {
  std::optional<SequenceLevel> level;
  std::string error_type;
  std::string error;
};

template <typename Compute>
StepResult attempt_step(Compute&& compute) {
  StepResult out;
  try {
    out.level = compute();
  } catch (const std::exception& e) {
    out.error_type = typeid(e).name();
    out.error = e.what();
  }
  return out;
}

StepResult reference_step(const NodeEdgeCheckableLcl& pi,
                          const ReLimits& limits) {
  return attempt_step([&] {
    SequenceLevel level;
    level.psi = reduce_step(apply_r(pi, limits), limits.kernel);
    level.next =
        reduce_step(apply_rbar(level.psi.problem, limits), limits.kernel);
    return level;
  });
}

/// Empty when both steps have the same problem name, output-label names in
/// order, constraints and meanings; otherwise what differs.
std::string step_difference(const ReStep& got, const ReStep& want) {
  const Alphabet& a = got.problem.output_alphabet();
  const Alphabet& b = want.problem.output_alphabet();
  if (got.problem.name() != want.problem.name()) {
    return "name '" + got.problem.name() + "' vs '" + want.problem.name() +
           "'";
  }
  if (a.size() != b.size()) {
    return std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
           " labels";
  }
  for (Label l = 0; l < a.size(); ++l) {
    if (a.name(l) != b.name(l)) {
      return "label " + std::to_string(l) + " '" + a.name(l) + "' vs '" +
             b.name(l) + "'";
    }
  }
  if (!same_constraints(got.problem, want.problem)) return "constraints";
  if (got.meaning != want.meaning) return "meanings";
  return {};
}

/// Empty when every label of `step` is named after its meaning, the set of
/// `base` labels it denotes (Definitions 3.1/3.2); otherwise the first that
/// is not.
std::string misnamed_label(const ReStep& step, const Alphabet& base) {
  const Alphabet& names = step.problem.output_alphabet();
  for (Label l = 0; l < names.size(); ++l) {
    const std::string want = step.meaning[l].to_string(
        [&base](std::uint32_t b) { return base.name(b); });
    if (names.name(l) != want) {
      return "label " + std::to_string(l) + " is named '" + names.name(l) +
             "' but means '" + want + "'";
    }
  }
  return {};
}

/// Runs `speedup_step` and its definition side by side from `pi` for up to
/// `steps` steps; returns the first difference, or empty.
std::string first_step_difference(NodeEdgeCheckableLcl pi,
                                  const ReLimits& limits, int steps) {
  for (int step = 0; step < steps; ++step) {
    const std::string at = pi.name() + " step " + std::to_string(step) + ": ";
    const StepResult got =
        attempt_step([&] { return speedup_step(pi, limits); });
    const StepResult want = reference_step(pi, limits);
    if (!got.level || !want.level) {
      if (got.level || want.level || got.error_type != want.error_type ||
          got.error != want.error) {
        return at + "threw '" + got.error + "' (" + got.error_type +
               "), the reference '" + want.error + "' (" + want.error_type +
               ")";
      }
      return {};
    }
    const SequenceLevel& level = *got.level;
    std::string d = step_difference(level.psi, want.level->psi);
    if (d.empty()) d = misnamed_label(level.psi, pi.output_alphabet());
    if (!d.empty()) return at + "psi: " + d;
    d = step_difference(level.next, want.level->next);
    if (d.empty()) {
      d = misnamed_label(level.next, level.psi.problem.output_alphabet());
    }
    if (!d.empty()) return at + "f(pi): " + d;
    pi = got.level->next.problem;
  }
  return {};
}

std::vector<NodeEdgeCheckableLcl> canonical_battery() {
  return {problems::trivial(3),
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
}

/// "battery", or the exhaustive family "d<max degree>l<labels>", or its
/// slice "d<max degree>l<labels>s<k>": every fourth member from member k.
std::vector<NodeEdgeCheckableLcl> family_problems(const std::string& family) {
  if (family == "battery") return canonical_battery();
  batch::ExhaustiveFamilyOptions options;
  options.max_degree = family[1] - '0';
  options.labels = static_cast<std::size_t>(family[3] - '0');
  const auto members = batch::exhaustive_family(options).members;
  const std::size_t first = family.size() > 4 ? family[5] - '0' : 0;
  const std::size_t stride = family.size() > 4 ? 4 : 1;
  std::vector<NodeEdgeCheckableLcl> problems;
  for (std::size_t i = first; i < members.size(); i += stride) {
    problems.push_back(members[i].problem);
  }
  return problems;
}

class FusedStepParity
    : public ::testing::TestWithParam<std::tuple<std::string, ReKernel>> {};

TEST_P(FusedStepParity, SpeedupStepMatchesTheReferenceComposition) {
  const auto& [family, kernel] = GetParam();
  std::size_t checked = 0;
  for (const auto& pi : family_problems(family)) {
    const std::string difference =
        first_step_difference(pi, with_kernel(kernel), 3);
    ASSERT_TRUE(difference.empty()) << difference;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

// The instance names keep the `FamiliesKernelsJobs` prefix and `_jobs1`
// suffix of the days when the fill had a jobs axis, so each instance stays
// comparable with its earlier runs.
INSTANTIATE_TEST_SUITE_P(
    FamiliesKernelsJobs, FusedStepParity,
    // Delta=2 l=3 runs as four slices, so its 3969 members spread over
    // ctest's workers.
    ::testing::Combine(::testing::Values("battery", "d2l2", "d2l3s0",
                                         "d2l3s1", "d2l3s2", "d2l3s3", "d3l2"),
                       ::testing::Values(ReKernel::kMask, ReKernel::kGeneric)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == ReKernel::kMask ? "_mask_jobs1"
                                                         : "_generic_jobs1");
    });

// The problems the engine hands the kernels: every member of the exhaustive
// families Delta = 2, 3, 4 at l = 2, its first level (psi, then the reduced
// iterate f(pi)), and the psi of that iterate's step.
TEST(ReKernelParity, ExhaustiveFamiliesAndTheirIteratesDeriveIdentically) {
  std::size_t problems = 0;
  const auto agree = [&](const NodeEdgeCheckableLcl& p) {
    expect_kernels_agree(p);
    ++problems;
  };
  for (const char* family : {"d2l2", "d3l2", "d4l2"}) {
    for (const auto& pi : family_problems(family)) {
      agree(pi);
      const SequenceLevel first = speedup_step(pi, ReLimits{});
      agree(first.psi.problem);
      agree(first.next.problem);
      agree(speedup_step(first.next.problem, ReLimits{}).psi.problem);
    }
  }
  EXPECT_EQ(problems, 4u * (49u + 105u + 217u));
}

// A two-input problem whose second input permits no output label: both
// `lint::build_spec` and reduce's build accept such a problem, but
// `Builder::build` rejects the `R` it derives, whose `g` row for that input
// is empty too.
NodeEdgeCheckableLcl starved_second_input() {
  NodeEdgeCheckableLcl::Builder b("starved", Alphabet({"free", "none"}),
                                  Alphabet({"a", "b"}), 2);
  b.allow_unsatisfiable_inputs();
  b.allow_node({0}).allow_node({1}).allow_node({0, 1});
  b.allow_edge(0, 1).allow_edge(1, 1);
  b.allow_all_outputs_for_input(0);
  return b.build();
}

constexpr const char* kStarvedMessage =
    "Builder::build: input label 'none' permits no output label; call "
    "allow_output_for_input / unrestricted_inputs";

TEST(FusedStepErrors, EmptyGRowOfTheUnbuiltProblemThrowsBuildersError) {
  const auto pi = starved_second_input();
  try {
    speedup_step(pi, ReLimits{});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()), kStarvedMessage);
  }
  // The reference composition fails the same way, in its R build.
  EXPECT_EQ(reference_step(pi, ReLimits{}).error, kStarvedMessage);

  // The engine lets the error escape, as a failed build always has.
  SpeedupEngine engine(pi);
  try {
    engine.run(SpeedupEngine::Options{});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()), kStarvedMessage);
  }

  // A survey records it as the member's error.
  batch::Family family;
  family.members.push_back({"starved", pi});
  const auto report = batch::run_survey(family, batch::SurveyOptions{});
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].error, kStarvedMessage);
  EXPECT_EQ(report.errors, 1u);
}

TEST(FusedStepErrors, TrimmingMessageNamesTheUnreducedProblem) {
  // R(pi) keeps {a} (the only label with an edge partner), but every node
  // configuration of R(pi) pairs it with a dropped label.
  NodeEdgeCheckableLcl::Builder b("pi", Alphabet({"-"}), Alphabet({"a", "b"}),
                                  2);
  b.allow_node({0, 1}).allow_edge(0, 0).unrestricted_inputs();
  const auto pi = b.build();
  const std::string expected =
      "reduce: trimming emptied the constraints of 'R(pi)' - the problem is "
      "unsolvable on any graph with an edge (Builder::build: no node "
      "configuration added)";
  try {
    speedup_step(pi, ReLimits{});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  EXPECT_EQ(reference_step(pi, ReLimits{}).error, expected);
}

}  // namespace
}  // namespace lcl
