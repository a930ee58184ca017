// Tests for lint/canonical.hpp - the label-permutation canonicalization
// tier: canonical forms and their evidence maps, automorphism detection
// (orders, saturation, generating witnesses), permutation-invariant
// signatures at small and multi-word alphabet sizes (96 and 512 labels),
// the analyzer's L050/L051/L052 surface, and the lcl_lint CLI's
// cross-file, SARIF, and --fix semantics.

#include "lint/canonical.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "core/problems.hpp"
#include "lint/analyzer.hpp"
#include "lint/diagnostic.hpp"
#include "lint/sarif.hpp"
#include "lint/spec.hpp"
#include "lint/spec_io.hpp"

namespace lcl {
namespace {

using lint::CanonicalForm;
using lint::Code;
using lint::Diagnostic;
using lint::LintOptions;
using lint::LintReport;
using lint::ProblemSpec;

int count_code(const LintReport& report, const char* code) {
  return static_cast<int>(
      std::count_if(report.diagnostics.begin(), report.diagnostics.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

LintOptions semantic_options() {
  LintOptions options;
  options.canonical_labels = true;
  return options;
}

/// `<prefix>NNN`, zero-padded to three digits, so generated wide-alphabet
/// names sort the same way their indices do. (Built with append rather
/// than operator+ - GCC 12's -Werror=restrict misfires on the
/// concatenation idiom at -O2.)
std::string padded_name(char prefix, std::size_t l) {
  const std::string digits = std::to_string(l);
  std::string name(1, prefix);
  for (std::size_t i = digits.size(); i < 3; ++i) name.push_back('0');
  name.append(digits);
  return name;
}

/// A fixed-point-free output permutation `l -> (l * mult + add) mod k` with
/// `gcd(mult, k) == 1`, so permuted copies genuinely scramble every label.
std::vector<Label> affine_permutation(std::size_t k, std::size_t mult,
                                      std::size_t add) {
  std::vector<Label> sigma(k);
  for (std::size_t l = 0; l < k; ++l) {
    sigma[l] = static_cast<Label>((l * mult + add) % k);
  }
  return sigma;
}

/// A wide "banded path" spec with `k` output labels: node configurations
/// `{l}` and `{l, l}`, edge configurations `{l, l+1}` along a path, and 8
/// input bands with `g[i] = {l : l % 8 == i}`. The band pattern is
/// aperiodic relative to the path ends, so the automorphism group is
/// trivial and invariant refinement discriminates every label - canonical
/// forms stay cheap even at 512 labels.
ProblemSpec wide_path_spec(std::size_t k) {
  ProblemSpec spec;
  spec.name = "wide-path-" + std::to_string(k);
  spec.max_degree = 2;
  for (std::size_t i = 0; i < 8; ++i) {
    spec.inputs.push_back(padded_name('b', i));
    spec.g.emplace_back();
  }
  for (std::size_t l = 0; l < k; ++l) {
    spec.outputs.push_back(padded_name('x', l));
    const auto label = static_cast<std::int64_t>(l);
    spec.node_configs.push_back({label});
    spec.node_configs.push_back({label, label});
    if (l + 1 < k) {
      spec.edge_configs.push_back({label, label + 1});
    }
    spec.g[l % 8].push_back(label);
  }
  return spec;
}

/// A fully label-symmetric spec: `k` interchangeable output labels, every
/// unordered pair a valid edge. |Aut| = k! - saturating the 64-bit order
/// counter for any `k >= 21`.
ProblemSpec symmetric_spec(std::size_t k) {
  ProblemSpec spec;
  spec.name = "symmetric-" + std::to_string(k);
  spec.max_degree = 1;
  spec.inputs.push_back("-");
  spec.g.emplace_back();
  for (std::size_t l = 0; l < k; ++l) {
    spec.outputs.push_back(padded_name('s', l));
    spec.node_configs.push_back({static_cast<std::int64_t>(l)});
    spec.g[0].push_back(static_cast<std::int64_t>(l));
    for (std::size_t m = l + 1; m < k; ++m) {
      spec.edge_configs.push_back({static_cast<std::int64_t>(l),
                                   static_cast<std::int64_t>(m)});
    }
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Canonical forms and evidence maps.

TEST(Canonical, EvidenceMapsAreInversePermutations) {
  const auto spec = lint::spec_from_problem(problems::maximal_matching(3));
  const auto form = lint::canonical_form(spec);
  ASSERT_TRUE(form.complete);
  const std::size_t k = spec.outputs.size();
  ASSERT_EQ(form.old_to_new.size(), k);
  ASSERT_EQ(form.new_to_old.size(), k);
  for (std::size_t l = 0; l < k; ++l) {
    EXPECT_EQ(form.new_to_old[form.old_to_new[l]], static_cast<Label>(l));
  }
  // The canonical spec really is the permuted original.
  EXPECT_TRUE(lint::permute_spec(lint::canonicalize(spec),
                                 form.old_to_new) == form.spec);
}

TEST(Canonical, CanonicalFormIsAFixpoint) {
  for (const auto& problem :
       {problems::two_coloring(2), problems::mis(3),
        problems::sinkless_orientation(3)}) {
    const auto form =
        lint::canonical_form(lint::spec_from_problem(problem));
    ASSERT_TRUE(form.complete);
    const auto again = lint::canonical_form(form.spec);
    EXPECT_TRUE(again.spec == form.spec);
    for (std::size_t l = 0; l < again.old_to_new.size(); ++l) {
      EXPECT_EQ(again.old_to_new[l], static_cast<Label>(l));
    }
  }
}

TEST(Canonical, PermutedPairsCanonicalizeIdentically) {
  for (const auto& problem :
       {problems::two_coloring(2), problems::maximal_matching(3),
        problems::coloring(3, 2), problems::any_orientation(2)}) {
    const auto spec = lint::spec_from_problem(problem);
    const std::size_t k = spec.outputs.size();
    const auto sigma = affine_permutation(k, k == 4 ? 3 : k - 1, 1);
    const auto permuted = lint::permute_spec(spec, sigma);

    const auto f1 = lint::canonical_form(spec);
    const auto f2 = lint::canonical_form(permuted);
    ASSERT_TRUE(f1.complete);
    ASSERT_TRUE(f2.complete);
    // Byte-for-byte equal, label names included (names ride along).
    EXPECT_TRUE(f1.spec == f2.spec) << spec.name;
    EXPECT_EQ(lint::spec_signature(f1.spec), lint::spec_signature(f2.spec));
    EXPECT_EQ(lint::canonical_signature(spec),
              lint::canonical_signature(permuted));
    EXPECT_EQ(f1.automorphism_order, f2.automorphism_order);
  }
}

TEST(Canonical, AutomorphismEvidence) {
  // 2-coloring: the color swap is the one nontrivial automorphism.
  const auto two_col = lint::spec_from_problem(problems::two_coloring(2));
  const auto f2 = lint::canonical_form(two_col);
  EXPECT_EQ(f2.automorphism_order, 2u);
  EXPECT_FALSE(f2.automorphism_order_saturated);
  ASSERT_FALSE(f2.automorphism_generator.empty());
  EXPECT_TRUE(lint::same_structure(
      lint::permute_spec(two_col, f2.automorphism_generator), two_col));

  // 3-coloring: all 3! = 6 color permutations fix the constraint system.
  const auto three_col = lint::spec_from_problem(problems::coloring(3, 2));
  const auto f3 = lint::canonical_form(three_col);
  EXPECT_EQ(f3.automorphism_order, 6u);
  EXPECT_FALSE(f3.automorphism_order_saturated);

  // Asymmetric problem: trivial group, no generator.
  const auto mm = lint::spec_from_problem(problems::maximal_matching(3));
  const auto fm = lint::canonical_form(mm);
  EXPECT_EQ(fm.automorphism_order, 1u);
  EXPECT_TRUE(fm.automorphism_generator.empty());
}

TEST(Canonical, SaturatedAutomorphismOrder) {
  // 64 fully interchangeable labels: |Aut| = 64!, far past 64 bits. The
  // symmetric-class fast path must detect the class without any
  // branch-and-bound and report saturation.
  const auto spec = symmetric_spec(64);
  const auto form = lint::canonical_form(spec);
  ASSERT_TRUE(form.complete);
  EXPECT_TRUE(form.automorphism_order_saturated);
  EXPECT_GT(form.automorphism_order, 1u);
  ASSERT_FALSE(form.automorphism_generator.empty());
  EXPECT_TRUE(lint::same_structure(
      lint::permute_spec(spec, form.automorphism_generator), spec));
}

// ---------------------------------------------------------------------------
// Wide alphabets: label sets of more than one word (> 64 labels).

TEST(CanonicalWide, PermutedPairsAgreeAt96And512Labels) {
  for (const std::size_t k : {std::size_t{96}, std::size_t{512}}) {
    const auto spec = wide_path_spec(k);
    const auto sigma = affine_permutation(k, k == 96 ? 11 : 27, 3);
    const auto permuted = lint::permute_spec(spec, sigma);
    ASSERT_FALSE(spec == permuted);

    const auto f1 = lint::canonical_form(spec);
    const auto f2 = lint::canonical_form(permuted);
    ASSERT_TRUE(f1.complete) << k;
    ASSERT_TRUE(f2.complete) << k;
    EXPECT_TRUE(f1.spec == f2.spec) << k;
    EXPECT_EQ(lint::spec_signature(f1.spec), lint::spec_signature(f2.spec));
    // The banded path is asymmetric: refinement alone must fully
    // discriminate, leaving a trivial automorphism group.
    EXPECT_EQ(f1.automorphism_order, 1u);
  }
}

TEST(CanonicalWide, FullLintSweepAt96Labels) {
  const auto options = semantic_options();
  const auto base = wide_path_spec(96);

  // The base spec is clean: no errors, no warnings.
  const auto clean = lint::lint_spec(base, options);
  EXPECT_TRUE(clean.structurally_valid);
  EXPECT_EQ(clean.status(), 0) << clean.to_text();
  EXPECT_TRUE(clean.canonical_complete);

  // L001: an undeclared label is still an error at 96 labels.
  auto invalid = base;
  invalid.node_configs.push_back({9999});
  EXPECT_GE(count_code(lint::lint_spec(invalid, options), Code::kAlphabetArity),
            1);

  // L010/L011/L012: a 97th label with no edge partner and no permitting
  // input is dead, its configuration vacuous, and an input permitting only
  // it starved.
  auto dead = base;
  dead.outputs.push_back("zz");
  dead.node_configs.push_back({96});
  dead.inputs.push_back("b8");
  dead.g.push_back({96});
  const auto dead_report = lint::lint_spec(dead, options);
  EXPECT_GE(count_code(dead_report, Code::kDeadLabel), 1);
  EXPECT_GE(count_code(dead_report, Code::kVacuousConfig), 1);
  EXPECT_GE(count_code(dead_report, Code::kStarvedInput), 1);

  // L013: raising max_degree without degree-3 configurations.
  auto unpopulated = base;
  unpopulated.max_degree = 3;
  EXPECT_GE(count_code(lint::lint_spec(unpopulated, options),
                       Code::kUnpopulatedDegree),
            1);

  // L020: no edge configurations starves every label - trivially
  // unsolvable.
  auto unsolvable = base;
  unsolvable.edge_configs.clear();
  const auto unsolvable_report = lint::lint_spec(unsolvable, options);
  EXPECT_EQ(count_code(unsolvable_report, Code::kUnsolvable), 1);
  EXPECT_TRUE(unsolvable_report.trivially_unsolvable);

  // L030: a universal label that every input permits makes the wide spec
  // 0-round trivial.
  auto trivial = base;
  trivial.outputs.push_back("uni");
  trivial.node_configs.push_back({96});
  trivial.node_configs.push_back({96, 96});
  trivial.edge_configs.push_back({96, 96});
  for (auto& row : trivial.g) row.push_back(96);
  const auto trivial_report = lint::lint_spec(trivial, options);
  EXPECT_EQ(count_code(trivial_report, Code::kZeroRoundTrivial), 1);
  EXPECT_GE(trivial_report.zero_round_label, 0);

  // L040/L041: duplicate and unsorted configurations.
  auto duplicate = base;
  duplicate.node_configs.push_back(duplicate.node_configs.front());
  EXPECT_GE(count_code(lint::lint_spec(duplicate, options),
                       Code::kDuplicateConfig),
            1);
  auto unsorted = base;
  unsorted.edge_configs.push_back({5, 4});
  EXPECT_GE(count_code(lint::lint_spec(unsorted, options),
                       Code::kNonCanonicalConfig),
            1);

  // L050: a permuted copy and the original canonicalize to the same spec;
  // at most one of them is the canonical representative, so at least one
  // reports non-canonical label order.
  const auto permuted = lint::permute_spec(base, affine_permutation(96, 11, 3));
  const auto permuted_report = lint::lint_spec(permuted, options);
  EXPECT_GE(count_code(clean, Code::kNonCanonicalLabels) +
                count_code(permuted_report, Code::kNonCanonicalLabels),
            1);
  EXPECT_TRUE(clean.canonical == permuted_report.canonical);

  // L052: the saturated symmetric spec reports its automorphism.
  const auto symmetric_report = lint::lint_spec(symmetric_spec(64), options);
  EXPECT_EQ(count_code(symmetric_report, Code::kLabelSymmetry), 1);
  EXPECT_TRUE(symmetric_report.automorphism_order_saturated);
}

// ---------------------------------------------------------------------------
// The lcl_lint CLI: cross-file L051, SARIF output, --fix semantics.

class CanonicalCliTest : public ::testing::Test {
 protected:
  static std::string write_spec(const std::string& name,
                                const ProblemSpec& spec) {
    const std::string path = ::testing::TempDir() + "lcl_canon_" + name;
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

  static std::string read_file(const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
};

TEST_F(CanonicalCliTest, CrossFileDuplicatesAndSarif) {
  const auto spec = lint::spec_from_problem(problems::maximal_matching(2));
  const auto permuted =
      lint::permute_spec(spec, affine_permutation(spec.outputs.size(), spec.outputs.size() - 1, 1));
  const auto a = write_spec("dup_a.json", spec);
  const auto b = write_spec("dup_b.json", permuted);
  const auto sarif = ::testing::TempDir() + "lcl_canon_dup.sarif";

  // Each file alone is clean; together the later one is an L051 warning.
  EXPECT_EQ(run_cli(a), 0);
  EXPECT_EQ(run_cli(b), 0);
  EXPECT_EQ(run_cli(a + " " + b + " --sarif=" + sarif), 1);

  const auto log = read_file(sarif);
  EXPECT_NE(log.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(log.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(log.find("\"ruleId\":\"L051\""), std::string::npos);
  // The rule table carries every published code, fired or not.
  for (const auto& rule : lint::sarif_rules()) {
    EXPECT_NE(log.find("\"id\":\"" + std::string(rule.id) + "\""),
              std::string::npos)
        << rule.id;
  }
}

TEST_F(CanonicalCliTest, DirectoryArgumentsExpandToSortedJsonFiles) {
  const std::string dir = ::testing::TempDir() + "lcl_canon_dir";
  std::filesystem::create_directory(dir);
  const auto spec = lint::spec_from_problem(problems::maximal_matching(2));
  const auto permuted =
      lint::permute_spec(spec, affine_permutation(spec.outputs.size(), spec.outputs.size() - 1, 1));
  lint::save_spec(dir + "/a.json", spec);
  lint::save_spec(dir + "/b.json", permuted);
  std::ofstream(dir + "/notes.txt") << "not a spec\n";

  // The directory expands to both *.json files - the duplicate fires.
  EXPECT_EQ(run_cli(dir), 1);
}

TEST_F(CanonicalCliTest, FixRefusesPermutationDuplicates) {
  const auto spec = lint::spec_from_problem(problems::maximal_matching(2));
  const auto permuted =
      lint::permute_spec(spec, affine_permutation(spec.outputs.size(), spec.outputs.size() - 1, 1));
  const auto a = write_spec("fixdup_a.json", spec);
  const auto b = write_spec("fixdup_b.json", permuted);
  const auto before_a = read_file(a);
  const auto before_b = read_file(b);

  // L051 is not fixable: the whole batch is refused and nothing written.
  EXPECT_EQ(run_cli("--fix " + a + " " + b), 3);
  EXPECT_EQ(read_file(a), before_a);
  EXPECT_EQ(read_file(b), before_b);
}

TEST_F(CanonicalCliTest, FixAppliesCanonicalLabelOrder) {
  // Pick whichever of original/permuted is NOT the canonical
  // representative, so the file starts with an L050 finding.
  const auto spec = lint::spec_from_problem(problems::maximal_matching(2));
  const auto options = semantic_options();
  auto candidate = spec;
  if (count_code(lint::lint_spec(candidate, options),
                 Code::kNonCanonicalLabels) == 0) {
    candidate =
        lint::permute_spec(spec, affine_permutation(spec.outputs.size(), spec.outputs.size() - 1, 1));
  }
  ASSERT_GE(count_code(lint::lint_spec(candidate, options),
                       Code::kNonCanonicalLabels),
            1);

  const auto path = write_spec("fix050.json", candidate);
  EXPECT_EQ(run_cli("--fix " + path), 0);  // info-only findings
  bool wrapped = true;
  const auto fixed = lint::spec_from_json(read_file(path), &wrapped);
  EXPECT_FALSE(wrapped);
  EXPECT_EQ(count_code(lint::lint_spec(fixed, options),
                       Code::kNonCanonicalLabels),
            0);
  // Fixing preserved the constraint system up to relabeling.
  EXPECT_EQ(lint::canonical_signature(fixed), lint::canonical_signature(spec));
}

}  // namespace
}  // namespace lcl
