// The fuzzing subsystem's own tests:
//  - every checked-in corpus counterexample must replay cleanly (these
//    files are regression fences: each one once exposed a real or injected
//    bug, and the replay asserts the disagreement stays fixed);
//  - the harness must catch a deliberately injected bug end-to-end: detect
//    it, shrink the failing case, save it, and reproduce it from the file;
//  - saved cases must round-trip through JSON bit-for-bit;
//  - the generator must be deterministic in its seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/lcl.hpp"
#include "fuzz/case_io.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/shrink.hpp"
#include "obs/json.hpp"

#ifndef LCL_FUZZ_CORPUS_DIR
#error "build must define LCL_FUZZ_CORPUS_DIR"
#endif

namespace lcl::fuzz {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(LCL_FUZZ_CORPUS_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FuzzCorpus, HasCheckedInCases) {
  EXPECT_GE(corpus_files().size(), 3u);
}

TEST(FuzzCorpus, EveryCaseReplaysCleanly) {
  const OracleOptions options;
  for (const auto& file : corpus_files()) {
    const auto fuzz_case = load_case(file);
    const auto result = replay_case(fuzz_case, options);
    EXPECT_TRUE(result.applicable) << file << ": case no longer applicable";
    EXPECT_FALSE(result.failed)
        << file << ": regression - " << result.message;
  }
}

TEST(FuzzCorpus, InjectedBugCaughtShrunkSavedAndReproduced) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "lcl_fuzz_injected";
  fs::remove_all(dir);

  FuzzRunOptions options;
  options.seeds = 40;
  options.only_oracle = "lift-soundness";
  options.oracle.inject = "drop-rbar-config";
  options.corpus_dir = dir.string();

  const auto report = run_fuzz(options);
  ASSERT_GT(report.failures, 0u)
      << "the oracle bank failed to catch the injected bug";
  ASSERT_EQ(report.corpus_files.size(), report.failures);
  ASSERT_EQ(report.failure_messages.size(), report.failures);

  // The saved counterexample reproduces the bug from disk...
  const auto saved = load_case(report.corpus_files.front());
  const auto with_bug = replay_case(saved, options.oracle);
  EXPECT_TRUE(with_bug.applicable && with_bug.failed)
      << "saved case does not reproduce under the injection";

  // ...and passes once the bug is gone (clean oracle options).
  const auto clean = replay_case(saved, OracleOptions{});
  EXPECT_TRUE(clean.passed())
      << "saved case fails without the injected bug: " << clean.message;

  fs::remove_all(dir);
}

TEST(FuzzShrink, ShrinksInjectedFailureWhilePreservingIt) {
  OracleOptions with_bug;
  with_bug.inject = "drop-rbar-config";

  // Find one failing case deterministically.
  FuzzCase failing;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 40 && !found; ++seed) {
    FuzzCase c = random_case(GeneratorOptions{}, seed);
    c.oracle = "lift-soundness";
    const auto result = run_oracle(c.oracle, c, with_bug);
    if (result.applicable && result.failed) {
      failing = c;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  ShrinkStats stats;
  const auto minimal = shrink_case(failing, with_bug, &stats);
  EXPECT_GT(stats.attempts, 0u);
  EXPECT_LE(minimal.graph.node_count(), failing.graph.node_count());
  EXPECT_LE(minimal.problem.output_alphabet().size(),
            failing.problem.output_alphabet().size());

  const auto still = run_oracle(minimal.oracle, minimal, with_bug);
  EXPECT_TRUE(still.applicable && still.failed)
      << "shrinking lost the failure";
}

TEST(FuzzCaseIo, JsonRoundTripIsExact) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    FuzzCase original = random_case(GeneratorOptions{}, seed);
    original.oracle = "cross-model";
    original.note = "round-trip seed " + std::to_string(seed);

    const auto restored = from_json(to_json(original));
    EXPECT_EQ(restored.oracle, original.oracle);
    EXPECT_EQ(restored.seed, original.seed);
    EXPECT_EQ(restored.note, original.note);
    EXPECT_EQ(restored.family, original.family);
    EXPECT_TRUE(same_constraints(restored.problem, original.problem));
    ASSERT_EQ(restored.graph.node_count(), original.graph.node_count());
    ASSERT_EQ(restored.graph.edge_count(), original.graph.edge_count());
    for (EdgeId e = 0; e < original.graph.edge_count(); ++e) {
      EXPECT_EQ(restored.graph.endpoints(e), original.graph.endpoints(e));
    }
    EXPECT_EQ(restored.input, original.input);
    // Serializing again is byte-identical (stable field and key order).
    EXPECT_EQ(to_json(restored), to_json(original));
  }
}

TEST(FuzzCaseIo, RejectsMalformedCases) {
  EXPECT_THROW(from_json("not json at all"), std::runtime_error);
  EXPECT_THROW(from_json("{}"), std::runtime_error);
  EXPECT_THROW(from_json(R"({"version": 99})"), std::runtime_error);
  // A structurally valid file whose input labeling is too short.
  FuzzCase c = random_case(GeneratorOptions{}, 1);
  c.oracle = "cross-model";
  auto text = to_json(c);
  const auto pos = text.find("\"input\":[");
  ASSERT_NE(pos, std::string::npos);
  const auto end = text.find(']', pos);
  text.replace(pos, end - pos + 1, "\"input\":[]");
  if (c.graph.half_edge_count() > 0) {
    EXPECT_THROW(from_json(text), std::runtime_error);
  }
  // Problem labels outside the output alphabet, including one that a
  // narrowing to 32 bits would wrap back into range.
  const auto root = obs::json::parse(to_json(c), nullptr);
  ASSERT_NE(root, nullptr);
  for (const std::int64_t label :
       {static_cast<std::int64_t>(c.problem.output_alphabet().size()),
        std::int64_t{1} << 32}) {
    SCOPED_TRACE(label);
    obs::json::Value broken = *root;
    auto& edge = broken.object()["problem"].object()["edge_configs"];
    ASSERT_FALSE(edge.array().empty());
    edge.array().front().array().front() = obs::json::Value(label);
    EXPECT_THROW(from_json(obs::json::dump(broken)), std::runtime_error);
  }
}

TEST(FuzzGenerator, DeterministicInSeed) {
  const GeneratorOptions options;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FuzzCase a = random_case(options, seed);
    const FuzzCase b = random_case(options, seed);
    EXPECT_EQ(to_json(a), to_json(b)) << "seed " << seed;
  }
}

TEST(FuzzGenerator, ProducesValidBuildableCases) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FuzzCase c = random_case(GeneratorOptions{}, seed);
    EXPECT_GE(c.problem.output_alphabet().size(), 2u);
    EXPECT_LE(c.graph.max_degree(), c.problem.max_degree());
    EXPECT_EQ(c.input.size(), c.graph.half_edge_count());
    for (const auto l : c.input) {
      EXPECT_LT(l, c.problem.input_alphabet().size());
    }
    EXPECT_FALSE(c.family.empty());
  }
}

TEST(FuzzRun, CleanBankHasNoFailuresAndTalliesAdd) {
  FuzzRunOptions options;
  options.seeds = 30;
  const auto report = run_fuzz(options);
  EXPECT_EQ(report.seeds_run, 30u);
  EXPECT_EQ(report.failures, 0u)
      << (report.failure_messages.empty() ? std::string()
                                          : report.failure_messages.front());
  EXPECT_GT(report.checks, 0u);
  std::uint64_t checks = 0, skipped = 0;
  for (const auto& [id, tally] : report.per_oracle) {
    checks += tally.checks;
    skipped += tally.skipped;
  }
  EXPECT_EQ(checks, report.checks);
  EXPECT_EQ(skipped, report.skipped);
}

TEST(FuzzRun, UnknownOracleThrows) {
  FuzzCase c = random_case(GeneratorOptions{}, 1);
  c.oracle = "no-such-oracle";
  EXPECT_THROW(run_oracle(c.oracle, c, OracleOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace lcl::fuzz
