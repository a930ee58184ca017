// The sharded survey layer: deterministic shard planning, the
// lclscape.shards.v1 manifest, the merge/dedup step's byte-identity and
// conflict policy, and the lcl_batch --shard / lcl_survey_merge /
// survey_diff CLI loop (including kill -9 + --resume of one shard).

#include "batch/shard.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "batch/survey.hpp"
#include "lint/canonical.hpp"
#include "lint/spec.hpp"
#include "obs/json.hpp"

namespace lcl {
namespace {

namespace json = obs::json;
using batch::Family;
using batch::MergeConflictError;
using batch::ShardManifest;
using batch::ShardPlan;
using batch::ShardRef;
using batch::SurveyOptions;

SurveyOptions default_options() {
  SurveyOptions options;
  options.engine.max_steps = 3;
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

json::Value parse_or_die(const std::string& text) {
  std::string error;
  const auto doc = json::parse(text, &error);
  EXPECT_NE(doc, nullptr) << error;
  return *doc;
}

/// A shard report document exactly as `lcl_batch --shard` writes it: the
/// survey rendering plus the manifest under "shard".
json::Value shard_document(const ShardPlan& plan,
                           const SurveyOptions& options) {
  json::Value doc = batch::run_survey(plan.members, options).to_json_value();
  doc.object()["shard"] = plan.manifest.to_json_value();
  return doc;
}

std::vector<json::Value> shard_documents(const Family& family,
                                         std::size_t count,
                                         const SurveyOptions& options) {
  std::vector<json::Value> docs;
  for (std::size_t i = 0; i < count; ++i) {
    docs.push_back(shard_document(
        batch::plan_shard(family, ShardRef{i, count}, "", "test-sha"),
        options));
  }
  return docs;
}

TEST(ShardIndex, IsTotalDeterministicAndInRange) {
  for (const std::size_t count : {1u, 2u, 4u, 7u, 64u}) {
    for (const std::uint64_t key : {0ull, 1ull, 0xdeadbeefull, ~0ull}) {
      const std::size_t index = batch::shard_index(key, count);
      EXPECT_LT(index, count);
      EXPECT_EQ(index, batch::shard_index(key, count));  // pure
    }
  }
  EXPECT_THROW(batch::shard_index(42, 0), std::invalid_argument);
}

TEST(ShardPlan, PartitionsTheFamilyExactlyOnce) {
  const auto family = batch::exhaustive_family({});
  for (const std::size_t count : {1u, 2u, 4u, 7u}) {
    std::set<std::string> covered;
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const auto plan = batch::plan_shard(family, ShardRef{i, count},
                                          "tier-" + std::to_string(i),
                                          "sha-test");
      EXPECT_EQ(plan.manifest.shard_index, i);
      EXPECT_EQ(plan.manifest.shard_count, count);
      EXPECT_EQ(plan.manifest.members_total, family.members.size());
      EXPECT_EQ(plan.manifest.family, family.description);
      EXPECT_EQ(plan.members.description, family.description);
      ASSERT_EQ(plan.members.members.size(), plan.manifest.members.size());
      for (std::size_t m = 0; m < plan.members.members.size(); ++m) {
        EXPECT_EQ(plan.members.members[m].name, plan.manifest.members[m]);
        EXPECT_TRUE(covered.insert(plan.manifest.members[m]).second)
            << plan.manifest.members[m] << " assigned to two shards";
      }
      total += plan.members.members.size();
    }
    EXPECT_EQ(total, family.members.size()) << count << " shards";
  }
  EXPECT_THROW(batch::plan_shard(family, ShardRef{0, 0}),
               std::invalid_argument);
  EXPECT_THROW(batch::plan_shard(family, ShardRef{4, 4}),
               std::invalid_argument);
}

TEST(ShardPlan, PermutationEquivalentMembersShareAShard) {
  // Shard keys go through the canonical form, so a relabeled copy of a
  // problem can never land on a different shard (which would defeat the
  // per-shard canonical cache tier).
  const auto family = batch::exhaustive_family({});
  std::size_t permuted_pairs = 0;
  for (const auto& member : family.members) {
    const auto spec = lint::spec_from_problem(member.problem);
    const auto form = lint::canonical_form(spec);
    if (!form.complete) continue;
    std::vector<Label> swap(spec.outputs.size());
    for (std::size_t l = 0; l < swap.size(); ++l) {
      swap[l] = static_cast<Label>(swap.size() - 1 - l);
    }
    const auto permuted = lint::build_spec(lint::permute_spec(spec, swap));
    EXPECT_EQ(batch::shard_key(member.problem), batch::shard_key(permuted))
        << member.name;
    ++permuted_pairs;
  }
  EXPECT_GT(permuted_pairs, 0u);
}

TEST(ShardManifestJson, RoundTripsAndValidates) {
  ShardManifest manifest;
  manifest.family = "exhaustive:d2:l2";
  manifest.shard_index = 2;
  manifest.shard_count = 4;
  manifest.members_total = 49;
  manifest.members = {"d2l2-n1-e1", "d2l2-n7-e7"};
  manifest.cache_tier = "/tmp/cache-shard-2-of-4.jsonl";
  manifest.git_sha = "abc123";

  const auto value = manifest.to_json_value();
  EXPECT_EQ(value.find("schema")->as_string(), "lclscape.shards.v1");
  const auto back = ShardManifest::from_json_value(value);
  EXPECT_EQ(back.family, manifest.family);
  EXPECT_EQ(back.shard_index, manifest.shard_index);
  EXPECT_EQ(back.shard_count, manifest.shard_count);
  EXPECT_EQ(back.members_total, manifest.members_total);
  EXPECT_EQ(back.members, manifest.members);
  EXPECT_EQ(back.cache_tier, manifest.cache_tier);
  EXPECT_EQ(back.git_sha, manifest.git_sha);

  json::Value wrong = manifest.to_json_value();
  wrong.object()["schema"] = json::Value(std::string("lclscape.shards.v9"));
  EXPECT_THROW(ShardManifest::from_json_value(wrong), std::runtime_error);
  json::Value missing = manifest.to_json_value();
  missing.object().erase("members");
  EXPECT_THROW(ShardManifest::from_json_value(missing), std::runtime_error);
}

TEST(OutcomeJson, RowRoundTripIsLossless) {
  const auto family = batch::exhaustive_family({});
  const auto report = batch::run_survey(family, default_options());
  ASSERT_FALSE(report.outcomes.empty());
  for (const auto& outcome : report.outcomes) {
    const auto row = batch::outcome_to_json_value(outcome);
    const auto back = batch::outcome_from_json_value(row);
    // Lossless = the re-rendered row is byte-identical.
    EXPECT_EQ(json::dump(batch::outcome_to_json_value(back)),
              json::dump(row))
        << outcome.name;
  }
  EXPECT_THROW(batch::outcome_from_json_value(json::Value(std::string("x"))),
               std::runtime_error);
  json::Value partial = json::Value::make_object();
  partial.object()["name"] = json::Value(std::string("p"));
  EXPECT_THROW(batch::outcome_from_json_value(partial), std::runtime_error);
}

TEST(Merge, ReassemblesTheSinglePoolReportByteForByte) {
  const auto family = batch::exhaustive_family({});
  const auto options = default_options();
  const std::string single = batch::run_survey(family, options).to_json();

  for (const std::size_t count : {1u, 2u, 4u, 7u}) {
    const auto result =
        batch::merge_shard_reports(shard_documents(family, count, options));
    EXPECT_EQ(result.report.to_json(), single) << count << " shards";
    EXPECT_EQ(result.manifests.size(), count);
    EXPECT_EQ(result.duplicates, 0u);
  }

  // The shard processes' own thread counts must not leak into the merge.
  auto threaded = options;
  threaded.jobs = 3;
  const auto result =
      batch::merge_shard_reports(shard_documents(family, 4, threaded));
  EXPECT_EQ(result.report.to_json(), single);
}

TEST(Merge, DeduplicatesIdenticalRowsAndRefusesConflicts) {
  const auto family = batch::exhaustive_family({});
  const auto options = default_options();
  auto docs = shard_documents(family, 2, options);

  // Copy one row of shard 1 into shard 0 verbatim (and teach shard 0's
  // manifest about it): a benign cross-shard duplicate.
  json::Value row = docs[1].find("problems")->as_array().front();
  const std::string name = row.find("name")->as_string();
  const std::string key = row.find("key")->as_string();
  auto with_row = [&](json::Value doc, json::Value extra) {
    doc.object()["problems"].array().push_back(std::move(extra));
    doc.object()["shard"].object()["members"].array().push_back(
        json::Value(name));
    return doc;
  };
  const auto merged = batch::merge_shard_reports(
      {with_row(docs[0], row), docs[1]});
  EXPECT_EQ(merged.duplicates, 1u);
  EXPECT_EQ(merged.report.to_json(),
            batch::run_survey(family, options).to_json());

  // The same row with a flipped verdict is a class conflict: refused, and
  // the message names the row key and both classes.
  json::Value flipped = row;
  const std::string original_class = flipped.find("class")->as_string();
  flipped.object()["class"] = json::Value(std::string("Theta(log n)"));
  try {
    batch::merge_shard_reports({with_row(docs[0], flipped), docs[1]});
    FAIL() << "conflicting shard row did not refuse the merge";
  } catch (const MergeConflictError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(key), std::string::npos) << message;
    EXPECT_NE(message.find("Theta(log n)"), std::string::npos) << message;
    EXPECT_NE(message.find(original_class), std::string::npos) << message;
  }
}

TEST(Merge, RefusesIncompleteOrInconsistentShardSets) {
  const auto family = batch::exhaustive_family({});
  const auto options = default_options();
  const auto docs = shard_documents(family, 2, options);

  // Missing shard.
  EXPECT_THROW(batch::merge_shard_reports({docs[0]}), MergeConflictError);
  // Duplicate shard index.
  EXPECT_THROW(batch::merge_shard_reports({docs[0], docs[0]}),
               MergeConflictError);
  // Verdict-relevant option echo mismatch.
  auto tampered = docs;
  tampered[1].object()["survey"].object()["engine_max_steps"] =
      json::Value(static_cast<std::int64_t>(99));
  EXPECT_THROW(batch::merge_shard_reports(tampered), MergeConflictError);
  // A shard report that lost a row its manifest still claims.
  auto truncated = docs;
  truncated[0].object()["problems"].array().pop_back();
  EXPECT_THROW(batch::merge_shard_reports(truncated), MergeConflictError);
  // Not a survey document at all -> parse error, not a conflict.
  EXPECT_THROW(batch::merge_shard_reports({json::Value(std::string("x"))}),
               std::runtime_error);
  EXPECT_THROW(batch::merge_shard_reports({}), std::runtime_error);
}

#ifdef LCL_BATCH_GOLDEN_DIR
TEST(Merge, Delta3GoldenSliceMatchesTheShardedPath) {
  // The first committed Delta=3 slice: classifiers off (every degree-2
  // member of the interior-constrained d3 family is trivially 0-round on
  // cycles/paths, so the landscape content is the engine verdicts), merged
  // from shards exactly like the nightly atlas leg produces it.
  const std::string golden_path =
      std::string(LCL_BATCH_GOLDEN_DIR) + "/survey-d3-l2.json";
  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path;

  batch::ExhaustiveFamilyOptions exhaustive;
  exhaustive.max_degree = 3;
  const auto family = batch::exhaustive_family(exhaustive);
  auto options = default_options();
  options.classify_cycles = false;
  options.classify_paths = false;
  options.jobs = 4;
  const auto result =
      batch::merge_shard_reports(shard_documents(family, 4, options));
  EXPECT_EQ(result.report.to_json() + "\n", golden)
      << "the Delta=3 landscape drifted; if intentional, regenerate with\n"
         "  lcl_batch --delta=3 --labels=2 --classify=off "
         "--report-telemetry=off --shard=i/4 ... and lcl_survey_merge\n"
         "(see EXPERIMENTS.md, ATLAS recipe)";
}
#endif

// ---------------------------------------------------------------------------
// The CLI loop: lcl_batch --shard -> lcl_survey_merge -> survey_diff.

class ShardCliTest : public ::testing::Test {
 protected:
  /// Per-test scratch directory: ctest runs the CLI tests as parallel
  /// processes, so they must not share (or wipe) one directory.
  std::string dir() const {
    return ::testing::TempDir() + "lcl_shard_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  void SetUp() override {
    std::filesystem::remove_all(dir());
    std::filesystem::create_directories(dir());
  }

  static int run(const std::string& command) {
    const int status = std::system((command + " >/dev/null 2>&1").c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WEXITSTATUS(status);
  }

  static std::string batch_cli() { return LCL_BATCH_CLI_PATH; }
  static std::string merge_cli() { return LCL_SURVEY_MERGE_PATH; }
  static std::string diff_cli() { return LCL_SURVEY_DIFF_PATH; }

  /// `lcl_batch` args common to every run here: the default d2 l2 family
  /// with byte-reproducible reports.
  static std::string base_args() {
    return " --delta=2 --labels=2 --report-telemetry=off --quiet";
  }
};

TEST_F(ShardCliTest, FourShardMergeIsByteIdenticalAndDiffClean) {
  const std::string single = dir() + "/single.json";
  ASSERT_EQ(run(batch_cli() + base_args() + " --jobs=2 --report-json=" +
                single),
            0);
  std::string shard_list;
  for (int i = 0; i < 4; ++i) {
    const std::string report =
        dir() + "/shard-" + std::to_string(i) + ".json";
    ASSERT_EQ(run(batch_cli() + base_args() + " --shard=" +
                  std::to_string(i) + "/4 --manifest=" + dir() + "/manifest-" +
                  std::to_string(i) + ".json --report-json=" + report),
              0);
    shard_list += " " + report;
  }
  const std::string merged = dir() + "/merged.json";
  ASSERT_EQ(run(merge_cli() + " --out=" + merged + " --manifest-out=" +
                dir() + "/merged-manifest.json" + shard_list),
            0);
  EXPECT_EQ(read_file(merged), read_file(single));

  // The standalone manifest file round-trips through the library parser.
  const auto manifest = ShardManifest::from_json_value(
      parse_or_die(read_file(dir() + "/manifest-2.json")));
  EXPECT_EQ(manifest.shard_index, 2u);
  EXPECT_EQ(manifest.shard_count, 4u);
  EXPECT_EQ(manifest.members_total, 49u);

  EXPECT_EQ(run(diff_cli() + " --baseline=" + single + " --current=" +
                merged),
            0);
  EXPECT_EQ(run(diff_cli() + " --strict --baseline=" + single +
                " --current=" + merged),
            0);
  // A dropped shard refuses with exit 1 (conflict), not 2 (usage).
  EXPECT_EQ(run(merge_cli() + " --out=/dev/null " + dir() +
                "/shard-0.json " + dir() + "/shard-1.json"),
            1);
}

TEST_F(ShardCliTest, SignedOrPaddedNumbersAreUsageErrors) {
  // Numeric options take digits only: a sign or a blank is a usage error
  // (exit 2), not a wrapped-around or trimmed value.
  for (const std::string arg :
       {"--max-steps=-1", "--max-steps=' 2'", "--max-problems=+3"}) {
    EXPECT_EQ(run(batch_cli() + base_args() + " --jobs=1 --max-problems=3 " +
                  arg),
              2)
        << arg;
  }
  EXPECT_EQ(run(batch_cli() + base_args() + " --jobs=1 --max-problems=3"), 0);
}

TEST_F(ShardCliTest, SurveyDiffGatesVerdictFlipsButAllowsGrowth) {
  const std::string single = dir() + "/diff-base.json";
  ASSERT_EQ(run(batch_cli() + base_args() + " --report-json=" + single), 0);

  // Flip the first "unsolvable" verdict: exit 1 with or without growth.
  std::string flipped = read_file(single);
  const auto at = flipped.find("\"class\":\"unsolvable\"");
  ASSERT_NE(at, std::string::npos);
  flipped.replace(at, std::string("\"class\":\"unsolvable\"").size(),
                  "\"class\":\"O(1)\"");
  write_file(dir() + "/diff-flipped.json", flipped);
  EXPECT_EQ(run(diff_cli() + " --baseline=" + single + " --current=" +
                dir() + "/diff-flipped.json"),
            1);
  EXPECT_EQ(run(diff_cli() + " --baseline=" + single + " --current=" +
                dir() + "/diff-flipped.json --allow-growth"),
            1);
  EXPECT_EQ(run(diff_cli() + " --strict --baseline=" + single +
                " --current=" + dir() + "/diff-flipped.json"),
            1);

  // A capped run is the "smaller atlas": growing back to the full family
  // fails plain but passes --allow-growth.
  const std::string capped = dir() + "/diff-capped.json";
  ASSERT_EQ(run(batch_cli() + base_args() + " --max-problems=30" +
                " --report-json=" + capped),
            0);
  EXPECT_EQ(run(diff_cli() + " --baseline=" + capped + " --current=" +
                single),
            1);
  EXPECT_EQ(run(diff_cli() + " --baseline=" + capped + " --current=" +
                single + " --allow-growth"),
            0);
  // Shrinking is never growth.
  EXPECT_EQ(run(diff_cli() + " --baseline=" + single + " --current=" +
                capped + " --allow-growth"),
            1);
  // Missing file -> usage/parse exit.
  EXPECT_EQ(run(diff_cli() + " --baseline=" + single +
                " --current=" + dir() + "/nope.json"),
            2);
}

TEST_F(ShardCliTest, ShardSurvivesKillDashNineAndResumes) {
  const std::string cache = dir() + "/kill-cache";
  const std::string single = dir() + "/kill-single.json";
  ASSERT_EQ(run(batch_cli() + base_args() + " --report-json=" + single), 0);

  std::string shard_list;
  for (int i = 0; i < 4; ++i) {
    const std::string report =
        dir() + "/kill-shard-" + std::to_string(i) + ".json";
    const std::string shard_args = base_args() + " --shard=" +
                                   std::to_string(i) + "/4 --cache-dir=" +
                                   cache + " --report-json=" + report;
    if (i == 2) {
      // SIGKILL shard 2 almost immediately; whether it got anything onto
      // disk (including a torn trailing line) must not matter.
      run("timeout -s KILL 0.05s " + batch_cli() + shard_args);
      ASSERT_EQ(run(batch_cli() + shard_args + " --resume"), 0);
    } else {
      ASSERT_EQ(run(batch_cli() + shard_args), 0);
    }
    shard_list += " " + report;
  }
  const std::string merged = dir() + "/kill-merged.json";
  ASSERT_EQ(run(merge_cli() + " --out=" + merged + shard_list), 0);
  EXPECT_EQ(read_file(merged), read_file(single));
}

TEST_F(ShardCliTest, ResumeReportsForeignEngineTiers) {
  const std::string cache = dir() + "/sha-cache";
  std::filesystem::create_directories(cache);
  // A tier left behind by a different engine build: provenance meta line
  // with a foreign SHA.
  write_file(cache + "/cache-shard-0-of-2.jsonl",
             "{\"git_sha\":\"feedface\",\"meta\":\"lclscape.cachetier.v1\"}"
             "\n");
  const std::string args = base_args() + " --shard=0/2 --cache-dir=" +
                           cache + " --report-json=/dev/null";
  // Default: warn and proceed.
  EXPECT_EQ(run(batch_cli() + args + " --resume"), 0);
  // Strict: refuse. (The tier still carries the foreign meta line - resume
  // never rewrites it.)
  EXPECT_EQ(run(batch_cli() + args + " --resume=strict"), 2);
  // A fresh (non-resume) run truncates the tier and stamps the current
  // SHA, after which strict resume is clean.
  EXPECT_EQ(run(batch_cli() + args), 0);
  EXPECT_EQ(run(batch_cli() + args + " --resume=strict"), 0);
}

}  // namespace
}  // namespace lcl
