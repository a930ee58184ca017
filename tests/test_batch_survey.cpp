#include "batch/survey.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/cache.hpp"
#include "classify/path_classifier.hpp"
#include "core/problems.hpp"
#include "lint/canonical.hpp"
#include "lint/spec.hpp"
#include "lint/spec_io.hpp"
#include "obs/exporter.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "re/engine.hpp"

namespace lcl {
namespace {

using batch::Cache;
using batch::Family;
using batch::FamilyMember;
using batch::SurveyOptions;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The options `tools/lcl_batch` runs with by default - also the options
/// the committed golden report was produced under.
SurveyOptions default_options() {
  SurveyOptions options;
  options.engine.max_steps = 3;
  return options;
}

TEST(ExhaustiveFamily, EnumeratesTheDelta2TwoLabelSlice) {
  const auto family = batch::exhaustive_family({});
  // 3 degree-2 node configs and 3 edge configs over 2 labels: (2^3 - 1)^2
  // non-empty subset pairs.
  EXPECT_EQ(family.members.size(), 49u);
  EXPECT_EQ(family.description, "exhaustive:d2:l2");
  // Canonical enumeration order: the first member is node mask 1, edge
  // mask 1; names encode the masks.
  EXPECT_EQ(family.members.front().name, "d2l2-n1-e1");
  EXPECT_EQ(family.members.back().name, "d2l2-n7-e7");
  // Every member builds with unconstrained low degrees: degree-1 nodes
  // (path endpoints) always have all 2 configurations.
  for (const auto& member : family.members) {
    EXPECT_EQ(member.problem.node_configs(1).size(), 2u) << member.name;
  }
}

TEST(ExhaustiveFamily, CapAndValidation) {
  batch::ExhaustiveFamilyOptions options;
  options.max_problems = 5;
  const auto capped = batch::exhaustive_family(options);
  EXPECT_EQ(capped.members.size(), 5u);
  // The capped prefix is the same as the full enumeration's prefix.
  const auto full = batch::exhaustive_family({});
  for (std::size_t i = 0; i < capped.members.size(); ++i) {
    EXPECT_EQ(capped.members[i].name, full.members[i].name);
  }
  batch::ExhaustiveFamilyOptions bad;
  bad.max_degree = 1;
  EXPECT_THROW(batch::exhaustive_family(bad), std::invalid_argument);
  bad = {};
  bad.labels = 9;  // C(10, 2) = 45 degree-2 configs: subset space too large
  EXPECT_THROW(batch::exhaustive_family(bad), std::invalid_argument);
}

TEST(SpecDirFamily, LoadsSortedAndValidates) {
  const std::string dir = testing::TempDir() + "lcl_batch_specs";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  lint::save_spec(dir + "/b-matching.json",
                  lint::spec_from_problem(problems::maximal_matching(3)));
  lint::save_spec(dir + "/a-coloring.json",
                  lint::spec_from_problem(problems::two_coloring(2)));
  const auto family = batch::spec_dir_family(dir);
  ASSERT_EQ(family.members.size(), 2u);
  EXPECT_EQ(family.members[0].name, "a-coloring");
  EXPECT_EQ(family.members[1].name, "b-matching");

  EXPECT_THROW(batch::spec_dir_family(dir + "/nope"), std::runtime_error);
}

TEST(Survey, AgreesWithTheUncachedSpeedupEngine) {
  Family family;
  family.description = "engine-parity";
  family.members.push_back(FamilyMember{"trivial", problems::trivial(2)});
  family.members.push_back(FamilyMember{"mm3", problems::maximal_matching(3)});
  family.members.push_back(FamilyMember{"2col", problems::two_coloring(2)});
  // Delta=2 l=3 members whose notes name an iterate of the member:
  // n14-e17 and n19-e12 are one canonical class, and n19-e44 walks through
  // iterates n19-e12 stores first. A cached note that kept the name of
  // whichever member computed it would show here.
  batch::ExhaustiveFamilyOptions d2l3;
  d2l3.labels = 3;
  for (auto& member : batch::exhaustive_family(d2l3).members) {
    if (member.name == "d2l3-n14-e17" || member.name == "d2l3-n19-e12" ||
        member.name == "d2l3-n19-e44") {
      family.members.push_back(std::move(member));
    }
  }
  ASSERT_EQ(family.members.size(), 6u);

  // The classifiers run the member's engine first, two steps deep under
  // the default limits. The default certificate walks those levels and
  // takes a third; a one-step certificate stops inside them; one under
  // other limits starts over.
  std::vector<SpeedupEngine::Options> engines(3, default_options().engine);
  engines[1].max_steps = 1;
  engines[2].limits.max_labels = 7;
  for (const auto& engine_options : engines) {
    auto options = default_options();
    options.engine = engine_options;
    std::map<std::string, SpeedupEngine::Outcome> expected;
    for (const auto& member : family.members) {
      SpeedupEngine engine(member.problem);
      expected.emplace(member.name, engine.run(options.engine));
    }

    for (const std::string key_mode : {"none", "raw", "canonical"}) {
      for (const std::size_t jobs : {1u, 4u}) {
        SCOPED_TRACE(key_mode + " cache, jobs=" + std::to_string(jobs) +
                     ", max_steps=" + std::to_string(engine_options.max_steps) +
                     ", max_labels=" +
                     std::to_string(engine_options.limits.max_labels));
        std::optional<Cache> cache;
        if (key_mode != "none") {
          Cache::Options cache_options;
          cache_options.canonical_tier = key_mode == "canonical";
          cache.emplace(std::move(cache_options));
        }
        options.cache = cache ? &*cache : nullptr;
        options.jobs = jobs;
        const auto report = batch::run_survey(family, options);
        ASSERT_EQ(report.outcomes.size(), family.members.size());
        for (const auto& outcome : report.outcomes) {
          EXPECT_TRUE(outcome.error.empty())
              << outcome.name << ": " << outcome.error;
          const auto it = expected.find(outcome.name);
          ASSERT_NE(it, expected.end()) << outcome.name;
          const auto& want = it->second;
          EXPECT_EQ(outcome.zero_round_step, want.zero_round_step)
              << outcome.name;
          EXPECT_EQ(outcome.steps_applied,
                    static_cast<int>(want.steps.size()))
              << outcome.name;
          EXPECT_EQ(outcome.fixed_point, want.fixed_point) << outcome.name;
          EXPECT_EQ(outcome.budget_exhausted, want.budget_exhausted)
              << outcome.name;
          EXPECT_EQ(outcome.detected_unsolvable, want.detected_unsolvable)
              << outcome.name;
          EXPECT_EQ(outcome.preflight_dead_labels, want.preflight_dead_labels)
              << outcome.name;
          EXPECT_EQ(outcome.note, want.blowup_message) << outcome.name;
        }
      }
    }
  }
}

TEST(Survey, ReportIsByteIdenticalAcrossThreadCounts) {
  const auto family = batch::exhaustive_family({});
  auto options = default_options();

  options.jobs = 1;
  const std::string sequential = batch::run_survey(family, options).to_json();
  options.jobs = 4;
  const std::string four = batch::run_survey(family, options).to_json();
  options.jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::string all_cores = batch::run_survey(family, options).to_json();

  EXPECT_EQ(sequential, four);
  EXPECT_EQ(sequential, all_cores);
}

TEST(Survey, WarmCacheReproducesTheColdReportByteForByte) {
  const std::string path = testing::TempDir() + "lcl_batch_survey_warm.jsonl";
  std::remove(path.c_str());
  const auto family = batch::exhaustive_family({});
  auto options = default_options();
  options.jobs = 4;

  std::string cold;
  {
    Cache::Options cache_options;
    cache_options.disk_path = path;
    cache_options.load_existing = false;
    Cache cache(std::move(cache_options));
    options.cache = &cache;
    cold = batch::run_survey(family, options).to_json();
    EXPECT_GT(cache.stats().insertions, 0u);
  }
  {
    // A fresh process resuming from the disk tier: every verdict-level
    // computation must be served from the cache.
    Cache::Options cache_options;
    cache_options.disk_path = path;
    cache_options.load_existing = true;
    Cache cache(std::move(cache_options));
    EXPECT_GT(cache.stats().disk_loaded, 0u);
    options.cache = &cache;
    const std::string warm = batch::run_survey(family, options).to_json();
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_GT(cache.stats().hits, 0u);
  }
  // And equal to the uncached report: the cache changes cost, never content.
  options.cache = nullptr;
  EXPECT_EQ(cold, batch::run_survey(family, options).to_json());
}

TEST(Survey, ResumeAfterPartialRunReusesTheDiskTier) {
  const std::string path = testing::TempDir() + "lcl_batch_survey_resume.jsonl";
  std::remove(path.c_str());
  auto family = batch::exhaustive_family({});
  auto options = default_options();

  // "Killed" survey: only the first 10 members completed before the
  // process died (simulated by surveying a prefix).
  Family prefix;
  prefix.description = family.description;
  prefix.members.assign(family.members.begin(), family.members.begin() + 10);
  {
    Cache::Options cache_options;
    cache_options.disk_path = path;
    cache_options.load_existing = false;
    Cache cache(std::move(cache_options));
    options.cache = &cache;
    (void)batch::run_survey(prefix, options);
  }
  // The rerun over the full family resumes from the disk tier: the prefix's
  // work is all hits.
  Cache::Options cache_options;
  cache_options.disk_path = path;
  cache_options.load_existing = true;
  Cache cache(std::move(cache_options));
  options.cache = &cache;
  const auto resumed = batch::run_survey(family, options);
  EXPECT_EQ(resumed.problems, family.members.size());
  EXPECT_GT(cache.stats().hits, 0u);

  options.cache = nullptr;
  EXPECT_EQ(resumed.to_json(), batch::run_survey(family, options).to_json());
}

TEST(Survey, StepBudgetBlowUpFailsOnlyThatRow) {
  Family family;
  family.description = "budget-isolation";
  // On a 13-node all-0 path the brute-force reference settles trivial(2)
  // in 24 steps, while perfect matching (unsolvable on an odd path) needs
  // 47 to exhaust the search - a budget of 30 lets one finish and blows
  // the other up.
  family.members.push_back(FamilyMember{"cheap", problems::trivial(2)});
  family.members.push_back(
      FamilyMember{"pricey", problems::perfect_matching(2)});

  auto options = default_options();
  options.jobs = 2;
  options.check_nodes = 13;
  options.check_budget = 30;
  const auto report = batch::run_survey(family, options);
  ASSERT_EQ(report.outcomes.size(), 2u);

  const auto* cheap = &report.outcomes[0];
  const auto* pricey = &report.outcomes[1];
  if (cheap->name != "cheap") std::swap(cheap, pricey);
  ASSERT_EQ(cheap->name, "cheap");
  ASSERT_EQ(pricey->name, "pricey");

  // The blown-up member is an error row carrying its budget...
  EXPECT_FALSE(pricey->error.empty());
  EXPECT_EQ(pricey->error_budget, 30u);
  EXPECT_EQ(pricey->landscape_class, "error");
  // ...and the other member's row is untouched by its neighbor's failure.
  EXPECT_TRUE(cheap->error.empty()) << cheap->error;
  EXPECT_EQ(cheap->check, "solvable");
  EXPECT_EQ(report.errors, 1u);
}

// ---------------------------------------------------------------------------
// The canonical key tier (`lcl_batch --cache-key=canonical`).

/// A permuted copy of `problem`: identical constraints up to the output
/// relabeling `sigma` (old -> new).
NodeEdgeCheckableLcl permuted_copy(const NodeEdgeCheckableLcl& problem,
                                   const std::vector<Label>& sigma) {
  return lint::build_spec(
      lint::permute_spec(lint::spec_from_problem(problem), sigma));
}

TEST(Survey, PermutationEquivalentMembersResolveAsCanonicalHits) {
  // Three permutation-equivalent members: with the canonical tier on, the
  // engine runs once and the other two members are confirmed
  // canonical-key hits replayed through the permutation evidence.
  const auto base = problems::maximal_matching(2);
  Family family;
  family.description = "canonical-dedup";
  family.members.push_back(FamilyMember{"mm-a", base});
  family.members.push_back(FamilyMember{"mm-b", permuted_copy(base, {2, 0, 1})});
  family.members.push_back(FamilyMember{"mm-c", permuted_copy(base, {1, 2, 0})});
  auto options = default_options();

  // Baseline: surveying just the first member fills the cache with
  // everything one equivalence class costs.
  std::uint64_t solo_insertions = 0;
  {
    Family solo;
    solo.description = family.description;
    solo.members.push_back(family.members.front());
    Cache::Options cache_options;
    cache_options.canonical_tier = true;
    Cache cache(std::move(cache_options));
    options.cache = &cache;
    (void)batch::run_survey(solo, options);
    solo_insertions = cache.stats().insertions;
    ASSERT_GT(solo_insertions, 0u);
  }

  Cache::Options cache_options;
  cache_options.canonical_tier = true;
  Cache cache(std::move(cache_options));
  options.cache = &cache;
  const auto report = batch::run_survey(family, options);

  // One equivalence class; the permuted members added NO new cache
  // entries - every verdict-level computation ran exactly once.
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_EQ(report.canonical_classes, 1u);
  EXPECT_EQ(cache.stats().insertions, solo_insertions);
  // N-1 = 2 members served through the canonical tier, one member entry
  // each.
  EXPECT_EQ(cache.stats().canonical_hits, 2u);

  for (const auto& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.error.empty()) << outcome.name;
    EXPECT_EQ(outcome.canonical_key, report.outcomes.front().canonical_key);
    EXPECT_EQ(outcome.zero_round_step,
              report.outcomes.front().zero_round_step);
    EXPECT_EQ(outcome.landscape_class,
              report.outcomes.front().landscape_class);
  }

  // Replayed verdicts are exactly the computed ones: the cached report is
  // byte-identical to an uncached run.
  options.cache = nullptr;
  EXPECT_EQ(report.to_json(), batch::run_survey(family, options).to_json());
}

TEST(Survey, CanonicalReportIsDeterministicAcrossJobsAndCacheStates) {
  const std::string path =
      testing::TempDir() + "lcl_batch_survey_canon.jsonl";
  std::remove(path.c_str());
  const auto family = batch::exhaustive_family({});
  auto options = default_options();

  // Reference: no cache, sequential.
  options.jobs = 1;
  const auto reference = batch::run_survey(family, options);
  const std::string raw = reference.to_json();
  // The Delta=2 l=2 family collapses into its label-permutation classes;
  // pinning the count fences the canonical_key column.
  EXPECT_EQ(reference.problems, 49u);
  EXPECT_EQ(reference.canonical_classes, 29u);

  // Cold canonical-tier cache, parallel.
  options.jobs = 4;
  {
    Cache::Options cache_options;
    cache_options.disk_path = path;
    cache_options.load_existing = false;
    cache_options.canonical_tier = true;
    Cache cache(std::move(cache_options));
    options.cache = &cache;
    EXPECT_EQ(batch::run_survey(family, options).to_json(), raw);
    EXPECT_GT(cache.stats().canonical_hits, 0u);
  }
  // Warm canonical-tier cache resumed from disk.
  {
    Cache::Options cache_options;
    cache_options.disk_path = path;
    cache_options.load_existing = true;
    cache_options.canonical_tier = true;
    Cache cache(std::move(cache_options));
    EXPECT_GT(cache.stats().disk_loaded, 0u);
    options.cache = &cache;
    EXPECT_EQ(batch::run_survey(family, options).to_json(), raw);
    // The cold run stored every lookup the warm one makes.
    EXPECT_EQ(cache.stats().misses, 0u);
  }
}

TEST(Survey, OneCacheEntryPerMember) {
  // Delta=2 l=2 has 49 members in 29 label-permutation classes. A member's
  // columns are one entry, so a cold canonical survey replays 20 of them
  // through the canonical tier, and a warm rerun looks up nothing else.
  const auto family = batch::exhaustive_family({});
  auto options = default_options();
  Cache::Options cache_options;
  cache_options.canonical_tier = true;
  Cache cache(std::move(cache_options));
  options.cache = &cache;
  const std::string cold = batch::run_survey(family, options).to_json();
  EXPECT_EQ(cache.stats().canonical_hits, 20u);

  const auto before = cache.stats();
  EXPECT_EQ(batch::run_survey(family, options).to_json(), cold);
  const auto after = cache.stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits + after.canonical_hits -
                (before.hits + before.canonical_hits),
            49u);
  EXPECT_EQ(after.insertions, before.insertions);
}

TEST(Survey, ASharedCacheServesEachOptionSetItsOwnColumns) {
  // The member entry's kind names every option its columns read, so
  // surveys under different options that share one cache each get the
  // columns their own options give.
  const auto family = batch::exhaustive_family({});
  std::vector<SurveyOptions> variants(8, default_options());
  variants[1].classify_cycles = false;
  variants[2].classify_paths = false;
  variants[3].classify_cycles = variants[3].classify_paths = false;
  variants[4].engine.max_steps = 1;
  variants[5].engine.limits.max_labels = 7;
  variants[6].engine.reduce = false;
  variants[7].engine.degrees = {2};
  Cache::Options cache_options;
  cache_options.canonical_tier = true;
  Cache cache(std::move(cache_options));
  for (std::size_t i = 0; i < variants.size(); ++i) {
    SCOPED_TRACE(i);
    auto options = variants[i];
    const std::string want = batch::run_survey(family, options).to_json();
    options.cache = &cache;
    EXPECT_EQ(batch::run_survey(family, options).to_json(), want);
  }
  // Each option set stored its own entries.
  EXPECT_EQ(cache.stats().canonical_hits, 20u * variants.size());
}

/// The members of the exhaustive families named `names`, in that order.
Family members_named(const std::vector<std::string>& names) {
  const auto d2l2 = batch::exhaustive_family({});
  const auto d2l3 = batch::exhaustive_family({2, 3});
  Family family;
  family.description = "picked";
  for (const auto& name : names) {
    for (const auto* source : {&d2l2, &d2l3}) {
      for (const auto& member : source->members) {
        if (member.name == name) family.members.push_back(member);
      }
    }
  }
  return family;
}

/// `problem` with its output labels renamed `q0, q1, ...`: the same
/// constraints under other label names.
NodeEdgeCheckableLcl with_other_label_names(
    const NodeEdgeCheckableLcl& problem) {
  auto spec = lint::spec_from_problem(problem);
  for (std::size_t l = 0; l < spec.outputs.size(); ++l) {
    spec.outputs[l] = std::to_string(l).insert(0, 1, 'q');
  }
  return lint::build_spec(spec);
}

TEST(Survey, BudgetBoundCheckIsIndependentOfTheCache) {
  // Two members of one canonical class. Whether the brute-force search
  // finishes within its budget depends on the label order: on the 12-node
  // path with a budget of 40 the first finishes and the second exhausts
  // it. Neither may replay the other's verdict.
  const Family family = members_named({"d2l3-n13-e56", "d2l3-n44-e11"});
  ASSERT_EQ(family.members.size(), 2u);
  auto options = default_options();
  options.check_nodes = 12;
  options.check_budget = 40;
  const auto uncached = batch::run_survey(family, options);
  ASSERT_EQ(uncached.outcomes.size(), 2u);
  EXPECT_EQ(uncached.outcomes[0].canonical_key,
            uncached.outcomes[1].canonical_key);
  EXPECT_EQ(uncached.errors, 1u);
  const std::string want = uncached.to_json();

  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    Cache::Options cache_options;
    cache_options.canonical_tier = true;
    Cache cache(std::move(cache_options));
    options.cache = &cache;
    options.jobs = jobs;
    EXPECT_EQ(batch::run_survey(family, options).to_json(), want);
    // Warm: the cold run's entries are all there.
    EXPECT_EQ(batch::run_survey(family, options).to_json(), want);
  }
}

TEST(SurveyStepTier, TierBytesDoNotDependOnWhichMemberStoredThem) {
  // One problem under two sets of names. Whichever member a survey reaches
  // first stores the entries; the disk tiers hold the same records.
  const Family one = members_named({"d2l3-n19-e12"});
  ASSERT_EQ(one.members.size(), 1u);
  const FamilyMember renamed{
      "renamed",
      with_other_label_names(one.members[0].problem).renamed("renamed")};
  const auto tier_of = [](const Family& family, const std::string& path) {
    std::remove(path.c_str());
    {
      Cache::Options cache_options;
      cache_options.disk_path = path;
      cache_options.load_existing = false;
      Cache cache(std::move(cache_options));
      auto options = default_options();
      options.cache = &cache;
      (void)batch::run_survey(family, options);
    }
    return read_file(path);
  };
  Family forward = one, backward;
  forward.members.push_back(renamed);
  backward.members = {renamed, one.members[0]};
  const std::string a =
      tier_of(forward, testing::TempDir() + "lcl_batch_tier_forward.jsonl");
  const std::string b =
      tier_of(backward, testing::TempDir() + "lcl_batch_tier_backward.jsonl");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(SurveyStepTier, AMemberRecordMissingAColumnIsRecomputed) {
  // The second member's note names an iterate of the member. A refused
  // record gives the row no column: its `cycle` and `path` are edited too,
  // which with the classifiers off nothing computed overwrites.
  const Family family = members_named({"d2l2-n2-e2", "d2l3-n19-e12"});
  ASSERT_EQ(family.members.size(), 2u);
  for (const bool classify : {true, false}) {
    SCOPED_TRACE(classify ? "classifiers on" : "classifiers off");
    auto options = default_options();
    options.classify_cycles = options.classify_paths = classify;
    const std::string want = batch::run_survey(family, options).to_json();

    const std::string path =
        testing::TempDir() + "lcl_batch_member_tier.jsonl";
    std::remove(path.c_str());
    {
      Cache::Options cache_options;
      cache_options.disk_path = path;
      cache_options.load_existing = false;
      Cache cache(std::move(cache_options));
      options.cache = &cache;
      (void)batch::run_survey(family, options);
    }
    std::vector<obs::json::Value> records;
    std::vector<std::string> columns;
    std::istringstream lines(read_file(path));
    for (std::string line; std::getline(lines, line);) {
      const auto record = obs::json::parse(line, nullptr);
      ASSERT_NE(record, nullptr) << line;
      records.push_back(*record);
      if (record->find("kind")->as_string().rfind("member:", 0) != 0) {
        continue;
      }
      columns.clear();
      for (const auto& [column, value] : record->find("value")->as_object()) {
        columns.push_back(column);
      }
    }
    // Every verdict column but `check`, under the row's own names.
    ASSERT_EQ(columns, (std::vector<std::string>{
                           "budget_exhausted", "cycle", "detected_unsolvable",
                           "fixed_point", "note", "path",
                           "preflight_dead_labels", "steps_applied",
                           "zero_round_step"}));

    for (const auto& column : columns) {
      SCOPED_TRACE(column);
      {
        std::ofstream out(path, std::ios::trunc);
        for (auto record : records) {
          if (record.find("kind")->as_string().rfind("member:", 0) == 0) {
            auto& value = record.object()["value"].object();
            value["cycle"] = value["path"] =
                obs::json::Value(std::string("edited"));
            value.erase(column);
          }
          out << obs::json::dump(record) << '\n';
        }
      }
      Cache::Options cache_options;
      cache_options.disk_path = path;
      cache_options.load_existing = true;
      Cache cache(std::move(cache_options));
      EXPECT_EQ(cache.stats().disk_skipped, 0u);
      options.cache = &cache;
      EXPECT_EQ(batch::run_survey(family, options).to_json(), want);
    }
  }
}

TEST(SurveyStepTier, ServedIterateLabelNamesReachNoRowColumn) {
  // A "step:" entry keeps the iterate under the label names of the member
  // that computed it first (or, loaded from disk, names its labels by
  // index), so a served iterate may carry other label names. Seed every
  // step of each member's sequence under names no member uses, and every
  // row column must still equal the uncached one.
  // The d2l3 members end in notes that name an iterate.
  const Family family =
      members_named({"d2l2-n2-e2", "d2l3-n19-e12", "d2l3-n34-e21"});
  ASSERT_EQ(family.members.size(), 3u);
  auto options = default_options();
  const std::string kind =
      "step:r:l" + std::to_string(options.engine.limits.max_labels) + ":c" +
      std::to_string(options.engine.limits.max_configs);

  Cache cache;
  std::uint64_t seeded = 0;
  for (const auto& member : family.members) {
    SpeedupEngine engine(member.problem);
    const auto outcome = engine.run(options.engine);
    for (std::size_t i = 0; i < outcome.steps.size(); ++i) {
      const NodeEdgeCheckableLcl& current =
          i == 0 ? engine.effective_base() : engine.problem_at(i);
      obs::json::Value value = obs::json::Value::make_object();
      value.object()["psi_labels"] = obs::json::Value(
          static_cast<std::int64_t>(outcome.steps[i].labels_psi));
      const auto next = with_other_label_names(engine.problem_at(i + 1));
      cache.insert(kind, current, value, nullptr, &next);
      ++seeded;
    }
  }
  ASSERT_EQ(cache.stats().insertions, seeded);
  ASSERT_GE(seeded, 5u);

  options.cache = &cache;
  const auto served = batch::run_survey(family, options);
  // Every seeded step was served at least once.
  EXPECT_GE(cache.stats().hits, seeded);
  options.cache = nullptr;
  const auto uncached = batch::run_survey(family, options);

  ASSERT_EQ(served.outcomes.size(), uncached.outcomes.size());
  std::size_t notes = 0;
  for (std::size_t i = 0; i < served.outcomes.size(); ++i) {
    const auto& got = served.outcomes[i];
    const auto& want = uncached.outcomes[i];
    SCOPED_TRACE(want.name);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.key, want.key);
    EXPECT_EQ(got.canonical_key, want.canonical_key);
    EXPECT_EQ(got.cycle_class, want.cycle_class);
    EXPECT_EQ(got.path_class, want.path_class);
    EXPECT_EQ(got.zero_round_step, want.zero_round_step);
    EXPECT_EQ(got.steps_applied, want.steps_applied);
    EXPECT_EQ(got.fixed_point, want.fixed_point);
    EXPECT_EQ(got.budget_exhausted, want.budget_exhausted);
    EXPECT_EQ(got.detected_unsolvable, want.detected_unsolvable);
    EXPECT_EQ(got.note, want.note);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.landscape_class, want.landscape_class);
    if (!want.note.empty()) ++notes;
  }
  EXPECT_EQ(notes, 2u);
  // And every other column, byte for byte.
  EXPECT_EQ(served.to_json(), uncached.to_json());
}

#ifdef LCL_BATCH_GOLDEN_DIR
/// The disk tier a jobs=1 survey of `d2l2-n2-e2` writes: "step:" records
/// carry each iterate as the spec JSON in `value["next"]`, every spec names
/// its labels by index, and one "member:" record holds the row's verdict
/// columns.
const char kStepTierGolden[] = "/step-tier-d2l2-n2-e2.jsonl";
/// The same survey's tier in the earlier format: named specs, and the
/// verdicts in three records of kinds "cycle:", "path:" and "engine:".
const char kThreeEntryTierGolden[] =
    "/step-tier-d2l2-n2-e2-three-entries.jsonl";

TEST(SurveyStepTier, DiskRecordsMatchThePinnedTier) {
  const std::string golden =
      read_file(std::string(LCL_BATCH_GOLDEN_DIR) + kStepTierGolden);
  ASSERT_FALSE(golden.empty());
  const std::string path = testing::TempDir() + "lcl_batch_step_tier.jsonl";
  std::remove(path.c_str());
  {
    Cache::Options cache_options;
    cache_options.disk_path = path;
    cache_options.load_existing = false;
    Cache cache(std::move(cache_options));
    auto options = default_options();
    options.cache = &cache;
    (void)batch::run_survey(members_named({"d2l2-n2-e2"}), options);
  }
  const std::string written = read_file(path);
  EXPECT_EQ(written, golden);
  EXPECT_NE(written.find(R"("kind":"step:r:l4096:c4000000")"),
            std::string::npos);
  EXPECT_NE(written.find(R"("kind":"member:forest:s3:l4096:c4000000:r:k2CP")"),
            std::string::npos);
}

TEST(SurveyStepTier, PinnedTierResumesWithoutMisses) {
  const std::string golden =
      read_file(std::string(LCL_BATCH_GOLDEN_DIR) + kStepTierGolden);
  ASSERT_FALSE(golden.empty());
  const std::string path = testing::TempDir() + "lcl_batch_step_resume.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << golden;
  }
  const Family family = members_named({"d2l2-n2-e2"});
  auto options = default_options();
  std::string resumed;
  {
    Cache::Options cache_options;
    cache_options.disk_path = path;
    cache_options.load_existing = true;
    Cache cache(std::move(cache_options));
    EXPECT_EQ(cache.stats().disk_loaded, 8u);
    EXPECT_EQ(cache.stats().disk_skipped, 0u);
    options.cache = &cache;
    resumed = batch::run_survey(family, options).to_json();
    EXPECT_EQ(cache.stats().hits, 1u);  // the member entry alone
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().insertions, 0u);
  }
  EXPECT_EQ(read_file(path), golden);  // nothing appended
  options.cache = nullptr;
  EXPECT_EQ(resumed, batch::run_survey(family, options).to_json());
}

TEST(SurveyStepTier, ThreeEntryTierServesItsStepsAndMissesTheMemberEntry) {
  const std::string golden =
      read_file(std::string(LCL_BATCH_GOLDEN_DIR) + kThreeEntryTierGolden);
  ASSERT_FALSE(golden.empty());
  const std::string path =
      testing::TempDir() + "lcl_batch_three_entry_resume.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << golden;
  }
  const Family family = members_named({"d2l2-n2-e2"});
  auto options = default_options();
  Cache::Options cache_options;
  cache_options.disk_path = path;
  cache_options.load_existing = true;
  Cache cache(std::move(cache_options));
  EXPECT_EQ(cache.stats().disk_loaded, 10u);
  EXPECT_EQ(cache.stats().disk_skipped, 0u);
  options.cache = &cache;
  const std::string resumed = batch::run_survey(family, options).to_json();
  // The member entry is new; the engine it runs takes each of the tier's
  // three "step:" and four "zr:" records from it once.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 7u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  options.cache = nullptr;
  EXPECT_EQ(resumed, batch::run_survey(family, options).to_json());
}

TEST(Survey, MatchesTheCommittedGoldenReport) {
  const std::string golden_path =
      std::string(LCL_BATCH_GOLDEN_DIR) + "/survey-d2-l2.json";
  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path;
  auto options = default_options();
  options.jobs = 4;
  const auto report =
      batch::run_survey(batch::exhaustive_family({}), options);
  EXPECT_EQ(report.to_json() + "\n", golden)
      << "the Delta=2 landscape drifted; if intentional, regenerate with\n"
         "  lcl_batch --family=exhaustive --delta=2 --labels=2 "
         "--report-telemetry=off "
         "--report-json=tests/golden/survey-d2-l2.json";
}
#endif

// ---------------------------------------------------------------------------
// One pre-flight per engine: `SpeedupEngine`'s constructor trims the base
// problem once, and the chain classifiers take their pruned problem and L020
// verdict from the pre-flight of the engine they run. The tests count
// `re/preflight` and `re/step` spans; they live here because this binary
// links every layer involved.

/// The number of spans named `name` that `body` records in a JSONL trace.
std::size_t spans(const std::string& name, const std::function<void()>& body) {
  // One file per test: ctest runs the tests of this binary in parallel.
  const std::string path =
      testing::TempDir() + "lcl_preflight_spans_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".jsonl";
  {
    obs::TraceSession session(path, obs::TraceFormat::kJsonl);
    obs::TraceSession* previous = obs::TraceSession::set_current(&session);
    body();
    obs::TraceSession::set_current(previous);
    session.close();
  }
  obs::ParsedTrace trace;
  std::string error;
  EXPECT_TRUE(obs::parse_trace(read_file(path), &trace, &error)) << error;
  std::size_t count = 0;
  for (const auto& r : trace.records) {
    if (r.kind == obs::TraceRecord::Kind::kSpan && r.name == name) {
      ++count;
    }
  }
  return count;
}

TEST(OnePreflightPerEngine, AnEngineRunTwiceTrimsItsBaseOnce) {
  if (!obs::telemetry_compiled_in()) {
    GTEST_SKIP() << "built with LCL_OBS=0";
  }
  EXPECT_EQ(spans("re/preflight", []() {
              SpeedupEngine engine(problems::two_coloring(2));
              SpeedupEngine::Options options;
              options.max_steps = 2;
              engine.run(options);
              engine.run(options);
            }),
            1u);
}

TEST(OnePreflightPerEngine, CycleClassifierRunsTheEngineItTrimmedWith) {
  if (!obs::telemetry_compiled_in()) {
    GTEST_SKIP() << "built with LCL_OBS=0";
  }
  // 3-coloring is Theta(log* n): the automaton is flexible, so the
  // classifier reaches its engine run.
  CycleClassification verdict;
  EXPECT_EQ(spans("re/preflight", [&]() {
              verdict = classify_on_cycles(problems::coloring(3, 2));
            }),
            1u);
  EXPECT_EQ(verdict.complexity, CycleComplexity::kLogStar);
}

TEST(OnePreflightPerEngine, PathClassifierRunsTheEngineItTrimmedWith) {
  if (!obs::telemetry_compiled_in()) {
    GTEST_SKIP() << "built with LCL_OBS=0";
  }
  PathClassification verdict;
  EXPECT_EQ(spans("re/preflight", [&]() {
              verdict = classify_on_paths(problems::coloring(3, 2));
            }),
            1u);
  EXPECT_EQ(verdict.complexity, CycleComplexity::kLogStar);
}

TEST(OnePreflightPerEngine, ASurveyMemberBuildsOneEngine) {
  if (!obs::telemetry_compiled_in()) {
    GTEST_SKIP() << "built with LCL_OBS=0";
  }
  const Family family = members_named({"d2l2-n2-e2"});
  ASSERT_EQ(family.members.size(), 1u);
  batch::SurveyReport report;
  const auto survey = [&]() {
    report = batch::run_survey(family, default_options());
  };
  // The classifiers and the certificate run one engine: it trims the
  // member once, and the certificate's third step is the only one the
  // classifiers' two did not take.
  EXPECT_EQ(spans("re/preflight", survey), 1u);
  EXPECT_EQ(spans("re/step", survey), 3u);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].cycle_class, "Theta(log* n)");
  EXPECT_EQ(report.outcomes[0].steps_applied, 3);
}

}  // namespace
}  // namespace lcl
