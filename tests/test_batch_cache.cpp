#include "batch/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <future>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "batch/pool.hpp"
#include "core/lcl.hpp"
#include "core/problems.hpp"
#include "fuzz/generator.hpp"
#include "lint/canonical.hpp"
#include "lint/spec.hpp"
#include "lint/spec_io.hpp"
#include "obs/json.hpp"
#include "util/rng.hpp"

namespace lcl {
namespace {

using batch::Cache;
using batch::constraint_signature;
namespace json = obs::json;

json::Value tag(const std::string& text) {
  json::Value value = json::Value::make_object();
  value.object()["tag"] = json::Value(text);
  return value;
}

std::string tag_of(const json::Value& value) {
  const auto* t = value.find("tag");
  return (t != nullptr && t->is_string()) ? t->as_string() : std::string();
}

/// The `CollidingSignaturesAreNotIsomorphic` pair from test_core_lcl: the
/// same label count, per-degree configuration counts, and edge count, but
/// NOT the same (or even isomorphic) constraints.
NodeEdgeCheckableLcl colliding_a() {
  NodeEdgeCheckableLcl::Builder b("a", Alphabet({"-"}), Alphabet({"x", "y"}),
                                  2);
  b.allow_node({0});
  b.allow_node({0, 0});
  b.allow_edge(0, 0);
  b.allow_output_for_input(0, 0);
  b.allow_output_for_input(0, 1);
  return b.build();
}

NodeEdgeCheckableLcl colliding_b() {
  NodeEdgeCheckableLcl::Builder b("b", Alphabet({"-"}), Alphabet({"x", "y"}),
                                  2);
  b.allow_node({0});
  b.allow_node({0, 1});
  b.allow_edge(0, 1);
  b.allow_output_for_input(0, 0);
  b.allow_output_for_input(0, 1);
  return b.build();
}

TEST(ConstraintSignature, NameInsensitiveContentSensitive) {
  const auto mm = problems::maximal_matching(3);
  // Renaming the problem (what `same_constraints` ignores) keeps the
  // signature; the colliding pair differs in content, and here the real
  // hash also separates them.
  const auto mm2 = problems::maximal_matching(3);
  EXPECT_EQ(constraint_signature(mm), constraint_signature(mm2));
  EXPECT_NE(constraint_signature(colliding_a()),
            constraint_signature(colliding_b()));
  EXPECT_NE(constraint_signature(mm),
            constraint_signature(problems::two_coloring(2)));
}

/// `labels` output labels and two inputs whose `g`-sets are non-trivial in
/// every 64-label word: `p` grants every third label, `q` the upper half.
NodeEdgeCheckableLcl signature_probe(std::size_t labels) {
  std::vector<std::string> names;
  for (std::size_t l = 0; l < labels; ++l) {
    names.push_back(std::to_string(l).insert(0, 1, 's'));
  }
  NodeEdgeCheckableLcl::Builder b("probe", Alphabet({"p", "q"}),
                                  Alphabet(names), /*max_degree=*/1);
  for (Label l = 0; l < labels; ++l) {
    b.allow_node({l});
    b.allow_edge(l, static_cast<Label>((l + 1) % labels));
    if (l % 3 == 0) b.allow_output_for_input(0, l);
    if (2 * l >= labels) b.allow_output_for_input(1, l);
  }
  return b.build();
}

TEST(ConstraintSignature, PinnedAcrossWordSeams) {
  // On-disk cache tiers and `--shard=i/N` assignments are keyed by these
  // values, so they must never move. The sizes bracket the 64- and
  // 128-label word seams and the 512-label switch from folding `g` as raw
  // words to folding it label by label.
  const std::pair<std::size_t, std::uint64_t> pinned[] = {
      {3, 0xb591336c1671d69eULL},   {64, 0xfeda7d63a5a426c2ULL},
      {65, 0x54ab0e6719e15317ULL},  {128, 0x15e5cff8c28cbfb3ULL},
      {129, 0x3037b7300f9dc562ULL}, {512, 0x1175f5bd517fe85dULL},
      {513, 0xf3d2345e352cd045ULL},
  };
  for (const auto& [labels, signature] : pinned) {
    EXPECT_EQ(constraint_signature(signature_probe(labels)), signature)
        << labels << " labels";
  }
}

TEST(BatchCache, StoresAndFindsByContent) {
  Cache cache;
  const auto mm = problems::maximal_matching(3);
  EXPECT_FALSE(cache.find("verdict", mm).has_value());
  cache.insert("verdict", mm, tag("mm"));
  const auto hit = cache.find("verdict", mm);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(tag_of(hit->value), "mm");
  EXPECT_FALSE(hit->next.has_value());
  // Kind is part of the address.
  EXPECT_FALSE(cache.find("other-kind", mm).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(BatchCache, CollidingSignaturesNeverServeTheWrongEntry) {
  // A deliberately weak signature sends both problems to the same bucket;
  // the exact `same_constraints` confirmation must keep them apart.
  Cache::Options options;
  options.signature = [](const NodeEdgeCheckableLcl&) -> std::uint64_t {
    return 42;
  };
  Cache cache(std::move(options));
  const auto a = colliding_a();
  const auto b = colliding_b();
  cache.insert("verdict", a, tag("for-a"));

  // b collides with a's entry but must NOT be served a's value.
  EXPECT_FALSE(cache.find("verdict", b).has_value());
  EXPECT_GE(cache.stats().collisions, 1u);

  cache.insert("verdict", b, tag("for-b"));
  EXPECT_EQ(cache.size(), 2u);
  const auto hit_a = cache.find("verdict", a);
  const auto hit_b = cache.find("verdict", b);
  ASSERT_TRUE(hit_a.has_value());
  ASSERT_TRUE(hit_b.has_value());
  EXPECT_EQ(tag_of(hit_a->value), "for-a");
  EXPECT_EQ(tag_of(hit_b->value), "for-b");
}

TEST(BatchCache, DuplicateInsertIsANoOp) {
  Cache cache;
  const auto mm = problems::maximal_matching(3);
  cache.insert("verdict", mm, tag("first"));
  cache.insert("verdict", mm, tag("second"));  // ignored: already confirmed
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(tag_of(cache.find("verdict", mm)->value), "first");
}

TEST(BatchCache, LruEvictionDropsTheColdestEntry) {
  Cache::Options options;
  options.capacity = 2;
  Cache cache(std::move(options));
  const auto mm = problems::maximal_matching(3);
  const auto tc = problems::two_coloring(2);
  const auto a = colliding_a();
  cache.insert("k", mm, tag("mm"));
  cache.insert("k", tc, tag("tc"));
  ASSERT_TRUE(cache.find("k", mm).has_value());  // touch: mm is now hottest
  cache.insert("k", a, tag("a"));                // evicts tc
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.find("k", mm).has_value());
  EXPECT_TRUE(cache.find("k", a).has_value());
  EXPECT_FALSE(cache.find("k", tc).has_value());
}

TEST(BatchCache, DiskTierRoundTripsAcrossInstances) {
  const std::string path = testing::TempDir() + "lcl_batch_cache_rt.jsonl";
  std::remove(path.c_str());
  const auto mm = problems::maximal_matching(3);
  const auto tc = problems::two_coloring(2);
  {
    Cache::Options options;
    options.disk_path = path;
    Cache cache(std::move(options));
    cache.insert("verdict", mm, tag("mm"));
    cache.insert("verdict", tc, tag("tc"));
  }
  {
    Cache::Options options;
    options.disk_path = path;
    options.load_existing = true;
    Cache cache(std::move(options));
    EXPECT_EQ(cache.stats().disk_loaded, 2u);
    const auto hit = cache.find("verdict", mm);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(tag_of(hit->value), "mm");
    EXPECT_EQ(tag_of(cache.find("verdict", tc)->value), "tc");
  }
  {
    // Cold open truncates: nothing survives.
    Cache::Options options;
    options.disk_path = path;
    options.load_existing = false;
    Cache cache(std::move(options));
    EXPECT_EQ(cache.stats().disk_loaded, 0u);
    EXPECT_FALSE(cache.find("verdict", mm).has_value());
  }
}

TEST(BatchCache, TornTrailingLineIsSkippedOnResume) {
  const std::string path = testing::TempDir() + "lcl_batch_cache_torn.jsonl";
  std::remove(path.c_str());
  const auto mm = problems::maximal_matching(3);
  {
    Cache::Options options;
    options.disk_path = path;
    Cache cache(std::move(options));
    cache.insert("verdict", mm, tag("mm"));
  }
  {
    // Simulate a writer killed mid-append: a truncated record at the tail.
    std::ofstream out(path, std::ios::app);
    out << "{\"kind\":\"verdict\",\"sig\":\"123\",\"prob";
  }
  Cache::Options options;
  options.disk_path = path;
  options.load_existing = true;
  Cache cache(std::move(options));
  EXPECT_EQ(cache.stats().disk_loaded, 1u);
  EXPECT_EQ(cache.stats().disk_skipped, 1u);
  EXPECT_EQ(tag_of(cache.find("verdict", mm)->value), "mm");
  // The resumed cache keeps appending valid records after the torn line.
  cache.insert("verdict", problems::two_coloring(2), tag("tc"));
  Cache::Options reopen;
  reopen.disk_path = path;
  Cache again(std::move(reopen));
  EXPECT_EQ(again.stats().disk_loaded, 2u);
}

TEST(BatchCache, ResumeSkipsRecordsWithOutOfRangeLabels) {
  // A record whose problem names label 2^32 + 1 of a two-label alphabet:
  // narrowed to 32 bits it would read as label 1 and pass for `b`'s entry.
  const std::string path =
      testing::TempDir() + "lcl_batch_cache_wide_label.jsonl";
  std::remove(path.c_str());
  const auto a = colliding_a();
  const auto b = colliding_b();
  {
    Cache::Options options;
    options.disk_path = path;
    Cache cache(std::move(options));
    cache.insert("verdict", a, tag("for-a"));
    cache.insert("verdict", b, tag("for-b"));
  }
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  auto record = json::parse(lines[1], nullptr);
  ASSERT_NE(record, nullptr);
  auto& configs = record->object()["problem"].object()["node_configs"];
  bool edited = false;
  for (auto& config : configs.array()) {
    for (auto& label : config.array()) {
      if (!edited && label.as_int() == 1) {
        label = json::Value((std::int64_t{1} << 32) + 1);
        edited = true;
      }
    }
  }
  ASSERT_TRUE(edited);
  lines[1] = json::dump(*record);
  {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& line : lines) out << line << '\n';
  }

  Cache::Options options;
  options.disk_path = path;
  Cache cache(std::move(options));
  EXPECT_EQ(cache.stats().disk_loaded, 1u);
  EXPECT_EQ(cache.stats().disk_skipped, 1u);
  EXPECT_EQ(tag_of(cache.find("verdict", a)->value), "for-a");
  // `b`'s verdict is recomputed and appended again.
  EXPECT_FALSE(cache.find("verdict", b).has_value());
  cache.insert("verdict", b, tag("for-b"));
  EXPECT_EQ(cache.stats().insertions, 1u);
  Cache::Options reopen;
  reopen.disk_path = path;
  Cache again(std::move(reopen));
  EXPECT_EQ(again.stats().disk_loaded, 2u);
  EXPECT_EQ(again.stats().disk_skipped, 1u);
  EXPECT_EQ(tag_of(again.find("verdict", b)->value), "for-b");
}

TEST(BatchCache, ResumeDoesNotDuplicateEntriesOrGrowTheFile) {
  const std::string path = testing::TempDir() + "lcl_batch_cache_flat.jsonl";
  std::remove(path.c_str());
  const auto mm = problems::maximal_matching(3);
  auto line_count = [&path]() {
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) ++n;
    return n;
  };
  {
    Cache::Options options;
    options.disk_path = path;
    Cache cache(std::move(options));
    cache.insert("verdict", mm, tag("mm"));
  }
  EXPECT_EQ(line_count(), 1u);
  {
    Cache::Options options;
    options.disk_path = path;
    Cache cache(std::move(options));
    cache.insert("verdict", mm, tag("mm"));  // already on disk: no-op
  }
  EXPECT_EQ(line_count(), 1u);
}

// ---------------------------------------------------------------------------
// The canonical key tier (`Options::canonical_tier`).

/// A permuted copy of `problem`: same constraint system with output labels
/// relabeled through `sigma` (old -> new).
NodeEdgeCheckableLcl permuted_copy(const NodeEdgeCheckableLcl& problem,
                                   const std::vector<Label>& sigma) {
  return lint::build_spec(
      lint::permute_spec(lint::spec_from_problem(problem), sigma));
}

/// True when `spec` has no problem name and names each label by its index,
/// as the disk tier writes every problem.
bool named_by_index(const lint::ProblemSpec& spec) {
  for (const auto* names : {&spec.inputs, &spec.outputs}) {
    for (std::size_t i = 0; i < names->size(); ++i) {
      if ((*names)[i] != std::to_string(i)) return false;
    }
  }
  return spec.name.empty();
}

TEST(BatchCache, DerivedProblemsStayObjectsAndRoundTripTheDiskTier) {
  const std::string path = testing::TempDir() + "lcl_batch_cache_derived.jsonl";
  std::remove(path.c_str());
  const auto mm = problems::maximal_matching(2);
  const auto next = problems::mis(2);
  {
    Cache::Options options;
    options.disk_path = path;
    Cache cache(std::move(options));
    cache.insert("step", mm, tag("mm-step"), nullptr, &next);
    const auto trivial = problems::trivial(2);
    cache.insert("step", mm, tag("again"), nullptr, &trivial);
    EXPECT_EQ(cache.stats().insertions, 1u);  // duplicate key: a no-op
    const auto hit = cache.find("step", mm);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(tag_of(hit->value), "mm-step");
    // The value is stored as given; the derived problem rides beside it.
    EXPECT_EQ(hit->value.find("next"), nullptr);
    ASSERT_TRUE(hit->next.has_value());
    // The memory tier serves the stored object itself: no copy of it.
    EXPECT_EQ(&hit->next->edge_configs(), &next.edge_configs());
    EXPECT_EQ(hit->next->name(), next.name());
    EXPECT_FALSE(cache.find("step", next).has_value());
  }
  // On disk the derived problem is the value's "next" spec. Both specs of
  // the record carry the constraints without names.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto record = json::parse(line, nullptr);
  ASSERT_NE(record, nullptr);
  const auto* value = record->find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(tag_of(*value), "mm-step");
  ASSERT_NE(value->find("next"), nullptr);
  const auto stored_next = lint::spec_from_json_value(*value->find("next"));
  EXPECT_TRUE(same_constraints(lint::build_spec(stored_next), next));
  EXPECT_TRUE(named_by_index(stored_next));
  ASSERT_NE(record->find("problem"), nullptr);
  const auto stored = lint::spec_from_json_value(*record->find("problem"));
  EXPECT_TRUE(same_constraints(lint::build_spec(stored), mm));
  EXPECT_TRUE(named_by_index(stored));
  EXPECT_FALSE(std::getline(in, line));

  Cache::Options options;
  options.disk_path = path;
  Cache cache(std::move(options));
  EXPECT_EQ(cache.stats().disk_loaded, 1u);
  const auto hit = cache.find("step", mm);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(tag_of(hit->value), "mm-step");
  EXPECT_EQ(hit->value.find("next"), nullptr);
  ASSERT_TRUE(hit->next.has_value());
  EXPECT_TRUE(same_constraints(*hit->next, next));
  EXPECT_TRUE(named_by_index(lint::spec_from_problem(*hit->next)));
}

/// `problem`'s canonical form: what the survey computes once per member
/// and passes to both `find` and `insert`.
lint::CanonicalForm form_of(const NodeEdgeCheckableLcl& problem) {
  auto form = lint::canonical_form(lint::spec_from_problem(problem));
  EXPECT_TRUE(form.complete);
  return form;
}

/// The disk tier's records, one parsed JSON object per line.
std::vector<json::Value> tier_records(const std::string& path) {
  std::vector<json::Value> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto record = json::parse(line, nullptr);
    EXPECT_NE(record, nullptr) << line;
    if (record != nullptr) records.push_back(*record);
  }
  return records;
}

TEST(BatchCacheCanonical, ServesPermutedProblemsWithEvidence) {
  Cache::Options options;
  options.canonical_tier = true;
  Cache cache(std::move(options));
  const auto mm = problems::maximal_matching(2);
  const std::vector<Label> sigma{2, 0, 1};
  const auto permuted = permuted_copy(mm, sigma);
  ASSERT_FALSE(same_constraints(mm, permuted));

  const auto mm_form = form_of(mm);
  cache.insert("engine", mm, tag("verdict-for-mm"), &mm_form);
  // Without a form the lookup is exact-only and misses the permuted copy...
  EXPECT_FALSE(cache.find("engine", permuted).has_value());
  // ...with one, the canonical tier serves it: the stored value, confirmed
  // by relabeling the stored constraints into the query's.
  const auto permuted_form = form_of(permuted);
  const auto hit = cache.find("engine", permuted, &permuted_form);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(tag_of(hit->value), "verdict-for-mm");
  EXPECT_FALSE(hit->next.has_value());

  // Kind is still part of the address.
  EXPECT_FALSE(cache.find("other-kind", permuted, &permuted_form).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.canonical_hits, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.canonical_collisions, 0u);
}

TEST(BatchCacheCanonical, ExactTierWinsWithIdentityEvidence) {
  Cache::Options options;
  options.canonical_tier = true;
  Cache cache(std::move(options));
  const auto mm = problems::maximal_matching(2);
  const auto form = form_of(mm);
  cache.insert("engine", mm, tag("mm"), &form);
  const auto hit = cache.find("engine", mm, &form);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(tag_of(hit->value), "mm");
  EXPECT_EQ(cache.stats().canonical_hits, 0u);  // exact hits count as hits
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(BatchCacheCanonical, TierOffMeansExactOnly) {
  Cache cache;  // canonical_tier defaults to off
  const auto mm = problems::maximal_matching(2);
  const auto form = form_of(mm);
  cache.insert("engine", mm, tag("mm"), &form);
  const auto permuted = permuted_copy(mm, {2, 0, 1});
  const auto permuted_form = form_of(permuted);
  EXPECT_FALSE(cache.find("engine", permuted, &permuted_form).has_value());
  // Exact queries are still answered, form or not.
  ASSERT_TRUE(cache.find("engine", mm, &form).has_value());
  ASSERT_TRUE(cache.find("engine", mm).has_value());
  EXPECT_EQ(cache.stats().canonical_hits, 0u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BatchCacheCanonical, IneligibleEntriesAreNeverProbedCanonically) {
  Cache::Options options;
  options.canonical_tier = true;
  Cache cache(std::move(options));
  const auto mm = problems::maximal_matching(2);
  // "step:" style payloads name labels, so the caller inserts them without
  // a form, which keeps them out of the canonical index.
  cache.insert("step", mm, tag("payload"));
  const auto permuted = permuted_copy(mm, {2, 0, 1});
  const auto permuted_form = form_of(permuted);
  EXPECT_FALSE(cache.find("step", permuted, &permuted_form).has_value());
  // Exactly addressed, the entry is still there.
  ASSERT_TRUE(cache.find("step", mm).has_value());
  EXPECT_EQ(cache.stats().canonical_hits, 0u);
}

TEST(BatchCacheCanonical, CallerSuppliedFormSkipsNothingSemantically) {
  // The caller's form picks the canonical bucket and the relabeling; the
  // exact confirmation still decides. A form that is not the query's -
  // here the stored problem's own - lands in the right bucket but relabels
  // wrongly, so it is refused as a canonical collision, never served.
  Cache::Options options;
  options.canonical_tier = true;
  Cache cache(std::move(options));
  const auto mm = problems::maximal_matching(2);
  const auto permuted = permuted_copy(mm, {1, 2, 0});
  ASSERT_FALSE(same_constraints(mm, permuted));
  const auto mm_form = form_of(mm);
  cache.insert("engine", mm, tag("mm"), &mm_form);

  EXPECT_FALSE(cache.find("engine", permuted, &mm_form).has_value());
  EXPECT_EQ(cache.stats().canonical_collisions, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  const auto permuted_form = form_of(permuted);
  const auto hit = cache.find("engine", permuted, &permuted_form);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(tag_of(hit->value), "mm");
  EXPECT_EQ(cache.stats().canonical_hits, 1u);

  // An incomplete form probes the exact tier alone.
  auto incomplete = permuted_form;
  incomplete.complete = false;
  EXPECT_FALSE(cache.find("engine", permuted, &incomplete).has_value());
  EXPECT_EQ(cache.stats().canonical_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(BatchCacheCanonical, EligibilityRoundTripsThroughTheDiskTier) {
  const std::string path = testing::TempDir() + "lcl_batch_cache_canon.jsonl";
  std::remove(path.c_str());
  const auto mm = problems::maximal_matching(2);
  const auto mm_permuted = permuted_copy(mm, {2, 0, 1});
  ASSERT_FALSE(same_constraints(mm, mm_permuted));
  {
    Cache::Options options;
    options.disk_path = path;
    options.canonical_tier = true;
    Cache cache(std::move(options));
    const auto form = form_of(mm);
    cache.insert("engine", mm, tag("mm"), &form);
    cache.insert("step", mm, tag("mm-step"));
  }
  Cache::Options options;
  options.disk_path = path;
  options.canonical_tier = true;
  Cache cache(std::move(options));
  EXPECT_EQ(cache.stats().disk_loaded, 2u);
  // The eligible entry is canonically addressable after replay (its form
  // recomputed at load); the ineligible one is not (its "canon": false
  // marker survived the disk round trip).
  const auto permuted_form = form_of(mm_permuted);
  ASSERT_TRUE(cache.find("engine", mm_permuted, &permuted_form).has_value());
  EXPECT_FALSE(cache.find("step", mm_permuted, &permuted_form).has_value());
  ASSERT_TRUE(cache.find("step", mm).has_value());
  EXPECT_EQ(cache.stats().canonical_hits, 1u);
}

TEST(BatchCacheCanonical, FormlessInsertsAreExactOnlyAndMarkedOnDisk) {
  // With the tier on, only an entry inserted with its form is indexed
  // canonically and written without a "canon" field; one inserted without
  // a form, or with a derived problem, is exact-only and says
  // "canon":false.
  const std::string path =
      testing::TempDir() + "lcl_batch_cache_formless.jsonl";
  std::remove(path.c_str());
  const auto mm = problems::maximal_matching(2);
  const auto mm_form = form_of(mm);
  const auto next = problems::mis(2);
  const auto permuted = permuted_copy(mm, {2, 0, 1});
  const auto permuted_form = form_of(permuted);
  {
    Cache::Options options;
    options.disk_path = path;
    options.canonical_tier = true;
    Cache cache(std::move(options));
    cache.insert("with-form", mm, tag("a"), &mm_form);
    cache.insert("formless", mm, tag("b"));
    cache.insert("derived", mm, tag("c"), &mm_form, &next);
    EXPECT_TRUE(cache.find("with-form", permuted, &permuted_form).has_value());
    EXPECT_FALSE(cache.find("formless", permuted, &permuted_form).has_value());
    EXPECT_FALSE(cache.find("derived", permuted, &permuted_form).has_value());
    EXPECT_EQ(cache.stats().canonical_hits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
  }
  const auto records = tier_records(path);
  ASSERT_EQ(records.size(), 3u);
  std::map<std::string, const json::Value*> canon;
  for (const auto& record : records) {
    ASSERT_NE(record.find("kind"), nullptr);
    canon[record.find("kind")->as_string()] = record.find("canon");
  }
  EXPECT_EQ(canon.at("with-form"), nullptr);
  for (const char* kind : {"formless", "derived"}) {
    SCOPED_TRACE(kind);
    ASSERT_NE(canon.at(kind), nullptr);
    ASSERT_TRUE(canon.at(kind)->is_bool());
    EXPECT_FALSE(canon.at(kind)->as_bool());
  }
}

/// The reference `same_constraints_permuted` must match: build the
/// relabeled copy of `a`, then compare.
bool rebuilt_same_constraints(const NodeEdgeCheckableLcl& a,
                              const std::vector<Label>& a_to_b,
                              const NodeEdgeCheckableLcl& b) {
  return same_constraints(permuted_copy(a, a_to_b), b);
}

std::vector<Label> random_permutation(std::size_t k, SplitRng& rng) {
  std::vector<Label> permutation(k);
  std::iota(permutation.begin(), permutation.end(), Label{0});
  for (std::size_t i = k; i > 1; --i) {
    std::swap(permutation[i - 1], permutation[rng.next_below(i)]);
  }
  return permutation;
}

/// Single edits of a canonical spec, each of which changes its constraint
/// system: a node or edge configuration dropped, added or replaced by one
/// of the same size, one `g` entry flipped or moved to another label, one
/// more output or input label. Replacements and moves keep every set's
/// size, so only the membership checks can catch them. Edits that would
/// leave no configuration, or find nothing absent to add, are skipped.
std::vector<std::pair<std::string, lint::ProblemSpec>> single_edits(
    const lint::ProblemSpec& spec, SplitRng& rng) {
  using CfgList = std::vector<std::vector<std::int64_t>>;
  std::vector<std::pair<std::string, lint::ProblemSpec>> edits;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  // A sorted configuration of `size` labels that `list` lacks, if one is
  // found in a few draws.
  const auto absent = [&](const CfgList& list, std::size_t size) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::vector<std::int64_t> config(size);
      for (auto& label : config) {
        label = static_cast<std::int64_t>(pick(spec.outputs.size()));
      }
      std::sort(config.begin(), config.end());
      if (std::find(list.begin(), list.end(), config) == list.end()) {
        return std::optional<std::vector<std::int64_t>>(std::move(config));
      }
    }
    return std::optional<std::vector<std::int64_t>>();
  };
  const auto edit_list = [&](const std::string& what,
                             CfgList lint::ProblemSpec::*member,
                             std::size_t add_size) {
    const CfgList& list = spec.*member;
    if (list.size() > 1) {
      lint::ProblemSpec edit = spec;
      (edit.*member).erase((edit.*member).begin() +
                           static_cast<long>(pick(list.size())));
      edits.emplace_back(what + " configuration dropped", std::move(edit));
    }
    if (auto config = absent(list, add_size)) {
      lint::ProblemSpec edit = spec;
      (edit.*member).push_back(std::move(*config));
      edits.emplace_back(what + " configuration added", std::move(edit));
    }
    const std::size_t victim = pick(list.size());
    if (auto config = absent(list, list[victim].size())) {
      lint::ProblemSpec edit = spec;
      (edit.*member)[victim] = std::move(*config);
      edits.emplace_back(what + " configuration replaced", std::move(edit));
    }
  };
  edit_list("node", &lint::ProblemSpec::node_configs,
            1 + pick(static_cast<std::size_t>(spec.max_degree)));
  edit_list("edge", &lint::ProblemSpec::edge_configs, 2);

  const std::size_t in = pick(spec.g.size());
  const auto& row = spec.g[in];
  const auto out = static_cast<std::int64_t>(pick(spec.outputs.size()));
  {
    lint::ProblemSpec edit = spec;
    auto& edited = edit.g[in];
    const auto it = std::find(edited.begin(), edited.end(), out);
    if (it == edited.end()) {
      edited.push_back(out);
    } else {
      edited.erase(it);
    }
    edits.emplace_back("g entry flipped", std::move(edit));
  }
  if (!row.empty() && row.size() < spec.outputs.size()) {
    lint::ProblemSpec edit = spec;
    auto& edited = edit.g[in];
    edited.erase(edited.begin() + static_cast<long>(pick(edited.size())));
    std::int64_t moved = 0;
    while (std::find(row.begin(), row.end(), moved) != row.end()) ++moved;
    edited.push_back(moved);
    edits.emplace_back("g entry moved", std::move(edit));
  }
  {
    lint::ProblemSpec edit = spec;
    edit.outputs.push_back("extra");
    edits.emplace_back("output alphabet grown", std::move(edit));
  }
  {
    lint::ProblemSpec edit = spec;
    edit.inputs.push_back("extra");
    edit.g.push_back(row);
    edits.emplace_back("input alphabet grown", std::move(edit));
  }
  return edits;
}

TEST(BatchCacheCanonical, InPlaceConfirmationAgreesWithTheRebuiltCopy) {
  // The canonical tier confirms a hit with `same_constraints_permuted`.
  // No lookup reaches a canonical collision in practice, so it is held to
  // the rebuilt reference's answer here: on fuzzed problems (wide
  // alphabets up to 96 labels included), a random relabeling, and every
  // single edit of it.
  std::size_t edits_checked = 0;
  for (const bool wide : {false, true}) {
    fuzz::GeneratorOptions options;
    options.wide_alphabets = wide;
    options.wide_max_labels = 96;
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
      SCOPED_TRACE((wide ? "wide seed " : "seed ") + std::to_string(seed));
      SplitRng rng(seed);
      const NodeEdgeCheckableLcl a = fuzz::random_problem(options, rng);
      if (wide) {
        EXPECT_GE(a.output_alphabet().size(), 64u);
      }
      const std::vector<Label> a_to_b =
          random_permutation(a.output_alphabet().size(), rng);
      const lint::ProblemSpec b_spec =
          lint::permute_spec(lint::spec_from_problem(a), a_to_b);
      const NodeEdgeCheckableLcl b = lint::build_spec(b_spec);
      EXPECT_TRUE(same_constraints_permuted(a, a_to_b, b));
      EXPECT_TRUE(rebuilt_same_constraints(a, a_to_b, b));
      for (const auto& [what, edit] : single_edits(b_spec, rng)) {
        SCOPED_TRACE(what);
        const NodeEdgeCheckableLcl edited = lint::build_spec(edit);
        EXPECT_FALSE(same_constraints_permuted(a, a_to_b, edited));
        EXPECT_FALSE(rebuilt_same_constraints(a, a_to_b, edited));
        ++edits_checked;
      }
    }
  }
  // Every draw yields at least the g flip and the two alphabet edits.
  EXPECT_GE(edits_checked, 2u * 3u * 150u);
}

TEST(BatchCacheCanonical, InPlaceConfirmationRejectsNonPermutations) {
  const auto mm = problems::maximal_matching(2);
  ASSERT_EQ(mm.output_alphabet().size(), 3u);
  EXPECT_TRUE(same_constraints_permuted(mm, {0, 1, 2}, mm));
  // Like `permute_spec`, which the rebuilt copy goes through.
  for (const std::vector<Label>& bad :
       {std::vector<Label>{0, 0, 1}, std::vector<Label>{0, 1, 3},
        std::vector<Label>{0, 1}}) {
    EXPECT_THROW(same_constraints_permuted(mm, bad, mm),
                 std::invalid_argument);
    EXPECT_THROW(permuted_copy(mm, bad), std::invalid_argument);
  }
}

TEST(SharedTables, PoolWorkersCopyQueryAndDropConcurrently) {
  // Cache entries, memo steps and engines on different pool workers share
  // one table block. Here workers copy one problem and one stored cache
  // entry, query the copies and drop them, all at once; CI runs this under
  // TSan.
  std::optional<NodeEdgeCheckableLcl> problem = problems::maximal_matching(3);
  const auto next = problems::mis(3);
  const std::uint64_t problem_signature = constraint_signature(*problem);
  const std::uint64_t next_signature = constraint_signature(next);
  const Configuration allowed = problem->node_configs(3).front();
  const std::size_t degree3_configs = problem->node_configs(3).size();
  Cache cache;
  cache.insert("step", *problem, tag("stored"), nullptr, &next);

  batch::Pool pool(batch::Pool::Options{4});
  std::vector<std::future<bool>> futures;
  for (int task = 0; task < 32; ++task) {
    // Each task holds its own reference until it is done with it.
    futures.push_back(pool.submit([&, mine = *problem]() {
      bool ok = true;
      for (int round = 0; round < 50; ++round) {
        const NodeEdgeCheckableLcl copy = mine;
        const auto hit = cache.find("step", copy);
        if (!hit || !hit->next) return false;
        const auto served =
            NodeEdgeCheckableLcl(*hit->next).renamed("served");
        ok = ok && copy.node_allows(allowed) &&
             copy.node_configs(3).size() == degree3_configs &&
             constraint_signature(copy) == problem_signature &&
             constraint_signature(served) == next_signature &&
             same_constraints(copy, mine) && same_constraints(served, next);
      }
      return ok;
    }));
  }
  // The cache entry and the tasks' captures keep the tables alive.
  problem.reset();
  for (auto& future : futures) EXPECT_TRUE(future.get());
  pool.wait_idle();
  EXPECT_EQ(cache.stats().hits, 32u * 50u);
}

}  // namespace
}  // namespace lcl
