#include "batch/shard.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "lint/canonical.hpp"

namespace lcl::batch {

namespace json = lcl::obs::json;

namespace {

constexpr const char* kManifestSchema = "lclscape.shards.v1";
constexpr const char* kSurveySchema = "lclscape.survey.v3";

const json::Value& require_member(const json::Value& object,
                                  const char* context, const char* key) {
  const auto* v = object.find(key);
  if (v == nullptr) {
    throw std::runtime_error(std::string(context) + " is missing \"" + key +
                             "\"");
  }
  return *v;
}

std::size_t require_size(const json::Value& object, const char* context,
                         const char* key) {
  const auto& v = require_member(object, context, key);
  if (!v.is_number() || v.as_int() < 0) {
    throw std::runtime_error(std::string(context) + " field \"" + key +
                             "\" is not a non-negative integer");
  }
  return static_cast<std::size_t>(v.as_int());
}

const std::string& require_string(const json::Value& object,
                                  const char* context, const char* key) {
  const auto& v = require_member(object, context, key);
  if (!v.is_string()) {
    throw std::runtime_error(std::string(context) + " field \"" + key +
                             "\" is not a string");
  }
  return v.as_string();
}

}  // namespace

std::uint64_t shard_key(const NodeEdgeCheckableLcl& problem) {
  // Same key the survey's canonical_key column is derived from: the
  // permutation-invariant signature when the orbit search completes, the
  // raw constraint signature otherwise. Keys - and therefore shard
  // assignments - never depend on jobs, enumeration order, or label names.
  const lint::CanonicalForm form = lint::canonical_form(problem);
  if (form.complete) return lint::spec_signature(form.spec);
  return constraint_signature(problem);
}

std::size_t shard_index(std::uint64_t key, std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("shard_index: shard_count must be >= 1");
  }
  // splitmix64 finalizer: a fixed bijection, so near-identical signatures
  // still spread uniformly over the shards.
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::size_t>(z % shard_count);
}

ShardPlan plan_shard(const Family& family, ShardRef shard,
                     const std::string& cache_tier,
                     const std::string& git_sha) {
  if (shard.count == 0) {
    throw std::invalid_argument("plan_shard: shard count must be >= 1");
  }
  if (shard.index >= shard.count) {
    std::ostringstream msg;
    msg << "plan_shard: shard index " << shard.index
        << " out of range for count " << shard.count;
    throw std::invalid_argument(msg.str());
  }
  ShardPlan plan;
  plan.members.description = family.description;
  plan.manifest.family = family.description;
  plan.manifest.shard_index = shard.index;
  plan.manifest.shard_count = shard.count;
  plan.manifest.members_total = family.members.size();
  plan.manifest.cache_tier = cache_tier;
  plan.manifest.git_sha = git_sha;
  for (const auto& member : family.members) {
    if (shard_index(shard_key(member.problem), shard.count) != shard.index) {
      continue;
    }
    plan.members.members.push_back(member);
    plan.manifest.members.push_back(member.name);
  }
  return plan;
}

json::Value ShardManifest::to_json_value() const {
  json::Value root = json::Value::make_object();
  auto& top = root.object();
  top["schema"] = json::Value(std::string(kManifestSchema));
  top["family"] = json::Value(family);
  json::Value shard = json::Value::make_object();
  shard.object()["index"] =
      json::Value(static_cast<std::int64_t>(shard_index));
  shard.object()["count"] =
      json::Value(static_cast<std::int64_t>(shard_count));
  top["shard"] = std::move(shard);
  top["members_total"] =
      json::Value(static_cast<std::int64_t>(members_total));
  json::Value names = json::Value::make_array();
  for (const auto& name : members) {
    names.array().push_back(json::Value(name));
  }
  top["members"] = std::move(names);
  top["cache_tier"] = json::Value(cache_tier);
  top["git_sha"] = json::Value(git_sha);
  return root;
}

std::string ShardManifest::to_json() const {
  return json::dump(to_json_value()) + "\n";
}

ShardManifest ShardManifest::from_json_value(const json::Value& value) {
  if (!value.is_object()) {
    throw std::runtime_error("shard manifest is not a JSON object");
  }
  const std::string& schema = require_string(value, "shard manifest",
                                             "schema");
  if (schema != kManifestSchema) {
    throw std::runtime_error("shard manifest has schema \"" + schema +
                             "\", expected \"" + kManifestSchema + "\"");
  }
  ShardManifest manifest;
  manifest.family = require_string(value, "shard manifest", "family");
  const auto& shard = require_member(value, "shard manifest", "shard");
  if (!shard.is_object()) {
    throw std::runtime_error("shard manifest \"shard\" is not an object");
  }
  manifest.shard_index = require_size(shard, "shard manifest shard", "index");
  manifest.shard_count = require_size(shard, "shard manifest shard", "count");
  if (manifest.shard_count == 0 ||
      manifest.shard_index >= manifest.shard_count) {
    throw std::runtime_error("shard manifest has inconsistent shard "
                             "index/count");
  }
  manifest.members_total =
      require_size(value, "shard manifest", "members_total");
  const auto& names = require_member(value, "shard manifest", "members");
  if (!names.is_array()) {
    throw std::runtime_error("shard manifest \"members\" is not an array");
  }
  for (const auto& name : names.as_array()) {
    if (!name.is_string()) {
      throw std::runtime_error("shard manifest \"members\" entry is not a "
                               "string");
    }
    manifest.members.push_back(name.as_string());
  }
  manifest.cache_tier = require_string(value, "shard manifest", "cache_tier");
  manifest.git_sha = require_string(value, "shard manifest", "git_sha");
  return manifest;
}

MergeResult merge_shard_reports(const std::vector<json::Value>& docs) {
  if (docs.empty()) {
    throw std::runtime_error("merge: no shard reports given");
  }

  struct ShardDoc {
    ShardManifest manifest;
    std::vector<ProblemOutcome> outcomes;
  };
  std::vector<ShardDoc> shards;
  shards.reserve(docs.size());

  SurveyReport merged;
  bool first = true;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const std::string context = "shard report #" + std::to_string(i);
    const auto& doc = docs[i];
    if (!doc.is_object()) {
      throw std::runtime_error(context + " is not a JSON object");
    }
    const std::string& schema = require_string(doc, context.c_str(),
                                               "schema");
    if (schema != kSurveySchema) {
      throw std::runtime_error(context + " has schema \"" + schema +
                               "\", expected \"" + kSurveySchema + "\"");
    }
    const auto& survey = require_member(doc, context.c_str(), "survey");
    if (!survey.is_object()) {
      throw std::runtime_error(context + " \"survey\" is not an object");
    }
    ShardDoc shard;
    shard.manifest = ShardManifest::from_json_value(
        require_member(doc, context.c_str(), "shard"));

    // Verdict-relevant option echoes must agree across the shard set: a
    // report produced with a different engine budget or classifier setting
    // is not a shard of the same survey.
    SurveyReport echo;
    echo.family = require_string(survey, context.c_str(), "family");
    echo.engine_max_steps = static_cast<int>(
        require_size(survey, context.c_str(), "engine_max_steps"));
    const auto& degrees =
        require_member(survey, context.c_str(), "engine_degrees");
    if (!degrees.is_array()) {
      throw std::runtime_error(context + " \"engine_degrees\" is not an "
                               "array");
    }
    for (const auto& d : degrees.as_array()) {
      if (!d.is_number()) {
        throw std::runtime_error(context + " \"engine_degrees\" entry is "
                                 "not a number");
      }
      echo.engine_degrees.push_back(static_cast<int>(d.as_int()));
    }
    echo.check_nodes = require_size(survey, context.c_str(), "check_nodes");
    echo.check_budget = require_size(survey, context.c_str(), "check_budget");
    const auto read_echo_bool = [&survey, &context](const char* key) {
      const auto& v = require_member(survey, context.c_str(), key);
      if (!v.is_bool()) {
        throw std::runtime_error(context + " field \"" + key +
                                 "\" is not a boolean");
      }
      return v.as_bool();
    };
    echo.classify_cycles = read_echo_bool("classify_cycles");
    echo.classify_paths = read_echo_bool("classify_paths");
    echo.classifier_speedup_steps = static_cast<int>(
        require_size(survey, context.c_str(), "classifier_speedup_steps"));

    if (first) {
      merged = std::move(echo);
      first = false;
    } else if (echo.family != merged.family) {
      throw MergeConflictError("merge conflict: " + context +
                               " surveys family \"" + echo.family +
                               "\" but shard report #0 surveys \"" +
                               merged.family + "\"");
    } else if (echo.engine_max_steps != merged.engine_max_steps ||
               echo.engine_degrees != merged.engine_degrees ||
               echo.check_nodes != merged.check_nodes ||
               echo.check_budget != merged.check_budget ||
               echo.classify_cycles != merged.classify_cycles ||
               echo.classify_paths != merged.classify_paths ||
               echo.classifier_speedup_steps !=
                   merged.classifier_speedup_steps) {
      throw MergeConflictError(
          "merge conflict: " + context +
          " was produced with different verdict-relevant options "
          "(engine/check/classify echoes disagree with shard report #0)");
    }

    const auto& rows = require_member(doc, context.c_str(), "problems");
    if (!rows.is_array()) {
      throw std::runtime_error(context + " \"problems\" is not an array");
    }
    for (const auto& row : rows.as_array()) {
      shard.outcomes.push_back(outcome_from_json_value(row));
    }
    shards.push_back(std::move(shard));
  }

  // The shard set must be exactly {0..count-1}, one report each, all
  // agreeing on the family size.
  const std::size_t count = shards.front().manifest.shard_count;
  const std::size_t members_total = shards.front().manifest.members_total;
  if (shards.size() != count) {
    std::ostringstream msg;
    msg << "merge conflict: manifests declare " << count << " shards but "
        << shards.size() << " reports were given";
    throw MergeConflictError(msg.str());
  }
  std::set<std::size_t> seen_indices;
  for (const auto& shard : shards) {
    if (shard.manifest.shard_count != count) {
      throw MergeConflictError("merge conflict: shard manifests disagree on "
                               "the shard count");
    }
    if (shard.manifest.members_total != members_total) {
      throw MergeConflictError("merge conflict: shard manifests disagree on "
                               "members_total");
    }
    if (shard.manifest.family != merged.family) {
      throw MergeConflictError("merge conflict: shard manifest for shard " +
                               std::to_string(shard.manifest.shard_index) +
                               " names a different family than its report");
    }
    if (!seen_indices.insert(shard.manifest.shard_index).second) {
      throw MergeConflictError(
          "merge conflict: duplicate shard index " +
          std::to_string(shard.manifest.shard_index) + " of " +
          std::to_string(count));
    }
    // A shard report must cover exactly the members its manifest claims -
    // anything else is a truncated or over-full shard run.
    std::set<std::string> manifest_names(shard.manifest.members.begin(),
                                         shard.manifest.members.end());
    std::set<std::string> row_names;
    for (const auto& outcome : shard.outcomes) {
      row_names.insert(outcome.name);
    }
    if (manifest_names != row_names) {
      std::ostringstream msg;
      msg << "merge conflict: shard " << shard.manifest.shard_index << "/"
          << count << " report covers " << row_names.size()
          << " members but its manifest lists " << manifest_names.size();
      for (const auto& name : manifest_names) {
        if (row_names.count(name) == 0) {
          msg << "; missing row for \"" << name << "\"";
          break;
        }
      }
      for (const auto& name : row_names) {
        if (manifest_names.count(name) == 0) {
          msg << "; unexpected row for \"" << name << "\"";
          break;
        }
      }
      throw MergeConflictError(msg.str());
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (seen_indices.count(i) == 0) {
      throw MergeConflictError("merge conflict: missing shard " +
                               std::to_string(i) + " of " +
                               std::to_string(count));
    }
  }

  // Join rows on the canonical sort key. Byte-identical duplicates between
  // shards collapse; any field disagreement on a shared key is a verdict
  // conflict and refuses the merge.
  std::map<std::string, ProblemOutcome> by_key;
  MergeResult result;
  for (const auto& shard : shards) {
    for (const auto& outcome : shard.outcomes) {
      auto [it, inserted] = by_key.emplace(outcome.key, outcome);
      if (inserted) continue;
      const std::string existing = json::dump(outcome_to_json_value(it->second));
      const std::string incoming = json::dump(outcome_to_json_value(outcome));
      if (existing == incoming) {
        ++result.duplicates;
        continue;
      }
      throw MergeConflictError(
          "merge conflict: shards disagree on \"" + outcome.key +
          "\": class \"" + it->second.landscape_class + "\" vs \"" +
          outcome.landscape_class + "\" (row fields differ)");
    }
  }
  if (by_key.size() != members_total) {
    std::ostringstream msg;
    msg << "merge conflict: shard reports cover " << by_key.size()
        << " distinct members but the manifests declare " << members_total;
    throw MergeConflictError(msg.str());
  }

  // Rebuild the aggregate columns through the same function run_survey
  // uses, so the rendered report is byte-identical to a single-pool run.
  merged.problems = members_total;
  std::vector<ProblemOutcome> rows;
  rows.reserve(by_key.size());
  for (auto& [key, outcome] : by_key) rows.push_back(std::move(outcome));
  merged.set_outcomes(std::move(rows));

  result.report = std::move(merged);
  result.manifests.reserve(shards.size());
  for (auto& shard : shards) {
    result.manifests.push_back(std::move(shard.manifest));
  }
  std::sort(result.manifests.begin(), result.manifests.end(),
            [](const ShardManifest& a, const ShardManifest& b) {
              return a.shard_index < b.shard_index;
            });
  return result;
}

}  // namespace lcl::batch
