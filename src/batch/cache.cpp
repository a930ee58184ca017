#include "batch/cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lint/canonical.hpp"
#include "lint/spec.hpp"
#include "lint/spec_io.hpp"
#include "obs/obs.hpp"

namespace lcl::batch {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a over the 8 bytes of `v`.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

/// `problem` as a disk record writes it: no problem name, and input and
/// output labels named by their index. No key, hit or report column reads
/// a stored name, so a record depends only on the constraints it holds,
/// not on which member stored it first.
obs::json::Value nameless_spec(const NodeEdgeCheckableLcl& problem) {
  lint::ProblemSpec spec = lint::spec_from_problem(problem);
  spec.name.clear();
  for (auto* names : {&spec.inputs, &spec.outputs}) {
    for (std::size_t i = 0; i < names->size(); ++i) {
      (*names)[i] = std::to_string(i);
    }
  }
  return lint::spec_to_json_value(spec);
}

}  // namespace

std::uint64_t constraint_signature(const NodeEdgeCheckableLcl& problem) {
  std::uint64_t h = kFnvOffset;
  mix(h, problem.input_alphabet().size());
  mix(h, problem.output_alphabet().size());
  mix(h, static_cast<std::uint64_t>(problem.max_degree()));
  for (int d = 1; d <= problem.max_degree(); ++d) {
    mix(h, 0xD0 + static_cast<std::uint64_t>(d));  // section marker
    for (const auto& config : problem.node_configs(d)) {
      for (const auto label : config.labels()) mix(h, label);
      mix(h, 0xC0FFEE);  // configuration separator
    }
  }
  mix(h, 0xE0);
  for (const auto& config : problem.edge_configs()) {
    for (const auto label : config.labels()) mix(h, label);
    mix(h, 0xC0FFEE);
  }
  mix(h, 0x60);
  // `g` sets fold in as their `ceil(n / 64)` raw words up to 512 output
  // labels, and label by label beyond; equal sets produce equal words, so
  // `same_constraints(a, b)` still implies equal signatures. The 512-label
  // cut is frozen: on-disk cache tiers and `--shard=i/N` assignments are
  // keyed by these values.
  constexpr std::size_t kWordFoldMaxLabels = 512;
  const bool fold_words =
      problem.output_alphabet().size() <= kWordFoldMaxLabels;
  for (Label in = 0; in < problem.input_alphabet().size(); ++in) {
    if (fold_words) {
      const LabelSet& outs = problem.allowed_outputs(in);
      for (std::size_t w = 0; w < outs.word_count(); ++w) {
        mix(h, outs.word(w));
      }
    } else {
      for (const auto out : problem.allowed_outputs(in).to_vector()) {
        mix(h, out);
      }
    }
    mix(h, 0xC0FFEE);
  }
  return h;
}

std::size_t Cache::IndexKeyHash::operator()(const IndexKey& k) const noexcept {
  return std::hash<std::string>{}(k.kind) ^
         std::hash<std::uint64_t>{}(k.signature);
}

Cache::Cache() : Cache(Options{}) {}

Cache::Cache(Options options) : options_(std::move(options)) {
  if (!options_.signature) options_.signature = &constraint_signature;
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.disk_path.empty()) return;
  if (options_.load_existing) load_disk_locked();
  const auto mode = options_.load_existing
                        ? std::ios::out | std::ios::app
                        : std::ios::out | std::ios::trunc;
  disk_ = std::make_unique<std::ofstream>(options_.disk_path, mode);
  if (!disk_->is_open()) {
    throw std::runtime_error("batch::Cache: cannot open '" +
                             options_.disk_path + "' for appending");
  }
  // A fresh tier opens with its provenance line; a resumed tier keeps
  // whatever provenance (or lack of it) it already has.
  if (!options_.meta_git_sha.empty() && !disk_had_content_) {
    obs::json::Value meta = obs::json::Value::make_object();
    meta.object()["meta"] =
        obs::json::Value(std::string("lclscape.cachetier.v1"));
    meta.object()["git_sha"] = obs::json::Value(options_.meta_git_sha);
    *disk_ << obs::json::dump(meta) << '\n';
    disk_->flush();
  }
}

Cache::~Cache() = default;

void Cache::load_disk_locked() {
  std::ifstream in(options_.disk_path);
  if (!in.is_open()) return;  // nothing to resume from yet
  std::string line;
  while (std::getline(in, line)) {
    // A file killed mid-append ends without a newline; the next append
    // must not glue a fresh record onto that torn tail.
    disk_needs_newline_ = in.eof() && !line.empty();
    if (!line.empty()) disk_had_content_ = true;
    if (line.empty()) continue;
    std::string error;
    const auto record = obs::json::parse(line, &error);
    // A process killed mid-append leaves one torn trailing line; skip
    // anything unparseable (or shaped wrong) rather than failing the run
    // the cache exists to accelerate.
    if (record == nullptr || !record->is_object()) {
      ++stats_.disk_skipped;
      continue;
    }
    // The provenance meta line (first line of tiers written since it was
    // introduced). Not an entry and not "skipped" - old tiers simply lack
    // it.
    if (const auto* meta = record->find("meta");
        meta != nullptr && meta->is_string()) {
      if (meta->as_string() == "lclscape.cachetier.v1") {
        if (const auto* sha = record->find("git_sha");
            sha != nullptr && sha->is_string()) {
          loaded_git_sha_ = sha->as_string();
        }
      }
      continue;
    }
    const auto* kind = record->find("kind");
    const auto* problem_value = record->find("problem");
    const auto* value = record->find("value");
    if (kind == nullptr || !kind->is_string() || problem_value == nullptr ||
        value == nullptr) {
      ++stats_.disk_skipped;
      continue;
    }
    Entry entry;
    entry.kind = kind->as_string();
    try {
      entry.problem =
          lint::build_spec(lint::spec_from_json_value(*problem_value));
    } catch (const std::exception&) {
      ++stats_.disk_skipped;
      continue;
    }
    // Recomputed, not trusted from the file: the stored "sig" field is
    // informational, so the tier survives signature-function changes (and
    // deliberate test overrides).
    entry.signature = options_.signature(entry.problem);
    entry.value = *value;
    // A derived problem is rebuilt once here and served as an object.
    if (const auto* next = value->find("next");
        next != nullptr && next->is_object()) {
      try {
        entry.next = lint::build_spec(lint::spec_from_json_value(*next));
      } catch (const std::exception&) {
        ++stats_.disk_skipped;
        continue;
      }
      entry.value.object().erase("next");
    }
    if (const auto* canon = record->find("canon");
        canon != nullptr && canon->is_bool()) {
      entry.canonical_eligible = canon->as_bool();
    }
    if (contains_confirmed_locked(entry)) continue;
    fill_canonical_fields(entry, nullptr);
    insert_memory_locked(std::move(entry));
    ++stats_.disk_loaded;
  }
}

void Cache::append_disk_locked(const Entry& entry) {
  if (disk_ == nullptr) return;
  if (disk_needs_newline_) {
    *disk_ << '\n';
    disk_needs_newline_ = false;
  }
  obs::json::Value record = obs::json::Value::make_object();
  record.object()["kind"] = obs::json::Value(entry.kind);
  record.object()["sig"] = obs::json::Value(std::to_string(entry.signature));
  record.object()["problem"] = nameless_spec(entry.problem);
  record.object()["value"] = entry.value;
  if (entry.next) {
    record.object()["value"].object()["next"] = nameless_spec(*entry.next);
  }
  if (!entry.canonical_eligible) {
    record.object()["canon"] = obs::json::Value(false);
  }
  *disk_ << obs::json::dump(record) << '\n';
  // Flush per record: a killed survey loses at most the line being written.
  disk_->flush();
}

bool Cache::contains_confirmed_locked(const Entry& entry) {
  const auto bucket = index_.find(IndexKey{entry.kind, entry.signature});
  if (bucket == index_.end()) return false;
  for (const auto& it : bucket->second) {
    if (same_constraints(it->problem, entry.problem)) return true;
    ++stats_.collisions;
  }
  return false;
}

void Cache::fill_canonical_fields(Entry& entry,
                                  const lint::CanonicalForm* form) {
  if (!options_.canonical_tier || !entry.canonical_eligible) return;
  lint::CanonicalForm computed;
  if (form == nullptr) {
    computed = lint::canonical_form(lint::spec_from_problem(entry.problem));
    form = &computed;
  }
  // An exhausted branch-and-bound is deterministic for this spec but no
  // longer permutation-invariant; keep such entries out of the tier (they
  // still serve exact hits).
  if (!form->complete) return;
  entry.has_canonical = true;
  entry.canonical_sig = lint::spec_signature(form->spec);
  entry.canonical_old_to_new = form->old_to_new;
}

void Cache::insert_memory_locked(Entry entry) {
  const IndexKey key{entry.kind, entry.signature};
  const bool has_canonical = entry.has_canonical;
  const IndexKey canonical_key{entry.kind, entry.canonical_sig};
  lru_.push_front(std::move(entry));
  index_[key].push_back(lru_.begin());
  if (has_canonical) canonical_index_[canonical_key].push_back(lru_.begin());
  while (lru_.size() > options_.capacity) {
    const auto victim = std::prev(lru_.end());
    auto& victim_bucket = index_[IndexKey{victim->kind, victim->signature}];
    std::erase(victim_bucket, victim);
    if (victim_bucket.empty()) {
      index_.erase(IndexKey{victim->kind, victim->signature});
    }
    if (victim->has_canonical) {
      const IndexKey victim_key{victim->kind, victim->canonical_sig};
      auto& bucket = canonical_index_[victim_key];
      std::erase(bucket, victim);
      if (bucket.empty()) canonical_index_.erase(victim_key);
    }
    lru_.pop_back();
    ++stats_.evictions;
    LCL_OBS_COUNTER_ADD("cache.evictions", 1);
  }
}

const Cache::Entry* Cache::find_exact_locked(
    const std::string& kind, const NodeEdgeCheckableLcl& problem,
    std::uint64_t sig) {
  const auto bucket = index_.find(IndexKey{kind, sig});
  if (bucket == index_.end()) return nullptr;
  for (const auto& it : bucket->second) {
    // Collision-safe exact confirmation: the signature narrows the
    // candidates, `same_constraints` decides.
    if (same_constraints(it->problem, problem)) {
      lru_.splice(lru_.begin(), lru_, it);  // touch for LRU
      ++stats_.hits;
      LCL_OBS_COUNTER_ADD("cache.hits", 1);
      return &*it;
    }
    ++stats_.collisions;
    LCL_OBS_COUNTER_ADD("cache.collisions", 1);
  }
  return nullptr;
}

const Cache::Entry* Cache::find_permuted_locked(
    const std::string& kind, const NodeEdgeCheckableLcl& problem,
    const lint::CanonicalForm& form) {
  const auto bucket = canonical_index_.find(
      IndexKey{kind, lint::spec_signature(form.spec)});
  if (bucket == canonical_index_.end()) return nullptr;
  const std::size_t k = problem.output_alphabet().size();
  for (const auto& it : bucket->second) {
    if (it->canonical_old_to_new.size() == k) {
      // Stored -> query relabeling through the shared canonical form,
      // p = query_new_to_old o stored_old_to_new.
      std::vector<Label> old_to_new(k);
      for (std::size_t e = 0; e < k; ++e) {
        old_to_new[e] = form.new_to_old[it->canonical_old_to_new[e]];
      }
      // Confirmed exactly, mirroring the raw tier: the stored constraints,
      // relabeled through `p`, must be the query's. A canonical signature
      // collision therefore costs one comparison, never a wrong answer.
      if (same_constraints_permuted(it->problem, old_to_new, problem)) {
        lru_.splice(lru_.begin(), lru_, it);  // touch for LRU
        ++stats_.canonical_hits;
        LCL_OBS_COUNTER_ADD("cache.canonical_hits", 1);
        return &*it;
      }
    }
    ++stats_.canonical_collisions;
    LCL_OBS_COUNTER_ADD("cache.canonical_collisions", 1);
  }
  return nullptr;
}

std::optional<Cache::Hit> Cache::find(std::string_view kind,
                                      const NodeEdgeCheckableLcl& problem,
                                      const lint::CanonicalForm* form) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string kind_str(kind);
  const Entry* hit =
      find_exact_locked(kind_str, problem, options_.signature(problem));
  if (hit == nullptr && options_.canonical_tier && form != nullptr &&
      form->complete) {
    hit = find_permuted_locked(kind_str, problem, *form);
  }
  if (hit != nullptr) return Hit{hit->value, hit->next};
  ++stats_.misses;
  LCL_OBS_COUNTER_ADD("cache.misses", 1);
  return std::nullopt;
}

void Cache::insert(std::string_view kind, const NodeEdgeCheckableLcl& problem,
                   const obs::json::Value& value,
                   const lint::CanonicalForm* form,
                   const NodeEdgeCheckableLcl* next) {
  Entry entry;
  entry.kind = std::string(kind);
  entry.problem = problem;
  entry.value = value;
  if (next != nullptr) entry.next = *next;
  entry.canonical_eligible = form != nullptr && next == nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  entry.signature = options_.signature(entry.problem);
  if (contains_confirmed_locked(entry)) return;  // duplicate: keep the file flat
  fill_canonical_fields(entry, form);
  ++stats_.insertions;
  LCL_OBS_COUNTER_ADD("cache.insertions", 1);
  // Disk first: the append must happen even if the entry is immediately
  // evicted from a tiny in-memory tier.
  append_disk_locked(entry);
  insert_memory_locked(std::move(entry));
}

CacheStats Cache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t Cache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::optional<std::string> Cache::loaded_git_sha() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loaded_git_sha_;
}

}  // namespace lcl::batch
