#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/lcl.hpp"
#include "lint/canonical.hpp"
#include "obs/json.hpp"

namespace lcl::batch {

/// Order-independent structural hash of a problem's constraint system -
/// the content address of the result cache. Hashes exactly what
/// `same_constraints` compares (alphabet sizes, max degree, node/edge
/// configuration sets, `g` sets, all label-index by label-index) and
/// nothing it ignores (problem and label *names*), so
/// `same_constraints(a, b)` implies equal signatures. The converse does not
/// hold - a 64-bit hash can collide - which is why every cache hit is
/// confirmed exactly before being served.
std::uint64_t constraint_signature(const NodeEdgeCheckableLcl& problem);

/// Counters describing one cache's life so far (monotone; `snapshot`-style
/// copy, safe to read while the cache is in use).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Lookups/inserts that met a same-signature entry whose constraints did
  /// NOT match exactly - the collisions the confirmation step absorbed.
  std::uint64_t collisions = 0;
  /// Entries replayed from the on-disk tier at open.
  std::uint64_t disk_loaded = 0;
  /// Lines skipped while replaying: torn ones (a killed writer leaves at
  /// most one) and records whose problems do not build.
  std::uint64_t disk_skipped = 0;
  /// Lookups served by the canonical tier through a relabeling (exact-tier
  /// hits count under `hits`).
  std::uint64_t canonical_hits = 0;
  /// Canonical-signature matches whose permuted constraints did NOT match
  /// exactly - collisions the canonical confirmation step absorbed.
  std::uint64_t canonical_collisions = 0;
};

/// Content-addressed result cache for landscape surveys: maps
/// `(kind, problem constraints)` to a JSON value, where `kind` names what
/// was computed and under which options. A survey stores four kinds: one
/// "member:..." entry per member (its verdict columns), the engine memo's
/// "step:..." iterates and "zr:..." 0-round verdicts, and "check:..."
/// brute-force verdicts. Problems are addressed by `constraint_signature`,
/// and a hit is only served after the stored problem is confirmed via
/// `same_constraints` - a signature collision therefore costs one extra
/// comparison, never a wrong answer.
/// An entry may also hold a problem derived from its key (the survey's
/// "step:" entries hold the next reduced iterate; see `insert`).
///
/// `find` and `insert` take the problem's canonical form when the caller
/// has one; passing it is what marks a payload as naming no label, which
/// the canonical tier (`Options::canonical_tier`) needs.
///
/// Two storage tiers:
///  - in-memory LRU (bounded by `Options::capacity`; eviction drops the
///    entry from the lookup index). Problems stay built objects here, so a
///    stored or served problem shares its constraint tables with the
///    caller's copy;
///  - optional append-only JSONL file (`Options::disk_path`) in the
///    fuzz/lint spec-JSON dialect: one self-contained record per line,
///    `{"kind":.., "sig":.., "problem": <spec>, "value": ..}`, where a
///    derived problem is the value's "next" field. A record's specs carry
///    no problem name and name each label by its index, so its bytes depend
///    only on its constraints. Every insert is appended and flushed, so a
///    killed survey loses at most a torn trailing line;
///    reopening with `load_existing` replays the file (the `--resume`
///    path). Signatures are recomputed from the stored problem on load, so
///    the file survives signature-function changes.
///
/// All operations are thread-safe; one cache is shared across pool workers.
class Cache {
 public:
  using SignatureFn = std::function<std::uint64_t(const NodeEdgeCheckableLcl&)>;

  struct Options {
    /// In-memory entries kept; least-recently-used beyond that are evicted.
    std::size_t capacity = 1 << 16;
    /// JSONL on-disk tier; empty = in-memory only.
    std::string disk_path;
    /// Replay an existing disk file at open (true = resume/warm start);
    /// false truncates it (cold start).
    bool load_existing = true;
    /// Override the content hash - tests inject deliberately weak
    /// signatures to exercise the collision path. Default:
    /// `constraint_signature`.
    SignatureFn signature;
    /// Opt-in second key tier (`lcl_batch --cache-key=canonical`): entries
    /// inserted with their canonical form are also indexed by its
    /// signature, so `find` with a complete form can serve a stored verdict
    /// for any permutation-equivalent problem. The forms come from the
    /// caller; only replaying the disk tier runs orbit searches. Every
    /// canonical hit is confirmed exactly (`same_constraints_permuted`)
    /// before being served, mirroring the raw tier's collision safety.
    bool canonical_tier = false;
    /// When non-empty, a fresh disk tier starts with a provenance meta line
    /// `{"meta":"lclscape.cachetier.v1","git_sha":...}` recording the
    /// producing engine version. Resuming a tier written by a different
    /// engine silently mixes verdict generations; the CLI's `--resume`
    /// compares `loaded_git_sha()` against the running binary and warns (or
    /// errors under `--resume=strict`). Old readers skip the meta line as an
    /// unrecognized record; tiers without one load with no provenance.
    std::string meta_git_sha;
  };

  /// A `find` hit: the stored value and, for an entry inserted with one,
  /// the derived problem (a copy sharing the stored object's tables and
  /// keeping its names).
  struct Hit {
    obs::json::Value value;
    std::optional<NodeEdgeCheckableLcl> next = std::nullopt;
  };

  /// Opens the cache (and disk tier, when configured). Throws
  /// `std::runtime_error` if the disk file cannot be opened for appending.
  Cache();  // in-memory only, default capacity
  explicit Cache(Options options);
  ~Cache();

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Confirmed two-tier lookup. The exact tier first: an entry of this
  /// `kind` whose problem has exactly the same constraints. On a miss, when
  /// `form` is a complete canonical form of `problem` and
  /// `Options::canonical_tier` is on, any stored permutation-equivalent
  /// problem of this `kind` that was inserted with its form (confirmed by
  /// comparing its constraints, mapped through the two forms, exactly with
  /// the query's; no relabeled copy is built). Without a complete form the
  /// lookup is exact-only (an exhausted branch-and-bound is no longer
  /// permutation-invariant). nullopt counts a miss.
  std::optional<Hit> find(std::string_view kind,
                          const NodeEdgeCheckableLcl& problem,
                          const lint::CanonicalForm* form = nullptr);

  /// Inserts (and appends to disk). A duplicate of an existing confirmed
  /// entry is a no-op, so re-running a survey over a warm cache does not
  /// grow the file.
  ///  - `form`, the problem's canonical form, marks `value` as naming no
  ///    label: only an entry inserted with its form is indexed on the
  ///    canonical tier (when on). One inserted without it is exact-only, and
  ///    its disk record says `"canon":false` so replay skips its orbit
  ///    search too.
  ///  - `next`, a problem derived from `problem`, makes the entry
  ///    exact-only as well (the derived problem names the stored problem's
  ///    labels). The memory tier keeps it as the object it is; only a disk
  ///    append renders it, as spec JSON in the record's `value["next"]`, and
  ///    only a disk load parses it back. `value` must then be an object
  ///    without a "next" field.
  void insert(std::string_view kind, const NodeEdgeCheckableLcl& problem,
              const obs::json::Value& value,
              const lint::CanonicalForm* form = nullptr,
              const NodeEdgeCheckableLcl* next = nullptr);

  CacheStats stats() const;
  std::size_t size() const;

  /// The git SHA recorded in the resumed disk tier's provenance meta line;
  /// `std::nullopt` when there is no disk tier, the tier was fresh, or it
  /// predates the meta line.
  std::optional<std::string> loaded_git_sha() const;

 private:
  struct Entry {
    std::string kind;
    std::uint64_t signature = 0;
    NodeEdgeCheckableLcl problem;  // kept built for exact confirmation
    obs::json::Value value;
    /// The derived problem passed to `insert`, written to disk as
    /// `value["next"]`.
    std::optional<NodeEdgeCheckableLcl> next;
    /// False for entries inserted without their canonical form, or with a
    /// derived problem (persisted to disk as "canon" so replay skips their
    /// orbit search too).
    bool canonical_eligible = true;
    /// Canonical-tier key material, filled only when the tier is on, the
    /// entry is eligible, and its canonical form completed within budget:
    /// the permutation-invariant signature and the entry's own
    /// label -> canonical-position map (composed with the query's inverse
    /// map to give the stored -> query relabeling a hit is confirmed
    /// through).
    bool has_canonical = false;
    std::uint64_t canonical_sig = 0;
    std::vector<Label> canonical_old_to_new;
  };
  struct IndexKey {
    std::string kind;
    std::uint64_t signature = 0;
    bool operator==(const IndexKey&) const = default;
  };
  struct IndexKeyHash {
    std::size_t operator()(const IndexKey& k) const noexcept;
  };

  void load_disk_locked();
  void append_disk_locked(const Entry& entry);
  /// True when an entry of this kind/signature holds exactly these
  /// constraints already. Bumps `collisions` per same-signature mismatch.
  bool contains_confirmed_locked(const Entry& entry);
  /// Unconditional insert into the in-memory tier, evicting beyond
  /// capacity.
  void insert_memory_locked(Entry entry);
  /// Fills an eligible entry's canonical key fields when the tier is on,
  /// from `form`, or from an orbit search when it is null (disk replay).
  void fill_canonical_fields(Entry& entry, const lint::CanonicalForm* form);
  /// Exact-tier probe: the confirmed entry (touched for LRU, counted as a
  /// hit) or nullptr, without counting a miss.
  const Entry* find_exact_locked(const std::string& kind,
                                 const NodeEdgeCheckableLcl& problem,
                                 std::uint64_t sig);
  /// Canonical-tier probe for a complete `form` of `problem`: the confirmed
  /// entry (touched for LRU, counted as a canonical hit) or nullptr,
  /// without counting a miss.
  const Entry* find_permuted_locked(const std::string& kind,
                                    const NodeEdgeCheckableLcl& problem,
                                    const lint::CanonicalForm& form);

  mutable std::mutex mutex_;
  Options options_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<IndexKey, std::vector<std::list<Entry>::iterator>,
                     IndexKeyHash>
      index_;
  /// Canonical tier: (kind, canonical signature) -> entries; populated only
  /// when `Options::canonical_tier` is on.
  std::unordered_map<IndexKey, std::vector<std::list<Entry>::iterator>,
                     IndexKeyHash>
      canonical_index_;
  std::unique_ptr<std::ofstream> disk_;
  /// True when the resumed file ends mid-line (a torn append): the next
  /// append starts with a newline so it lands on its own line instead of
  /// concatenating onto the torn one.
  bool disk_needs_newline_ = false;
  /// True when `load_disk_locked` saw any line at all (even torn) - a
  /// non-empty resumed file never gets a second meta line appended.
  bool disk_had_content_ = false;
  std::optional<std::string> loaded_git_sha_;
  CacheStats stats_;
};

}  // namespace lcl::batch
