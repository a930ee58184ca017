#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/lcl.hpp"

namespace lcl::lint {

/// A raw, *unvalidated* problem description - what a spec file says before
/// anyone has checked it. Unlike `NodeEdgeCheckableLcl` (whose builder
/// rejects malformed input eagerly and silently sorts and deduplicates its
/// configurations), a `ProblemSpec` can hold every mistake the analyzer
/// exists to diagnose: out-of-range label indices, duplicate or unsorted
/// configurations, mismatched `g` tables. Label references are signed so a
/// spec file saying `-1` survives parsing and reaches the L001 pass.
struct ProblemSpec {
  std::string name;
  int max_degree = 0;
  std::vector<std::string> inputs;   // input alphabet, by index
  std::vector<std::string> outputs;  // output alphabet, by index
  std::vector<std::vector<std::int64_t>> node_configs;
  std::vector<std::vector<std::int64_t>> edge_configs;
  /// One row per input label: the outputs `g` permits for it.
  std::vector<std::vector<std::int64_t>> g;
};

/// Lossless conversion from a built problem. The result is already
/// canonical (the builder sorted and deduplicated everything), so the
/// spec-level passes are vacuously clean on it.
ProblemSpec spec_from_problem(const NodeEdgeCheckableLcl& problem);

/// Builds the problem a spec describes. The spec must be structurally valid
/// (no L001 findings); otherwise this throws a `std::logic_error`: an
/// `std::invalid_argument` for a label outside `[0, |outputs|)` (checked
/// before narrowing to `Label`, so no index wraps into range) or a `g`
/// without one row per input, and whatever the builder throws for the
/// rest. Empty `g` rows are permitted (the analyzer reports them as L012,
/// but the pruned problem of a partially starved spec must still build).
NodeEdgeCheckableLcl build_spec(const ProblemSpec& spec);

/// Canonical form: every configuration sorted ascending, configuration
/// lists sorted and deduplicated (node configurations ordered by size then
/// lexicographically), `g` rows sorted and deduplicated. Does not touch
/// alphabets or remove anything else - pruning is the analyzer's job.
ProblemSpec canonicalize(const ProblemSpec& spec);

/// Structural equality of two specs, field by field.
bool operator==(const ProblemSpec& a, const ProblemSpec& b);

}  // namespace lcl::lint
