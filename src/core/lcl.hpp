#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/alphabet.hpp"
#include "core/configuration.hpp"
#include "util/label_set.hpp"

namespace lcl {

/// A node-edge-checkable LCL problem (Definition 2.3):
/// `Pi = (Sigma_in, Sigma_out, N_Pi, E_Pi, g_Pi)`.
///
/// - `Sigma_in`, `Sigma_out`: finite input/output label alphabets;
/// - `N_Pi` (node constraint): for each degree `i`, the collection of
///   cardinality-`i` multisets of output labels allowed around a node;
/// - `E_Pi` (edge constraint): the collection of cardinality-2 multisets of
///   output labels allowed on the two half-edges of an edge;
/// - `g_Pi`: maps each input label to the set of output labels allowed on a
///   half-edge carrying that input.
///
/// A correct solution labels every half-edge with an output label such that
/// all three constraints hold everywhere (Definition 2.3, items 1-3).
///
/// Instances are immutable; use `Builder` to construct them. Immutable also
/// means shared: a problem is a name plus a pointer to one constraint-table
/// block that `Builder::build()` fills once and nothing ever mutates, so
/// copying a problem (or renaming a copy) bumps a reference count and never
/// copies a configuration. Copies may live on different threads.
class NodeEdgeCheckableLcl {
 public:
  class Builder;

  /// Default-constructs an *empty* problem (no alphabets, no constraints).
  /// Only useful as a placeholder to move a built problem into; every query
  /// on an empty problem returns "nothing allowed".
  NodeEdgeCheckableLcl() = default;

  const std::string& name() const noexcept { return name_; }
  /// This problem under another name (names never affect constraints); the
  /// result shares this problem's tables.
  NodeEdgeCheckableLcl renamed(std::string name) && {
    name_ = std::move(name);
    return std::move(*this);
  }
  const Alphabet& input_alphabet() const noexcept { return tables().input; }
  const Alphabet& output_alphabet() const noexcept { return tables().output; }

  /// Maximum node degree for which node configurations exist.
  int max_degree() const noexcept { return tables().max_degree; }

  /// True iff the multiset `config` is an allowed node configuration for
  /// degree `config.size()`.
  bool node_allows(const Configuration& config) const;

  /// True iff `{a, b}` is an allowed edge configuration.
  bool edge_allows(Label a, Label b) const;

  /// The set of output labels `b` such that `{a, b}` is an allowed edge
  /// configuration. Useful for constraint propagation.
  const LabelSet& edge_partners(Label a) const;

  /// `g_Pi(input)`: outputs allowed on a half-edge with this input label.
  const LabelSet& allowed_outputs(Label input) const;

  /// All node configurations of a given degree (may be empty), sorted
  /// ascending and free of duplicates.
  const std::vector<Configuration>& node_configs(int degree) const;

  /// All edge configurations, sorted ascending and free of duplicates.
  const std::vector<Configuration>& edge_configs() const noexcept {
    return tables().edge;
  }

  /// Total number of node configurations across all degrees.
  std::size_t total_node_configs() const noexcept;

  /// Multi-line human-readable rendering of the whole problem definition.
  std::string to_string() const;

 private:
  /// Everything but the name. Each configuration list is sorted by
  /// `Configuration::operator<` and free of repeats, so membership is a
  /// binary search and every walk over a list visits its configurations in
  /// canonical order.
  struct Tables {
    Alphabet input;
    Alphabet output;
    int max_degree = 0;
    std::vector<std::vector<Configuration>> node;  // indexed by degree
    std::vector<Configuration> edge;
    std::vector<LabelSet> edge_partners;  // indexed by output label
    std::vector<LabelSet> g;              // indexed by input label
  };

  NodeEdgeCheckableLcl(std::string name, std::shared_ptr<const Tables> tables)
      : name_(std::move(name)), tables_(std::move(tables)) {}

  /// The tables a default-constructed problem answers from: no labels, no
  /// configurations.
  static const Tables& no_tables() noexcept;
  const Tables& tables() const noexcept {
    return tables_ ? *tables_ : no_tables();
  }

  friend bool same_constraints(const NodeEdgeCheckableLcl& a,
                               const NodeEdgeCheckableLcl& b);

  std::string name_;
  std::shared_ptr<const Tables> tables_;  // null only when default-built
};

/// Structural equality of two problems' constraint systems: same alphabet
/// sizes, same max degree, identical node/edge configuration sets and
/// identical `g` sets, all compared label-index by label-index. Names (of
/// the problems and of the labels) are ignored: two problems that differ
/// only in naming behave identically everywhere.
///
/// This is the exact confirmation behind the engine's cheap fixed-point
/// signature: a matching signature is necessary but not sufficient. Two
/// problems sharing one table block (copies of each other) compare equal
/// without a walk.
bool same_constraints(const NodeEdgeCheckableLcl& a,
                      const NodeEdgeCheckableLcl& b);

/// `same_constraints` between `b` and `a` with its output labels renamed
/// through `a_to_b` (old index -> new index; inputs stay put): every node
/// configuration, edge configuration and `g` set of `a`, mapped label by
/// label, must be exactly `b`'s. Answers what building the relabeled copy
/// of `a` and comparing it would, without building it - the canonical
/// cache tier confirms its hits this way. Throws `std::invalid_argument`
/// when `a_to_b` is not a permutation of `a`'s output alphabet.
bool same_constraints_permuted(const NodeEdgeCheckableLcl& a,
                               const std::vector<Label>& a_to_b,
                               const NodeEdgeCheckableLcl& b);

/// True iff some permutation of the *output* labels (identity on inputs)
/// maps `a`'s constraint system exactly onto `b`'s - i.e. the problems are
/// equal up to renaming output labels. Backtracking over permutations,
/// pruned by per-label invariants; `max_attempts` bounds the number of
/// candidate assignments examined (returns false when exhausted, so a
/// `false` from huge pathological alphabets is conservative).
bool isomorphic_constraints(const NodeEdgeCheckableLcl& a,
                            const NodeEdgeCheckableLcl& b,
                            std::uint64_t max_attempts = 1'000'000);

/// Incremental builder for `NodeEdgeCheckableLcl`. All label arguments are
/// validated eagerly; `build()` additionally checks structural sanity (every
/// referenced degree has a constraint table, `g` covers all input labels).
class NodeEdgeCheckableLcl::Builder {
 public:
  /// `max_degree` bounds the degrees for which node configurations may be
  /// added (the `Delta` of the paper; LCLs are defined on bounded-degree
  /// graphs only).
  Builder(std::string name, Alphabet input, Alphabet output, int max_degree);

  /// Allows the node configuration given by `labels` (its degree is
  /// `labels.size()`). Both overloads, like `allow_edge`, append; `build()`
  /// sorts a list only when its configurations arrived out of order (the
  /// operators and `reduce()` build from a working set whose lists are all
  /// ascending) and then drops repeats.
  Builder& allow_node(const std::vector<Label>& labels);
  /// Move overload: additionally reuses the label vector.
  Builder& allow_node(std::vector<Label>&& labels);

  /// Allows the edge configuration `{a, b}`.
  Builder& allow_edge(Label a, Label b);

  /// Permits output `out` on half-edges whose input label is `in`.
  Builder& allow_output_for_input(Label in, Label out);

  /// Permits every output label for input `in`.
  Builder& allow_all_outputs_for_input(Label in);

  /// Permits every output label for every input label (the common case of an
  /// LCL "without inputs", footnote 2 of the paper).
  Builder& unrestricted_inputs();

  /// Opts out of the build-time check that every input label permits at
  /// least one output. A problem violating it is unsolvable on any instance
  /// where that input occurs - usually a specification bug, but derived
  /// problems (round elimination after trimming) can hit it legitimately.
  Builder& allow_unsatisfiable_inputs();

  /// Finalizes: sorts and deduplicates the configuration lists and freezes
  /// the tables into the block every copy of the result shares. Throws
  /// `std::logic_error` if no node or edge configuration was added, or if
  /// some input label has an empty `g` set while node configurations exist
  /// (such a problem is trivially unsolvable on any graph with an edge; we
  /// reject it to surface specification bugs early).
  NodeEdgeCheckableLcl build();

 private:
  void check_output_label(Label l) const;
  void check_input_label(Label l) const;

  std::string name_;
  Tables tables_;
  bool built_ = false;
  bool allow_unsatisfiable_inputs_ = false;
};

}  // namespace lcl
