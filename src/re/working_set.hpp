#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/alphabet.hpp"
#include "core/lcl.hpp"
#include "re/reduce.hpp"
#include "util/label_set.hpp"

// Internal to `src/re`: the constraint lists a derived or reduced problem is
// assembled in before it is built. The operators' fill appends to a working
// set, `reduce()` runs its passes on one, and each builds its problem from
// it once.

namespace lcl {

/// Sorts `list` when it is out of order and drops repeats.
template <typename T>
void sort_unique(std::vector<T>& list) {
  if (!std::is_sorted(list.begin(), list.end())) {
    std::sort(list.begin(), list.end());
  }
  list.erase(std::unique(list.begin(), list.end()), list.end());
}

/// Bits per label when configurations over `labels` labels are packed.
inline unsigned label_bits(std::size_t labels) {
  return labels <= 1 ? 1u : static_cast<unsigned>(std::bit_width(labels - 1));
}

/// The allowed node configurations of one degree: sorted, duplicate-free
/// multisets of output labels. A configuration packs into one 64-bit key
/// when `degree * bits` fits a word, `bits` per label with the first label
/// most significant, so key order is the lexicographic order of the label
/// vectors. Wider degrees keep label vectors. This is the one packing of
/// node configurations: the working set keeps its lists in it, and `Rbar`'s
/// mask fill looks its FORALL selections up in the base problem's
/// configurations through it.
class DegreeConfigs {
 public:
  DegreeConfigs(std::size_t degree, unsigned bits)
      : degree_(degree), bits_(bits), packed_(degree * bits <= 64) {}
  /// The degree-`degree` configurations of the built problem `p`, packed
  /// with `label_bits` of its output alphabet. A built problem keeps them
  /// ascending and distinct, and packing keeps their order, so they need
  /// no `finish`.
  DegreeConfigs(const NodeEdgeCheckableLcl& p, std::size_t degree)
      : DegreeConfigs(degree, label_bits(p.output_alphabet().size())) {
    for (const auto& c : p.node_configs(static_cast<int>(degree))) {
      add(c.labels().data());
    }
  }

  std::size_t degree() const { return degree_; }
  /// True when the configurations are one-word keys, false when they are
  /// label vectors.
  bool packed() const { return packed_; }
  std::size_t size() const { return packed_ ? keys_.size() : wide_.size(); }

  /// Adds the ascending multiset `labels[0..degree)`; `finish` restores the
  /// order and drops duplicates after the last add.
  void add(const Label* labels) {
    if (packed_) {
      keys_.push_back(pack(labels, degree_));
    } else {
      wide_.emplace_back(labels, labels + degree_);
    }
  }
  void finish() {
    sort_unique(keys_);
    sort_unique(wide_);
  }

  /// True iff the ascending multiset `labels[0..degree)` is stored.
  bool contains(const Label* labels) const {
    if (packed_) {
      return std::binary_search(keys_.begin(), keys_.end(),
                                pack(labels, degree_));
    }
    return std::binary_search(wide_.begin(), wide_.end(),
                              std::vector<Label>(labels, labels + degree_));
  }

  /// True iff `pred(labels)` holds for every configuration; visits them in
  /// ascending order and stops at the first that fails.
  template <typename Pred>
  bool all_of(Pred&& pred) const {
    for (const auto& config : wide_) {
      if (!pred(config.data())) return false;
    }
    std::array<Label, 64> labels{};  // a packed degree is at most 64
    for (const std::uint64_t key : keys_) {
      std::uint64_t rest = key;
      for (std::size_t i = degree_; i-- > 0;) {
        labels[i] = static_cast<Label>(rest & label_mask());
        rest >>= bits_;
      }
      if (!pred(labels.data())) return false;
    }
    return true;
  }

  /// Calls `visit(labels)` on every configuration, in ascending order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    all_of([&](const Label* labels) {
      visit(labels);
      return true;
    });
  }

  /// Calls `visit(label, context)` once per distinct label of every
  /// configuration, where `context` numbers the multiset left after
  /// deleting one occurrence of `label`. Equal multisets get equal numbers;
  /// fresh ones are drawn from `next` onward.
  template <typename Visit>
  void for_each_context(std::uint32_t& next, Visit&& visit) const {
    std::vector<Label> context(degree_ - 1);
    const auto contexts = [&](auto& ids, auto key_of) {
      for_each([&](const Label* labels) {
        for (std::size_t i = 0; i < degree_; ++i) {
          if (i > 0 && labels[i] == labels[i - 1]) continue;
          std::copy(labels, labels + i, context.begin());
          std::copy(labels + i + 1, labels + degree_,
                    context.begin() + static_cast<std::ptrdiff_t>(i));
          const auto [it, fresh] = ids.try_emplace(key_of(), next);
          if (fresh) ++next;
          visit(labels[i], it->second);
        }
      });
    };
    if (packed_) {
      std::unordered_map<std::uint64_t, std::uint32_t> ids;
      contexts(ids, [&] { return pack(context.data(), degree_ - 1); });
    } else {
      std::map<std::vector<Label>, std::uint32_t> ids;
      contexts(ids, [&] { return context; });
    }
  }

 private:
  std::uint64_t label_mask() const { return (std::uint64_t{1} << bits_) - 1; }
  std::uint64_t pack(const Label* labels, std::size_t count) const {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < count; ++i) key = (key << bits_) | labels[i];
    return key;
  }

  std::size_t degree_;
  unsigned bits_;
  bool packed_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::vector<Label>> wide_;
};

/// Original labels through successive relabelings - the bookkeeping of
/// merge-and-shrink's `Labels::reduce_labels`, and the one place where the
/// passes compose label maps.
class LabelMap {
 public:
  explicit LabelMap(std::size_t labels)
      : old_to_new_(labels), new_to_old_(labels) {
    std::iota(old_to_new_.begin(), old_to_new_.end(), Label{0});
    std::iota(new_to_old_.begin(), new_to_old_.end(), Label{0});
  }

  /// Current label `l` becomes `image[l]` (`kDropped`: its original labels
  /// have no image), and new label `m` is represented by current label
  /// `reps[m]`, which must be kept under its own image.
  void reduce(const std::vector<Label>& image, const std::vector<Label>& reps) {
    for (auto& m : old_to_new_) {
      if (m != Reduction::kDropped) m = image[m];
    }
    std::vector<Label> new_to_old(reps.size());
    for (std::size_t m = 0; m < reps.size(); ++m) {
      new_to_old[m] = new_to_old_[reps[m]];
    }
    new_to_old_ = std::move(new_to_old);
  }

  const std::vector<Label>& old_to_new() const { return old_to_new_; }
  const std::vector<Label>& new_to_old() const { return new_to_old_; }

 private:
  std::vector<Label> old_to_new_;
  std::vector<Label> new_to_old_;
};

/// What a label's behaviour depends on, as ascending feature ids: its edge
/// partners `p` (ids `p`), the inputs whose `g`-set holds it (ids
/// `labels + in`), and its node contexts - the multisets left after deleting
/// one occurrence of it from an allowed configuration, tagged with the
/// degree (ids from `labels + inputs` on). Labels with equal features are
/// interchangeable; `reduce.hpp` explains why `a` is dominated by `b`
/// exactly when features(a) is a subset of features(b).
struct Features {
  static constexpr std::uint8_t kPartner = 1;
  static constexpr std::uint8_t kInput = 2;
  static constexpr std::uint8_t kNode = 4;

  std::vector<std::uint32_t> start;  // label l owns ids[start[l]..start[l+1])
  std::vector<std::uint32_t> ids;
  std::vector<std::uint8_t> kinds;  // which feature kinds each label has
  std::size_t count = 0;            // feature ids in use

  std::span<const std::uint32_t> of(Label l) const {
    return {ids.data() + start[l], ids.data() + start[l + 1]};
  }
};

/// The domination relation of one pass: entry `a` holds every `b != a`
/// that dominates `a`.
using Dominators = std::vector<LabelSet>;

/// What `WorkingSet::build` calls the problem it builds: the problem's
/// name, its input alphabet, and the name of each output label in the
/// working set's original numbering.
struct Naming {
  const std::string& problem;
  const Alphabet& inputs;
  std::function<std::string(Label)> output;
};

/// A problem's constraints in flat lists under one label numbering: node
/// configurations per degree as sorted packed keys, sorted edges, per-input
/// ascending `g` lists, and the map from the current labels to the original
/// ones. It is filled either from a built problem or by appending lists (the
/// operators' fill) and then `finish`ed; every pass reads it and changes it
/// only through `shrink`; the problem it describes is built from it once.
class WorkingSet {
 public:
  /// No configurations yet, over `labels` output labels and `inputs` input
  /// labels, for degrees 1..max_degree.
  WorkingSet(std::size_t labels, std::size_t inputs, int max_degree);
  /// The constraints of a built problem.
  explicit WorkingSet(const NodeEdgeCheckableLcl& p);

  /// Appending, before `finish`: the ascending multiset
  /// `labels[0..degree)`, the edge `{a, b}`, and output `out` for input `in`.
  void add_node(std::size_t degree, const Label* labels) {
    node_[degree - 1].add(labels);
  }
  void add_edge(Label a, Label b) {
    edges_.emplace_back(std::min(a, b), std::max(a, b));
  }
  void allow_output(Label in, Label out) { g_[in].push_back(out); }
  /// Sorts each appended list that arrived out of order and drops repeats.
  void finish();

  std::size_t labels() const { return labels_; }
  /// The node configurations of every degree plus the edges in the lists.
  std::size_t configs() const {
    std::size_t count = edges_.size();
    for (const auto& c : node_) count += c.size();
    return count;
  }
  const LabelMap& map() const { return map_; }
  bool constraints_empty() const {
    return edges_.empty() ||
           std::all_of(node_.begin(), node_.end(),
                       [](const DegreeConfigs& c) { return c.size() == 0; });
  }

  /// Throws the `std::logic_error` that `Builder::build` throws, with its
  /// text, when no node configuration or no edge configuration is left.
  void check_constraints() const;
  /// `check_constraints`, then `Builder::build`'s last check: every input
  /// label (named by `inputs`) permits some output label.
  void check_buildable(const Alphabet& inputs) const;

  /// Relabels the current labels: label `l` becomes `old_to_new[l]` in the
  /// constraints - `kDropped` removes it with every configuration naming it
  /// - and `image[l]` in the label map (a dropped label may follow a kept
  /// one there). New label `m` is represented by current label
  /// `new_to_old[m]`.
  void shrink(const std::vector<Label>& old_to_new,
              const std::vector<Label>& new_to_old,
              const std::vector<Label>& image);

  /// The features of the current labels, computed in one pass over the
  /// constraints and kept until the next `shrink`.
  const Features& features() {
    if (!features_) features_ = compute_features();
    return *features_;
  }

  /// The `kGeneric` domination predicate: the original pair scan, which
  /// walks every node configuration for each ordered pair and probes the
  /// multiset with one occurrence replaced.
  Dominators dominators_generic() const;
  /// The mask domination predicate: `a`'s dominators are the labels
  /// holding every feature of `a`. Each feature keeps a holder mask of
  /// `ceil(labels / 64)` words, and `a`'s row starts as every other label
  /// and ANDs in the holder mask of each of its features.
  Dominators dominators_mask();

  /// Builds the problem the working set describes; each label is named
  /// after its representative original label. Only the current labels are
  /// named.
  NodeEdgeCheckableLcl build(const Naming& naming) const;

 private:
  Features compute_features() const;

  std::size_t labels_;
  std::size_t inputs_;
  unsigned bits_;
  std::vector<DegreeConfigs> node_;  // node_[d - 1] holds degree d
  std::vector<std::pair<Label, Label>> edges_;  // ascending, first <= second
  std::vector<std::vector<Label>> g_;           // per input, ascending
  LabelMap map_;
  std::optional<Features> features_;
};

/// `reduce()` on a finished working set: trim, merge and dominate to their
/// fixpoint under the `re/reduce` span, then one build named by `naming`.
/// `unchanged`, when given, is returned as the problem if no pass changed
/// anything. The span's `labels_in` is the working set's size on entry.
Reduction reduce_working_set(WorkingSet& ws, const Naming& naming,
                             ReKernel kernel,
                             const NodeEdgeCheckableLcl* unchanged = nullptr);

}  // namespace lcl
