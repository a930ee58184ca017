#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/lcl.hpp"
#include "re/step.hpp"

namespace lcl {

/// Canonical-form memo of a problem's allowed node configurations: every
/// stored configuration (a sorted multiset of output labels) is packed into
/// a 64- or 128-bit key and hashed exactly once at construction; membership
/// probes are then one pack + one flat hash lookup instead of an ordered-set
/// walk with vector comparisons. This is the lookup structure of the mask
/// kernel (`ReKernel::kMask`), which probes the same configurations over
/// and over across different derived multisets; `reduce()` keeps sorted
/// keys in the same packing.
///
/// Packing uses `bits_per_label = bit_width(|Sigma_out| - 1)` bits per
/// label; a degree packs into one word when `degree * bits_per_label <= 64`
/// and into a two-word key when `<= 128` - the second tier is what keeps
/// 65..128-label iterates (where `bits_per_label` is 7) on the fast path up
/// to degree 18. Unpackable degrees transparently fall back to
/// `NodeEdgeCheckableLcl::node_allows`, so `allows_sorted` is always exact.
class NodeConfigIndex {
 public:
  explicit NodeConfigIndex(const NodeEdgeCheckableLcl& pi);

  /// Words of the packed key for degree-`degree` probes: 1, 2, or 0 when
  /// the degree does not pack (falls back to `node_allows`).
  std::size_t packed_words(std::size_t degree) const {
    if (degree < 1) return 0;
    const std::size_t bits = degree * bits_per_label_;
    if (bits <= 64) return 1;
    if (bits <= 128) return 2;
    return 0;
  }

  /// True when degree-`degree` probes run on a packed fast path.
  bool packable(std::size_t degree) const { return packed_words(degree) != 0; }

  /// True iff the canonical (ascending) multiset `labels[0..degree)` is an
  /// allowed node configuration. `labels` MUST be sorted ascending.
  bool allows_sorted(const Label* labels, std::size_t degree) const;

 private:
  /// A 128-bit packed key; `lo` holds the least-significant bits.
  struct Key128 {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    bool operator==(const Key128& o) const { return hi == o.hi && lo == o.lo; }
  };
  struct Key128Hash {
    std::size_t operator()(const Key128& k) const noexcept {
      // Same splitmix-style fold LabelSet::hash uses per word.
      std::size_t h = static_cast<std::size_t>(k.lo);
      h ^= static_cast<std::size_t>(k.hi) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      return h;
    }
  };

  std::uint64_t pack1(const Label* labels, std::size_t degree) const {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < degree; ++i) {
      key = (key << bits_per_label_) | labels[i];
    }
    return key;
  }
  Key128 pack2(const Label* labels, std::size_t degree) const {
    // Big-integer shift-or: bits_per_label_ < 64 always (alphabets are
    // size_t-indexed), so the cross-word carry shift is well-defined.
    Key128 key;
    for (std::size_t i = 0; i < degree; ++i) {
      key.hi = (key.hi << bits_per_label_) | (key.lo >> (64 - bits_per_label_));
      key.lo = (key.lo << bits_per_label_) | labels[i];
    }
    return key;
  }

  const NodeEdgeCheckableLcl* pi_;
  unsigned bits_per_label_ = 1;
  /// Indexed by degree (0..max_degree); empty for degrees stored in the
  /// other tier (or not packable at all).
  std::vector<std::unordered_set<std::uint64_t>> packed1_;
  std::vector<std::unordered_set<Key128, Key128Hash>> packed2_;
};

class WorkingSet;

/// Internal entry points of the operator enumeration paths; the public
/// `apply_r`/`apply_rbar` and `speedup_step` run them through
/// `re_kernel::apply`, which dispatches on `ReLimits::kernel`. All paths
/// share the alphabet/configuration guards (performed by `apply`), emit
/// identical obs counters, and fill identical lists - `test_re_kernel_parity`
/// fences that.
namespace re_kernel {

/// Appends the edge, node and `g` constraints of `R(pi)` / `Rbar(pi)` to
/// `ws`, a working set over the `2^base - 1` derived labels of `pi`'s base
/// alphabet, where derived label `i` denotes the base-label set whose mask
/// is `i + 1`. `exists_node` is true for `R` (node EXISTS / edge FORALL) and
/// false for `Rbar` (node FORALL / edge EXISTS). Every list arrives in
/// ascending order (edge pairs `a <= b` by row, node multisets in
/// `enumerate_multisets` order, each `g` row ascending), so
/// `WorkingSet::finish` sorts none of them.
///
/// The generic path walks `LabelSet` containers; the mask path computes
/// per-label FORALL/EXISTS partner words by a subset DP, enumerates
/// `g`-compatible labels by upward subset walks, and answers
/// node-quantifier queries through a `NodeConfigIndex`. Both append the
/// same lists (the parity battery fences this). The mask path requires the
/// base output alphabet of `pi` to satisfy `base < 63` - the derived label
/// masks must fit one word - and throws `std::invalid_argument` otherwise.
///
/// `jobs > 1` partitions the outer enumeration (edge rows, node multisets
/// keyed by their first index) across a `batch::Pool` of that many workers,
/// each appending allowed configurations to a flat per-worker arena; the
/// arenas are merged in partition order, so the lists are identical for
/// every jobs value.
void fill_generic(WorkingSet& ws, const NodeEdgeCheckableLcl& pi,
                  bool exists_node);
void fill_mask(WorkingSet& ws, const NodeEdgeCheckableLcl& pi,
               bool exists_node, std::size_t jobs = 1);

/// `R(pi)` (`exists_node`) or `Rbar(pi)` under `limits`, followed by
/// `reduce()` when `reduce` is on. The fill lands in a working set, which
/// gets `Builder::build`'s checks (with its `std::logic_error` texts) on the
/// unreduced lists; with `reduce` on, the passes run on that working set and
/// only the surviving labels are named, built and given a meaning.
ReStep apply(const NodeEdgeCheckableLcl& pi, const ReLimits& limits,
             bool exists_node, bool reduce);

}  // namespace re_kernel

}  // namespace lcl
