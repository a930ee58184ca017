#include "re/kernel.hpp"

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "re/working_set.hpp"
#include "util/combinatorics.hpp"

namespace lcl {

namespace re_kernel {

namespace {

/// True iff the multiset {sets[0], .., sets[d-1]} admits a selection that is
/// an allowed node configuration of `pi`. Checked per stored configuration
/// via a small backtracking matching (configurations and degrees are tiny).
bool exists_selection_in_node_constraint(const NodeEdgeCheckableLcl& pi,
                                         const std::vector<LabelSet>& sets) {
  const int degree = static_cast<int>(sets.size());
  for (const auto& config : pi.node_configs(degree)) {
    // Match each config label occurrence to a distinct slot whose set
    // contains it.
    const auto& labels = config.labels();
    std::vector<char> used(sets.size(), 0);
    // Recursive matching over config positions.
    const auto match = [&](auto&& self, std::size_t pos) -> bool {
      if (pos == labels.size()) return true;
      for (std::size_t slot = 0; slot < sets.size(); ++slot) {
        if (!used[slot] && sets[slot].contains(labels[pos])) {
          used[slot] = 1;
          if (self(self, pos + 1)) return true;
          used[slot] = 0;
        }
      }
      return false;
    };
    if (match(match, 0)) return true;
  }
  return false;
}

/// True iff EVERY selection from the sets is an allowed node configuration
/// of `pi`.
bool all_selections_in_node_constraint(const NodeEdgeCheckableLcl& pi,
                                       const std::vector<LabelSet>& sets) {
  // Search for a counterexample selection.
  const bool found_bad = for_each_selection(
      sets, [&](const std::vector<std::uint32_t>& selection) {
        return !pi.node_allows(
            Configuration(std::vector<Label>(selection.begin(),
                                             selection.end())));
      });
  return !found_bad;
}

/// Advances `idx` to the lexicographically next non-decreasing tuple over
/// `{0, .., limit-1}` and returns the first slot it changed, or `idx.size()`
/// after the last tuple. From the all-zero tuple this is the order of
/// `enumerate_multisets` without materializing it.
std::size_t next_multiset(std::vector<Label>& idx, Label limit) {
  std::size_t pos = idx.size();
  while (pos > 0 && idx[pos - 1] == limit - 1) --pos;
  if (pos == 0) return idx.size();
  const Label next = idx[pos - 1] + 1;
  for (std::size_t i = pos - 1; i < idx.size(); ++i) idx[i] = next;
  return pos - 1;
}

/// Ranks of the non-decreasing `degree`-tuples over `{0, .., labels-1}` in
/// `next_multiset` order. In the combinatorial number system a tuple's rank
/// is a constant minus one weight per slot, `weight(j, v) =
/// C(labels-1-v + degree-1-j, degree-j)`, so lowering one slot moves the
/// rank by the weights of the slots it passes.
class MultisetRanks {
 public:
  MultisetRanks(std::size_t labels, std::size_t degree)
      : labels_(labels), weights_(labels * degree) {
    // Pascal's rule: weight(j, v) = weight(j, v + 1) + weight(j + 1, v).
    for (std::size_t j = degree; j-- > 0;) {
      for (std::size_t v = labels; v-- > 0;) {
        weights_[j * labels_ + v] =
            j + 1 == degree ? labels - 1 - v
                            : (v + 1 < labels ? weight(j, v + 1) : 0) +
                                  weight(j + 1, v);
      }
    }
  }

  /// The rank of `tuple` with slot `t` lowered to `x < tuple[t]` and
  /// re-sorted, minus the rank of `tuple`, modulo 2^64: the slots before `t`
  /// holding more than `x` move one slot right. It reads `tuple[0..t]` only.
  std::uint64_t lowering(const Label* tuple, std::size_t t, Label x) const {
    std::uint64_t delta = weight(t, tuple[t]);
    for (; t > 0 && tuple[t - 1] > x; --t) {
      delta += weight(t - 1, tuple[t - 1]) - weight(t, tuple[t - 1]);
    }
    return delta - weight(t, x);
  }

 private:
  std::uint64_t weight(std::size_t j, std::size_t v) const {
    return weights_[j * labels_ + v];
  }

  std::size_t labels_;
  std::vector<std::uint64_t> weights_;
};

}  // namespace

void fill_mask(WorkingSet& ws, const NodeEdgeCheckableLcl& pi,
               bool exists_node) {
  const std::size_t base = pi.output_alphabet().size();
  // The derived label indices (2^base - 1 of them) must fit one word; the
  // public operators' alphabet guard rejects such bases long before
  // dispatch, so this only fences direct callers.
  if (base >= 63) {
    std::ostringstream os;
    os << "re_kernel::fill_mask: base alphabet of " << base
       << " labels does not leave room for the 2^base-1 derived masks in one "
          "word";
    throw std::invalid_argument(os.str());
  }
  const std::uint64_t label_count = (std::uint64_t{1} << base) - 1;

  // Per-base-label edge partner words. A built problem has at least one
  // output label, and every base-label set is one word (base < 63).
  std::vector<std::uint64_t> partners(base);
  for (std::size_t b = 0; b < base; ++b) {
    partners[b] = pi.edge_partners(static_cast<Label>(b)).word(0);
  }

  // Subset DP: partner words of every derived mask from its
  // lowest-bit-removed predecessor - one AND/OR per mask.
  std::vector<std::uint64_t> forall(label_count + 1, 0);
  std::vector<std::uint64_t> exists(label_count + 1, 0);
  for (std::uint64_t m = 1; m <= label_count; ++m) {
    const std::size_t b = static_cast<std::size_t>(std::countr_zero(m));
    const std::uint64_t rest = m & (m - 1);
    forall[m] = rest != 0 ? (forall[rest] & partners[b]) : partners[b];
    exists[m] = rest != 0 ? (exists[rest] | partners[b]) : partners[b];
  }

  // Edge constraint. For R ({B1,B2} allowed iff B2 subseteq
  // forall_partners(B1), a symmetric relation) the allowed partners of B1
  // are exactly the non-empty submasks of its FORALL word - an upward
  // subset walk visits just those, in ascending order, instead of testing
  // every pair. For Rbar one AND decides each pair.
  for (std::uint64_t mi = 1; mi <= label_count; ++mi) {
    if (exists_node) {
      for_each_nonempty_submask(forall[mi], [&](std::uint64_t sub) {
        if (sub >= mi) {
          ws.add_edge(static_cast<Label>(mi - 1), static_cast<Label>(sub - 1));
        }
      });
    } else {
      const std::uint64_t any = exists[mi];
      for (std::uint64_t mj = mi; mj <= label_count; ++mj) {
        if ((mj & any) != 0) {
          ws.add_edge(static_cast<Label>(mi - 1), static_cast<Label>(mj - 1));
        }
      }
    }
  }

  // Node constraint per degree: walk the non-decreasing index tuples in
  // enumerate_multisets order (without materializing them). Derived label i
  // IS the mask i + 1. A tuple of singleton slots has one selection, looked
  // up in the base problem's configurations. Any other tuple splits the
  // lowest bit b off its first slot of two or more bits: its selections are
  // those with that slot minus b and those with that slot = {b}, so Rbar's
  // FORALL ANDs the two verdicts and R's EXISTS ORs them. Both tuples, once
  // sorted, come earlier in this order, so `verdict` (one byte per
  // candidate, by rank) already holds them.
  for (int d = 1; d <= pi.max_degree(); ++d) {
    const auto degree = static_cast<std::size_t>(d);
    const DegreeConfigs allowed(pi, degree);
    const MultisetRanks ranks(label_count, degree);
    std::vector<std::uint8_t> verdict(count_multisets(label_count, degree));
    std::vector<Label> idx(degree, 0);
    std::vector<Label> selection(degree);
    std::uint64_t rank = 0;
    // The first slot of two or more bits (`degree`: none) and the rank
    // offsets of the two smaller tuples. They read the slots up to `t` only,
    // so they hold until a step changes one of those.
    std::size_t t = degree;
    std::uint64_t minus = 0;
    std::uint64_t single = 0;
    std::size_t changed = 0;
    do {
      if (changed <= t) {
        t = 0;
        while (t < degree && std::has_single_bit(std::uint64_t{idx[t]} + 1)) {
          ++t;
        }
        if (t < degree) {
          const std::uint64_t slot = std::uint64_t{idx[t]} + 1;
          const std::uint64_t low = slot & (~slot + 1);
          minus = ranks.lowering(idx.data(), t,
                                 static_cast<Label>((slot ^ low) - 1));
          single = ranks.lowering(idx.data(), t, static_cast<Label>(low - 1));
        }
      }
      bool ok;
      if (t == degree) {
        for (std::size_t i = 0; i < degree; ++i) {
          selection[i] =
              static_cast<Label>(std::countr_zero(std::uint64_t{idx[i]} + 1));
        }
        ok = allowed.contains(selection.data());
      } else {
        // A true verdict settles EXISTS, a false one FORALL.
        ok = verdict[rank + minus] != 0;
        if (ok != exists_node) ok = verdict[rank + single] != 0;
      }
      verdict[rank++] = ok ? 1 : 0;
      if (ok) ws.add_node(degree, idx.data());
      changed = next_multiset(idx, static_cast<Label>(label_count));
    } while (changed < degree);
  }

  // g: the derived labels compatible with input l are exactly the
  // non-empty submasks of g_Pi(l) - enumerated directly by a subset walk.
  for (Label in = 0; in < pi.input_alphabet().size(); ++in) {
    for_each_nonempty_submask(
        pi.allowed_outputs(in).word(0), [&](std::uint64_t sub) {
          ws.allow_output(in, static_cast<Label>(sub - 1));
        });
  }
}

void fill_generic(WorkingSet& ws, const NodeEdgeCheckableLcl& pi,
                  bool exists_node) {
  const std::size_t base = pi.output_alphabet().size();
  std::vector<LabelSet> derived =
      all_nonempty_subsets(base, /*max_universe_bits=*/62);
  const std::size_t label_count = derived.size();

  // Precompute, per derived label B:
  //  - forall_partners(B) = { b : {b1, b} in E_Pi for ALL b1 in B }
  //  - exists_partners(B) = { b : {b1, b} in E_Pi for SOME b1 in B }
  std::vector<LabelSet> forall_partners(label_count, LabelSet(base));
  std::vector<LabelSet> exists_partners(label_count, LabelSet(base));
  for (std::size_t i = 0; i < label_count; ++i) {
    LabelSet all = LabelSet::full(base);
    LabelSet any(base);
    for (const auto b : derived[i].to_vector()) {
      all = all.intersect_with(pi.edge_partners(b));
      any = any.union_with(pi.edge_partners(b));
    }
    forall_partners[i] = std::move(all);
    exists_partners[i] = std::move(any);
  }

  // Edge constraint.
  for (std::size_t i = 0; i < label_count; ++i) {
    for (std::size_t j = i; j < label_count; ++j) {
      const bool allowed =
          exists_node
              // R: edge is the FORALL side.
              ? derived[j].is_subset_of(forall_partners[i])
              // Rbar: edge is the EXISTS side.
              : derived[j].intersects(exists_partners[i]);
      if (allowed) {
        ws.add_edge(static_cast<Label>(i), static_cast<Label>(j));
      }
    }
  }

  // Node constraint per degree.
  std::vector<LabelSet> slot_sets;
  for (int d = 1; d <= pi.max_degree(); ++d) {
    for (const auto& multiset :
         enumerate_multisets(label_count, static_cast<std::size_t>(d))) {
      slot_sets.clear();
      for (const auto l : multiset) slot_sets.push_back(derived[l]);
      const bool allowed =
          exists_node ? exists_selection_in_node_constraint(pi, slot_sets)
                      : all_selections_in_node_constraint(pi, slot_sets);
      if (allowed) ws.add_node(multiset.size(), multiset.data());
    }
  }

  // g: derived label allowed for input l iff its meaning is a subset of
  // g_Pi(l).
  for (Label in = 0; in < pi.input_alphabet().size(); ++in) {
    const LabelSet& allowed = pi.allowed_outputs(in);
    for (std::size_t i = 0; i < label_count; ++i) {
      if (derived[i].is_subset_of(allowed)) {
        ws.allow_output(in, static_cast<Label>(i));
      }
    }
  }
}

}  // namespace re_kernel
}  // namespace lcl
