#include "re/kernel.hpp"

#include <bit>
#include <cstdint>
#include <optional>
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

/// One step of the config-into-slots matching: can occurrences
/// `labels[pos..degree)` be assigned to distinct unused slots whose words
/// contain them? `used[slot]` marks the slots taken so far; every call
/// leaves it as it found it. Since configurations are sorted, equal labels
/// are adjacent; forcing equal occurrences into increasing slots
/// (`min_slot`) collapses the permutations of identical labels to one
/// canonical assignment.
bool config_fits_slots(const Label* labels, std::size_t degree,
                       const std::uint64_t* slots, char* used, std::size_t pos,
                       std::size_t min_slot) {
  if (pos == degree) return true;
  const Label l = labels[pos];
  const std::size_t start =
      pos > 0 && labels[pos - 1] == l ? min_slot + 1 : 0;
  for (std::size_t slot = start; slot < degree; ++slot) {
    if (used[slot] == 0 && ((slots[slot] >> l) & 1) != 0) {
      used[slot] = 1;
      const bool fits =
          config_fits_slots(labels, degree, slots, used, pos + 1, slot);
      used[slot] = 0;
      if (fits) return true;
    }
  }
  return false;
}

/// Mask variant of the EXISTS quantifier: a selection exists iff some
/// stored configuration (flattened, `degree` labels per row) matches into
/// the slot words. `used` is `degree` zeroed scratch slots.
bool exists_selection_mask(const std::vector<Label>& flat_configs,
                           const std::uint64_t* slots, std::size_t degree,
                           char* used) {
  for (std::size_t at = 0; at < flat_configs.size(); at += degree) {
    if (config_fits_slots(flat_configs.data() + at, degree, slots, used, 0,
                          0)) {
      return true;
    }
  }
  return false;
}

/// Mask variant of the FORALL quantifier: walks the cartesian product of
/// the slot words' set bits, canonicalizes each selection by insertion sort
/// into `sorted` (degrees are tiny), and looks it up in `allowed`, the base
/// problem's configurations of this degree; aborts on the first disallowed
/// selection.
bool all_selections_mask(const DegreeConfigs& allowed,
                         const std::uint64_t* slots, std::size_t degree,
                         Label* selection, Label* sorted) {
  const auto walk = [&](auto&& self, std::size_t slot) -> bool {
    if (slot == degree) {
      for (std::size_t i = 0; i < degree; ++i) {
        const Label l = selection[i];
        std::size_t j = i;
        while (j > 0 && sorted[j - 1] > l) {
          sorted[j] = sorted[j - 1];
          --j;
        }
        sorted[j] = l;
      }
      return allowed.contains(sorted);
    }
    for (std::uint64_t word = slots[slot]; word != 0; word &= word - 1) {
      selection[slot] = static_cast<Label>(std::countr_zero(word));
      if (!self(self, slot + 1)) return false;
    }
    return true;
  };
  return walk(walk, 0);
}

/// Advances `idx` to the lexicographically next non-decreasing tuple over
/// `{0, .., limit-1}`; returns false after the last one. From the all-zero
/// tuple this is the order of `enumerate_multisets` without materializing
/// it.
bool next_multiset(std::vector<Label>& idx, Label limit) {
  std::size_t pos = idx.size();
  while (pos > 0 && idx[pos - 1] == limit - 1) --pos;
  if (pos == 0) return false;
  const Label next = idx[pos - 1] + 1;
  for (std::size_t i = pos - 1; i < idx.size(); ++i) idx[i] = next;
  return true;
}

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
  // enumerate_multisets order (without materializing them) and evaluate the
  // quantifier on the slot words. Derived label i IS the mask i + 1.
  for (int d = 1; d <= pi.max_degree(); ++d) {
    const auto degree = static_cast<std::size_t>(d);
    // R's EXISTS matching scans the stored configurations, copied once into
    // one flat row-per-config array; Rbar's FORALL probe looks selections
    // up in them packed.
    std::vector<Label> flat_configs;
    std::optional<DegreeConfigs> allowed;
    if (exists_node) {
      const auto& stored = pi.node_configs(d);
      flat_configs.reserve(stored.size() * degree);
      for (const auto& config : stored) {
        flat_configs.insert(flat_configs.end(), config.labels().begin(),
                            config.labels().end());
      }
    } else {
      allowed.emplace(pi, degree);
    }
    std::vector<Label> idx(degree, 0);
    std::vector<std::uint64_t> slots(degree);
    std::vector<char> used(degree, 0);
    std::vector<Label> selection(degree);
    std::vector<Label> sorted(degree);
    do {
      for (std::size_t t = 0; t < degree; ++t) {
        slots[t] = std::uint64_t{idx[t]} + 1;
      }
      if (exists_node ? exists_selection_mask(flat_configs, slots.data(),
                                              degree, used.data())
                      : all_selections_mask(*allowed, slots.data(), degree,
                                            selection.data(), sorted.data())) {
        ws.add_node(degree, idx.data());
      }
    } while (next_multiset(idx, static_cast<Label>(label_count)));
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
