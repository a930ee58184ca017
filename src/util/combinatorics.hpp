#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/label_set.hpp"

namespace lcl {

/// Enumerates all sorted multisets (combinations with repetition) of
/// cardinality `size` over the universe `{0, .., universe-1}`. Multisets are
/// produced in lexicographic order as sorted vectors.
///
/// Node configurations of an LCL problem (Definition 2.3) are exactly such
/// multisets, so this enumeration drives the faithful round-elimination mode.
std::vector<std::vector<std::uint32_t>> enumerate_multisets(
    std::size_t universe, std::size_t size);

/// Number of multisets of cardinality `size` over a `universe`-element
/// universe, i.e. C(universe + size - 1, size). Saturates at
/// `std::numeric_limits<std::uint64_t>::max()` on overflow.
std::uint64_t count_multisets(std::size_t universe, std::size_t size);

/// Invokes `visit(selection)` for every tuple in the cartesian product
/// `sets[0] x sets[1] x ... x sets.back()`. `selection[i]` is an element of
/// `sets[i]`. Stops early (and returns true) as soon as `visit` returns true;
/// returns false if `visit` never returned true (including when some set is
/// empty, in which case the product is empty).
///
/// This is the quantifier evaluator behind the round-elimination operators:
/// `R(Pi)` asks "does there EXIST a selection in the node constraint"
/// (Definition 3.1) and `Rbar(Pi)` asks "do ALL selections lie in the node
/// constraint" (Definition 3.2) - the latter is evaluated as the negation of
/// an existential over the complement.
bool for_each_selection(
    const std::vector<LabelSet>& sets,
    const std::function<bool(const std::vector<std::uint32_t>&)>& visit);

/// Invokes `visit(sub)` for every non-empty submask of `mask`, in strictly
/// increasing numeric order, via the upward subset walk
/// `sub = (sub - mask) & mask` from 0 - `2^popcount(mask) - 1` visits, one
/// subtract and one mask each. This is the power-set enumeration primitive
/// of the round-elimination kernel: the derived alphabet of `R(Pi)` is
/// exactly the non-empty submasks of the full base word, and `g`-compatible
/// derived labels are exactly the non-empty submasks of `g_Pi(l)`; walking
/// upwards hands both lists over already sorted.
template <typename Visit>
inline void for_each_nonempty_submask(std::uint64_t mask, Visit&& visit) {
  for (std::uint64_t sub = (0 - mask) & mask; sub != 0;
       sub = (sub - mask) & mask) {
    visit(sub);
  }
}

}  // namespace lcl
