#pragma once

#include "core/lcl.hpp"
#include "re/step.hpp"

namespace lcl {

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
/// false for `Rbar` (node FORALL / edge EXISTS). Both fills are one serial
/// loop per list, and every list arrives in ascending order (edge pairs
/// `a <= b` by row, node multisets in `enumerate_multisets` order, each `g`
/// row ascending), so `WorkingSet::finish` sorts none of them.
///
/// The generic path walks `LabelSet` containers and each candidate's whole
/// selection product. The mask path computes per-label FORALL/EXISTS
/// partner words by a subset DP, enumerates `g`-compatible labels by upward
/// subset walks, and decides both operators' node quantifiers by one subset
/// DP over the candidates of a degree: a candidate splits the lowest bit
/// off its first slot of two or more labels, and its verdict is the AND
/// (`Rbar`'s FORALL) or OR (`R`'s EXISTS) of two earlier candidates'
/// verdicts, kept one byte per candidate by rank and freed after the
/// degree. Only candidates of singleton slots look their one selection up
/// in the base problem's configurations, packed as a `DegreeConfigs`. Both
/// paths append the same lists (the parity battery fences this). The mask
/// path requires the base output alphabet of `pi` to satisfy `base < 63` -
/// the derived label masks must fit one word - and throws
/// `std::invalid_argument` otherwise.
void fill_generic(WorkingSet& ws, const NodeEdgeCheckableLcl& pi,
                  bool exists_node);
void fill_mask(WorkingSet& ws, const NodeEdgeCheckableLcl& pi,
               bool exists_node);

/// `R(pi)` (`exists_node`) or `Rbar(pi)` under `limits`, followed by
/// `reduce()` when `reduce` is on. The fill lands in a working set, which
/// gets `Builder::build`'s checks (with its `std::logic_error` texts) on the
/// unreduced lists; with `reduce` on, the passes run on that working set and
/// only the surviving labels are named, built and given a meaning.
ReStep apply(const NodeEdgeCheckableLcl& pi, const ReLimits& limits,
             bool exists_node, bool reduce);

}  // namespace re_kernel

}  // namespace lcl
