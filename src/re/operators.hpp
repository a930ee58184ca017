#pragma once

#include "re/step.hpp"

namespace lcl {

/// Definition 3.1: the problem `R(Pi)`.
///
///  - output labels: non-empty subsets of `Sigma_out(Pi)` (the empty set is
///    excluded: it can never occur in a valid node configuration, since the
///    node constraint requires an existing selection);
///  - edge constraint: `{B1, B2}` allowed iff ALL pairs `(b1, b2)` in
///    `B1 x B2` are allowed edges of `Pi`;
///  - node constraint: `{A1, .., Ai}` allowed iff SOME selection
///    `(a1, .., ai)` in `A1 x .. x Ai` is an allowed node configuration of
///    `Pi`;
///  - `g(l)`: subsets of `g_Pi(l)`.
///
/// As in the paper (note after Definition 3.1), non-maximal configurations
/// are NOT removed here; use `reduce()` for the sound label-level
/// simplifications. `reduce_step(apply_r(pi))` is the definition that
/// `speedup_step` computes without building this problem; both run the
/// same fill, checks and naming. Throws `ReBlowupError` when the
/// enumeration would exceed `limits`, and `std::logic_error` with
/// `Builder::build`'s text when the derived problem would not build (an
/// input of `pi` permits no output label). `limits.kernel` selects the
/// enumeration implementation (dense bitmask kernels by default - see
/// `re/kernel.hpp`); all kernels build constraint-identical problems.
ReStep apply_r(const NodeEdgeCheckableLcl& pi, const ReLimits& limits = {});

/// Definition 3.2: the problem `Rbar(Pi)` - same alphabets and `g` as
/// `R(Pi)`, with the quantifiers swapped: node constraint requires ALL
/// selections to be allowed node configurations of `Pi`, edge constraint
/// requires SOME selection to be an allowed edge of `Pi`.
///
/// The paper applies `Rbar` only to problems of the form `R(Pi)`; the
/// operator itself accepts any node-edge-checkable problem.
ReStep apply_rbar(const NodeEdgeCheckableLcl& pi, const ReLimits& limits = {});

}  // namespace lcl
