#pragma once

#include <utility>
#include <vector>

#include "core/lcl.hpp"
#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "re/step.hpp"

namespace lcl {

/// One level of the round-elimination sequence, as kept by the engine:
/// `psi = R(pi_i)` and `next = Rbar(psi)` (both possibly label-reduced, with
/// `meaning` composed through the reduction). `psi.meaning[l]` is a set of
/// `pi_i` output labels; `next.meaning[l]` is a set of `psi` output labels.
struct SequenceLevel {
  ReStep psi;   // R(pi_i)
  ReStep next;  // Rbar(R(pi_i)) = pi_{i+1}
};

/// The constructive content of Lemma 3.9: given a correct solution of
/// `Rbar(R(pi))` on `(graph, input)`, produce a correct solution of `pi`
/// via the two-step choice
///  1. per edge, pick compatible `R(pi)`-labels out of the two half-edges'
///     label sets (the Rbar edge constraint guarantees a choice exists);
///  2. per node, pick `pi`-labels out of the chosen sets whose multiset is
///     an allowed node configuration (the R node constraint guarantees it).
/// Both choices are deterministic (lexicographically smallest), mirroring
/// the "in some deterministic fashion" of the lemma. They are
/// `choose_edge_pair` and `choose_node_labels` below, which the algorithm
/// `SpeedupEngine::synthesize` returns also makes, one view at a time.
///
/// Throws `std::logic_error` if `solution` is not actually correct for
/// `level.next.problem` (the lemma's preconditions are violated).
HalfEdgeLabeling lift_solution(const NodeEdgeCheckableLcl& pi,
                               const SequenceLevel& level, const Graph& graph,
                               const HalfEdgeLabeling& input,
                               const HalfEdgeLabeling& solution);

/// Step 1 of Lemma 3.9 for one edge whose half-edges carry the
/// `Rbar(psi)` labels `xa` and `xb`: the lexicographically smallest pair
/// (La, Lb) with La in meaning[xa], Lb in meaning[xb] and {La, Lb} an
/// allowed edge of `psi`. Deterministic in (xa, xb), so both endpoints of
/// the edge pick the same pair. `meaning` is `SequenceLevel::next.meaning`.
/// Throws `std::logic_error` when no such pair exists.
std::pair<Label, Label> choose_edge_pair(const NodeEdgeCheckableLcl& psi,
                                         const std::vector<LabelSet>& meaning,
                                         Label xa, Label xb);

/// Step 2 of Lemma 3.9 for one node: from its per-port `psi` labels (fixed
/// by step 1), the `pi` labels l_p in meaning[L_p] whose multiset is an
/// allowed node configuration of `pi`; deterministic backtracking, smallest
/// labels first. `meaning` is `SequenceLevel::psi.meaning`. Throws
/// `std::logic_error` when no selection exists.
std::vector<Label> choose_node_labels(const NodeEdgeCheckableLcl& pi,
                                      const std::vector<LabelSet>& meaning,
                                      const std::vector<Label>& psi_labels);

}  // namespace lcl
