#pragma once

#include "classify/cycle_classifier.hpp"

namespace lcl {

/// Outcome of the path classification (same class enum as cycles; on paths
/// the known trichotomy for solvable no-input LCLs is O(1) / Theta(log* n)
/// / Theta(n) as well, Section 1.4).
struct PathClassification {
  CycleComplexity complexity = CycleComplexity::kUnsolvable;
  /// True iff a solution exists on the n-node path for every n >= 1.
  bool solvable_for_all_lengths = false;
  int zero_round_collapse_step = -1;
  /// Dead output labels the pre-flight pruned before the walk automaton was
  /// built (see CycleClassification::pruned_labels).
  std::size_t pruned_labels = 0;
};

/// Decides the complexity class of a node-edge-checkable LCL without inputs
/// on paths. Solutions on the n-node path correspond to n-node walks in the
/// walk automaton that start in a state compatible with a degree-1 start
/// node and end in a state compatible with a degree-1 end node; the
/// classifier analyzes the reachable/co-reachable subautomaton:
///  - no feasible walk for all large n  => unsolvable or global;
///  - feasible for all large n (some gcd-1 SCC on a start-to-end route, or
///    enough slack in walk lengths) => Theta(log* n) or, when the round
///    elimination engine collapses (degrees {1, 2}), O(1).
/// `memo`, when given, is the engine's memo; the two forms are those of
/// `classify_on_cycles`.
PathClassification classify_on_paths(SpeedupEngine& engine,
                                     int max_speedup_steps,
                                     SpeedupEngine::Memo* memo);
PathClassification classify_on_paths(const NodeEdgeCheckableLcl& problem,
                                     int max_speedup_steps = 2,
                                     SpeedupEngine::Memo* memo = nullptr);

/// True iff the problem is solvable on the path with `n` nodes (n >= 1
/// single node allowed only when n >= 2 here: a 1-node path has no
/// half-edges; we require n >= 2). Cross-checkable with brute force.
bool solvable_on_path_length(const NodeEdgeCheckableLcl& problem,
                             std::uint64_t n);

}  // namespace lcl
