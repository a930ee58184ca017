#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/lcl.hpp"
#include "re/engine.hpp"

namespace lcl {

/// Complexity classes of LCLs on cycles/paths (Section 1.4: "in paths and
/// cycles the only LOCAL complexities are O(1), Theta(log* n) and
/// Theta(n), and it can be decided in polynomial time into which class a
/// given LCL problem falls, provided that the LCL does not have inputs").
enum class CycleComplexity {
  /// No solution exists on any sufficiently long cycle.
  kUnsolvable,
  /// Solvable only for a strict (periodic) subset of lengths, or inflexibly:
  /// Theta(n) on the solvable instances (e.g. proper 2-coloring).
  kGlobal,
  /// Solvable in Theta(log* n) rounds.
  kLogStar,
  /// Solvable in O(1) rounds.
  kConstant,
};

std::string to_string(CycleComplexity c);

/// Outcome of the cycle classification.
struct CycleClassification {
  CycleComplexity complexity = CycleComplexity::kUnsolvable;
  /// Set of cycle lengths admitting a solution is, for large lengths, the
  /// union of arithmetic progressions with these gcds (one per automaton
  /// SCC); gcd 1 present <=> solvable on all large cycles.
  std::vector<std::uint64_t> scc_gcds;
  /// Step at which the round-elimination engine certified O(1)
  /// (-1: no collapse within budget).
  int zero_round_collapse_step = -1;
  /// Dead output labels the engine's pre-flight (`SpeedupEngine::preflight`)
  /// pruned before the walk automaton was built (0 for well-formed specs).
  /// An L020 verdict short-circuits straight to `kUnsolvable`.
  std::size_t pruned_labels = 0;
};

/// Decides the complexity class of a node-edge-checkable LCL *without
/// inputs* (|Sigma_in| = 1) with max degree >= 2 on cycles.
///
/// Method: cycle solutions of length n correspond to closed n-walks in the
/// "walk automaton" whose states are output labels, with a transition
/// y -> y' iff some label x satisfies {y, x} in E and {x, y'} in N^2.
///  - no closed walks at all  => unsolvable (on large cycles);
///  - every SCC has cycle-gcd > 1 => solvable only for a periodic subset of
///    lengths => global;
///  - some SCC has cycle-gcd 1 => solvable on all large cycles; then the
///    round-elimination engine (Theorem 3.10 machinery, degree set {2})
///    separates O(1) - `f^k` becomes 0-round solvable for some k within
///    `max_speedup_steps` - from Theta(log* n).
///
/// The O(1)/log* separation is a semidecision procedure in the spirit of
/// Question 1.7: a collapse certifies O(1); exhausting the budget reports
/// log* (correct for every problem whose collapse point, if any, lies
/// within the budget). `memo`, when given, is the engine's memo. The first
/// form classifies `engine.problem_at(0)` and runs `engine`, which keeps the
/// iterates it computes for the caller's next run; the second builds one.
CycleClassification classify_on_cycles(SpeedupEngine& engine,
                                       int max_speedup_steps,
                                       SpeedupEngine::Memo* memo);
CycleClassification classify_on_cycles(
    const NodeEdgeCheckableLcl& problem, int max_speedup_steps = 3,
    SpeedupEngine::Memo* memo = nullptr);

/// True iff the problem (no inputs, Delta >= 2) is solvable on the cycle of
/// length `n` - computed from the walk automaton, suitable for
/// cross-checking against `brute_force_solvable`.
bool solvable_on_cycle_length(const NodeEdgeCheckableLcl& problem,
                              std::uint64_t n);

}  // namespace lcl
