#pragma once

#include <cstdint>
#include <vector>

#include "classify/cycle_classifier.hpp"
#include "re/engine.hpp"
#include "re/reduce.hpp"
#include "util/label_set.hpp"
#include "util/types.hpp"

namespace lcl {

/// Internal pieces shared by the cycle and path classifiers: the input
/// check, the "walk automaton" of an LCL on chains (one state per output
/// label) with the pre-flight that precedes it, the analysis of its
/// strongly connected structure, and the speedup-engine run that separates
/// O(1) from Theta(log* n).

/// Throws `std::invalid_argument`, naming `classifier`, unless `problem`
/// has no inputs (|Sigma_in| = 1) and max degree >= 2.
void check_chain_problem(const NodeEdgeCheckableLcl& problem,
                         const char* classifier);

/// The walk automaton on "forward" half-edge labels:
///  - transition y -> y': some x has {y, x} in E and {x, y'} in N^2;
///  - start states: {y} in N^1 (a path's first node);
///  - end states: some x has {y, x} in E and {x} in N^1 (its last node).
/// Cycles use the transitions only. `g` is ignored: on a problem without
/// inputs, the pre-flight is what drops the labels the input forbids.
struct WalkAutomaton {
  std::vector<std::vector<Label>> adjacency;  // ascending, no repeats
  LabelSet start;
  LabelSet end;
};
WalkAutomaton walk_automaton(const NodeEdgeCheckableLcl& problem);

/// Both classifiers' head: the pre-flight (`preflight_trim`) of `problem`
/// and, unless its L020 verdict already settles the class as unsolvable,
/// the walk automaton of the pruned problem, counted under
/// `classify.automaton_*`. Pruning never changes the class.
struct ChainPreflight {
  TrimmedProblem trimmed;
  WalkAutomaton automaton;  // empty after an L020 verdict
};
ChainPreflight chain_preflight(const NodeEdgeCheckableLcl& problem);

/// Both classifiers' tail, for a problem that is solvable on all long
/// chains with a flexible automaton: the speedup engine (Theorem 3.10
/// machinery, 0-round tests on `degrees`) semidecides O(1) within
/// `max_steps` steps. Returns `kConstant` and sets `collapse_step` to the
/// step k at which `f^k(problem)` became 0-round solvable, or returns
/// `kLogStar`. `memo`, when given, is the engine's memo.
CycleComplexity settle_flexible(const NodeEdgeCheckableLcl& problem,
                                int max_steps, std::vector<int> degrees,
                                SpeedupEngine::Memo* memo,
                                int& collapse_step);

/// Strongly connected components (Kosaraju); returns the component index of
/// every state (components numbered in reverse topological order).
std::vector<int> strongly_connected_components(
    const std::vector<std::vector<Label>>& adjacency);

/// Gcd of the cycle lengths within the SCC `target`, or 0 if that SCC
/// contains no edge (a singleton without a self-loop). Gcd 1 means the SCC
/// is *flexible*: it contains closed walks of every sufficiently large
/// length - the automaton-side characterization of Theta(log* n)
/// solvability on chains.
std::uint64_t scc_cycle_gcd(const std::vector<std::vector<Label>>& adjacency,
                            const std::vector<int>& component, int target);

/// States from which some state in `targets` is reachable (including the
/// targets themselves).
std::vector<char> co_reachable(const std::vector<std::vector<Label>>& adjacency,
                               const std::vector<char>& targets);

/// States reachable from some state in `sources` (including the sources).
std::vector<char> reachable(const std::vector<std::vector<Label>>& adjacency,
                            const std::vector<char>& sources);

}  // namespace lcl
