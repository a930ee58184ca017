#pragma once

#include <cstdint>
#include <vector>

#include "classify/cycle_classifier.hpp"
#include "re/engine.hpp"
#include "util/label_set.hpp"
#include "util/types.hpp"

namespace lcl {

/// Internal pieces shared by the cycle and path classifiers: the input
/// check, the "walk automaton" of an LCL on chains (one state per output
/// label), the analysis of its strongly connected structure, and the
/// speedup-engine run that separates O(1) from Theta(log* n). Each
/// classifier runs the engine it is given and reads the pruned problem and
/// the L020 verdict from the engine's pre-flight (`SpeedupEngine::preflight`).

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

/// Both classifiers' automaton: the walk automaton of `engine`'s
/// pre-flight-pruned base, counted under `classify.automaton_*`. Call it
/// only when the pre-flight's L020 verdict has not settled the class as
/// unsolvable. Pruning never changes the class.
WalkAutomaton pruned_walk_automaton(const SpeedupEngine& engine);

/// Both classifiers' tail, for a problem that is solvable on all long
/// chains with a flexible automaton: running `engine` (Theorem 3.10
/// machinery, 0-round tests on `degrees`) semidecides O(1) within
/// `max_steps` steps. Returns `kConstant` and sets `collapse_step` to the
/// step k at which `f^k(problem)` became 0-round solvable, or returns
/// `kLogStar`. `memo`, when given, is the engine's memo.
CycleComplexity settle_flexible(SpeedupEngine& engine, int max_steps,
                                std::vector<int> degrees,
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
