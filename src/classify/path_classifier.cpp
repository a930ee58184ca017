#include "classify/path_classifier.hpp"

#include <map>
#include <stdexcept>
#include <vector>

#include "classify/automaton.hpp"
#include "obs/obs.hpp"
#include "util/label_set.hpp"

namespace lcl {

namespace {

/// The sequence R_0 = start, R_{j+1} = successors(R_j) is eventually
/// periodic (finitely many subsets); returns the sequence up to the first
/// repeat together with (preperiod, period).
struct ReachSequence {
  std::vector<LabelSet> sets;
  std::size_t preperiod = 0;
  std::size_t period = 1;
};

ReachSequence reach_sequence(const WalkAutomaton& a) {
  ReachSequence seq;
  std::map<LabelSet, std::size_t> seen;
  LabelSet current = a.start;
  while (seen.count(current) == 0) {
    seen[current] = seq.sets.size();
    seq.sets.push_back(current);
    LabelSet next(a.adjacency.size());
    for (const auto y : current.to_vector()) {
      for (const auto y2 : a.adjacency[y]) next.insert(y2);
    }
    current = std::move(next);
  }
  seq.preperiod = seen[current];
  seq.period = seq.sets.size() - seq.preperiod;
  return seq;
}

/// Feasible with exactly j transitions?
bool feasible_steps(const WalkAutomaton& a, const ReachSequence& seq,
                    std::uint64_t j) {
  const std::size_t idx =
      j < seq.sets.size()
          ? static_cast<std::size_t>(j)
          : seq.preperiod + static_cast<std::size_t>(
                                (j - seq.preperiod) % seq.period);
  return seq.sets[idx].intersects(a.end);
}

}  // namespace

bool solvable_on_path_length(const NodeEdgeCheckableLcl& problem,
                             std::uint64_t n) {
  check_chain_problem(problem, "path classifier");
  if (n < 2) {
    throw std::invalid_argument("solvable_on_path_length: n >= 2");
  }
  LCL_OBS_SPAN(span, "classify/path_length", "classify");
  const auto a = walk_automaton(problem);
  const auto seq = reach_sequence(a);
  return feasible_steps(a, seq, n - 2);
}

PathClassification classify_on_paths(SpeedupEngine& engine,
                                     int max_speedup_steps,
                                     SpeedupEngine::Memo* memo) {
  check_chain_problem(engine.problem_at(0), "path classifier");
  LCL_OBS_SPAN(span, "classify/paths", "classify");
  PathClassification result;

  // The engine's pre-flight, mirroring `classify_on_cycles`: L020
  // short-circuits, pruning shrinks the automaton without changing the
  // class. Note that `solvable_for_all_lengths` stays correct too - dead
  // labels occur in no valid labeling of any path.
  result.pruned_labels = engine.preflight().dead_labels;
  if (engine.preflight().trivially_unsolvable) {
    result.complexity = CycleComplexity::kUnsolvable;
    return result;
  }
  const WalkAutomaton a = pruned_walk_automaton(engine);
  const std::size_t k = a.adjacency.size();
  const auto seq = reach_sequence(a);
  LCL_OBS_HISTOGRAM_RECORD("classify.reach_sequence_length",
                           seq.sets.size());
  LCL_OBS_SPAN_ARG(span, "states", k);
  LCL_OBS_SPAN_ARG(span, "reach_sets", seq.sets.size());

  bool all = true, some_large = false;
  for (std::size_t j = 0; j < seq.sets.size(); ++j) {
    const bool ok = seq.sets[j].intersects(a.end);
    if (!ok) all = false;
    if (j >= seq.preperiod && ok) some_large = true;
  }
  result.solvable_for_all_lengths = all;

  if (!some_large) {
    result.complexity = CycleComplexity::kUnsolvable;
    return result;
  }

  // Sub-global solvability needs *state flexibility*, not just length
  // feasibility: a gcd-1 SCC on some start-to-end route lets partial
  // solutions be spliced locally (the classic log* upper bound); without
  // it the problem is global even when every length is feasible - proper
  // 2-coloring of paths is the canonical example (solvable for every n,
  // yet Theta(n), because the automaton's only SCC has cycle gcd 2).
  std::vector<char> starts(k, 0), ends(k, 0);
  for (const auto y : a.start.to_vector()) starts[y] = 1;
  for (const auto y : a.end.to_vector()) ends[y] = 1;
  const auto from_start = reachable(a.adjacency, starts);
  const auto to_end = co_reachable(a.adjacency, ends);
  const auto component = strongly_connected_components(a.adjacency);
  bool flexible = false;
  for (Label u = 0; u < k && !flexible; ++u) {
    if (from_start[u] && to_end[u] &&
        scc_cycle_gcd(a.adjacency, component, component[u]) == 1) {
      flexible = true;
    }
  }
  if (!flexible) {
    result.complexity = CycleComplexity::kGlobal;
    return result;
  }

  // Flexible: O(1) or Theta(log* n), told apart on degrees 1 and 2.
  result.complexity = settle_flexible(engine, max_speedup_steps, {1, 2}, memo,
                                      result.zero_round_collapse_step);
  return result;
}

PathClassification classify_on_paths(const NodeEdgeCheckableLcl& problem,
                                     int max_speedup_steps,
                                     SpeedupEngine::Memo* memo) {
  SpeedupEngine engine(problem);
  return classify_on_paths(engine, max_speedup_steps, memo);
}

}  // namespace lcl
