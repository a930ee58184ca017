#include "classify/path_classifier.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "classify/automaton.hpp"
#include "core/configuration.hpp"
#include "obs/obs.hpp"
#include "re/engine.hpp"
#include "re/reduce.hpp"
#include "util/label_set.hpp"

namespace lcl {

namespace {

void validate(const NodeEdgeCheckableLcl& problem) {
  if (problem.input_alphabet().size() != 1) {
    throw std::invalid_argument(
        "path classifier: only LCLs without inputs are supported");
  }
  if (problem.max_degree() < 2) {
    throw std::invalid_argument("path classifier: max degree must be >= 2");
  }
}

/// The walk automaton on "forward" half-edge labels, with start and end
/// state sets derived from the degree-1 node constraint:
///  - start states: {y} in N^1;
///  - transition y -> y': exists x with {y,x} in E and {x,y'} in N^2;
///  - end states: exists x with {y,x} in E and {x} in N^1.
struct PathAutomaton {
  std::size_t k = 0;
  std::vector<std::vector<Label>> adjacency;
  LabelSet start{0};
  LabelSet end{0};
};

PathAutomaton build_automaton(const NodeEdgeCheckableLcl& p) {
  PathAutomaton a;
  a.k = p.output_alphabet().size();
  a.adjacency.resize(a.k);
  a.start = LabelSet(a.k);
  a.end = LabelSet(a.k);
  for (Label y = 0; y < a.k; ++y) {
    if (p.node_allows(Configuration({y}))) a.start.insert(y);
    for (Label x = 0; x < a.k; ++x) {
      if (!p.edge_allows(y, x)) continue;
      if (p.node_allows(Configuration({x}))) a.end.insert(y);
      for (Label y2 = 0; y2 < a.k; ++y2) {
        if (p.node_allows(Configuration({x, y2}))) {
          // Duplicates via different intermediate x are deduped below.
          a.adjacency[y].push_back(y2);
        }
      }
    }
  }
  for (auto& adj : a.adjacency) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
  return a;
}

/// The sequence R_0 = start, R_{j+1} = successors(R_j) is eventually
/// periodic (finitely many subsets); returns the sequence up to the first
/// repeat together with (preperiod, period).
struct ReachSequence {
  std::vector<LabelSet> sets;
  std::size_t preperiod = 0;
  std::size_t period = 1;
};

ReachSequence reach_sequence(const PathAutomaton& a) {
  ReachSequence seq;
  std::map<LabelSet, std::size_t> seen;
  LabelSet current = a.start;
  while (seen.count(current) == 0) {
    seen[current] = seq.sets.size();
    seq.sets.push_back(current);
    LabelSet next(a.k);
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
bool feasible_steps(const PathAutomaton& a, const ReachSequence& seq,
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
  validate(problem);
  if (n < 2) {
    throw std::invalid_argument("solvable_on_path_length: n >= 2");
  }
  LCL_OBS_SPAN(span, "classify/path_length", "classify");
  const auto a = build_automaton(problem);
  const auto seq = reach_sequence(a);
  return feasible_steps(a, seq, n - 2);
}

PathClassification classify_on_paths(const NodeEdgeCheckableLcl& problem,
                                     int max_speedup_steps,
                                     SpeedupEngine::Memo* memo) {
  validate(problem);
  LCL_OBS_SPAN(span, "classify/paths", "classify");
  PathClassification result;

  // Pre-flight, mirroring `classify_on_cycles`: L020 short-circuits,
  // pruning shrinks the automaton without changing the class. Note that
  // `solvable_for_all_lengths` stays correct too - dead labels occur in no
  // valid labeling of any path.
  const TrimmedProblem preflight = preflight_trim(problem);
  result.pruned_labels = preflight.dead_labels;
  if (preflight.trivially_unsolvable) {
    result.complexity = CycleComplexity::kUnsolvable;
    return result;
  }
  const NodeEdgeCheckableLcl& effective = preflight.problem;

  const auto a = build_automaton(effective);
  if (LCL_OBS_ENABLED()) {
    std::size_t edges = 0;
    for (const auto& row : a.adjacency) edges += row.size();
    LCL_OBS_COUNTER_ADD("classify.automaton_states", a.k);
    LCL_OBS_COUNTER_ADD("classify.automaton_edges", edges);
    LCL_OBS_HISTOGRAM_RECORD("classify.automaton_size", a.k);
  }
  const auto seq = reach_sequence(a);
  LCL_OBS_HISTOGRAM_RECORD("classify.reach_sequence_length",
                           seq.sets.size());
  LCL_OBS_SPAN_ARG(span, "states", a.k);
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
  std::vector<char> starts(a.k, 0), ends(a.k, 0);
  for (const auto y : a.start.to_vector()) starts[y] = 1;
  for (const auto y : a.end.to_vector()) ends[y] = 1;
  const auto from_start = reachable(a.adjacency, starts);
  const auto to_end = co_reachable(a.adjacency, ends);
  const auto component = strongly_connected_components(a.adjacency);
  bool flexible = false;
  for (Label u = 0; u < a.k && !flexible; ++u) {
    if (from_start[u] && to_end[u] &&
        scc_cycle_gcd(a.adjacency, component, component[u]) == 1) {
      flexible = true;
    }
  }
  if (!flexible) {
    result.complexity = CycleComplexity::kGlobal;
    return result;
  }

  SpeedupEngine engine(effective);
  SpeedupEngine::Options options;
  options.max_steps = max_speedup_steps;
  options.degrees = {1, 2};
  const auto outcome = engine.run(options, memo);
  if (outcome.zero_round_step >= 0) {
    result.complexity = CycleComplexity::kConstant;
    result.zero_round_collapse_step = outcome.zero_round_step;
  } else {
    result.complexity = CycleComplexity::kLogStar;
  }
  return result;
}

}  // namespace lcl
