#include "classify/cycle_classifier.hpp"

#include <algorithm>
#include <stdexcept>

#include "classify/automaton.hpp"
#include "obs/obs.hpp"

namespace lcl {

std::string to_string(CycleComplexity c) {
  switch (c) {
    case CycleComplexity::kUnsolvable:
      return "unsolvable";
    case CycleComplexity::kGlobal:
      return "Theta(n)";
    case CycleComplexity::kLogStar:
      return "Theta(log* n)";
    case CycleComplexity::kConstant:
      return "O(1)";
  }
  return "?";
}

CycleClassification classify_on_cycles(const NodeEdgeCheckableLcl& problem,
                                       int max_speedup_steps,
                                       SpeedupEngine::Memo* memo) {
  check_chain_problem(problem, "cycle classifier");
  LCL_OBS_SPAN(span, "classify/cycles", "classify");
  CycleClassification result;

  // Pre-flight: an L020 verdict settles the classification outright, and
  // dead-label pruning shrinks the walk automaton (and the speedup engine's
  // power-set base) without changing the complexity class.
  const ChainPreflight preflight = chain_preflight(problem);
  result.pruned_labels = preflight.trimmed.dead_labels;
  if (preflight.trimmed.trivially_unsolvable) {
    result.complexity = CycleComplexity::kUnsolvable;
    return result;
  }
  const auto& adj = preflight.automaton.adjacency;
  const auto component = strongly_connected_components(adj);
  int components = 0;
  for (const int c : component) components = std::max(components, c + 1);
  for (int c = 0; c < components; ++c) {
    const std::uint64_t g = scc_cycle_gcd(adj, component, c);
    if (g != 0) result.scc_gcds.push_back(g);
  }
  std::sort(result.scc_gcds.begin(), result.scc_gcds.end());

  if (result.scc_gcds.empty()) {
    result.complexity = CycleComplexity::kUnsolvable;
    return result;
  }
  const bool flexible =
      std::find(result.scc_gcds.begin(), result.scc_gcds.end(), 1u) !=
      result.scc_gcds.end();
  if (!flexible) {
    result.complexity = CycleComplexity::kGlobal;
    return result;
  }

  // Flexible: O(1) or Theta(log* n), told apart on degree 2.
  result.complexity =
      settle_flexible(preflight.trimmed.problem, max_speedup_steps, {2}, memo,
                      result.zero_round_collapse_step);
  return result;
}

bool solvable_on_cycle_length(const NodeEdgeCheckableLcl& problem,
                              std::uint64_t n) {
  check_chain_problem(problem, "cycle classifier");
  if (n < 3) {
    throw std::invalid_argument("solvable_on_cycle_length: n >= 3");
  }
  LCL_OBS_SPAN(span, "classify/cycle_length", "classify");
  const auto adj = walk_automaton(problem).adjacency;
  const std::size_t k = adj.size();
  if (k > 64 * 64) {
    throw std::invalid_argument(
        "solvable_on_cycle_length: alphabet too large for the dense matrix "
        "power");
  }
  // Boolean matrix power A^n via binary exponentiation; rows as bitsets.
  using Row = std::vector<std::uint64_t>;
  const std::size_t words = (k + 63) / 64;
  const auto make = [&]() {
    return std::vector<Row>(k, Row(words, 0));
  };
  auto base = make();
  for (Label u = 0; u < k; ++u) {
    for (const Label v : adj[u]) base[u][v / 64] |= std::uint64_t{1} << (v % 64);
  }
  const auto multiply = [&](const std::vector<Row>& a,
                            const std::vector<Row>& b) {
    LCL_OBS_COUNTER_ADD("classify.matrix_mults", 1);
    auto out = make();
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        if ((a[i][j / 64] >> (j % 64)) & 1) {
          for (std::size_t w = 0; w < words; ++w) out[i][w] |= b[j][w];
        }
      }
    }
    return out;
  };
  auto result = make();
  for (std::size_t i = 0; i < k; ++i) {
    result[i][i / 64] |= std::uint64_t{1} << (i % 64);  // identity
  }
  auto power = base;
  std::uint64_t e = n;
  while (e > 0) {
    if (e & 1) result = multiply(result, power);
    power = multiply(power, power);
    e >>= 1;
  }
  for (std::size_t i = 0; i < k; ++i) {
    if ((result[i][i / 64] >> (i % 64)) & 1) return true;
  }
  return false;
}

}  // namespace lcl
