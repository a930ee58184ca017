#include "classify/automaton.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "util/math.hpp"

namespace lcl {

void check_chain_problem(const NodeEdgeCheckableLcl& problem,
                         const char* classifier) {
  if (problem.input_alphabet().size() != 1) {
    throw std::invalid_argument(
        std::string(classifier) +
        ": only LCLs without inputs are supported (the inputful question is "
        "PSPACE-hard, Section 1.4)");
  }
  if (problem.max_degree() < 2) {
    throw std::invalid_argument(std::string(classifier) +
                                ": max degree must be >= 2");
  }
}

WalkAutomaton walk_automaton(const NodeEdgeCheckableLcl& problem) {
  const std::size_t k = problem.output_alphabet().size();
  // leaf[x]: {x} is in N^1; beside[x * k + y]: {x, y} is in N^2.
  std::vector<char> leaf(k, 0);
  std::vector<char> beside(k * k, 0);
  for (const auto& c : problem.node_configs(1)) leaf[c[0]] = 1;
  for (const auto& c : problem.node_configs(2)) {
    beside[c[0] * k + c[1]] = 1;
    beside[c[1] * k + c[0]] = 1;
  }
  WalkAutomaton a{std::vector<std::vector<Label>>(k), LabelSet(k),
                  LabelSet(k)};
  std::vector<char> next(k);
  for (Label y = 0; y < k; ++y) {
    if (leaf[y]) a.start.insert(y);
    std::fill(next.begin(), next.end(), 0);
    for (Label x = 0; x < k; ++x) {
      if (!problem.edge_allows(y, x)) continue;
      if (leaf[x]) a.end.insert(y);
      for (Label z = 0; z < k; ++z) next[z] |= beside[x * k + z];
    }
    for (Label z = 0; z < k; ++z) {
      if (next[z]) a.adjacency[y].push_back(z);
    }
  }
  return a;
}

ChainPreflight chain_preflight(const NodeEdgeCheckableLcl& problem) {
  ChainPreflight out{preflight_trim(problem), {}};
  if (out.trimmed.trivially_unsolvable) return out;
  out.automaton = walk_automaton(out.trimmed.problem);
  if (LCL_OBS_ENABLED()) {
    const auto& adjacency = out.automaton.adjacency;
    std::size_t edges = 0;
    for (const auto& row : adjacency) edges += row.size();
    LCL_OBS_COUNTER_ADD("classify.automaton_states", adjacency.size());
    LCL_OBS_COUNTER_ADD("classify.automaton_edges", edges);
    LCL_OBS_HISTOGRAM_RECORD("classify.automaton_size", adjacency.size());
  }
  return out;
}

CycleComplexity settle_flexible(const NodeEdgeCheckableLcl& problem,
                                int max_steps, std::vector<int> degrees,
                                SpeedupEngine::Memo* memo,
                                int& collapse_step) {
  SpeedupEngine engine(problem);
  SpeedupEngine::Options options;
  options.max_steps = max_steps;
  options.degrees = std::move(degrees);
  const auto outcome = engine.run(options, memo);
  if (outcome.zero_round_step < 0) return CycleComplexity::kLogStar;
  collapse_step = outcome.zero_round_step;
  return CycleComplexity::kConstant;
}

std::vector<int> strongly_connected_components(
    const std::vector<std::vector<Label>>& adjacency) {
  const std::size_t n = adjacency.size();
  std::vector<std::vector<Label>> rev(n);
  for (Label u = 0; u < n; ++u) {
    for (const Label v : adjacency[u]) rev[v].push_back(u);
  }
  std::vector<char> seen(n, 0);
  std::vector<Label> order;
  order.reserve(n);
  for (Label s = 0; s < n; ++s) {
    if (seen[s]) continue;
    std::vector<std::pair<Label, std::size_t>> stack{{s, 0}};
    seen[s] = 1;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      if (next < adjacency[u].size()) {
        const Label v = adjacency[u][next++];
        if (!seen[v]) {
          seen[v] = 1;
          stack.emplace_back(v, 0);
        }
      } else {
        order.push_back(u);
        stack.pop_back();
      }
    }
  }
  std::vector<int> component(n, -1);
  int components = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (component[*it] != -1) continue;
    std::queue<Label> frontier;
    frontier.push(*it);
    component[*it] = components;
    while (!frontier.empty()) {
      const Label u = frontier.front();
      frontier.pop();
      for (const Label v : rev[u]) {
        if (component[v] == -1) {
          component[v] = components;
          frontier.push(v);
        }
      }
    }
    ++components;
  }
  return component;
}

std::uint64_t scc_cycle_gcd(const std::vector<std::vector<Label>>& adjacency,
                            const std::vector<int>& component, int target) {
  Label root = static_cast<Label>(-1);
  for (Label v = 0; v < adjacency.size(); ++v) {
    if (component[v] == target) {
      root = v;
      break;
    }
  }
  if (root == static_cast<Label>(-1)) return 0;
  std::vector<std::int64_t> layer(adjacency.size(), -1);
  std::queue<Label> frontier;
  layer[root] = 0;
  frontier.push(root);
  std::uint64_t g = 0;
  bool any_edge = false;
  while (!frontier.empty()) {
    const Label u = frontier.front();
    frontier.pop();
    for (const Label v : adjacency[u]) {
      if (component[v] != target) continue;
      any_edge = true;
      if (layer[v] == -1) {
        layer[v] = layer[u] + 1;
        frontier.push(v);
      } else {
        const std::int64_t diff = layer[u] + 1 - layer[v];
        g = gcd_u64(g, static_cast<std::uint64_t>(diff < 0 ? -diff : diff));
      }
    }
  }
  return any_edge ? g : 0;
}

std::vector<char> reachable(const std::vector<std::vector<Label>>& adjacency,
                            const std::vector<char>& sources) {
  std::vector<char> seen = sources;
  std::queue<Label> frontier;
  for (Label v = 0; v < adjacency.size(); ++v) {
    if (seen[v]) frontier.push(v);
  }
  while (!frontier.empty()) {
    const Label u = frontier.front();
    frontier.pop();
    for (const Label v : adjacency[u]) {
      if (!seen[v]) {
        seen[v] = 1;
        frontier.push(v);
      }
    }
  }
  return seen;
}

std::vector<char> co_reachable(const std::vector<std::vector<Label>>& adjacency,
                               const std::vector<char>& targets) {
  std::vector<std::vector<Label>> rev(adjacency.size());
  for (Label u = 0; u < adjacency.size(); ++u) {
    for (const Label v : adjacency[u]) rev[v].push_back(u);
  }
  return reachable(rev, targets);
}

}  // namespace lcl
