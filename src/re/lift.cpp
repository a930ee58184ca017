#include "re/lift.hpp"

#include <stdexcept>
#include <string>

namespace lcl {

std::pair<Label, Label> choose_edge_pair(const NodeEdgeCheckableLcl& psi,
                                         const std::vector<LabelSet>& meaning,
                                         Label xa, Label xb) {
  for (const auto la : meaning[xa].to_vector()) {
    for (const auto lb : meaning[xb].to_vector()) {
      if (psi.edge_allows(la, lb)) return {la, lb};
    }
  }
  throw std::logic_error(
      "choose_edge_pair: no compatible pair in the Rbar edge constraint "
      "(solution not correct for Rbar(R(pi)))");
}

std::vector<Label> choose_node_labels(const NodeEdgeCheckableLcl& pi,
                                      const std::vector<LabelSet>& meaning,
                                      const std::vector<Label>& psi_labels) {
  std::vector<std::vector<Label>> options;
  options.reserve(psi_labels.size());
  for (const auto L : psi_labels) {
    options.push_back(meaning[L].to_vector());  // ascending
  }
  std::vector<Label> current(psi_labels.size());
  const auto search = [&](auto&& self, std::size_t pos) -> bool {
    if (pos == current.size()) {
      return pi.node_allows(Configuration(current));
    }
    for (const auto l : options[pos]) {
      current[pos] = l;
      if (self(self, pos + 1)) return true;
    }
    return false;
  };
  if (!search(search, 0)) {
    throw std::logic_error(
        "choose_node_labels: no selection satisfies the pi node constraint "
        "(solution not correct for Rbar(R(pi)))");
  }
  return current;
}

HalfEdgeLabeling lift_solution(const NodeEdgeCheckableLcl& pi,
                               const SequenceLevel& level, const Graph& graph,
                               const HalfEdgeLabeling& input,
                               const HalfEdgeLabeling& solution) {
  if (solution.size() != graph.half_edge_count() ||
      input.size() != graph.half_edge_count()) {
    throw std::invalid_argument("lift_solution: labeling size mismatch");
  }
  const auto& psi = level.psi.problem;

  // Step 1: per edge, fix psi-labels on both half-edges.
  HalfEdgeLabeling psi_labels(graph.half_edge_count(), 0);
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const HalfEdgeId h0 = 2 * e;
    const HalfEdgeId h1 = 2 * e + 1;
    const auto [l0, l1] = choose_edge_pair(psi, level.next.meaning,
                                           solution[h0], solution[h1]);
    psi_labels[h0] = l0;
    psi_labels[h1] = l1;
  }

  // Step 2: per node, fix pi-labels.
  HalfEdgeLabeling out(graph.half_edge_count(), 0);
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const int degree = graph.degree(v);
    if (degree == 0) continue;
    std::vector<Label> around(static_cast<std::size_t>(degree));
    for (int p = 0; p < degree; ++p) {
      around[static_cast<std::size_t>(p)] = psi_labels[graph.half_edge(v, p)];
    }
    const auto chosen = choose_node_labels(pi, level.psi.meaning, around);
    for (int p = 0; p < degree; ++p) {
      out[graph.half_edge(v, p)] = chosen[static_cast<std::size_t>(p)];
    }
  }
  (void)input;
  return out;
}

}  // namespace lcl
