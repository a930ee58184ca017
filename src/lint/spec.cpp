#include "lint/spec.hpp"

#include <algorithm>
#include <stdexcept>

namespace lcl::lint {

namespace {

std::vector<std::int64_t> to_raw(const std::vector<Label>& labels) {
  return std::vector<std::int64_t>(labels.begin(), labels.end());
}

/// Node configurations order by size first: degree-1 configs before
/// degree-2, matching the per-degree layout of the built problem.
bool config_less(const std::vector<std::int64_t>& a,
                 const std::vector<std::int64_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return a < b;
}

}  // namespace

ProblemSpec spec_from_problem(const NodeEdgeCheckableLcl& problem) {
  ProblemSpec spec;
  spec.name = problem.name();
  spec.max_degree = problem.max_degree();
  for (Label l = 0; l < problem.input_alphabet().size(); ++l) {
    spec.inputs.push_back(problem.input_alphabet().name(l));
  }
  for (Label l = 0; l < problem.output_alphabet().size(); ++l) {
    spec.outputs.push_back(problem.output_alphabet().name(l));
  }
  for (int d = 1; d <= problem.max_degree(); ++d) {
    for (const auto& config : problem.node_configs(d)) {
      spec.node_configs.push_back(to_raw(config.labels()));
    }
  }
  for (const auto& config : problem.edge_configs()) {
    spec.edge_configs.push_back(to_raw(config.labels()));
  }
  for (Label in = 0; in < problem.input_alphabet().size(); ++in) {
    std::vector<std::int64_t> row;
    for (const auto out : problem.allowed_outputs(in).to_vector()) {
      row.push_back(static_cast<std::int64_t>(out));
    }
    spec.g.push_back(std::move(row));
  }
  return spec;
}

NodeEdgeCheckableLcl build_spec(const ProblemSpec& spec) {
  // The L001 rules the builder cannot see: it takes `Label`s, so an index
  // of 2^32 or more would wrap into range, and it accepts a short `g`.
  const auto label = [&spec](std::int64_t raw) {
    if (raw < 0 || static_cast<std::uint64_t>(raw) >= spec.outputs.size()) {
      throw std::invalid_argument("build_spec: undeclared output label #" +
                                  std::to_string(raw));
    }
    return static_cast<Label>(raw);
  };
  if (spec.g.size() != spec.inputs.size()) {
    throw std::invalid_argument(
        "build_spec: g has " + std::to_string(spec.g.size()) +
        " rows but there are " + std::to_string(spec.inputs.size()) +
        " input labels");
  }
  Alphabet input;
  for (const auto& name : spec.inputs) input.add(name);
  Alphabet output;
  for (const auto& name : spec.outputs) output.add(name);
  NodeEdgeCheckableLcl::Builder builder(spec.name, std::move(input),
                                        std::move(output), spec.max_degree);
  builder.allow_unsatisfiable_inputs();
  for (const auto& config : spec.node_configs) {
    std::vector<Label> labels;
    labels.reserve(config.size());
    for (const auto raw : config) labels.push_back(label(raw));
    builder.allow_node(std::move(labels));
  }
  for (const auto& config : spec.edge_configs) {
    if (config.size() != 2) {
      throw std::invalid_argument(
          "build_spec: edge configuration must have exactly 2 labels");
    }
    builder.allow_edge(label(config[0]), label(config[1]));
  }
  for (std::size_t in = 0; in < spec.g.size(); ++in) {
    for (const auto out : spec.g[in]) {
      builder.allow_output_for_input(static_cast<Label>(in), label(out));
    }
  }
  return builder.build();
}

ProblemSpec canonicalize(const ProblemSpec& spec) {
  ProblemSpec out = spec;
  const auto canon_list = [](std::vector<std::vector<std::int64_t>>& list) {
    for (auto& config : list) std::sort(config.begin(), config.end());
    std::sort(list.begin(), list.end(), config_less);
    list.erase(std::unique(list.begin(), list.end()), list.end());
  };
  canon_list(out.node_configs);
  canon_list(out.edge_configs);
  for (auto& row : out.g) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return out;
}

bool operator==(const ProblemSpec& a, const ProblemSpec& b) {
  return a.name == b.name && a.max_degree == b.max_degree &&
         a.inputs == b.inputs && a.outputs == b.outputs &&
         a.node_configs == b.node_configs &&
         a.edge_configs == b.edge_configs && a.g == b.g;
}

}  // namespace lcl::lint
