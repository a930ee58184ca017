#include "core/lcl.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace lcl {

const NodeEdgeCheckableLcl::Tables&
NodeEdgeCheckableLcl::no_tables() noexcept {
  static const Tables empty;
  return empty;
}

bool NodeEdgeCheckableLcl::node_allows(const Configuration& config) const {
  const auto& node = tables().node;
  if (config.size() >= node.size()) return false;
  const auto& configs = node[config.size()];
  return std::binary_search(configs.begin(), configs.end(), config);
}

bool NodeEdgeCheckableLcl::edge_allows(Label a, Label b) const {
  const auto& partners = tables().edge_partners;
  if (a >= partners.size() || b >= partners.size()) return false;
  return partners[a].contains(b);
}

const LabelSet& NodeEdgeCheckableLcl::edge_partners(Label a) const {
  const auto& partners = tables().edge_partners;
  if (a >= partners.size()) {
    throw std::out_of_range("NodeEdgeCheckableLcl::edge_partners: label " +
                            std::to_string(a) + " out of range");
  }
  return partners[a];
}

const LabelSet& NodeEdgeCheckableLcl::allowed_outputs(Label input) const {
  const auto& g = tables().g;
  if (input >= g.size()) {
    throw std::out_of_range("NodeEdgeCheckableLcl::allowed_outputs: input " +
                            std::to_string(input) + " out of range");
  }
  return g[input];
}

const std::vector<Configuration>& NodeEdgeCheckableLcl::node_configs(
    int degree) const {
  static const std::vector<Configuration> kNone;
  const auto& node = tables().node;
  if (degree < 0 || static_cast<std::size_t>(degree) >= node.size()) {
    return kNone;
  }
  return node[static_cast<std::size_t>(degree)];
}

std::size_t NodeEdgeCheckableLcl::total_node_configs() const noexcept {
  std::size_t total = 0;
  for (const auto& per_degree : tables().node) total += per_degree.size();
  return total;
}

std::string NodeEdgeCheckableLcl::to_string() const {
  const Tables& t = tables();
  std::ostringstream os;
  os << "LCL '" << name_ << "' (Delta = " << t.max_degree << ")\n";
  os << "  Sigma_in  (" << t.input.size() << "):";
  for (Label l = 0; l < t.input.size(); ++l) os << ' ' << t.input.name(l);
  os << "\n  Sigma_out (" << t.output.size() << "):";
  for (Label l = 0; l < t.output.size(); ++l) os << ' ' << t.output.name(l);
  os << "\n  node configurations:\n";
  for (const auto& per_degree : t.node) {
    for (const auto& c : per_degree) {
      os << "    " << c.to_string(t.output) << '\n';
    }
  }
  os << "  edge configurations:\n";
  for (const auto& c : t.edge) os << "    " << c.to_string(t.output) << '\n';
  os << "  g (input -> allowed outputs):\n";
  for (Label l = 0; l < t.input.size(); ++l) {
    os << "    " << t.input.name(l) << " -> "
       << t.g[l].to_string([&t](std::uint32_t o) { return t.output.name(o); })
       << '\n';
  }
  return os.str();
}

bool same_constraints(const NodeEdgeCheckableLcl& a,
                      const NodeEdgeCheckableLcl& b) {
  if (a.tables_ == b.tables_) return true;
  if (a.input_alphabet().size() != b.input_alphabet().size() ||
      a.output_alphabet().size() != b.output_alphabet().size() ||
      a.max_degree() != b.max_degree()) {
    return false;
  }
  for (int d = 1; d <= a.max_degree(); ++d) {
    if (a.node_configs(d) != b.node_configs(d)) return false;
  }
  if (a.edge_configs() != b.edge_configs()) return false;
  for (Label in = 0; in < a.input_alphabet().size(); ++in) {
    if (a.allowed_outputs(in) != b.allowed_outputs(in)) return false;
  }
  return true;
}

namespace {

/// Per-output-label invariant preserved by any constraint isomorphism:
/// edge-partner count, self-edge flag, g-membership per input, and the
/// number of node configurations per degree the label occurs in (counted
/// with multiplicity).
std::vector<std::uint64_t> label_invariant(const NodeEdgeCheckableLcl& p,
                                           Label l) {
  std::vector<std::uint64_t> inv;
  inv.push_back(p.edge_partners(l).size());
  inv.push_back(p.edge_allows(l, l) ? 1 : 0);
  for (Label in = 0; in < p.input_alphabet().size(); ++in) {
    inv.push_back(p.allowed_outputs(in).contains(l) ? 1 : 0);
  }
  for (int d = 1; d <= p.max_degree(); ++d) {
    std::uint64_t occurrences = 0;
    for (const auto& config : p.node_configs(d)) {
      for (const auto c : config.labels()) {
        if (c == l) ++occurrences;
      }
    }
    inv.push_back(occurrences);
  }
  return inv;
}

/// True iff relabeling `a` through `perm` (old label -> new label) yields
/// exactly `b`'s constraint system. `perm` must be a bijection and the
/// alphabet sizes and max degrees must agree: then the mapped sets have
/// `a`'s sizes, so equal sizes plus containment in `b` is equality.
bool permutation_matches(const NodeEdgeCheckableLcl& a,
                         const NodeEdgeCheckableLcl& b,
                         const std::vector<Label>& perm) {
  for (int d = 1; d <= a.max_degree(); ++d) {
    if (a.node_configs(d).size() != b.node_configs(d).size()) return false;
    for (const auto& config : a.node_configs(d)) {
      std::vector<Label> mapped;
      mapped.reserve(config.size());
      for (const auto l : config.labels()) mapped.push_back(perm[l]);
      if (!b.node_allows(Configuration(std::move(mapped)))) return false;
    }
  }
  if (a.edge_configs().size() != b.edge_configs().size()) return false;
  for (const auto& config : a.edge_configs()) {
    if (!b.edge_allows(perm[config[0]], perm[config[1]])) return false;
  }
  for (Label in = 0; in < a.input_alphabet().size(); ++in) {
    const auto& ga = a.allowed_outputs(in);
    const auto& gb = b.allowed_outputs(in);
    if (ga.size() != gb.size()) return false;
    for (const auto l : ga.to_vector()) {
      if (!gb.contains(perm[l])) return false;
    }
  }
  return true;
}

}  // namespace

bool same_constraints_permuted(const NodeEdgeCheckableLcl& a,
                               const std::vector<Label>& a_to_b,
                               const NodeEdgeCheckableLcl& b) {
  const std::size_t k = a.output_alphabet().size();
  if (a_to_b.size() != k) {
    throw std::invalid_argument(
        "same_constraints_permuted: permutation size does not match the "
        "output alphabet");
  }
  LabelSet image(k);
  for (const auto l : a_to_b) {
    if (l >= k || image.contains(l)) {
      throw std::invalid_argument(
          "same_constraints_permuted: a_to_b is not a permutation");
    }
    image.insert(l);
  }
  if (a.input_alphabet().size() != b.input_alphabet().size() ||
      k != b.output_alphabet().size() || a.max_degree() != b.max_degree()) {
    return false;
  }
  return permutation_matches(a, b, a_to_b);
}

bool isomorphic_constraints(const NodeEdgeCheckableLcl& a,
                            const NodeEdgeCheckableLcl& b,
                            std::uint64_t max_attempts) {
  if (a.input_alphabet().size() != b.input_alphabet().size() ||
      a.output_alphabet().size() != b.output_alphabet().size() ||
      a.max_degree() != b.max_degree()) {
    return false;
  }
  const std::size_t n = a.output_alphabet().size();

  // Candidate images of each a-label: the b-labels sharing its invariant.
  std::vector<std::vector<Label>> candidates(n);
  {
    std::vector<std::vector<std::uint64_t>> b_inv(n);
    for (Label l = 0; l < n; ++l) b_inv[l] = label_invariant(b, l);
    for (Label l = 0; l < n; ++l) {
      const auto inv = label_invariant(a, l);
      for (Label m = 0; m < n; ++m) {
        if (inv == b_inv[m]) candidates[l].push_back(m);
      }
      if (candidates[l].empty()) return false;
    }
  }

  std::vector<Label> perm(n, 0);
  std::vector<char> taken(n, 0);
  std::uint64_t attempts = 0;
  const auto search = [&](auto&& self, std::size_t pos) -> bool {
    if (pos == n) return permutation_matches(a, b, perm);
    for (const auto m : candidates[pos]) {
      if (taken[m]) continue;
      if (++attempts > max_attempts) return false;
      taken[m] = 1;
      perm[pos] = m;
      if (self(self, pos + 1)) return true;
      taken[m] = 0;
    }
    return false;
  };
  return search(search, 0);
}

NodeEdgeCheckableLcl::Builder::Builder(std::string name, Alphabet input,
                                       Alphabet output, int max_degree) {
  if (max_degree < 1) {
    throw std::invalid_argument("Builder: max_degree must be >= 1");
  }
  if (output.empty()) {
    throw std::invalid_argument("Builder: output alphabet must be non-empty");
  }
  if (input.empty()) {
    throw std::invalid_argument(
        "Builder: input alphabet must be non-empty (use a single dummy label "
        "for problems without inputs)");
  }
  name_ = std::move(name);
  tables_.input = std::move(input);
  tables_.output = std::move(output);
  tables_.max_degree = max_degree;
  tables_.node.resize(static_cast<std::size_t>(max_degree) + 1);
  tables_.edge_partners.assign(tables_.output.size(),
                               LabelSet(tables_.output.size()));
  tables_.g.assign(tables_.input.size(), LabelSet(tables_.output.size()));
}

void NodeEdgeCheckableLcl::Builder::check_output_label(Label l) const {
  if (l >= tables_.output.size()) {
    throw std::out_of_range("Builder: output label " + std::to_string(l) +
                            " out of range");
  }
}

void NodeEdgeCheckableLcl::Builder::check_input_label(Label l) const {
  if (l >= tables_.input.size()) {
    throw std::out_of_range("Builder: input label " + std::to_string(l) +
                            " out of range");
  }
}

NodeEdgeCheckableLcl::Builder& NodeEdgeCheckableLcl::Builder::allow_node(
    const std::vector<Label>& labels) {
  return allow_node(std::vector<Label>(labels));
}

NodeEdgeCheckableLcl::Builder& NodeEdgeCheckableLcl::Builder::allow_node(
    std::vector<Label>&& labels) {
  if (labels.empty() ||
      labels.size() > static_cast<std::size_t>(tables_.max_degree)) {
    throw std::invalid_argument(
        "Builder::allow_node: configuration size must be in [1, max_degree]");
  }
  for (auto l : labels) check_output_label(l);
  tables_.node[labels.size()].emplace_back(std::move(labels));
  return *this;
}

NodeEdgeCheckableLcl::Builder& NodeEdgeCheckableLcl::Builder::allow_edge(
    Label a, Label b) {
  check_output_label(a);
  check_output_label(b);
  tables_.edge.push_back(Configuration::pair(a, b));
  tables_.edge_partners[a].insert(b);
  tables_.edge_partners[b].insert(a);
  return *this;
}

NodeEdgeCheckableLcl::Builder&
NodeEdgeCheckableLcl::Builder::allow_output_for_input(Label in, Label out) {
  check_input_label(in);
  check_output_label(out);
  tables_.g[in].insert(out);
  return *this;
}

NodeEdgeCheckableLcl::Builder&
NodeEdgeCheckableLcl::Builder::allow_all_outputs_for_input(Label in) {
  check_input_label(in);
  tables_.g[in] = LabelSet::full(tables_.output.size());
  return *this;
}

NodeEdgeCheckableLcl::Builder&
NodeEdgeCheckableLcl::Builder::unrestricted_inputs() {
  for (Label in = 0; in < tables_.input.size(); ++in) {
    allow_all_outputs_for_input(in);
  }
  return *this;
}

NodeEdgeCheckableLcl::Builder&
NodeEdgeCheckableLcl::Builder::allow_unsatisfiable_inputs() {
  allow_unsatisfiable_inputs_ = true;
  return *this;
}

namespace {

/// Sorts an appended configuration list ascending, skipping the sort when
/// it arrived in order, and drops repeats.
void sort_unique(std::vector<Configuration>& configs) {
  if (!std::is_sorted(configs.begin(), configs.end())) {
    std::sort(configs.begin(), configs.end());
  }
  configs.erase(std::unique(configs.begin(), configs.end()), configs.end());
}

}  // namespace

NodeEdgeCheckableLcl NodeEdgeCheckableLcl::Builder::build() {
  if (built_) {
    throw std::logic_error("Builder::build called twice");
  }
  const bool has_node_config =
      std::any_of(tables_.node.begin(), tables_.node.end(),
                  [](const auto& per_degree) { return !per_degree.empty(); });
  if (!has_node_config) {
    throw std::logic_error("Builder::build: no node configuration added");
  }
  if (tables_.edge.empty()) {
    throw std::logic_error("Builder::build: no edge configuration added");
  }
  for (Label in = 0; in < tables_.input.size(); ++in) {
    if (!allow_unsatisfiable_inputs_ && tables_.g[in].empty()) {
      throw std::logic_error(
          "Builder::build: input label '" + tables_.input.name(in) +
          "' permits no output label; call allow_output_for_input / "
          "unrestricted_inputs");
    }
  }
  for (auto& per_degree : tables_.node) sort_unique(per_degree);
  sort_unique(tables_.edge);
  built_ = true;
  return NodeEdgeCheckableLcl(
      std::move(name_), std::make_shared<const Tables>(std::move(tables_)));
}

}  // namespace lcl
