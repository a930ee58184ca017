#include "core/lcl.hpp"

#include <sstream>
#include <stdexcept>

namespace lcl {

bool NodeEdgeCheckableLcl::node_allows(const Configuration& config) const {
  const auto degree = static_cast<int>(config.size());
  if (degree < 0 || degree > max_degree_) return false;
  return node_[static_cast<std::size_t>(degree)].count(config) != 0;
}

bool NodeEdgeCheckableLcl::edge_allows(Label a, Label b) const {
  if (a >= edge_partners_.size() || b >= edge_partners_.size()) return false;
  return edge_partners_[a].contains(b);
}

const LabelSet& NodeEdgeCheckableLcl::edge_partners(Label a) const {
  if (a >= edge_partners_.size()) {
    throw std::out_of_range("NodeEdgeCheckableLcl::edge_partners: label " +
                            std::to_string(a) + " out of range");
  }
  return edge_partners_[a];
}

const LabelSet& NodeEdgeCheckableLcl::allowed_outputs(Label input) const {
  if (input >= g_.size()) {
    throw std::out_of_range("NodeEdgeCheckableLcl::allowed_outputs: input " +
                            std::to_string(input) + " out of range");
  }
  return g_[input];
}

const std::set<Configuration>& NodeEdgeCheckableLcl::node_configs(
    int degree) const {
  if (degree < 0 || degree > max_degree_) return empty_;
  return node_[static_cast<std::size_t>(degree)];
}

std::size_t NodeEdgeCheckableLcl::total_node_configs() const noexcept {
  std::size_t total = 0;
  for (const auto& per_degree : node_) total += per_degree.size();
  return total;
}

std::string NodeEdgeCheckableLcl::to_string() const {
  std::ostringstream os;
  os << "LCL '" << name_ << "' (Delta = " << max_degree_ << ")\n";
  os << "  Sigma_in  (" << input_.size() << "):";
  for (Label l = 0; l < input_.size(); ++l) os << ' ' << input_.name(l);
  os << "\n  Sigma_out (" << output_.size() << "):";
  for (Label l = 0; l < output_.size(); ++l) os << ' ' << output_.name(l);
  os << "\n  node configurations:\n";
  for (int d = 0; d <= max_degree_; ++d) {
    for (const auto& c : node_configs(d)) {
      os << "    " << c.to_string(output_) << '\n';
    }
  }
  os << "  edge configurations:\n";
  for (const auto& c : edge_) os << "    " << c.to_string(output_) << '\n';
  os << "  g (input -> allowed outputs):\n";
  for (Label l = 0; l < input_.size(); ++l) {
    os << "    " << input_.name(l) << " -> "
       << g_[l].to_string(
              [this](std::uint32_t o) { return output_.name(o); })
       << '\n';
  }
  return os.str();
}

bool same_constraints(const NodeEdgeCheckableLcl& a,
                      const NodeEdgeCheckableLcl& b) {
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
  problem_.name_ = std::move(name);
  problem_.input_ = std::move(input);
  problem_.output_ = std::move(output);
  problem_.max_degree_ = max_degree;
  problem_.node_.resize(static_cast<std::size_t>(max_degree) + 1);
  problem_.edge_partners_.assign(problem_.output_.size(),
                                 LabelSet(problem_.output_.size()));
  problem_.g_.assign(problem_.input_.size(),
                     LabelSet(problem_.output_.size()));
}

void NodeEdgeCheckableLcl::Builder::check_output_label(Label l) const {
  if (l >= problem_.output_.size()) {
    throw std::out_of_range("Builder: output label " + std::to_string(l) +
                            " out of range");
  }
}

void NodeEdgeCheckableLcl::Builder::check_input_label(Label l) const {
  if (l >= problem_.input_.size()) {
    throw std::out_of_range("Builder: input label " + std::to_string(l) +
                            " out of range");
  }
}

NodeEdgeCheckableLcl::Builder& NodeEdgeCheckableLcl::Builder::allow_node(
    const std::vector<Label>& labels) {
  if (labels.empty() ||
      labels.size() > static_cast<std::size_t>(problem_.max_degree_)) {
    throw std::invalid_argument(
        "Builder::allow_node: configuration size must be in [1, max_degree]");
  }
  for (auto l : labels) check_output_label(l);
  auto& bucket = problem_.node_[labels.size()];
  bucket.insert(bucket.end(), Configuration(labels));
  return *this;
}

NodeEdgeCheckableLcl::Builder& NodeEdgeCheckableLcl::Builder::allow_node(
    std::vector<Label>&& labels) {
  if (labels.empty() ||
      labels.size() > static_cast<std::size_t>(problem_.max_degree_)) {
    throw std::invalid_argument(
        "Builder::allow_node: configuration size must be in [1, max_degree]");
  }
  for (auto l : labels) check_output_label(l);
  auto& bucket = problem_.node_[labels.size()];
  bucket.insert(bucket.end(), Configuration(std::move(labels)));
  return *this;
}

NodeEdgeCheckableLcl::Builder&
NodeEdgeCheckableLcl::Builder::allow_node_named(
    const std::vector<std::string>& names) {
  std::vector<Label> labels;
  labels.reserve(names.size());
  for (const auto& n : names) labels.push_back(problem_.output_.at(n));
  return allow_node(labels);
}

NodeEdgeCheckableLcl::Builder& NodeEdgeCheckableLcl::Builder::allow_edge(
    Label a, Label b) {
  check_output_label(a);
  check_output_label(b);
  problem_.edge_.insert(problem_.edge_.end(), Configuration::pair(a, b));
  problem_.edge_partners_[a].insert(b);
  problem_.edge_partners_[b].insert(a);
  return *this;
}

NodeEdgeCheckableLcl::Builder&
NodeEdgeCheckableLcl::Builder::allow_edge_named(const std::string& a,
                                                const std::string& b) {
  return allow_edge(problem_.output_.at(a), problem_.output_.at(b));
}

NodeEdgeCheckableLcl::Builder&
NodeEdgeCheckableLcl::Builder::allow_output_for_input(Label in, Label out) {
  check_input_label(in);
  check_output_label(out);
  problem_.g_[in].insert(out);
  return *this;
}

NodeEdgeCheckableLcl::Builder&
NodeEdgeCheckableLcl::Builder::allow_all_outputs_for_input(Label in) {
  check_input_label(in);
  problem_.g_[in] = LabelSet::full(problem_.output_.size());
  return *this;
}

NodeEdgeCheckableLcl::Builder&
NodeEdgeCheckableLcl::Builder::unrestricted_inputs() {
  for (Label in = 0; in < problem_.input_.size(); ++in) {
    allow_all_outputs_for_input(in);
  }
  return *this;
}

NodeEdgeCheckableLcl::Builder&
NodeEdgeCheckableLcl::Builder::allow_unsatisfiable_inputs() {
  allow_unsatisfiable_inputs_ = true;
  return *this;
}

NodeEdgeCheckableLcl NodeEdgeCheckableLcl::Builder::build() {
  if (built_) {
    throw std::logic_error("Builder::build called twice");
  }
  if (problem_.total_node_configs() == 0) {
    throw std::logic_error("Builder::build: no node configuration added");
  }
  if (problem_.edge_.empty()) {
    throw std::logic_error("Builder::build: no edge configuration added");
  }
  for (Label in = 0; in < problem_.input_.size(); ++in) {
    if (!allow_unsatisfiable_inputs_ && problem_.g_[in].empty()) {
      throw std::logic_error(
          "Builder::build: input label '" + problem_.input_.name(in) +
          "' permits no output label; call allow_output_for_input / "
          "unrestricted_inputs");
    }
  }
  built_ = true;
  return std::move(problem_);
}

}  // namespace lcl
