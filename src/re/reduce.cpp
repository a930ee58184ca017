#include "re/reduce.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "re/working_set.hpp"
#include "util/label_set.hpp"

namespace lcl {

namespace {

constexpr Label kDropped = Reduction::kDropped;

}  // namespace

WorkingSet::WorkingSet(std::size_t labels, std::size_t inputs, int max_degree)
    : labels_(labels),
      inputs_(inputs),
      bits_(label_bits(labels)),
      g_(inputs),
      map_(labels) {
  for (int d = 1; d <= max_degree; ++d) {
    node_.emplace_back(static_cast<std::size_t>(d), bits_);
  }
}

WorkingSet::WorkingSet(const NodeEdgeCheckableLcl& p)
    : WorkingSet(p.output_alphabet().size(), p.input_alphabet().size(),
                 p.max_degree()) {
  for (auto& configs : node_) configs = DegreeConfigs(p, configs.degree());
  for (const auto& c : p.edge_configs()) edges_.emplace_back(c[0], c[1]);
  for (Label in = 0; in < inputs_; ++in) {
    g_[in] = p.allowed_outputs(in).to_vector();
  }
}

void WorkingSet::finish() {
  for (auto& configs : node_) configs.finish();
  sort_unique(edges_);
  for (auto& outputs : g_) sort_unique(outputs);
}

void WorkingSet::check_constraints() const {
  if (std::all_of(node_.begin(), node_.end(),
                  [](const DegreeConfigs& c) { return c.size() == 0; })) {
    throw std::logic_error("Builder::build: no node configuration added");
  }
  if (edges_.empty()) {
    throw std::logic_error("Builder::build: no edge configuration added");
  }
}

void WorkingSet::check_buildable(const Alphabet& inputs) const {
  check_constraints();
  for (Label in = 0; in < inputs_; ++in) {
    if (g_[in].empty()) {
      throw std::logic_error(
          "Builder::build: input label '" + inputs.name(in) +
          "' permits no output label; call allow_output_for_input / "
          "unrestricted_inputs");
    }
  }
}

void WorkingSet::shrink(const std::vector<Label>& old_to_new,
                        const std::vector<Label>& new_to_old,
                        const std::vector<Label>& image) {
  for (auto& configs : node_) {
    DegreeConfigs next(configs.degree(), bits_);
    std::vector<Label> mapped(configs.degree());
    configs.for_each([&](const Label* labels) {
      for (std::size_t i = 0; i < mapped.size(); ++i) {
        mapped[i] = old_to_new[labels[i]];
        if (mapped[i] == kDropped) return;
      }
      std::sort(mapped.begin(), mapped.end());
      next.add(mapped.data());
    });
    next.finish();
    configs = std::move(next);
  }
  std::vector<std::pair<Label, Label>> edges;
  for (const auto& [a, b] : edges_) {
    const Label x = old_to_new[a];
    const Label y = old_to_new[b];
    if (x != kDropped && y != kDropped) {
      edges.emplace_back(std::min(x, y), std::max(x, y));
    }
  }
  sort_unique(edges);
  edges_ = std::move(edges);
  for (auto& outputs : g_) {
    std::vector<Label> mapped;
    for (const Label l : outputs) {
      if (old_to_new[l] != kDropped) mapped.push_back(old_to_new[l]);
    }
    sort_unique(mapped);
    outputs = std::move(mapped);
  }
  labels_ = new_to_old.size();
  map_.reduce(image, new_to_old);
  features_.reset();
}

Dominators WorkingSet::dominators_generic() const {
  std::vector<LabelSet> partners(labels_, LabelSet(labels_));
  for (const auto& [a, b] : edges_) {
    partners[a].insert(b);
    partners[b].insert(a);
  }
  std::vector<LabelSet> g(inputs_, LabelSet(labels_));
  for (std::size_t in = 0; in < inputs_; ++in) {
    for (const Label l : g_[in]) g[in].insert(l);
  }
  std::vector<Label> replaced;
  const auto dominated_by = [&](Label a, Label b) {
    if (!partners[a].is_subset_of(partners[b])) return false;
    for (const auto& outputs : g) {
      if (outputs.contains(a) && !outputs.contains(b)) return false;
    }
    return std::all_of(node_.begin(), node_.end(), [&](const auto& configs) {
      const std::size_t degree = configs.degree();
      return configs.all_of([&](const Label* labels) {
        const Label* it = std::find(labels, labels + degree, a);
        if (it == labels + degree) return true;
        replaced.assign(labels, labels + degree);
        replaced[static_cast<std::size_t>(it - labels)] = b;
        std::sort(replaced.begin(), replaced.end());
        return configs.contains(replaced.data());
      });
    });
  };
  Dominators dominators(labels_, LabelSet(labels_));
  for (Label a = 0; a < labels_; ++a) {
    for (Label b = 0; b < labels_; ++b) {
      if (a != b && dominated_by(a, b)) dominators[a].insert(b);
    }
  }
  return dominators;
}

Dominators WorkingSet::dominators_mask() {
  const Features& f = features();
  const std::size_t words = (labels_ + 63) / 64;
  std::vector<std::uint64_t> holders(f.count * words, 0);
  for (Label l = 0; l < labels_; ++l) {
    for (const std::uint32_t id : f.of(l)) {
      holders[id * words + l / 64] |= std::uint64_t{1} << (l % 64);
    }
  }
  const LabelSet everyone = LabelSet::full(labels_);
  std::vector<std::uint64_t> row(words);
  Dominators dominators;
  dominators.reserve(labels_);
  for (Label a = 0; a < labels_; ++a) {
    for (std::size_t w = 0; w < words; ++w) row[w] = everyone.word(w);
    row[a / 64] &= ~(std::uint64_t{1} << (a % 64));
    for (const std::uint32_t id : f.of(a)) {
      const std::uint64_t* holder = holders.data() + id * words;
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < words; ++w) {
        row[w] &= holder[w];
        any |= row[w];
      }
      if (any == 0) break;
    }
    dominators.push_back(LabelSet::from_words(labels_, row));
  }
  return dominators;
}

NodeEdgeCheckableLcl WorkingSet::build(const Naming& naming) const {
  Alphabet out;
  for (const Label rep : map_.new_to_old()) out.add(naming.output(rep));
  NodeEdgeCheckableLcl::Builder builder(naming.problem, naming.inputs,
                                        std::move(out),
                                        static_cast<int>(node_.size()));
  builder.allow_unsatisfiable_inputs();
  // Every list is ascending, so the Builder sorts none of them.
  for (const auto& configs : node_) {
    configs.for_each([&](const Label* labels) {
      builder.allow_node(
          std::vector<Label>(labels, labels + configs.degree()));
    });
  }
  for (const auto& [a, b] : edges_) builder.allow_edge(a, b);
  for (Label in = 0; in < inputs_; ++in) {
    for (const Label l : g_[in]) builder.allow_output_for_input(in, l);
  }
  return builder.build();
}

Features WorkingSet::compute_features() const {
  const auto input_base = static_cast<std::uint32_t>(labels_);
  const auto context_base = static_cast<std::uint32_t>(labels_ + inputs_);
  Features f;
  f.kinds.assign(labels_, 0);
  std::vector<std::vector<std::uint32_t>> lists(labels_);
  const auto add = [&](Label l, std::uint32_t id, std::uint8_t kind) {
    lists[l].push_back(id);
    f.kinds[l] |= kind;
  };
  for (const auto& [a, b] : edges_) {
    add(a, b, Features::kPartner);
    if (a != b) add(b, a, Features::kPartner);
  }
  for (std::size_t in = 0; in < inputs_; ++in) {
    for (const Label l : g_[in]) {
      add(l, input_base + static_cast<std::uint32_t>(in), Features::kInput);
    }
  }
  std::uint32_t contexts = 0;
  for (const auto& configs : node_) {
    configs.for_each_context(contexts, [&](Label l, std::uint32_t context) {
      add(l, context_base + context, Features::kNode);
    });
  }
  f.count = context_base + contexts;
  f.start.reserve(labels_ + 1);
  f.start.push_back(0);
  for (auto& list : lists) {
    std::sort(list.begin(), list.end());
    f.ids.insert(f.ids.end(), list.begin(), list.end());
    f.start.push_back(static_cast<std::uint32_t>(f.ids.size()));
  }
  return f;
}

namespace {

/// The relabeling of a pass that only drops labels: the kept labels are
/// numbered in ascending order, the others map to `kDropped`.
void number_kept(const std::vector<char>& keep, std::vector<Label>& old_to_new,
                 std::vector<Label>& new_to_old) {
  old_to_new.assign(keep.size(), kDropped);
  for (Label l = 0; l < keep.size(); ++l) {
    if (!keep[l]) continue;
    old_to_new[l] = static_cast<Label>(new_to_old.size());
    new_to_old.push_back(l);
  }
}

/// Trim: drops the labels that appear in no node configuration, have no
/// edge partner, or are permitted by no input. Returns the labels dropped.
std::size_t trim(WorkingSet& ws) {
  const std::size_t n = ws.labels();
  constexpr std::uint8_t kUsable =
      Features::kPartner | Features::kInput | Features::kNode;
  const auto& kinds = ws.features().kinds;
  std::vector<char> usable(n);
  for (Label l = 0; l < n; ++l) usable[l] = kinds[l] == kUsable;
  std::vector<Label> old_to_new, new_to_old;
  number_kept(usable, old_to_new, new_to_old);
  if (new_to_old.size() == n) return 0;
  ws.shrink(old_to_new, new_to_old, old_to_new);
  return n - new_to_old.size();
}

/// `reduce()`'s trim pass: `trim`, and a throw when it leaves a problem
/// (named `name`) that no graph with an edge can solve.
std::size_t trim_pass(WorkingSet& ws, const std::string& name) {
  const std::size_t trimmed = trim(ws);
  if (trimmed == 0) return 0;
  if (ws.labels() == 0) {
    throw std::runtime_error("reduce: no usable labels at all - the problem '" +
                             name + "' is unsolvable on any graph");
  }
  if (ws.constraints_empty()) {
    // No correct solution exists on any graph with an edge; the build
    // check names the constraint that ran out.
    try {
      ws.check_constraints();
    } catch (const std::logic_error& e) {
      throw std::runtime_error(
          "reduce: trimming emptied the constraints of '" + name +
          "' - the problem is unsolvable on any graph with an edge (" +
          e.what() + ")");
    }
  }
  return trimmed;
}

/// Merge: identifies labels with equal features. The smallest member
/// represents its class, and classes are numbered in representative order.
/// Returns the labels merged away.
std::size_t merge_pass(WorkingSet& ws) {
  const std::size_t n = ws.labels();
  const Features& f = ws.features();
  std::vector<std::pair<std::uint64_t, Label>> by_hash(n);
  for (Label l = 0; l < n; ++l) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint32_t id : f.of(l)) h = (h ^ id) * 0x100000001b3ULL;
    by_hash[l] = {h, l};
  }
  std::sort(by_hash.begin(), by_hash.end());
  std::vector<Label> rep(n);
  for (std::size_t first = 0; first < n;) {
    std::size_t last = first;
    while (last < n && by_hash[last].first == by_hash[first].first) ++last;
    // Within a hash group, labels ascend: confirm each against the group's
    // earlier class representatives exactly.
    for (std::size_t i = first; i < last; ++i) {
      const Label l = by_hash[i].second;
      rep[l] = l;
      for (std::size_t j = first; j < i; ++j) {
        const Label m = by_hash[j].second;
        if (rep[m] == m && std::ranges::equal(f.of(m), f.of(l))) {
          rep[l] = m;
          break;
        }
      }
    }
    first = last;
  }
  std::vector<Label> old_to_new(n);
  std::vector<Label> new_to_old;
  for (Label l = 0; l < n; ++l) {
    if (rep[l] != l) {
      old_to_new[l] = old_to_new[rep[l]];
      continue;
    }
    old_to_new[l] = static_cast<Label>(new_to_old.size());
    new_to_old.push_back(l);
  }
  if (new_to_old.size() == n) return 0;
  ws.shrink(old_to_new, new_to_old, old_to_new);
  return n - new_to_old.size();
}

/// Dominate: computes the domination relation once and drops, in one
/// relabel, every label that another label strictly dominates, plus every
/// tied label but the smallest of its tie class. Each dropped label follows
/// its smallest-indexed surviving dominator (a maximal one). Returns the
/// labels dropped.
///
/// `kernel` picks the predicate: `kGeneric` runs the original pair scan,
/// `kMask` the holder-mask pass.
std::size_t dominate_pass(WorkingSet& ws, ReKernel kernel) {
  const std::size_t n = ws.labels();
  if (n < 2 || n > 4096) return 0;  // quadratic pass: cap the size

  const Dominators dominators = kernel == ReKernel::kGeneric
                                    ? ws.dominators_generic()
                                    : ws.dominators_mask();

  std::vector<char> kept(n, 1);
  for (Label a = 0; a < n; ++a) {
    for (const Label b : dominators[a].to_vector()) {
      // Strictly dominated, or tied with a smaller label.
      if (!dominators[b].contains(a) || b < a) {
        kept[a] = 0;
        break;
      }
    }
  }
  std::vector<Label> old_to_new, new_to_old;
  number_kept(kept, old_to_new, new_to_old);
  if (new_to_old.size() == n) return 0;
  std::vector<Label> image = old_to_new;
  for (Label a = 0; a < n; ++a) {
    if (kept[a]) continue;
    for (const Label b : dominators[a].to_vector()) {
      if (!kept[b]) continue;
      image[a] = old_to_new[b];
      break;
    }
  }
  ws.shrink(old_to_new, new_to_old, image);
  return n - new_to_old.size();
}

}  // namespace

Reduction reduce_working_set(WorkingSet& ws, const Naming& naming,
                             ReKernel kernel,
                             const NodeEdgeCheckableLcl* unchanged) {
  LCL_OBS_SPAN(span, "re/reduce", "re");
  [[maybe_unused]] const std::size_t labels_in = ws.labels();  // span arg
  std::size_t trim_passes = 0;
  std::size_t merge_passes = 0;
  std::size_t dominate_passes = 0;
  std::size_t dominated = 0;
  for (bool changed = true; changed;) {
    changed = false;
    if (const std::size_t trimmed = trim_pass(ws, naming.problem);
        trimmed > 0) {
      LCL_OBS_COUNTER_ADD("re.labels_trimmed", trimmed);
      ++trim_passes;
      changed = true;
    }
    if (const std::size_t merged = merge_pass(ws); merged > 0) {
      LCL_OBS_COUNTER_ADD("re.labels_merged", merged);
      ++merge_passes;
      changed = true;
    }
    if (const std::size_t dropped = dominate_pass(ws, kernel); dropped > 0) {
      LCL_OBS_COUNTER_ADD("re.labels_dominated", dropped);
      ++dominate_passes;
      dominated += dropped;
      changed = true;
    }
  }

  Reduction result;
  const bool changed = trim_passes + merge_passes + dominate_passes > 0;
  if (unchanged != nullptr && !changed) {
    result.problem = *unchanged;
  } else {
    result.problem = ws.build(naming);
  }
  result.old_to_new = ws.map().old_to_new();
  result.new_to_old = ws.map().new_to_old();
  LCL_OBS_SPAN_ARG(span, "labels_in", labels_in);
  LCL_OBS_SPAN_ARG(span, "labels_out", result.new_to_old.size());
  LCL_OBS_SPAN_ARG(span, "trim_passes", trim_passes);
  LCL_OBS_SPAN_ARG(span, "merge_passes", merge_passes);
  LCL_OBS_SPAN_ARG(span, "dominate_passes", dominate_passes);
  LCL_OBS_SPAN_ARG(span, "dominated", dominated);
  return result;
}

namespace {

/// Names a working set loaded from `problem` the way `problem` is named.
Naming naming_of(const NodeEdgeCheckableLcl& problem) {
  return Naming{problem.name(), problem.input_alphabet(),
                [&problem](Label l) {
                  return problem.output_alphabet().name(l);
                }};
}

}  // namespace

Reduction reduce(const NodeEdgeCheckableLcl& problem, ReKernel kernel) {
  WorkingSet ws(problem);
  return reduce_working_set(ws, naming_of(problem), kernel, &problem);
}

ReStep reduce_step(ReStep step, ReKernel kernel) {
  Reduction red = reduce(step.problem, kernel);
  ReStep out;
  out.meaning.reserve(red.new_to_old.size());
  for (const auto rep : red.new_to_old) {
    out.meaning.push_back(step.meaning[rep]);
  }
  out.problem = std::move(red.problem);
  return out;
}

TrimmedProblem preflight_trim(const NodeEdgeCheckableLcl& problem) {
  LCL_OBS_SPAN(span, "re/preflight", "re");
  WorkingSet ws(problem);
  while (trim(ws) > 0) {
    // Trim again: the configurations a drop removed may have been the last
    // support of another label.
  }
  TrimmedProblem out;
  out.dead_labels = problem.output_alphabet().size() - ws.labels();
  // At the fixpoint every surviving label has an edge partner and a node
  // configuration, so the constraints ran out exactly when no label is left.
  out.trivially_unsolvable = ws.labels() == 0;
  out.new_to_old = ws.map().new_to_old();
  if (out.dead_labels == 0) {
    out.problem = problem;
  } else if (!out.trivially_unsolvable) {
    out.problem = ws.build(naming_of(problem));
  }
  LCL_OBS_SPAN_ARG(span, "dead_labels", out.dead_labels);
  return out;
}

}  // namespace lcl
