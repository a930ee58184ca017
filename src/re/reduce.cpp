#include "re/reduce.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/label_set.hpp"

namespace lcl {

namespace {

constexpr Label kDropped = Reduction::kDropped;

/// The allowed node configurations of one degree: sorted, duplicate-free
/// multisets of output labels. A configuration packs into one 64-bit key
/// when `degree * bits` fits a word - `NodeConfigIndex`'s packing, first
/// label most significant, so key order is the lexicographic order of the
/// label vectors. Wider degrees keep label vectors.
class DegreeConfigs {
 public:
  DegreeConfigs(std::size_t degree, unsigned bits)
      : degree_(degree), bits_(bits), packed_(degree * bits <= 64) {}

  std::size_t degree() const { return degree_; }
  std::size_t size() const { return packed_ ? keys_.size() : wide_.size(); }

  /// Adds the ascending multiset `labels[0..degree)`; `finish` restores the
  /// order and drops duplicates after the last add.
  void add(const Label* labels) {
    if (packed_) {
      keys_.push_back(pack(labels, degree_));
    } else {
      wide_.emplace_back(labels, labels + degree_);
    }
  }
  void finish() {
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
    std::sort(wide_.begin(), wide_.end());
    wide_.erase(std::unique(wide_.begin(), wide_.end()), wide_.end());
  }

  /// True iff the ascending multiset `labels[0..degree)` is stored.
  bool contains(const Label* labels) const {
    if (packed_) {
      return std::binary_search(keys_.begin(), keys_.end(),
                                pack(labels, degree_));
    }
    return std::binary_search(wide_.begin(), wide_.end(),
                              std::vector<Label>(labels, labels + degree_));
  }

  /// True iff `pred(labels)` holds for every configuration; visits them in
  /// ascending order and stops at the first that fails.
  template <typename Pred>
  bool all_of(Pred&& pred) const {
    for (const auto& config : wide_) {
      if (!pred(config.data())) return false;
    }
    std::array<Label, 64> labels{};  // a packed degree is at most 64
    for (const std::uint64_t key : keys_) {
      std::uint64_t rest = key;
      for (std::size_t i = degree_; i-- > 0;) {
        labels[i] = static_cast<Label>(rest & label_mask());
        rest >>= bits_;
      }
      if (!pred(labels.data())) return false;
    }
    return true;
  }

  /// Calls `visit(labels)` on every configuration, in ascending order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    all_of([&](const Label* labels) {
      visit(labels);
      return true;
    });
  }

  /// Calls `visit(label, context)` once per distinct label of every
  /// configuration, where `context` numbers the multiset left after
  /// deleting one occurrence of `label`. Equal multisets get equal numbers;
  /// fresh ones are drawn from `next` onward.
  template <typename Visit>
  void for_each_context(std::uint32_t& next, Visit&& visit) const {
    std::vector<Label> context(degree_ - 1);
    const auto contexts = [&](auto& ids, auto key_of) {
      for_each([&](const Label* labels) {
        for (std::size_t i = 0; i < degree_; ++i) {
          if (i > 0 && labels[i] == labels[i - 1]) continue;
          std::copy(labels, labels + i, context.begin());
          std::copy(labels + i + 1, labels + degree_,
                    context.begin() + static_cast<std::ptrdiff_t>(i));
          const auto [it, fresh] = ids.try_emplace(key_of(), next);
          if (fresh) ++next;
          visit(labels[i], it->second);
        }
      });
    };
    if (packed_) {
      std::unordered_map<std::uint64_t, std::uint32_t> ids;
      contexts(ids, [&] { return pack(context.data(), degree_ - 1); });
    } else {
      std::map<std::vector<Label>, std::uint32_t> ids;
      contexts(ids, [&] { return context; });
    }
  }

 private:
  std::uint64_t label_mask() const { return (std::uint64_t{1} << bits_) - 1; }
  std::uint64_t pack(const Label* labels, std::size_t count) const {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < count; ++i) key = (key << bits_) | labels[i];
    return key;
  }

  std::size_t degree_;
  unsigned bits_;
  bool packed_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::vector<Label>> wide_;
};

/// Original labels through successive relabelings - the bookkeeping of
/// merge-and-shrink's `Labels::reduce_labels`, and the one place where the
/// passes compose label maps.
class LabelMap {
 public:
  explicit LabelMap(std::size_t labels)
      : old_to_new_(labels), new_to_old_(labels) {
    std::iota(old_to_new_.begin(), old_to_new_.end(), Label{0});
    std::iota(new_to_old_.begin(), new_to_old_.end(), Label{0});
  }

  /// Current label `l` becomes `image[l]` (`kDropped`: its original labels
  /// have no image), and new label `m` is represented by current label
  /// `reps[m]`, which must be kept under its own image.
  void reduce(const std::vector<Label>& image, const std::vector<Label>& reps) {
    for (auto& m : old_to_new_) {
      if (m != kDropped) m = image[m];
    }
    std::vector<Label> new_to_old(reps.size());
    for (std::size_t m = 0; m < reps.size(); ++m) {
      new_to_old[m] = new_to_old_[reps[m]];
    }
    new_to_old_ = std::move(new_to_old);
  }

  const std::vector<Label>& old_to_new() const { return old_to_new_; }
  const std::vector<Label>& new_to_old() const { return new_to_old_; }

 private:
  std::vector<Label> old_to_new_;
  std::vector<Label> new_to_old_;
};

/// What a label's behaviour depends on, as ascending feature ids: its edge
/// partners `p` (ids `p`), the inputs whose `g`-set holds it (ids
/// `labels + in`), and its node contexts - the multisets left after deleting
/// one occurrence of it from an allowed configuration, tagged with the
/// degree (ids from `labels + inputs` on). Labels with equal features are
/// interchangeable; `reduce.hpp` explains why `a` is dominated by `b`
/// exactly when features(a) is a subset of features(b).
struct Features {
  static constexpr std::uint8_t kPartner = 1;
  static constexpr std::uint8_t kInput = 2;
  static constexpr std::uint8_t kNode = 4;

  std::vector<std::uint32_t> start;  // label l owns ids[start[l]..start[l+1])
  std::vector<std::uint32_t> ids;
  std::vector<std::uint8_t> kinds;  // which feature kinds each label has
  std::size_t count = 0;            // feature ids in use

  std::span<const std::uint32_t> of(Label l) const {
    return {ids.data() + start[l], ids.data() + start[l + 1]};
  }
};

/// The domination relation of one pass: entry `a` holds every `b != a`
/// that dominates `a`.
using Dominators = std::vector<LabelSet>;

/// The problem under reduction, in the current label numbering. Every pass
/// reads it and changes it only through `shrink`; the reduced problem is
/// built from it once, at the end.
class WorkingSet {
 public:
  explicit WorkingSet(const NodeEdgeCheckableLcl& p)
      : labels_(p.output_alphabet().size()),
        inputs_(p.input_alphabet().size()),
        bits_(labels_ <= 1 ? 1u
                           : static_cast<unsigned>(std::bit_width(labels_ - 1))),
        g_(inputs_),
        map_(labels_) {
    for (int d = 1; d <= p.max_degree(); ++d) {
      node_.emplace_back(static_cast<std::size_t>(d), bits_);
      for (const auto& c : p.node_configs(d)) node_.back().add(c.labels().data());
      node_.back().finish();
    }
    for (const auto& c : p.edge_configs()) edges_.emplace_back(c[0], c[1]);
    for (Label in = 0; in < inputs_; ++in) {
      g_[in] = p.allowed_outputs(in).to_vector();
    }
  }

  std::size_t labels() const { return labels_; }
  const LabelMap& map() const { return map_; }
  bool constraints_empty() const {
    return edges_.empty() ||
           std::all_of(node_.begin(), node_.end(),
                       [](const DegreeConfigs& c) { return c.size() == 0; });
  }

  /// Relabels the current labels: label `l` becomes `old_to_new[l]` in the
  /// constraints - `kDropped` removes it with every configuration naming it
  /// - and `image[l]` in the label map (a dropped label may follow a kept
  /// one there). New label `m` is represented by current label
  /// `new_to_old[m]`.
  void shrink(const std::vector<Label>& old_to_new,
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
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    edges_ = std::move(edges);
    for (auto& outputs : g_) {
      std::vector<Label> mapped;
      for (const Label l : outputs) {
        if (old_to_new[l] != kDropped) mapped.push_back(old_to_new[l]);
      }
      std::sort(mapped.begin(), mapped.end());
      mapped.erase(std::unique(mapped.begin(), mapped.end()), mapped.end());
      outputs = std::move(mapped);
    }
    labels_ = new_to_old.size();
    map_.reduce(image, new_to_old);
    features_.reset();
  }

  /// The features of the current labels, computed in one pass over the
  /// constraints and kept until the next `shrink`.
  const Features& features() {
    if (!features_) features_ = compute_features();
    return *features_;
  }

  /// The `kGeneric` domination predicate: the original pair scan, which
  /// walks every node configuration for each ordered pair and probes the
  /// multiset with one occurrence replaced.
  Dominators dominators_generic() const {
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

  /// The mask domination predicate: `a`'s dominators are the labels
  /// holding every feature of `a`. Each feature keeps a holder mask of
  /// `ceil(labels / 64)` words, and `a`'s row starts as every other label
  /// and ANDs in the holder mask of each of its features.
  Dominators dominators_mask() {
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

  /// Builds the problem the working set describes, named like `original`
  /// with each label named after its representative original label.
  NodeEdgeCheckableLcl build(const NodeEdgeCheckableLcl& original) const {
    Alphabet out;
    for (const Label rep : map_.new_to_old()) {
      out.add(original.output_alphabet().name(rep));
    }
    NodeEdgeCheckableLcl::Builder builder(original.name(),
                                          original.input_alphabet(),
                                          std::move(out), original.max_degree());
    builder.allow_unsatisfiable_inputs();
    // Ascending order throughout, so the Builder's end-hinted inserts are
    // amortized O(1).
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

 private:
  Features compute_features() const {
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

  std::size_t labels_;
  std::size_t inputs_;
  unsigned bits_;
  std::vector<DegreeConfigs> node_;  // node_[d - 1] holds degree d
  std::vector<std::pair<Label, Label>> edges_;  // ascending, first <= second
  std::vector<std::vector<Label>> g_;           // per input, ascending
  LabelMap map_;
  std::optional<Features> features_;
};

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
std::size_t trim_pass(WorkingSet& ws, const NodeEdgeCheckableLcl& problem) {
  const std::size_t n = ws.labels();
  constexpr std::uint8_t kUsable =
      Features::kPartner | Features::kInput | Features::kNode;
  const auto& kinds = ws.features().kinds;
  std::vector<char> usable(n);
  for (Label l = 0; l < n; ++l) usable[l] = kinds[l] == kUsable;
  std::vector<Label> old_to_new, new_to_old;
  number_kept(usable, old_to_new, new_to_old);
  if (new_to_old.size() == n) return 0;
  if (new_to_old.empty()) {
    throw std::runtime_error("reduce: no usable labels at all - the problem '" +
                             problem.name() + "' is unsolvable on any graph");
  }
  ws.shrink(old_to_new, new_to_old, old_to_new);
  if (ws.constraints_empty()) {
    // No correct solution exists on any graph with an edge. Building the
    // emptied problem names the constraint that ran out.
    try {
      ws.build(problem);
    } catch (const std::logic_error& e) {
      throw std::runtime_error(
          "reduce: trimming emptied the constraints of '" + problem.name() +
          "' - the problem is unsolvable on any graph with an edge (" +
          e.what() + ")");
    }
  }
  return n - new_to_old.size();
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

Reduction reduce(const NodeEdgeCheckableLcl& problem, ReKernel kernel) {
  LCL_OBS_SPAN(span, "re/reduce", "re");
  WorkingSet ws(problem);
  std::size_t trim_passes = 0;
  std::size_t merge_passes = 0;
  std::size_t dominate_passes = 0;
  std::size_t dominated = 0;
  for (bool changed = true; changed;) {
    changed = false;
    if (const std::size_t trimmed = trim_pass(ws, problem); trimmed > 0) {
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
  if (trim_passes + merge_passes + dominate_passes == 0) {
    result.problem = problem;
  } else {
    result.problem = ws.build(problem);
  }
  result.old_to_new = ws.map().old_to_new();
  result.new_to_old = ws.map().new_to_old();
  LCL_OBS_SPAN_ARG(span, "labels_in", problem.output_alphabet().size());
  LCL_OBS_SPAN_ARG(span, "labels_out", result.new_to_old.size());
  LCL_OBS_SPAN_ARG(span, "trim_passes", trim_passes);
  LCL_OBS_SPAN_ARG(span, "merge_passes", merge_passes);
  LCL_OBS_SPAN_ARG(span, "dominate_passes", dominate_passes);
  LCL_OBS_SPAN_ARG(span, "dominated", dominated);
  return result;
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

}  // namespace lcl
