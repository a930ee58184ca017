#include "re/operators.hpp"

#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "re/kernel.hpp"
#include "util/combinatorics.hpp"

namespace lcl {

namespace {

enum class Quantifier { kExists, kForAll };

/// Shared scaffolding of R and Rbar: both have output alphabet
/// 2^Sigma_out(Pi) \ {{}} and g(l) = { A : A subseteq g_Pi(l) }. The
/// alphabet guard and the naming are kernel-independent; the derived label
/// `i` always denotes the base-label set whose mask is `i + 1`.
Alphabet derive_alphabet(const NodeEdgeCheckableLcl& pi,
                         const ReLimits& limits) {
  const std::size_t base = pi.output_alphabet().size();
  if (base >= 63 || ((std::uint64_t{1} << base) - 1) > limits.max_labels) {
    throw ReBlowupError(
        "round elimination: derived alphabet for '" + pi.name() +
        "' would have 2^" + std::to_string(base) +
        "-1 labels, exceeding the limit of " +
        std::to_string(limits.max_labels));
  }
  const auto namer = [&pi](std::uint32_t l) {
    return pi.output_alphabet().name(l);
  };
  Alphabet out;
  const std::uint64_t count = (std::uint64_t{1} << base) - 1;
  for (std::uint64_t mask = 1; mask <= count; ++mask) {
    out.add(LabelSet::from_words(base, {&mask, 1}).to_string(namer));
  }
  return out;
}

ReStep apply_operator(const NodeEdgeCheckableLcl& pi, const ReLimits& limits,
                      Quantifier node_quantifier, const char* name_prefix) {
  LCL_OBS_SPAN(span, node_quantifier == Quantifier::kExists ? "re/R"
                                                            : "re/Rbar",
               "re");
  Alphabet derived = derive_alphabet(pi, limits);
  const std::size_t label_count = derived.size();

  // Configuration-count guard across all degrees plus edge pairs.
  std::uint64_t candidates = count_multisets(label_count, 2);
  for (int d = 1; d <= pi.max_degree(); ++d) {
    const std::uint64_t c = count_multisets(label_count, d);
    candidates = candidates > limits.max_configs ? candidates
                                                 : candidates + c;
  }
  if (candidates > limits.max_configs) {
    LCL_OBS_COUNTER_ADD("re.blowups", 1);
    LCL_OBS_EVENT1("re/blowup", "re", "candidates",
                   static_cast<std::int64_t>(candidates));
    throw ReBlowupError("round elimination: '" + std::string(name_prefix) +
                        "(" + pi.name() + ")' would need " +
                        std::to_string(candidates) +
                        " candidate configurations, exceeding the limit of " +
                        std::to_string(limits.max_configs));
  }
  LCL_OBS_COUNTER_ADD("re.operator_applications", 1);
  LCL_OBS_COUNTER_ADD("re.configs_enumerated", candidates);
  LCL_OBS_COUNTER_ADD("re.labels_derived", label_count);
  LCL_OBS_HISTOGRAM_RECORD("re.configs_per_operator", candidates);
  LCL_OBS_SPAN_ARG(span, "labels", label_count);
  LCL_OBS_SPAN_ARG(span, "configs", candidates);

  // Kernel dispatch. The alphabet guard above already rejected bases that
  // do not fit one word, so the mask kernel takes every base that gets
  // here. The generic path stays reachable explicitly (ablation benches,
  // parity fences). The `kernel` span arg is 1 for the mask kernel and 0
  // for the generic one.
  const bool use_mask = limits.kernel != ReKernel::kGeneric;
  LCL_OBS_SPAN_ARG(span, "kernel", static_cast<std::int64_t>(use_mask));

  NodeEdgeCheckableLcl::Builder builder(
      std::string(name_prefix) + "(" + pi.name() + ")", pi.input_alphabet(),
      std::move(derived), pi.max_degree());
  const bool exists_node = node_quantifier == Quantifier::kExists;
  std::vector<LabelSet> meaning =
      use_mask ? re_kernel::fill_mask(builder, pi, exists_node, limits.jobs)
               : re_kernel::fill_generic(builder, pi, exists_node);

  return ReStep{builder.build(), std::move(meaning)};
}

}  // namespace

ReStep apply_r(const NodeEdgeCheckableLcl& pi, const ReLimits& limits) {
  return apply_operator(pi, limits, Quantifier::kExists, "R");
}

ReStep apply_rbar(const NodeEdgeCheckableLcl& pi, const ReLimits& limits) {
  return apply_operator(pi, limits, Quantifier::kForAll, "Rbar");
}

}  // namespace lcl
