#include "re/operators.hpp"

#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "re/kernel.hpp"
#include "re/working_set.hpp"
#include "util/combinatorics.hpp"

namespace lcl {

namespace re_kernel {

ReStep apply(const NodeEdgeCheckableLcl& pi, const ReLimits& limits,
             bool exists_node, bool reduce) {
  // R and Rbar share their scaffolding: output alphabet
  // 2^Sigma_out(Pi) \ {{}} and g(l) = { A : A subseteq g_Pi(l) }. Derived
  // label `i` always denotes the base-label set whose mask is `i + 1`, and
  // is named after that set.
  const std::size_t base = pi.output_alphabet().size();
  const std::string name = std::string(exists_node ? "R" : "Rbar") + "(" +
                           pi.name() + ")";
  const auto set_of = [base](Label l) {
    const std::uint64_t mask = std::uint64_t{l} + 1;
    return LabelSet::from_words(base, {&mask, 1});
  };
  const Naming naming{name, pi.input_alphabet(), [&](Label l) {
                        return set_of(l).to_string([&pi](std::uint32_t b) {
                          return pi.output_alphabet().name(b);
                        });
                      }};

  std::optional<WorkingSet> ws;
  {
    LCL_OBS_SPAN(span, exists_node ? "re/R" : "re/Rbar", "re");
    if (base >= 63 || ((std::uint64_t{1} << base) - 1) > limits.max_labels) {
      throw ReBlowupError(
          "round elimination: derived alphabet for '" + pi.name() +
          "' would have 2^" + std::to_string(base) +
          "-1 labels, exceeding the limit of " +
          std::to_string(limits.max_labels));
    }
    const std::size_t label_count = (std::size_t{1} << base) - 1;

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
      throw ReBlowupError("round elimination: '" + name + "' would need " +
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

    ws.emplace(label_count, pi.input_alphabet().size(), pi.max_degree());
    if (use_mask) {
      fill_mask(*ws, pi, exists_node);
    } else {
      fill_generic(*ws, pi, exists_node);
    }
    // The candidates the fill kept; over `configs`, its acceptance ratio.
    LCL_OBS_SPAN_ARG(span, "accepted", ws->configs());
    ws->finish();
    ws->check_buildable(pi.input_alphabet());
    if (!reduce) {
      ReStep step{ws->build(naming), {}};
      step.meaning.reserve(label_count);
      for (Label l = 0; l < label_count; ++l) {
        step.meaning.push_back(set_of(l));
      }
      return step;
    }
  }

  Reduction reduced = reduce_working_set(*ws, naming, limits.kernel);
  ReStep step{std::move(reduced.problem), {}};
  step.meaning.reserve(reduced.new_to_old.size());
  for (const Label rep : reduced.new_to_old) {
    step.meaning.push_back(set_of(rep));
  }
  return step;
}

}  // namespace re_kernel

ReStep apply_r(const NodeEdgeCheckableLcl& pi, const ReLimits& limits) {
  return re_kernel::apply(pi, limits, /*exists_node=*/true, /*reduce=*/false);
}

ReStep apply_rbar(const NodeEdgeCheckableLcl& pi, const ReLimits& limits) {
  return re_kernel::apply(pi, limits, /*exists_node=*/false,
                          /*reduce=*/false);
}

}  // namespace lcl
