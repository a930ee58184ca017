// Experiment RE-ABL: ablation of the design choice called out after
// Definition 3.1 - the paper's operators do NOT remove non-maximal
// configurations; our `reduce()` (trim + merge + dominated-label drop) is
// the sound practical counterpart. This bench applies one f = Rbar o R step
// with and without reduction and reports the label/configuration growth and
// the wall time, quantifying how quickly the faithful sequence becomes
// intractable (the doubly-exponential blow-up behind Theorem 3.4's S).

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/problems.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"

namespace lcl {
namespace {

void run_ablation(benchmark::State& state,
                  const NodeEdgeCheckableLcl& problem, bool with_reduce,
                  ReKernel kernel = ReKernel::kMask) {
  ReLimits limits;
  limits.max_labels = 1u << 14;
  limits.max_configs = 8'000'000;
  limits.kernel = kernel;
  std::size_t labels_psi = 0, labels_next = 0, configs_next = 0;
  bool blowup = false;
  const bench::ObsCounters obs_counters;
  for (auto _ : state) {
    try {
      ReStep psi = apply_r(problem, limits);
      if (with_reduce) {
        auto red = reduce(psi.problem, kernel);
        psi.problem = std::move(red.problem);
      }
      ReStep next = apply_rbar(psi.problem, limits);
      if (with_reduce) {
        auto red = reduce(next.problem, kernel);
        next.problem = std::move(red.problem);
      }
      labels_psi = psi.problem.output_alphabet().size();
      labels_next = next.problem.output_alphabet().size();
      configs_next = next.problem.total_node_configs() +
                     next.problem.edge_configs().size();
      lcl::bench::keep(labels_next);
    } catch (const ReBlowupError&) {
      blowup = true;
    }
  }
  obs_counters.report(state);
  state.counters["labels_psi"] = static_cast<double>(labels_psi);
  state.counters["labels_next"] = static_cast<double>(labels_next);
  state.counters["configs_next"] = static_cast<double>(configs_next);
  state.counters["blowup"] = blowup ? 1 : 0;
  state.counters["reduce"] = with_reduce ? 1 : 0;
  state.counters["mask_kernel"] = kernel == ReKernel::kGeneric ? 0 : 1;
}

// Experiment BENCH-JSON / the kernel ablation: the same operator slice on
// the original ordered-container enumeration (`kGeneric`) versus the dense
// one-word mask kernel (`kMask`). One slice iteration applies both R and
// Rbar at the slice's scale; Rbar runs on the base problem rather than on
// R(Pi), because the faithful composition exceeds any enumeration budget
// already at k=5 (reduce leaves 30 labels, so Rbar(reduce(R(Pi))) would
// derive 2^30 - 1 - Theorem 3.4's blow-up, which the ablation benches above
// quantify). The Delta=3, k=5 slice (5-coloring on trees of maximum degree
// 3) is the CI-gated pair: `tools/bench_diff --min-speedup` asserts the
// mask column stays >= 3x faster.
void run_kernel_slice(benchmark::State& state,
                      const NodeEdgeCheckableLcl& problem, ReKernel kernel) {
  ReLimits limits;
  limits.max_labels = 1u << 14;
  limits.max_configs = 64'000'000;
  limits.kernel = kernel;
  std::size_t labels_r = 0, configs_r = 0;
  const bench::ObsCounters obs_counters;
  for (auto _ : state) {
    ReStep r = apply_r(problem, limits);
    ReStep rbar = apply_rbar(problem, limits);
    labels_r = r.problem.output_alphabet().size();
    configs_r = r.problem.total_node_configs() +
                r.problem.edge_configs().size();
    lcl::bench::keep(labels_r);
    lcl::bench::keep(rbar.problem.output_alphabet().size());
  }
  obs_counters.report(state);
  state.counters["labels_r"] = static_cast<double>(labels_r);
  state.counters["configs_r"] = static_cast<double>(configs_r);
  state.counters["mask_kernel"] = kernel == ReKernel::kGeneric ? 0 : 1;
}

void BM_KernelSlice_D3K5_Generic(benchmark::State& state) {
  run_kernel_slice(state, problems::coloring(5, 3), ReKernel::kGeneric);
}
BENCHMARK(BM_KernelSlice_D3K5_Generic)->Unit(benchmark::kMillisecond);

void BM_KernelSlice_D3K5_Mask(benchmark::State& state) {
  run_kernel_slice(state, problems::coloring(5, 3), ReKernel::kMask);
}
BENCHMARK(BM_KernelSlice_D3K5_Mask)->Unit(benchmark::kMillisecond);

// Reduce slice past the one-word seam. The dominated-label pass is the one
// per-iterate pass whose cost is quadratic in the alphabet, and its worst
// case is a *fruitless* scan: every ordered pair passes the edge-partner and
// g-preimage inclusions and is rejected only at the node-configuration
// probe, so the full n^2 sweep runs to completion. This problem pins that
// shape at 96 labels (two-word holder masks): all edges allowed (partner
// inclusions always hold), node constraint = {l, l} doubles only (replacing
// one occurrence yields a forbidden mixed pair, so no label is ever
// dominated, and the per-label node contexts keep merge_once from firing).
NodeEdgeCheckableLcl wide_probe_wall(int labels) {
  Alphabet output;
  for (int l = 0; l < labels; ++l) {
    std::string name = "w";
    name += std::to_string(l);
    output.add(name);
  }
  NodeEdgeCheckableLcl::Builder b("wide-probe-wall", Alphabet({"-"}),
                                  std::move(output), /*max_degree=*/2);
  for (Label l = 0; l < static_cast<Label>(labels); ++l) {
    b.allow_node({l, l});
  }
  for (Label a = 0; a < static_cast<Label>(labels); ++a) {
    for (Label c = a; c < static_cast<Label>(labels); ++c) {
      b.allow_edge(a, c);
    }
  }
  b.unrestricted_inputs();
  return b.build();
}

void run_reduce_slice(benchmark::State& state,
                      const NodeEdgeCheckableLcl& problem, ReKernel kernel) {
  std::size_t labels_out = 0, configs_out = 0;
  const bench::ObsCounters obs_counters;
  for (auto _ : state) {
    auto red = reduce(problem, kernel);
    labels_out = red.problem.output_alphabet().size();
    configs_out = red.problem.total_node_configs() +
                  red.problem.edge_configs().size();
    lcl::bench::keep(labels_out);
  }
  obs_counters.report(state);
  state.counters["labels_out"] = static_cast<double>(labels_out);
  state.counters["configs_out"] = static_cast<double>(configs_out);
  state.counters["mask_kernel"] = kernel == ReKernel::kGeneric ? 0 : 1;
}

void BM_ReduceSlice_Wide96_Generic(benchmark::State& state) {
  run_reduce_slice(state, wide_probe_wall(96), ReKernel::kGeneric);
}
BENCHMARK(BM_ReduceSlice_Wide96_Generic)->Unit(benchmark::kMillisecond);

void BM_ReduceSlice_Wide96_Auto(benchmark::State& state) {
  run_reduce_slice(state, wide_probe_wall(96), ReKernel::kMask);
}
BENCHMARK(BM_ReduceSlice_Wide96_Auto)->Unit(benchmark::kMillisecond);

// The slowest reduce of the Delta=2 l=3 survey: d2l3-n13-e34 of the
// exhaustive family (N_2 = {aa, ac, bb}, E = {ab, cc}, every degree-1
// configuration) reaches a 511-label, 128631-configuration R iterate after
// two reduced f = Rbar o R steps, and reduce() shrinks it to 14 labels. The
// iterate is built once, outside the timed loop.
NodeEdgeCheckableLcl d2l3_wide_iterate() {
  NodeEdgeCheckableLcl::Builder b("d2l3-n13-e34", Alphabet({"-"}),
                                  Alphabet({"a", "b", "c"}),
                                  /*max_degree=*/2);
  b.allow_node({0, 0}).allow_node({0, 2}).allow_node({1, 1});
  b.allow_node({0}).allow_node({1}).allow_node({2});
  b.allow_edge(0, 1).allow_edge(2, 2);
  b.unrestricted_inputs();
  NodeEdgeCheckableLcl current = b.build();
  for (int half = 0; half < 4; ++half) {
    const ReStep step = half % 2 == 0 ? apply_r(current) : apply_rbar(current);
    current = reduce(step.problem).problem;
  }
  return apply_r(current).problem;
}

void BM_ReduceSlice_D2L3_511(benchmark::State& state) {
  run_reduce_slice(state, d2l3_wide_iterate(), ReKernel::kMask);
}
BENCHMARK(BM_ReduceSlice_D2L3_511)->Unit(benchmark::kMillisecond);

#define ABLATION_BENCH(name, expr)                              \
  void BM_Ablation_##name##_Reduced(benchmark::State& state) {  \
    run_ablation(state, expr, true);                            \
  }                                                             \
  BENCHMARK(BM_Ablation_##name##_Reduced);                      \
  void BM_Ablation_##name##_Faithful(benchmark::State& state) { \
    run_ablation(state, expr, false);                           \
  }                                                             \
  BENCHMARK(BM_Ablation_##name##_Faithful);                     \
  void BM_Ablation_##name##_FaithfulGeneric(                    \
      benchmark::State& state) {                                \
    run_ablation(state, expr, false, ReKernel::kGeneric);       \
  }                                                             \
  BENCHMARK(BM_Ablation_##name##_FaithfulGeneric);

ABLATION_BENCH(TwoColoring, problems::two_coloring(2))
ABLATION_BENCH(ThreeColoring, problems::coloring(3, 2))
ABLATION_BENCH(AnyOrientation, problems::any_orientation(2))
ABLATION_BENCH(SinklessOrientation, problems::sinkless_orientation(3))
ABLATION_BENCH(Mis, problems::mis(2))

#undef ABLATION_BENCH

}  // namespace
}  // namespace lcl

LCL_BENCH_MAIN();
