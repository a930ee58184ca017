#include "fuzz/oracles.hpp"

#include <optional>
#include <stdexcept>
#include <typeinfo>

#include "classify/cycle_classifier.hpp"
#include "classify/path_classifier.hpp"
#include "core/brute_force.hpp"
#include "core/checker.hpp"
#include "graph/generators.hpp"
#include "lint/analyzer.hpp"
#include "lint/canonical.hpp"
#include "lint/spec.hpp"
#include "util/rng.hpp"
#include "local/order_invariant.hpp"
#include "local/view.hpp"
#include "re/engine.hpp"
#include "re/lift.hpp"
#include "re/operators.hpp"
#include "re/reduce.hpp"
#include "re/zero_round.hpp"
#include "volume/algorithms.hpp"
#include "volume/model.hpp"

namespace lcl::fuzz {

namespace {

/// Rebuilds `p` with one configuration silently deleted - the "bug" behind
/// the `drop-rbar-config` injection. Prefers the last node configuration of
/// the highest populated degree (keeping the problem buildable); falls back
/// to an edge configuration; returns nullopt when nothing can be dropped.
std::optional<NodeEdgeCheckableLcl> drop_one_config(
    const NodeEdgeCheckableLcl& p) {
  const bool drop_node = p.total_node_configs() > 1;
  if (!drop_node && p.edge_configs().size() <= 1) return std::nullopt;

  int victim_degree = 0;
  if (drop_node) {
    for (int d = p.max_degree(); d >= 1; --d) {
      if (!p.node_configs(d).empty()) {
        victim_degree = d;
        break;
      }
    }
  }

  NodeEdgeCheckableLcl::Builder builder(p.name() + "[dropped-config]",
                                        p.input_alphabet(),
                                        p.output_alphabet(), p.max_degree());
  builder.allow_unsatisfiable_inputs();
  for (int d = 1; d <= p.max_degree(); ++d) {
    const auto& configs = p.node_configs(d);
    std::size_t index = 0;
    for (const auto& config : configs) {
      const bool is_victim =
          drop_node && d == victim_degree && index + 1 == configs.size();
      if (!is_victim) builder.allow_node(config.labels());
      ++index;
    }
  }
  {
    std::size_t index = 0;
    for (const auto& config : p.edge_configs()) {
      const bool is_victim =
          !drop_node && index + 1 == p.edge_configs().size();
      if (!is_victim) builder.allow_edge(config[0], config[1]);
      ++index;
    }
  }
  for (Label in = 0; in < p.input_alphabet().size(); ++in) {
    for (const auto out : p.allowed_outputs(in).to_vector()) {
      builder.allow_output_for_input(in, out);
    }
  }
  return builder.build();
}

/// Oracle (a): per-instance solvability of `pi` and `Rbar(R(pi))` must
/// coincide (a solution of `pi` embeds as singletons; a solution of
/// `Rbar(R(pi))` lifts via Lemma 3.9), and a lifted solution must pass the
/// `pi` checker.
OracleResult oracle_lift_soundness(const FuzzCase& c,
                                   const OracleOptions& o) {
  OracleResult r;
  if (c.graph.edge_count() == 0 ||
      c.graph.max_degree() > c.problem.max_degree()) {
    return r;
  }

  SequenceLevel level;
  try {
    level = speedup_step(c.problem, o.limits);
  } catch (const ReBlowupError&) {
    return r;  // enumeration budget - skip, don't judge
  } catch (const std::logic_error&) {
    return r;  // derived problem unbuildable (e.g. empty g after shrinking)
  } catch (const std::runtime_error& e) {
    // reduce() proved a derived problem unsolvable on every graph with an
    // edge; the base problem must agree on this instance.
    r.applicable = true;
    try {
      if (brute_force_solvable(c.problem, c.graph, c.input,
                               o.brute_force_budget)) {
        r.failed = true;
        r.message =
            std::string("reduction declared the sequence unsolvable, but "
                        "the base problem is solvable on the instance (") +
            e.what() + ")";
      }
    } catch (const StepBudgetExceeded&) {
      r.applicable = false;
    }
    return r;
  }

  if (o.inject == "drop-rbar-config") {
    auto corrupted = drop_one_config(level.next.problem);
    if (!corrupted) return r;  // nothing to drop on this case
    level.next.problem = std::move(*corrupted);
  }

  r.applicable = true;
  bool base_solvable = false;
  std::optional<HalfEdgeLabeling> next_solution;
  try {
    base_solvable = brute_force_solvable(c.problem, c.graph, c.input,
                                         o.brute_force_budget);
    next_solution = brute_force_solve(level.next.problem, c.graph, c.input,
                                      o.brute_force_budget);
  } catch (const StepBudgetExceeded&) {
    r.applicable = false;
    return r;
  }

  if (base_solvable != next_solution.has_value()) {
    r.failed = true;
    r.message = std::string("solvability disagreement: pi is ") +
                (base_solvable ? "solvable" : "unsolvable") +
                " but Rbar(R(pi)) is " +
                (next_solution ? "solvable" : "unsolvable") +
                " on the same instance";
    return r;
  }

  if (next_solution) {
    try {
      const auto lifted = lift_solution(c.problem, level, c.graph, c.input,
                                        *next_solution);
      const auto check =
          check_solution(c.problem, c.graph, c.input, lifted);
      if (!check.ok()) {
        r.failed = true;
        r.message = "Lemma 3.9 lift produced an incorrect pi solution: " +
                    check.to_string();
      }
    } catch (const std::logic_error& e) {
      r.failed = true;
      r.message = std::string("Lemma 3.9 lift threw: ") + e.what();
    }
  }
  return r;
}

/// Oracle (b): what the speedup engine certifies must hold on the concrete
/// instance - a synthesized constant-round algorithm produces
/// checker-correct solutions on forests; an unsolvability verdict agrees
/// with brute force.
OracleResult oracle_synthesis(const FuzzCase& c, const OracleOptions& o) {
  OracleResult r;
  if (!c.graph.is_forest() || c.graph.edge_count() == 0 ||
      c.graph.max_degree() > c.problem.max_degree()) {
    return r;
  }
  // The 0-round witness only answers degrees 1..Delta; isolated nodes would
  // ask for a degree-0 tuple.
  for (NodeId v = 0; v < c.graph.node_count(); ++v) {
    if (c.graph.degree(v) == 0) return r;
  }

  SpeedupEngine engine(c.problem);
  SpeedupEngine::Options options;
  options.max_steps = o.speedup_max_steps;
  options.limits = o.limits;
  SpeedupEngine::Outcome outcome;
  try {
    outcome = engine.run(options);
  } catch (const std::logic_error&) {
    return r;  // a derived problem failed to build - skip
  }

  r.applicable = true;
  if (outcome.zero_round_step >= 0) {
    const auto algorithm = engine.synthesize();
    const auto ids = sequential_ids(c.graph);
    HalfEdgeLabeling produced;
    try {
      produced = run_ball_algorithm(*algorithm, c.graph, c.input, ids);
    } catch (const std::logic_error& e) {
      r.failed = true;
      r.message = std::string("synthesized algorithm threw: ") + e.what();
      return r;
    }
    const auto check = check_solution(c.problem, c.graph, c.input, produced);
    if (!check.ok()) {
      r.failed = true;
      r.message = "synthesized " + std::to_string(outcome.zero_round_step) +
                  "-round algorithm produced an incorrect solution: " +
                  check.to_string();
    }
  } else if (outcome.detected_unsolvable) {
    try {
      if (brute_force_solvable(c.problem, c.graph, c.input,
                               o.brute_force_budget)) {
        r.failed = true;
        r.message =
            "engine declared the problem unsolvable (no label survives "
            "reduction), but brute force solved the instance";
      }
    } catch (const StepBudgetExceeded&) {
      r.applicable = false;
    }
  }
  // Fixed point / step budget without a verdict: nothing checkable; counts
  // as a (vacuous) pass so the tally reflects that the engine ran.
  return r;
}

/// Oracle (c): walk-automaton solvability per length vs brute force, for
/// no-input problems with Delta >= 2.
OracleResult oracle_classifier_lengths(const FuzzCase& c,
                                       const OracleOptions& o) {
  OracleResult r;
  if (c.problem.input_alphabet().size() != 1 || c.problem.max_degree() < 2) {
    return r;
  }
  // The walk automata ignore g; they only match brute force when the single
  // input label genuinely permits every output.
  if (c.problem.allowed_outputs(0).to_vector().size() !=
      c.problem.output_alphabet().size()) {
    return r;
  }
  r.applicable = true;
  for (std::uint64_t n = 2;
       n <= static_cast<std::uint64_t>(o.sweep_max_length); ++n) {
    const bool automaton = solvable_on_path_length(c.problem, n);
    const Graph g = make_path(n);
    bool reference = false;
    try {
      reference = brute_force_solvable(c.problem, g, uniform_labeling(g, 0),
                                       o.brute_force_budget);
    } catch (const StepBudgetExceeded&) {
      continue;
    }
    if (automaton != reference) {
      r.failed = true;
      r.message = "path length " + std::to_string(n) +
                  ": walk automaton says " +
                  (automaton ? "solvable" : "unsolvable") +
                  ", brute force says the opposite";
      return r;
    }
  }
  for (std::uint64_t n = 3;
       n <= static_cast<std::uint64_t>(o.sweep_max_length); ++n) {
    const bool automaton = solvable_on_cycle_length(c.problem, n);
    const Graph g = make_cycle(n);
    bool reference = false;
    try {
      reference = brute_force_solvable(c.problem, g, uniform_labeling(g, 0),
                                       o.brute_force_budget);
    } catch (const StepBudgetExceeded&) {
      continue;
    }
    if (automaton != reference) {
      r.failed = true;
      r.message = "cycle length " + std::to_string(n) +
                  ": walk automaton says " +
                  (automaton ? "solvable" : "unsolvable") +
                  ", brute force says the opposite";
      return r;
    }
  }
  return r;
}

/// Oracle (e): `lclscape::lint` verdicts vs ground truth. One-directional
/// checks of the semantic passes (the lint analyzer claims more than any
/// single instance can refute, so only its *positive* verdicts are
/// falsifiable here):
///  - L020 (trivially unsolvable) => brute force must find no solution on
///    the instance (any instance with an edge);
///  - L030 (0-round trivial)      => the exact `A_det` decision procedure
///    must confirm 0-round solvability;
///  - pruning is conservative     => the pruned problem is solvable on the
///    instance iff the original is, and a pruned solution mapped through
///    `new_to_old` must pass the *original* checker.
OracleResult oracle_lint_soundness(const FuzzCase& c, const OracleOptions& o) {
  OracleResult r;
  if (c.graph.edge_count() == 0 ||
      c.graph.max_degree() > c.problem.max_degree()) {
    return r;
  }

  const auto pruned = lint::prune_problem(c.problem, lint::LintOptions{});
  const auto& report = pruned.report;
  r.applicable = true;

  bool base_solvable = false;
  try {
    base_solvable = brute_force_solvable(c.problem, c.graph, c.input,
                                         o.brute_force_budget);
  } catch (const StepBudgetExceeded&) {
    r.applicable = false;
    return r;
  }

  if (report.trivially_unsolvable) {
    if (base_solvable) {
      r.failed = true;
      r.message =
          "lint reported L020 (trivially unsolvable), but brute force "
          "solved the instance";
    }
    return r;  // no pruned problem exists to compare against
  }

  if (report.zero_round_label >= 0 && !zero_round_solvable(c.problem)) {
    r.failed = true;
    r.message = "lint reported L030 (0-round trivial via label " +
                std::to_string(report.zero_round_label) +
                "), but the A_det decision procedure found no 0-round "
                "algorithm";
    return r;
  }

  std::optional<HalfEdgeLabeling> pruned_solution;
  try {
    pruned_solution = brute_force_solve(pruned.problem, c.graph, c.input,
                                        o.brute_force_budget);
  } catch (const StepBudgetExceeded&) {
    r.applicable = false;
    return r;
  }
  if (base_solvable != pruned_solution.has_value()) {
    r.failed = true;
    r.message = std::string("pruning changed solvability: the original is ") +
                (base_solvable ? "solvable" : "unsolvable") +
                " but the pruned problem is " +
                (pruned_solution ? "solvable" : "unsolvable") +
                " on the same instance (" +
                std::to_string(report.dead_labels) + " labels pruned)";
    return r;
  }

  if (pruned_solution && !report.new_to_old.empty()) {
    HalfEdgeLabeling mapped = *pruned_solution;
    for (auto& label : mapped) label = report.new_to_old[label];
    const auto check = check_solution(c.problem, c.graph, c.input, mapped);
    if (!check.ok()) {
      r.failed = true;
      r.message =
          "a pruned-problem solution mapped through new_to_old fails the "
          "original checker: " +
          check.to_string();
    }
  }
  return r;
}

/// Oracle (d): the LOCAL and VOLUME implementations of orient-by-larger-id
/// must agree output-for-output, and both must produce a consistent
/// orientation (one kOut / one kIn per edge).
OracleResult oracle_cross_model(const FuzzCase& c, const OracleOptions& o) {
  (void)o;
  OracleResult r;
  if (c.graph.edge_count() == 0) return r;
  r.applicable = true;

  SplitRng rng(c.seed ^ 0xc2b2ae3d27d4eb4fULL);
  const auto ids = shuffled_sequential_ids(c.graph, rng);

  const OrientByIdOrder local_algo;
  const auto local = run_ball_algorithm(local_algo, c.graph, c.input, ids);
  const auto volume =
      run_volume_algorithm(VolumeOrientByIds{}, c.graph, c.input, ids);

  if (local != volume.output) {
    r.failed = true;
    r.message =
        "LOCAL and VOLUME orientation algorithms disagree on the instance";
    return r;
  }
  for (EdgeId e = 0; e < c.graph.edge_count(); ++e) {
    const Label a = local[2 * e];
    const Label b = local[2 * e + 1];
    const bool oriented = (a == OrientByIdOrder::kOut &&
                           b == OrientByIdOrder::kIn) ||
                          (a == OrientByIdOrder::kIn &&
                           b == OrientByIdOrder::kOut);
    if (!oriented) {
      r.failed = true;
      r.message = "orientation output invalid on edge " + std::to_string(e);
      return r;
    }
  }
  return r;
}

/// Oracle (f): label-permutation canonicalization soundness. Draw a random
/// output-label permutation sigma from the case seed and cross-check
/// `lint::canonical_form` against it:
///  - canonical_form(sigma(pi)) == canonical_form(pi), byte for byte (label
///    names ride with their labels), with equal canonical signatures and
///    equal automorphism-group orders;
///  - a reported automorphism generator really fixes the constraint system;
///  - the speedup engine's verdict on sigma(pi) matches its verdict on pi
///    (the landscape class of a problem cannot depend on label names);
///  - a brute-force solution of sigma(pi) mapped through sigma^-1 passes
///    pi's checker (solutions transport along the permutation).
OracleResult oracle_canonicalization(const FuzzCase& c,
                                     const OracleOptions& o) {
  OracleResult r;
  const lint::ProblemSpec spec = lint::spec_from_problem(c.problem);
  const std::size_t k = spec.outputs.size();
  if (k == 0) return r;

  // Fisher-Yates from the case seed: deterministic per case, independent of
  // the instance stream.
  std::vector<Label> sigma(k);
  for (std::size_t i = 0; i < k; ++i) sigma[i] = static_cast<Label>(i);
  SplitRng rng(c.seed ^ 0x51a0b1c2d3e4f567ULL);
  for (std::size_t i = k; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(sigma[i - 1], sigma[j]);
  }

  const lint::ProblemSpec permuted_spec = lint::permute_spec(spec, sigma);
  const auto f1 = lint::canonical_form(spec);
  const auto f2 = lint::canonical_form(permuted_spec);
  if (!f1.complete || !f2.complete) return r;  // budget - skip, don't judge
  r.applicable = true;

  if (!(f1.spec == f2.spec)) {
    r.failed = true;
    r.message =
        "canonical_form(sigma(pi)) differs from canonical_form(pi): the "
        "canonical representative depends on the input labeling";
    return r;
  }
  if (lint::spec_signature(f1.spec) != lint::spec_signature(f2.spec)) {
    r.failed = true;
    r.message = "equal canonical forms hash to different signatures";
    return r;
  }
  if (f1.automorphism_order != f2.automorphism_order ||
      f1.automorphism_order_saturated != f2.automorphism_order_saturated) {
    r.failed = true;
    r.message = "automorphism-group order changed under relabeling: " +
                std::to_string(f1.automorphism_order) + " vs " +
                std::to_string(f2.automorphism_order);
    return r;
  }
  if (!f1.automorphism_generator.empty() &&
      !lint::same_structure(
          lint::permute_spec(spec, f1.automorphism_generator), spec)) {
    r.failed = true;
    r.message =
        "the reported automorphism generator does not fix the constraint "
        "system";
    return r;
  }

  // The engine's verdict is a function of the constraint system, not of
  // label names: run both copies under the same budget and compare the
  // observable certificate.
  NodeEdgeCheckableLcl permuted_problem =
      lint::build_spec(permuted_spec);
  try {
    SpeedupEngine::Options options;
    options.max_steps = o.speedup_max_steps;
    options.limits = o.limits;
    SpeedupEngine original_engine(c.problem);
    SpeedupEngine permuted_engine(permuted_problem);
    const auto a = original_engine.run(options);
    const auto b = permuted_engine.run(options);
    if (a.zero_round_step != b.zero_round_step ||
        a.detected_unsolvable != b.detected_unsolvable ||
        a.fixed_point != b.fixed_point ||
        a.budget_exhausted != b.budget_exhausted) {
      r.failed = true;
      r.message = "engine verdict changed under relabeling: zero_round_step " +
                  std::to_string(a.zero_round_step) + " vs " +
                  std::to_string(b.zero_round_step);
      return r;
    }
  } catch (const std::logic_error&) {
    // A derived problem failed to build; the verdict comparison is
    // inapplicable but the form checks above already ran.
  }

  // Solutions transport along sigma: solve the relabeled problem on the
  // instance and replay the answer through sigma^-1 against pi's checker.
  if (c.graph.edge_count() > 0 &&
      c.graph.max_degree() <= c.problem.max_degree()) {
    std::vector<Label> sigma_inverse(k);
    for (std::size_t l = 0; l < k; ++l) sigma_inverse[sigma[l]] = l;
    try {
      const auto permuted_solution = brute_force_solve(
          permuted_problem, c.graph, c.input, o.brute_force_budget);
      const bool base_solvable = brute_force_solvable(
          c.problem, c.graph, c.input, o.brute_force_budget);
      if (base_solvable != permuted_solution.has_value()) {
        r.failed = true;
        r.message = std::string("relabeling changed solvability: pi is ") +
                    (base_solvable ? "solvable" : "unsolvable") +
                    " but sigma(pi) is " +
                    (permuted_solution ? "solvable" : "unsolvable") +
                    " on the same instance";
        return r;
      }
      if (permuted_solution) {
        HalfEdgeLabeling mapped = *permuted_solution;
        for (auto& label : mapped) label = sigma_inverse[label];
        const auto check =
            check_solution(c.problem, c.graph, c.input, mapped);
        if (!check.ok()) {
          r.failed = true;
          r.message =
              "a sigma(pi) solution mapped through sigma^-1 fails pi's "
              "checker: " +
              check.to_string();
        }
      }
    } catch (const StepBudgetExceeded&) {
      // Instance-level budget: the form/engine checks above still count.
    }
  }
  return r;
}

/// What a computation produced: its value, or the type and text of what it
/// threw.
template <typename T>
struct Attempt {
  std::optional<T> value;
  const std::type_info* error_type = nullptr;
  std::string error;
};

template <typename F>
auto attempt(F&& compute) -> Attempt<decltype(compute())> {
  Attempt<decltype(compute())> out;
  try {
    out.value = compute();
  } catch (const std::exception& e) {
    out.error_type = &typeid(e);
    out.error = e.what();
  }
  return out;
}

/// Empty when `a` and `b` have the same name, output-label names in order,
/// and constraints; otherwise what differs, for `what`.
std::string problem_mismatch(const NodeEdgeCheckableLcl& a,
                             const NodeEdgeCheckableLcl& b,
                             const std::string& what) {
  if (a.name() != b.name()) {
    return what + " is named '" + a.name() + "' vs '" + b.name() + "'";
  }
  const Alphabet& x = a.output_alphabet();
  const Alphabet& y = b.output_alphabet();
  if (x.size() != y.size()) {
    return what + " has " + std::to_string(x.size()) + " vs " +
           std::to_string(y.size()) + " output labels";
  }
  for (Label l = 0; l < x.size(); ++l) {
    if (x.name(l) != y.name(l)) {
      return what + " names label " + std::to_string(l) + " '" + x.name(l) +
             "' vs '" + y.name(l) + "'";
    }
  }
  if (!same_constraints(a, b)) return what + " has different constraints";
  return {};
}

std::string step_mismatch(const ReStep& a, const ReStep& b,
                          const std::string& what) {
  if (auto m = problem_mismatch(a.problem, b.problem, what); !m.empty()) {
    return m;
  }
  if (a.meaning != b.meaning) return what + " has different meanings";
  return {};
}

/// Oracle (g): the fused speedup step against its definition.
/// `speedup_step(pi)` builds only `psi` and `f(pi)`, from working sets that
/// the operators fill and `reduce()` trims in place; the reference builds
/// each operator's full output and reduces it. Both levels must agree in
/// name, label names, constraints and meanings, and an error must be the
/// same type with the same text. The table pre-flight (`preflight_trim`)
/// must find what `lint::prune_problem` finds: dead labels, the L020
/// verdict, `new_to_old`, and the pruned problem with its names.
OracleResult oracle_step_parity(const FuzzCase& c, const OracleOptions& o) {
  OracleResult r;
  r.applicable = true;
  const auto fused = attempt([&] { return speedup_step(c.problem, o.limits); });
  const auto reference = attempt([&] {
    SequenceLevel level;
    level.psi = reduce_step(apply_r(c.problem, o.limits), o.limits.kernel);
    level.next = reduce_step(apply_rbar(level.psi.problem, o.limits),
                             o.limits.kernel);
    return level;
  });
  if (reference.error_type != nullptr || fused.error_type != nullptr) {
    const bool same =
        reference.error_type != nullptr && fused.error_type != nullptr &&
        *reference.error_type == *fused.error_type &&
        reference.error == fused.error;
    if (!same) {
      r.failed = true;
      r.message = "speedup_step " +
                  (fused.value ? std::string("succeeded")
                               : "threw '" + fused.error + "'") +
                  " but the reference " +
                  (reference.value ? std::string("succeeded")
                                   : "threw '" + reference.error + "'");
      return r;
    }
  } else {
    r.message = step_mismatch(fused.value->psi, reference.value->psi, "psi");
    if (r.message.empty()) {
      r.message =
          step_mismatch(fused.value->next, reference.value->next, "f(pi)");
    }
    if (!r.message.empty()) {
      r.failed = true;
      return r;
    }
  }

  lint::LintOptions lint_options;
  lint_options.zero_round = false;
  const auto pruned = lint::prune_problem(c.problem, lint_options);
  const TrimmedProblem trimmed = preflight_trim(c.problem);
  if (trimmed.dead_labels != pruned.report.dead_labels ||
      trimmed.trivially_unsolvable != pruned.report.trivially_unsolvable ||
      trimmed.new_to_old != pruned.report.new_to_old) {
    r.failed = true;
    r.message = "preflight_trim found " + std::to_string(trimmed.dead_labels) +
                " dead labels (L020: " +
                (trimmed.trivially_unsolvable ? "yes" : "no") +
                ") but lint found " +
                std::to_string(pruned.report.dead_labels) + " (L020: " +
                (pruned.report.trivially_unsolvable ? "yes" : "no") +
                "), or their new_to_old maps differ";
    return r;
  }
  if (!trimmed.trivially_unsolvable) {
    r.message = problem_mismatch(trimmed.problem, pruned.problem,
                                 "the pre-flight's pruned problem");
    r.failed = !r.message.empty();
  }
  return r;
}

}  // namespace

const std::vector<OracleEntry>& oracle_bank() {
  static const std::vector<OracleEntry> kBank = {
      {"lift-soundness",
       "pi vs Rbar(R(pi)): per-instance solvability agreement + Lemma 3.9 "
       "lift re-checked against pi's checker",
       &oracle_lift_soundness},
      {"synthesis",
       "speedup-engine certificates vs brute force: synthesized algorithms "
       "are checker-correct, unsolvability verdicts agree",
       &oracle_synthesis},
      {"classifier-lengths",
       "path/cycle walk-automaton solvability vs brute force on a sweep of "
       "lengths",
       &oracle_classifier_lengths},
      {"cross-model",
       "LOCAL vs VOLUME implementations of the same orientation rule "
       "produce identical outputs",
       &oracle_cross_model},
      {"lint-soundness",
       "lint verdicts vs ground truth: L020 agrees with brute force, L030 "
       "with the A_det decision procedure, and dead-label pruning preserves "
       "per-instance solvability",
       &oracle_lint_soundness},
      {"canonicalization",
       "label-permutation canonicalization soundness: canonical_form("
       "sigma(pi)) == canonical_form(pi) with matching signatures and |Aut|, "
       "engine verdicts are relabeling-invariant, and sigma(pi) solutions "
       "transport through sigma^-1 to pi's checker",
       &oracle_canonicalization},
      {"step-parity",
       "speedup_step vs reduce_step(apply_rbar(reduce_step(apply_r(pi)))): "
       "equal problems, label names, meanings and errors; the table "
       "pre-flight matches lint::prune_problem",
       &oracle_step_parity},
  };
  return kBank;
}

OracleResult run_oracle(const std::string& id, const FuzzCase& fuzz_case,
                        const OracleOptions& options) {
  for (const auto& entry : oracle_bank()) {
    if (id == entry.id) return entry.run(fuzz_case, options);
  }
  throw std::invalid_argument("fuzz: unknown oracle '" + id + "'");
}

}  // namespace lcl::fuzz
