#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/case.hpp"
#include "re/step.hpp"

namespace lcl::fuzz {

/// Budgets and fault-injection knobs shared by all oracles. The defaults
/// are deliberately tight - the fuzzer wants thousands of cheap cases, not
/// a handful of exhaustive ones; a case that busts a budget is *skipped*
/// (not failed), and the tally reports how many were.
struct OracleOptions {
  /// Backtracking budget for every brute-force reference call.
  std::uint64_t brute_force_budget = 250'000;
  /// Enumeration limits for the round-elimination operators.
  ReLimits limits{/*max_labels=*/512, /*max_configs=*/200'000};
  /// Paths of 2..N nodes and cycles of 3..N nodes swept by the classifier
  /// oracle.
  int sweep_max_length = 8;
  /// Step budget for the speedup engine in the synthesis oracle.
  int speedup_max_steps = 2;
  /// Fault injection for self-tests of the fuzzing harness itself: "" (no
  /// bug) or "drop-rbar-config" (silently delete one configuration of
  /// `Rbar(R(pi))` before cross-checking - the oracle bank must catch it).
  std::string inject;
};

/// Outcome of one oracle on one case. `applicable == false` means the case
/// was skipped (preconditions unmet or a budget was exhausted) - neither a
/// pass nor a failure. `failed == true` is a genuine differential
/// disagreement; `message` explains it.
struct OracleResult {
  bool applicable = false;
  bool failed = false;
  std::string message;

  bool passed() const noexcept { return applicable && !failed; }
};

/// One differential oracle: a named cross-check between two independent
/// computations of the same mathematical fact.
struct OracleEntry {
  const char* id;
  const char* description;
  OracleResult (*run)(const FuzzCase&, const OracleOptions&);
};

/// The bank, in execution order:
///  - "lift-soundness":    solvability of `pi` and `Rbar(R(pi))` must agree
///    on the instance, and every `Rbar(R(pi))` solution must lift to a
///    correct `pi` solution via Lemma 3.9;
///  - "synthesis":         a constant-round algorithm synthesized by the
///    speedup engine must produce checker-correct solutions on forests, and
///    an unsolvability verdict must match the brute-force reference;
///  - "classifier-lengths": the path/cycle walk-automaton solvability
///    verdicts must match brute force on a sweep of lengths;
///  - "cross-model":       the LOCAL and VOLUME implementations of the same
///    orientation rule must produce identical outputs;
///  - "lint-soundness":    `lclscape::lint` verdicts vs ground truth: an
///    L020 (trivially unsolvable) report must agree with brute force on the
///    instance, an L030 (0-round trivial) report with the exact `A_det`
///    decision procedure, and dead-label pruning must preserve per-instance
///    solvability (with pruned solutions re-checked against the original
///    problem after the `new_to_old` label translation);
///  - "canonicalization":  label-permutation canonicalization soundness: for
///    a random output-label permutation sigma drawn from the case seed,
///    `canonical_form(sigma(pi))` must equal `canonical_form(pi)` byte for
///    byte (equal signatures, equal |Aut|, the reported automorphism
///    generator must fix the constraint system), the speedup engine's
///    verdict must be relabeling-invariant, and a brute-force solution of
///    `sigma(pi)` mapped through `sigma^-1` must pass `pi`'s checker;
///  - "step-parity":       the fused `speedup_step(pi)` must equal its
///    definition `reduce_step(apply_rbar(reduce_step(apply_r(pi)).problem))`
///    - same problem names, output-label names in order, constraints and
///    meanings at both levels, or the same exception type and text - and
///    the table pre-flight `preflight_trim` must match
///    `lint::prune_problem`: dead labels, L020 verdict, `new_to_old`, and
///    the pruned problem with its names.
const std::vector<OracleEntry>& oracle_bank();

/// Runs the oracle with the given id; throws `std::invalid_argument` for an
/// unknown id (corpus files name their oracle - a typo must fail loudly).
OracleResult run_oracle(const std::string& id, const FuzzCase& fuzz_case,
                        const OracleOptions& options);

}  // namespace lcl::fuzz
