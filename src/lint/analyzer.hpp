#pragma once

#include <string>
#include <vector>

#include "core/lcl.hpp"
#include "lint/diagnostic.hpp"
#include "lint/spec.hpp"
#include "obs/json.hpp"

namespace lcl::lint {

/// Pass selection. The label-support fixpoint and pruning (L010-L013,
/// L020) always run; the switches below select the optional passes.
struct LintOptions {
  /// L030: the uniform-label 0-round triviality check.
  bool zero_round = true;
  /// L050/L052: label-permutation canonicalization of the pruned spec
  /// (`lint/canonical.hpp`). Off by default, so the fuzz generator's lint
  /// policy and the fuzz oracles' pruning do not pay the orbit search;
  /// `lcl_lint` and `lcld`'s `/v1/lint` turn it on. When on, the
  /// canonicalizing permutation is folded into `canonical` and the
  /// `old_to_new`/`new_to_old` maps, so `--fix` applies it.
  bool canonical_labels = false;
};

/// Everything the analyzer learned about one spec.
struct LintReport {
  /// Marks a dead output label in `old_to_new`.
  static constexpr Label kDropped = static_cast<Label>(-1);

  std::vector<Diagnostic> diagnostics;

  /// False when L001 found structural errors; the semantic passes were
  /// skipped and `canonical` is only syntactically normalized.
  bool structurally_valid = false;

  /// The canonicalized and (when structurally valid) pruned spec - what
  /// `lcl_lint --fix` writes. Dead labels, vacuous configurations, and
  /// duplicate entries are gone; everything surviving is sorted.
  ProblemSpec canonical;

  /// Output-label mapping original -> pruned (`kDropped` for dead labels)
  /// and back. Identity-sized to the original/pruned alphabets; empty when
  /// the spec was structurally invalid.
  std::vector<Label> old_to_new;
  std::vector<Label> new_to_old;

  /// Number of support-fixpoint sweeps that removed something (0 = the spec
  /// was already fully supported; >= 2 = a cascade: deleting one label's
  /// configurations starved another).
  int fixpoint_iterations = 0;
  std::size_t dead_labels = 0;

  /// L020: the pruned constraint set is empty - no graph with at least one
  /// edge admits a correct solution.
  bool trivially_unsolvable = false;

  /// L030: original index of a label whose uniform assignment satisfies
  /// every constraint, or -1. Implies 0-round solvability (Theorem 3.10's
  /// `A_det` exists); the converse need not hold.
  std::int64_t zero_round_label = -1;

  /// L050/L052 evidence, filled only when `LintOptions::canonical_labels`
  /// ran (structurally valid, not L020-unsolvable): the automorphism-group
  /// order of the pruned constraint system (0 = pass did not run; saturates
  /// at UINT64_MAX). The canonicalizing permutation itself lives in
  /// `canonical` / `old_to_new` / `new_to_old`.
  std::uint64_t automorphism_order = 0;
  bool automorphism_order_saturated = false;
  /// True when the canonicalization search finished within budget, making
  /// `canonical` the permutation-invariant representative of its class.
  /// False when the pass did not run *or* exhausted `max_leaves` - in that
  /// case `canonical` is deterministic for this spec but two permuted
  /// copies may not coincide, so cross-file L051 comparison must skip it.
  bool canonical_complete = false;

  Severity severity() const { return max_severity(diagnostics); }
  /// 0 = clean or info only, 1 = warnings, 2 = errors.
  int status() const { return lint::exit_code(diagnostics); }
  bool clean() const { return severity() == Severity::kInfo; }

  /// One line per diagnostic plus a summary line; empty-diagnostics reports
  /// render as "clean".
  std::string to_text() const;
  /// Machine output: diagnostics, summary counts, verdicts, and (when
  /// structurally valid) the canonical spec.
  obs::json::Value to_json_value() const;
  std::string to_json() const;
};

/// Runs the pass pipeline over a raw spec:
///   1. L001 alphabet/arity consistency (+ L040/L041 canonicalization
///      findings). Errors here skip the semantic passes.
///   2. L010 support fixpoint: iteratively delete node/edge configurations
///      containing unsupported labels and labels left without support,
///      reporting dead labels (L010), vacuous configurations (L011),
///      starved inputs (L012), unpopulated degrees (L013).
///   3. L020 trivial unsolvability of the pruned constraint set.
///   4. L030 uniform-label 0-round triviality.
///   5. (opt-in) L050/L052 label-permutation canonicalization of the pruned
///      spec; the permutation composes into the label maps.
LintReport lint_spec(const ProblemSpec& spec, const LintOptions& options = {});

/// Lints an already-built problem (structural passes are vacuously clean).
/// The fuzz generator's lint policy uses it to flag degenerate draws.
LintReport lint_problem(const NodeEdgeCheckableLcl& problem,
                        const LintOptions& options = {});

/// A built problem plus the lint evidence that produced it. `problem` is
/// only valid when the report is structurally valid and not L020-unsolvable
/// (callers must check `report.trivially_unsolvable` first).
struct PrunedProblem {
  NodeEdgeCheckableLcl problem;
  /// True when pruning removed at least one label or configuration (the
  /// built problem differs from the input).
  bool changed = false;
  LintReport report;
};

/// Pre-flight helper: lint, prune, and rebuild. Dead-label removal before
/// round elimination cuts the `2^k - 1` power-set base of `R`; solutions of
/// the pruned problem map back through `report.new_to_old`. When nothing
/// was pruned and `canonical_labels` is off, `problem` is a copy of the
/// input (sharing its tables) rather than a rebuild.
PrunedProblem prune_problem(const NodeEdgeCheckableLcl& problem,
                            const LintOptions& options = {});

}  // namespace lcl::lint
