#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lcl.hpp"
#include "local/view.hpp"
#include "re/lift.hpp"
#include "re/step.hpp"
#include "re/zero_round.hpp"

namespace lcl {

/// One step `pi -> f(pi)` of the sequence: `R`, then `Rbar`, each followed
/// by the sound label reduction when `reduce` is on. Equals
/// `reduce_step(apply_rbar(reduce_step(apply_r(pi)).problem))` (without
/// the reductions when `reduce` is off), but each operator fills the
/// reduction's working set directly, so only `psi` and `f(pi)` are ever
/// built. Throws `ReBlowupError` when an operator would exceed `limits`,
/// `std::logic_error` (with `Builder::build`'s text) when a derived problem
/// would not build, and `std::runtime_error` when the reduction proves a
/// derived problem unsolvable on every graph with an edge.
SequenceLevel speedup_step(const NodeEdgeCheckableLcl& pi,
                           const ReLimits& limits, bool reduce = true);

/// Drives the problem sequence `pi, f(pi), f^2(pi), ...` with
/// `f = Rbar o R` (Section 3.1) and tests each member for 0-round
/// solvability. This is the computational core of Theorem 3.10: if
/// `f^k(pi)` is 0-round solvable, then `pi` is solvable in `k` rounds on
/// forests of *any* size - and `synthesize()` returns that k-round
/// algorithm, built from the `A_det` witness by applying Lemma 3.9 `k`
/// times (`choose_edge_pair` and `choose_node_labels`, re/lift.hpp).
///
/// Every run starts with one pre-flight, `preflight_trim` (the support
/// fixpoint of `reduce()`'s trim pass) on the base problem: an L020 verdict
/// (trivially unsolvable) short-circuits the run, and dead-label pruning
/// shrinks the base alphabet - cutting the `2^k - 1` power-set base that
/// `R` pays - without changing any verdict. The iterates need no
/// pre-flight of their own: with `reduce` on, reduction's trim has already
/// run the same fixpoint on them.
class SpeedupEngine {
 public:
  struct Options {
    int max_steps = 6;
    ReLimits limits;
    /// Apply the sound label reduction after each operator (recommended;
    /// without it the faithful sequence blows up after 1-2 steps). The
    /// ablation bench compares both settings.
    bool reduce = true;
    /// Node degrees the 0-round test must answer (empty = 1..max_degree,
    /// the forest setting; use {2} when classifying problems on cycles).
    std::vector<int> degrees;
  };

  /// Statistics for one applied step `pi_i -> pi_{i+1}`.
  struct StepStats {
    int index = 0;                 // i of the step pi_i -> pi_{i+1}
    std::size_t labels_psi = 0;    // |Sigma_out(R(pi_i))| after reduction
    std::size_t labels_next = 0;   // |Sigma_out(pi_{i+1})| after reduction
    std::size_t node_configs = 0;  // of pi_{i+1}
    std::size_t edge_configs = 0;  // of pi_{i+1}
    bool zero_round_solvable = false;  // of pi_{i+1}
    double seconds = 0.0;
  };

  struct Outcome {
    /// Step index k at which f^k(pi) became 0-round solvable (0 = the base
    /// problem already was); -1 if not found within the budget.
    int zero_round_step = -1;
    /// True if a step aborted due to enumeration limits.
    bool budget_exhausted = false;
    std::string blowup_message;
    /// True if the reduction proved the problem unsolvable on every graph
    /// with at least one edge (no output label survives trimming).
    bool detected_unsolvable = false;
    /// True if the (reduced) problem stopped changing between steps - a
    /// round-elimination fixed point, the classic hardness certificate
    /// (e.g. sinkless orientation).
    bool fixed_point = false;
    /// Dead output labels the pre-flight pruned from the base problem (the
    /// sequence starts from the pruned base whenever this is non-zero and
    /// the run was not short-circuited as unsolvable).
    std::size_t preflight_dead_labels = 0;
    std::vector<StepStats> steps;
  };

  /// A cache for the two pure functions `run` evaluates: the next reduced
  /// iterate and a 0-round verdict. Each call returns the value the memo
  /// holds for its arguments, or calls `compute` and returns its result,
  /// keeping it if the memo keeps that kind. A served iterate needs only
  /// the right constraints: `run` names it `Rbar(R(<current name>))`, as
  /// computing it would.
  class Memo {
   public:
    /// What `run` needs of a step it does not compute.
    struct Step {
      NodeEdgeCheckableLcl next;
      std::size_t labels_psi = 0;  // StepStats::labels_psi
    };

    virtual ~Memo() = default;
    /// `f(current)` under `options.limits` and `options.reduce`.
    virtual Step step(const NodeEdgeCheckableLcl& current,
                      const Options& options,
                      const std::function<Step()>& compute) = 0;
    /// Whether `problem` is 0-round solvable on `degrees`.
    virtual bool zero_round(const NodeEdgeCheckableLcl& problem,
                            const std::vector<int>& degrees,
                            const std::function<bool()>& compute) = 0;
  };

  explicit SpeedupEngine(NodeEdgeCheckableLcl base);

  /// Runs the sequence until 0-round solvability, a fixed point, the step
  /// budget, or an enumeration blow-up. With a `memo`, steps and 0-round
  /// verdicts it already holds are served from it instead of computed; the
  /// outcome is the same either way (up to `StepStats::seconds`). An L020
  /// pre-flight verdict ends the run before the memo is consulted.
  Outcome run(const Options& options, Memo* memo = nullptr);

  /// Problem `f^i(pi)`; valid for `0 <= i <= steps applied`. Index 0 is the
  /// problem as given; when the pre-flight pruned it, the sequence for
  /// `i >= 1` is derived from `effective_base()` instead.
  const NodeEdgeCheckableLcl& problem_at(std::size_t i) const;
  /// The problem the sequence actually starts from: the pruned base when
  /// the pre-flight removed dead labels, the base problem otherwise.
  const NodeEdgeCheckableLcl& effective_base() const noexcept {
    return effective_base_;
  }
  std::size_t steps_applied() const noexcept { return levels_.size(); }

  /// After `run` found `zero_round_step == k`: the synthesized k-round
  /// LOCAL algorithm for the base problem (Theorem 3.10's conclusion). Its
  /// radius is the constant k, independent of n. Throws `std::logic_error`
  /// if no 0-round witness was found, or if the run was served anything by
  /// a memo (served steps keep their iterates but no lifting data). The
  /// returned algorithm references this engine's state; the engine must
  /// outlive it.
  std::unique_ptr<BallAlgorithm> synthesize() const;

 private:
  /// The 0-round test of iterate `step` (0 = the effective base), through
  /// `memo` when there is one. A computed verdict keeps its witness.
  bool zero_round(const NodeEdgeCheckableLcl& problem, int step,
                  const Options& options, Memo* memo);

  NodeEdgeCheckableLcl base_;
  /// The pruned base (== `base_` until a pre-flight prunes it). The
  /// levels always map effective_base_ -> pi_1 -> ...; synthesized outputs
  /// are translated back to `base_` labels via `prune_new_to_old_`.
  NodeEdgeCheckableLcl effective_base_;
  std::vector<Label> prune_new_to_old_;  // empty = identity
  std::vector<SequenceLevel> levels_;  // level i maps pi_i -> pi_{i+1}
  std::optional<ZeroRoundAlgorithm> witness_;
  int witness_step_ = -1;
  bool memo_served_ = false;  // the last run took a step or verdict from a memo
};

}  // namespace lcl
