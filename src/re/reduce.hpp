#pragma once

#include <vector>

#include "core/lcl.hpp"
#include "re/step.hpp"

namespace lcl {

/// Result of the sound label-level simplification of a problem.
struct Reduction {
  NodeEdgeCheckableLcl problem;
  /// For each old output label, its new label, or `kDropped`.
  std::vector<Label> old_to_new;
  /// For each new label, a representative old label.
  std::vector<Label> new_to_old;

  static constexpr Label kDropped = static_cast<Label>(-1);
};

/// Simplifies a node-edge-checkable problem without changing its set of
/// correct solutions up to relabeling - in particular, preserving
/// solvability on every instance, round complexity, and 0-round
/// solvability. Three passes, iterated in this order to a fixed point:
///
///  1. *Trim*: drop output labels that appear in no node configuration, or
///     have no edge partner, or are permitted by no input label. Such
///     labels cannot occur in any correct solution, so removing them (and
///     every configuration mentioning them) is lossless.
///  2. *Merge*: identify output labels with identical behaviour - equal
///     edge partner sets, equal `g`-preimages, and equal node contexts (the
///     multisets obtained by deleting one occurrence of the label from each
///     configuration containing it, tagged with the degree). Replacing one
///     such label by the other maps correct solutions to correct solutions
///     in both directions, so the quotient problem is equivalent. The
///     smallest member represents its class; classes are numbered in
///     representative order.
///  3. *Dominate*: drop every label that another label dominates. Label `a`
///     is dominated by `b != a` when
///       - partners(a) is a subset of partners(b),
///       - g-preimage(a) is a subset of g-preimage(b), and
///       - every node configuration containing `a` stays allowed when one
///         occurrence of `a` is replaced by `b` - equivalently, the node
///         contexts of `a` are a subset of those of `b`.
///     Replacing every occurrence of `a` by `b` maps correct solutions to
///     correct solutions: nodes by induction over occurrences, edges by the
///     partner inclusion (including {b,b}: a in partners(a), a subset of
///     partners(b), gives {a,b} in E, so b in partners(a), a subset of
///     partners(b)), and `g` by the g-preimage inclusion.
///
/// *Why a whole batch of drops is sound.* Domination is a preorder: the
/// three inclusions compose, and so do one-occurrence replacements. The
/// dominate pass computes the relation once, then drops in one relabel
/// every label some other label strictly dominates, and every tied label
/// but the smallest of its tie class. The survivors are exactly the
/// maximal labels, one per maximal tie class, and every dropped label `a`
/// has a surviving dominator; `a` follows its smallest-indexed one. Let
/// `phi` send each dropped label to its survivor and fix the rest. For
/// every correct solution, applying `phi` yields a correct solution over
/// the survivors: node configurations stay allowed by induction over the
/// replaced occurrences (each step replaces one occurrence of a label by a
/// dominator inside an allowed configuration), edges by partner inclusion
/// applied to each endpoint in turn, and `g` by g-preimage inclusion. Every
/// correct solution over the survivors is one of the original problem, so
/// solvability, round complexity and 0-round solvability are unchanged.
/// Dominations among the survivors still hold after the drop (restricting
/// the constraints to the survivors keeps every inclusion), so the loop
/// repeats only for dominations that the drop newly creates.
///
/// Merge classes are exactly the tie classes of domination, so after a
/// merge pass the tie rule never fires; it keeps the dominate pass sound on
/// its own.
///
/// The passes share one working set (`re/working_set.hpp`) - node
/// configurations per degree as sorted packed keys, edges, `g`-sets, and one
/// label map - and the reduced problem is built from it once, at the end; a
/// problem no pass changes is returned as is. The operators fill the same
/// working set, so `speedup_step` reduces `R(pi)` and `Rbar(psi)` without
/// ever building them. The `re/reduce` span carries the per-call pass
/// counts as args: `trim_passes`, `merge_passes` and `dominate_passes`
/// (passes that changed the working set) and `dominated` (labels the
/// dominate passes dropped), next to `labels_in` (the unreduced size) and
/// `labels_out`.
///
/// The paper's operators deliberately skip such simplifications (note after
/// Definition 3.1); `reduce` is the practical counterpart that keeps the
/// faithful sequence computable for a few extra steps. The ablation bench
/// `bench_re_ablation` quantifies the difference.
///
/// `kernel` selects how the domination predicate is evaluated: `kMask`
/// intersects per-feature holder masks of `ceil(n / 64)` words each, for
/// every alphabet up to the pass's 4096-label cap; `kGeneric` keeps the
/// original pair scan over the configurations as the reference. Both
/// compute the same relation, so both produce the same maps -
/// `test_re_kernel_parity`'s boundary battery fences that.
///
/// Throws `std::runtime_error` when trimming leaves no usable label, or
/// empties the node or edge constraint: the problem is then unsolvable on
/// any graph with an edge.
Reduction reduce(const NodeEdgeCheckableLcl& problem,
                 ReKernel kernel = ReKernel::kMask);

/// Composes an operator step with a label reduction: the reduced problem's
/// label `l` means whatever the representative pre-reduction label meant.
/// `reduce_step(apply_r(pi))` is the definition `speedup_step` computes
/// without building the unreduced problem; the parity tests and the fuzzer's
/// `step-parity` oracle compare the two.
ReStep reduce_step(ReStep step, ReKernel kernel = ReKernel::kMask);

/// The support-fixpoint pruning of a problem (the automata-theoretic
/// pruning of arXiv 2002.07659).
struct TrimmedProblem {
  /// Output labels that occur in no correct solution on any instance.
  std::size_t dead_labels = 0;
  /// Nothing survives: no graph with an edge admits a correct solution
  /// (lint's L020). `problem` is then empty.
  bool trivially_unsolvable = false;
  /// For each surviving label, its label in the input problem.
  std::vector<Label> new_to_old;
  /// The pruned problem, named like the input with each survivor under its
  /// old name; the input itself (sharing its tables) when no label died.
  NodeEdgeCheckableLcl problem;
};

/// The pre-flight that `SpeedupEngine`'s constructor runs once, and that
/// both classifiers read from their engine: `reduce()`'s trim pass alone,
/// run to its fixpoint on the problem's tables, under the `re/preflight`
/// span (arg `dead_labels`). It finds the same dead labels, L020 verdict,
/// `new_to_old` and pruned problem as `lint::prune_problem`, without
/// converting the problem to a spec. The pruned problem has the input's
/// solvability, round complexity and 0-round verdicts on every instance,
/// since dead labels occur in no correct solution.
TrimmedProblem preflight_trim(const NodeEdgeCheckableLcl& problem);

}  // namespace lcl
