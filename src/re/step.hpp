#pragma once

#include <stdexcept>
#include <vector>

#include "core/lcl.hpp"
#include "util/label_set.hpp"

namespace lcl {

/// The result of applying a round-elimination operator (`R` or `Rbar`,
/// Definitions 3.1/3.2) to a problem `Pi`: the derived node-edge-checkable
/// problem, together with the *meaning* of each of its output labels as a
/// set of `Pi`-output labels (the derived alphabets are subsets of the
/// predecessor's output alphabet; after label reduction, `meaning[l]` is the
/// set the representative label denotes).
///
/// The meanings are what make the derived problems executable: the Lemma
/// 3.9 lifting picks concrete predecessor labels out of these sets.
struct ReStep {
  NodeEdgeCheckableLcl problem;
  std::vector<LabelSet> meaning;  // indexed by output label of `problem`
};

/// Thrown when the faithful enumeration of a derived problem would exceed
/// the configured safety limits (the label/configuration counts grow doubly
/// exponentially along the sequence - the paper's parameter `S` in Theorem
/// 3.4 quantifies the same blow-up).
class ReBlowupError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which implementation the operators and `reduce()` run on. Both produce
/// constraint-identical problems and identical reduction maps (fenced by
/// `test_re_kernel_parity`); they differ only in speed.
enum class ReKernel {
  /// Dense kernels, the default and the only path production runs. The
  /// operators' fill is one 64-bit word per label set: derived label `i`
  /// *is* the mask `i + 1` over the base labels (the alphabet guard rejects
  /// bases of 63 or more labels before enumeration), support tests are
  /// ANDs, power sets are subset walks, and node-configuration membership
  /// is a binary search over sorted packed keys. `reduce()`'s domination
  /// relation ANDs one `ceil(n / 64)`-word holder mask per label feature.
  kMask,
  /// The original ordered-container enumeration over `LabelSet`s and the
  /// pair scan over configurations in `reduce()` - kept as the reference
  /// the parity battery and the ablation bench's ratio gates compare
  /// against.
  kGeneric,
};

/// Enumeration budgets (and kernel choice) for the operators.
struct ReLimits {
  /// Maximum size of the derived output alphabet (before reduction).
  std::size_t max_labels = 4096;
  /// Maximum number of candidate configurations examined per constraint.
  std::uint64_t max_configs = 4'000'000;
  /// Implementation selector (`kGeneric` only for reference runs); rides
  /// along with the budgets so that every caller threading `ReLimits`
  /// (engine, batch surveys, fuzz oracles) picks the kernel up
  /// transparently, `reduce()` included. Either kernel fills on the calling
  /// thread; parallelism lives one level up, across survey members and
  /// service requests.
  ReKernel kernel = ReKernel::kMask;
  bool operator==(const ReLimits&) const = default;
};

}  // namespace lcl
