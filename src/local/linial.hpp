#pragma once

#include <cstdint>
#include <vector>

#include "local/sync_engine.hpp"

namespace lcl {

/// The deterministic palette schedule of Linial's coloring algorithm.
///
/// Starting from a palette of `id_range` colors (colors = identifiers), each
/// iteration maps a palette of size `m` to one of size `q^2` using a
/// polynomial cover-free family over GF(q): a color `c < m` is read as the
/// base-`q` digit vector of `c`, i.e. a polynomial `p_c` of degree `< d`
/// with `q^d >= m`; a node picks an evaluation point `x` where its
/// polynomial differs from all neighbors' polynomials (possible whenever
/// `q >= Delta*(d-1) + 1`) and adopts the new color `(x, p_c(x))`.
/// Iterating until the palette stops shrinking takes Theta(log* id_range)
/// steps and ends with an O(Delta^2 log^2 Delta) palette - this is the
/// Theta(log* n) stage the paper's class (B) problems live in.
struct LinialSchedule {
  struct Step {
    std::uint64_t palette;  // palette size before this step
    std::uint64_t q;        // field size used in this step
    int digits;             // polynomial degree bound d
  };
  std::vector<Step> steps;
  std::uint64_t final_palette = 0;  // palette size after the last step

  /// Computes the schedule for a given starting palette and max degree.
  static LinialSchedule compute(std::uint64_t id_range, int max_degree);
};

/// Linial's (Delta+1)-coloring: the schedule above, followed by one
/// color-removal round per color to shrink the O(Delta^2 log^2 Delta)
/// palette greedily down to Delta+1. Total round count:
/// Theta(log* id_range) + O(Delta^2 log^2 Delta), i.e. Theta(log* n) for
/// constant Delta. The output labeling writes each node's final color on
/// all its half-edges (the `problems::coloring` encoding).
///
/// Requires all identifiers to be < `id_range`.
class LinialColoring final : public SynchronousAlgorithm {
 public:
  LinialColoring(int max_degree, std::uint64_t id_range);

  NodeState init(NodeContext& ctx) const override;
  NodeState step(NodeContext& ctx, const NodeState& self,
                 const std::vector<const NodeState*>& neighbors,
                 int round) const override;
  bool halted(const NodeContext& ctx, const NodeState& state) const override;
  std::vector<Label> finalize(const NodeContext& ctx,
                              const NodeState& state) const override;

  /// Number of colors in the final proper coloring (= max_degree + 1).
  int colors() const noexcept { return max_degree_ + 1; }
  /// Total rounds the algorithm needs (its halting schedule).
  int total_rounds() const noexcept;
  /// Rounds taken by the log*-stage alone (the palette schedule).
  int schedule_rounds() const noexcept {
    return static_cast<int>(schedule_.steps.size());
  }

 private:
  int max_degree_;
  std::uint64_t id_range_;
  LinialSchedule schedule_;
};

}  // namespace lcl
