#include "local/linial.hpp"

#include <stdexcept>

#include "util/math.hpp"

namespace lcl {

namespace {

/// Minimal d >= 1 with q^d >= m.
int digits_needed(std::uint64_t m, std::uint64_t q) {
  int d = 1;
  std::uint64_t power = q;
  while (power < m) {
    // q >= 2 and m <= 2^63 keep this loop and product bounded.
    if (power > (std::uint64_t{1} << 62) / q) return d + 1;
    power *= q;
    ++d;
  }
  return d;
}

/// Evaluates the polynomial whose coefficients are the base-q digits of
/// `color` (d coefficients) at point x, over GF(q).
std::uint64_t eval_poly(std::uint64_t color, std::uint64_t q, int d,
                        std::uint64_t x) {
  std::uint64_t value = 0;
  std::uint64_t x_power = 1;
  for (int j = 0; j < d; ++j) {
    const std::uint64_t coeff = color % q;
    color /= q;
    value = (value + coeff * x_power) % q;
    x_power = (x_power * x) % q;
  }
  return value;
}

constexpr std::size_t kColor = 0;
constexpr std::size_t kRoundsDone = 1;

}  // namespace

LinialSchedule LinialSchedule::compute(std::uint64_t id_range,
                                       int max_degree) {
  if (id_range == 0) {
    throw std::invalid_argument("LinialSchedule: id_range must be positive");
  }
  if (max_degree < 1) {
    throw std::invalid_argument("LinialSchedule: max_degree must be >= 1");
  }
  LinialSchedule schedule;
  std::uint64_t m = id_range;
  while (true) {
    // Smallest prime q admitting a valid cover-free family for palette m:
    // with d = digits_needed(m, q), every pair of distinct degree-<d
    // polynomials agrees on < d points, so q >= max_degree*(d-1) + 1
    // guarantees an evaluation point avoiding all neighbors.
    std::uint64_t q = 2;
    while (true) {
      q = next_prime(q);
      const int d = digits_needed(m, q);
      if (q >= static_cast<std::uint64_t>(max_degree) *
                       static_cast<std::uint64_t>(d - 1) +
                   1) {
        break;
      }
      ++q;
    }
    if (q * q >= m) {
      schedule.final_palette = m;
      return schedule;
    }
    schedule.steps.push_back({m, q, digits_needed(m, q)});
    m = q * q;
  }
}

LinialColoring::LinialColoring(int max_degree, std::uint64_t id_range)
    : max_degree_(max_degree),
      id_range_(id_range),
      schedule_(LinialSchedule::compute(id_range, max_degree)) {}

int LinialColoring::total_rounds() const noexcept {
  const std::uint64_t palette = schedule_.final_palette;
  const std::uint64_t target = static_cast<std::uint64_t>(max_degree_) + 1;
  const int reduction_rounds =
      palette > target ? static_cast<int>(palette - target) : 0;
  return static_cast<int>(schedule_.steps.size()) + reduction_rounds;
}

NodeState LinialColoring::init(NodeContext& ctx) const {
  if (ctx.id >= id_range_) {
    throw std::invalid_argument(
        "LinialColoring: node identifier " + std::to_string(ctx.id) +
        " not below the declared id_range " + std::to_string(id_range_));
  }
  return {ctx.id, 0};
}

NodeState LinialColoring::step(NodeContext& ctx, const NodeState& self,
                               const std::vector<const NodeState*>& neighbors,
                               int round) const {
  (void)ctx;
  NodeState next = self;
  next[kRoundsDone] = static_cast<std::uint64_t>(round);
  const std::size_t schedule_len = schedule_.steps.size();
  const std::uint64_t color = self[kColor];

  if (static_cast<std::size_t>(round) <= schedule_len) {
    // Palette-reduction stage: polynomial cover-free family step.
    const auto& s = schedule_.steps[static_cast<std::size_t>(round - 1)];
    for (std::uint64_t x = 0; x < s.q; ++x) {
      const std::uint64_t own = eval_poly(color, s.q, s.digits, x);
      bool ok = true;
      for (const NodeState* nb : neighbors) {
        const std::uint64_t nb_color = (*nb)[kColor];
        if (nb_color == color) continue;  // cannot happen on proper input
        if (eval_poly(nb_color, s.q, s.digits, x) == own) {
          ok = false;
          break;
        }
      }
      if (ok) {
        next[kColor] = x * s.q + own;
        return next;
      }
    }
    throw std::logic_error(
        "LinialColoring: no valid evaluation point found (schedule bug)");
  }

  // Greedy color-removal stage: in round schedule_len + j (j >= 1), the
  // color class final_palette - j recolors into [0, max_degree].
  const std::uint64_t j =
      static_cast<std::uint64_t>(round) - schedule_len;
  const std::uint64_t target = schedule_.final_palette - j;
  if (color == target) {
    for (std::uint64_t c = 0;
         c <= static_cast<std::uint64_t>(max_degree_); ++c) {
      bool used = false;
      for (const NodeState* nb : neighbors) {
        if ((*nb)[kColor] == c) {
          used = true;
          break;
        }
      }
      if (!used) {
        next[kColor] = c;
        return next;
      }
    }
    throw std::logic_error(
        "LinialColoring: no free color in greedy reduction (degree bug)");
  }
  return next;
}

bool LinialColoring::halted(const NodeContext& ctx,
                            const NodeState& state) const {
  (void)ctx;
  return state[kRoundsDone] >=
         static_cast<std::uint64_t>(total_rounds());
}

std::vector<Label> LinialColoring::finalize(const NodeContext& ctx,
                                            const NodeState& state) const {
  return std::vector<Label>(static_cast<std::size_t>(ctx.degree),
                            static_cast<Label>(state[kColor]));
}

}  // namespace lcl
