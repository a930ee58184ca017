#pragma once

#include <cstdint>
#include <limits>

namespace lcl {

/// Deterministic, splittable pseudo-random generator (SplitMix64 core).
///
/// Distributed-model simulations need *per-node independent random streams*
/// that are reproducible regardless of the order in which nodes are
/// simulated: the randomized LOCAL model (Definition 2.1) equips every node
/// with a private random bit string. `SplitRng::fork(node_id)` derives such a
/// stream deterministically from a root seed, so re-running a simulation with
/// the same seed replays exactly the same execution.
class SplitRng {
 public:
  explicit SplitRng(std::uint64_t seed) : state_(mix(seed ^ kGamma)) {}

  /// Next 64 uniformly distributed bits.
  std::uint64_t next_u64() {
    state_ += kGamma;
    return mix(state_);
  }

  /// Uniform value in `[0, bound)`. `bound` must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit =
        std::numeric_limits<std::uint64_t>::max() -
        (std::numeric_limits<std::uint64_t>::max() % bound);
    std::uint64_t value = next_u64();
    while (value >= limit) value = next_u64();
    return value % bound;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Derives an independent child stream. Streams forked with different
  /// `stream_id`s from the same parent are statistically independent.
  SplitRng fork(std::uint64_t stream_id) const {
    return SplitRng(mix(state_ ^ mix(stream_id + kGamma)));
  }

 private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  static std::uint64_t mix(std::uint64_t z) {
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z;
  }

  std::uint64_t state_;
};

}  // namespace lcl
