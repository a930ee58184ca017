#include "util/combinatorics.hpp"

#include <limits>
#include <stdexcept>

namespace lcl {

std::vector<std::vector<std::uint32_t>> enumerate_multisets(
    std::size_t universe, std::size_t size) {
  std::vector<std::vector<std::uint32_t>> out;
  if (size == 0) {
    out.push_back({});
    return out;
  }
  if (universe == 0) return out;  // no multisets of positive size

  std::vector<std::uint32_t> current(size, 0);
  while (true) {
    out.push_back(current);
    // Advance to the next non-decreasing sequence.
    std::size_t i = size;
    while (i > 0) {
      --i;
      if (current[i] + 1 < universe) {
        const std::uint32_t next = current[i] + 1;
        for (std::size_t j = i; j < size; ++j) current[j] = next;
        break;
      }
      if (i == 0) return out;
    }
  }
}

std::uint64_t count_multisets(std::size_t universe, std::size_t size) {
  if (size == 0) return 1;
  if (universe == 0) return 0;
  // C(universe + size - 1, size) with saturation.
  const std::uint64_t n = universe + size - 1;
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= size; ++i) {
    const std::uint64_t factor = n - size + i;
    if (result > std::numeric_limits<std::uint64_t>::max() / factor) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    result = result * factor / i;
  }
  return result;
}

bool for_each_selection(
    const std::vector<LabelSet>& sets,
    const std::function<bool(const std::vector<std::uint32_t>&)>& visit) {
  const std::size_t k = sets.size();
  std::vector<std::vector<std::uint32_t>> elements(k);
  for (std::size_t i = 0; i < k; ++i) {
    elements[i] = sets[i].to_vector();
    if (elements[i].empty()) return false;
  }
  std::vector<std::size_t> index(k, 0);
  std::vector<std::uint32_t> selection(k);
  while (true) {
    for (std::size_t i = 0; i < k; ++i) selection[i] = elements[i][index[i]];
    if (visit(selection)) return true;
    std::size_t i = k;
    while (i > 0) {
      --i;
      if (++index[i] < elements[i].size()) break;
      index[i] = 0;
      if (i == 0) return false;
    }
    if (k == 0) return false;
  }
}

}  // namespace lcl
