#include "util/label_set.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace lcl {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t universe) {
  return (universe + kWordBits - 1) / kWordBits;
}
}  // namespace

LabelSet::LabelSet(std::size_t universe)
    : universe_(universe), words_(words_for(universe), 0) {}

LabelSet::LabelSet(std::size_t universe,
                   std::initializer_list<std::uint32_t> labels)
    : LabelSet(universe) {
  for (auto l : labels) insert(l);
}

LabelSet::LabelSet(std::size_t universe,
                   const std::vector<std::uint32_t>& labels)
    : LabelSet(universe) {
  for (auto l : labels) insert(l);
}

LabelSet LabelSet::full(std::size_t universe) {
  LabelSet s(universe);
  for (std::size_t i = 0; i + 1 < s.words_.size(); ++i) {
    s.words_[i] = ~std::uint64_t{0};
  }
  if (!s.words_.empty()) {
    const std::size_t rem = universe % kWordBits;
    s.words_.back() =
        rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
  }
  return s;
}

LabelSet LabelSet::singleton(std::size_t universe, std::uint32_t label) {
  LabelSet s(universe);
  s.insert(label);
  return s;
}

LabelSet LabelSet::from_words(std::size_t universe,
                              std::span<const std::uint64_t> words) {
  LabelSet s(universe);
  if (words.size() != s.words_.size()) {
    throw std::invalid_argument(
        "LabelSet: " + std::to_string(words.size()) +
        " words for a universe of size " + std::to_string(universe));
  }
  std::copy(words.begin(), words.end(), s.words_.begin());
  const std::size_t rem = universe % kWordBits;
  if (rem != 0 && (s.words_.back() >> rem) != 0) {
    throw std::out_of_range("LabelSet: bits outside the universe of size " +
                            std::to_string(universe));
  }
  return s;
}

std::size_t LabelSet::size() const noexcept {
  std::size_t count = 0;
  for (auto w : words_) count += static_cast<std::size_t>(std::popcount(w));
  return count;
}

bool LabelSet::empty() const noexcept {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

void LabelSet::check_label(std::uint32_t label) const {
  if (label >= universe_) {
    throw std::out_of_range("LabelSet: label " + std::to_string(label) +
                            " outside universe of size " +
                            std::to_string(universe_));
  }
}

void LabelSet::check_compatible(const LabelSet& other) const {
  if (universe_ != other.universe_) {
    throw std::invalid_argument(
        "LabelSet: operation on sets over different universes (" +
        std::to_string(universe_) + " vs " + std::to_string(other.universe_) +
        ")");
  }
}

bool LabelSet::contains(std::uint32_t label) const {
  check_label(label);
  return (words_[label / kWordBits] >> (label % kWordBits)) & 1;
}

void LabelSet::insert(std::uint32_t label) {
  check_label(label);
  words_[label / kWordBits] |= std::uint64_t{1} << (label % kWordBits);
}

void LabelSet::erase(std::uint32_t label) {
  check_label(label);
  words_[label / kWordBits] &= ~(std::uint64_t{1} << (label % kWordBits));
}

void LabelSet::clear() noexcept {
  std::fill(words_.begin(), words_.end(), 0);
}

bool LabelSet::is_subset_of(const LabelSet& other) const {
  check_compatible(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] & ~other.words_[i]) return false;
  }
  return true;
}

bool LabelSet::intersects(const LabelSet& other) const {
  check_compatible(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] & other.words_[i]) return true;
  }
  return false;
}

LabelSet LabelSet::union_with(const LabelSet& other) const {
  check_compatible(other);
  LabelSet result(universe_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] | other.words_[i];
  }
  return result;
}

LabelSet LabelSet::intersect_with(const LabelSet& other) const {
  check_compatible(other);
  LabelSet result(universe_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] & other.words_[i];
  }
  return result;
}

LabelSet LabelSet::minus(const LabelSet& other) const {
  check_compatible(other);
  LabelSet result(universe_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] = words_[i] & ~other.words_[i];
  }
  return result;
}

std::vector<std::uint32_t> LabelSet::to_vector() const {
  std::vector<std::uint32_t> out;
  out.reserve(size());
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      out.push_back(static_cast<std::uint32_t>(w * kWordBits + bit));
      word &= word - 1;
    }
  }
  return out;
}

std::uint32_t LabelSet::min() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return static_cast<std::uint32_t>(w * kWordBits +
                                        std::countr_zero(words_[w]));
    }
  }
  throw std::logic_error("LabelSet::min on empty set");
}

std::string LabelSet::to_string() const {
  return to_string([](std::uint32_t l) { return std::to_string(l); });
}

std::string LabelSet::to_string(
    const std::function<std::string(std::uint32_t)>& namer) const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (auto l : to_vector()) {
    if (!first) os << ',';
    os << namer(l);
    first = false;
  }
  os << '}';
  return os.str();
}

bool LabelSet::operator<(const LabelSet& other) const {
  if (universe_ != other.universe_) return universe_ < other.universe_;
  // Compare from the most significant word so that the order matches the
  // numeric order of the bit representation.
  for (std::size_t i = words_.size(); i-- > 0;) {
    if (words_[i] != other.words_[i]) return words_[i] < other.words_[i];
  }
  return false;
}

bool LabelSet::operator==(const LabelSet& other) const {
  return universe_ == other.universe_ && words_ == other.words_;
}

std::size_t LabelSet::hash() const noexcept {
  std::size_t h = universe_ * 0x9e3779b97f4a7c15ULL;
  for (auto w : words_) {
    h ^= static_cast<std::size_t>(w) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  }
  return h;
}

std::vector<LabelSet> all_nonempty_subsets(std::size_t universe,
                                           std::size_t max_universe_bits) {
  if (universe > max_universe_bits) {
    throw std::invalid_argument(
        "all_nonempty_subsets: universe of size " + std::to_string(universe) +
        " exceeds the safety limit of " + std::to_string(max_universe_bits) +
        " (the enumeration is exponential; raise the limit explicitly if "
        "this is intended)");
  }
  const std::uint64_t count = std::uint64_t{1} << universe;
  std::vector<LabelSet> out;
  out.reserve(count - 1);
  for (std::uint64_t mask = 1; mask < count; ++mask) {
    LabelSet s(universe);
    for (std::size_t bit = 0; bit < universe; ++bit) {
      if ((mask >> bit) & 1) s.insert(static_cast<std::uint32_t>(bit));
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace lcl
