#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace lcl {

/// A set of labels over a fixed finite universe `{0, .., universe-1}`,
/// backed by a dynamic bitset.
///
/// `LabelSet` is the workhorse of the round-elimination module: the output
/// alphabet of `R(Pi)` (Definition 3.1 in the paper) is the power set of the
/// output alphabet of `Pi`, so labels of `R(Pi)` *are* `LabelSet`s over the
/// labels of `Pi`. It is also used for the input/output relation `g_Pi`
/// (Definition 2.3), which maps each input label to a set of output labels.
///
/// The universe size is fixed at construction; all binary operations require
/// both operands to share the same universe size.
class LabelSet {
 public:
  /// Creates an empty set over an empty universe.
  LabelSet() = default;

  /// Creates an empty set over a universe of `universe` labels.
  explicit LabelSet(std::size_t universe);

  /// Creates a set over `universe` labels containing exactly `labels`.
  /// Throws `std::out_of_range` if any label is >= `universe`.
  LabelSet(std::size_t universe, std::initializer_list<std::uint32_t> labels);

  /// Creates a set over `universe` labels containing exactly `labels`.
  LabelSet(std::size_t universe, const std::vector<std::uint32_t>& labels);

  /// The full set `{0, .., universe-1}`.
  static LabelSet full(std::size_t universe);

  /// A singleton set `{label}` over `universe` labels.
  static LabelSet singleton(std::size_t universe, std::uint32_t label);

  /// The set over `universe` labels whose raw storage is `words`, laid out
  /// as `word()` describes. Throws `std::invalid_argument` unless
  /// `words.size() == ceil(universe / 64)`, and `std::out_of_range` if a bit
  /// at or past `universe` is set.
  static LabelSet from_words(std::size_t universe,
                             std::span<const std::uint64_t> words);

  std::size_t universe() const noexcept { return universe_; }

  /// Number of labels contained in the set.
  std::size_t size() const noexcept;
  bool empty() const noexcept;

  bool contains(std::uint32_t label) const;
  void insert(std::uint32_t label);
  void erase(std::uint32_t label);
  void clear() noexcept;

  /// True if `*this` is a subset of `other` (not necessarily proper).
  bool is_subset_of(const LabelSet& other) const;
  /// True if the two sets share at least one label.
  bool intersects(const LabelSet& other) const;

  LabelSet union_with(const LabelSet& other) const;
  LabelSet intersect_with(const LabelSet& other) const;
  LabelSet minus(const LabelSet& other) const;

  /// Labels in ascending order.
  std::vector<std::uint32_t> to_vector() const;

  /// Smallest contained label. Throws `std::logic_error` on an empty set.
  std::uint32_t min() const;

  /// Renders as `{a,b,c}` using `namer` for each label (or the label index
  /// itself when no namer is given).
  std::string to_string() const;
  std::string to_string(
      const std::function<std::string(std::uint32_t)>& namer) const;

  /// Total order (lexicographic on the bit representation); used to keep
  /// canonical sorted collections of label sets.
  bool operator<(const LabelSet& other) const;
  bool operator==(const LabelSet& other) const;
  bool operator!=(const LabelSet& other) const { return !(*this == other); }

  /// Stable hash of the contents (universe size included).
  std::size_t hash() const noexcept;

  /// Raw storage, least-significant word first: bit `b` of word `b / 64` is
  /// set iff label `b` is a member. `word_count() == ceil(universe / 64)`.
  /// Exposed so the operators' one-word mask kernel and the batch cache
  /// signature read sets without per-label round trips.
  std::size_t word_count() const noexcept { return words_.size(); }
  std::uint64_t word(std::size_t i) const { return words_.at(i); }

 private:
  void check_label(std::uint32_t label) const;
  void check_compatible(const LabelSet& other) const;

  std::size_t universe_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Enumerates all non-empty subsets of the given universe, in increasing
/// order of their bit representation. Intended for small universes (the
/// faithful round-elimination mode); throws `std::invalid_argument` when
/// `universe > max_universe_bits` (default 20) to guard against accidental
/// exponential blow-ups.
std::vector<LabelSet> all_nonempty_subsets(std::size_t universe,
                                           std::size_t max_universe_bits = 20);

}  // namespace lcl

template <>
struct std::hash<lcl::LabelSet> {
  std::size_t operator()(const lcl::LabelSet& s) const noexcept {
    return s.hash();
  }
};
