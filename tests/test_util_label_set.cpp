#include "util/label_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace lcl {
namespace {

TEST(LabelSet, EmptyByDefault) {
  LabelSet s(10);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.universe(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_FALSE(s.contains(i));
}

TEST(LabelSet, InsertEraseContains) {
  LabelSet s(100);
  s.insert(0);
  s.insert(63);
  s.insert(64);
  s.insert(99);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(99));
  EXPECT_FALSE(s.contains(50));
  s.erase(63);
  EXPECT_FALSE(s.contains(63));
  EXPECT_EQ(s.size(), 3u);
}

TEST(LabelSet, OutOfRangeThrows) {
  LabelSet s(5);
  EXPECT_THROW(s.insert(5), std::out_of_range);
  EXPECT_THROW(s.contains(100), std::out_of_range);
  EXPECT_THROW((LabelSet{3, {4}}), std::out_of_range);
}

TEST(LabelSet, MixedUniverseThrows) {
  LabelSet a(5), b(6);
  EXPECT_THROW(a.union_with(b), std::invalid_argument);
  EXPECT_THROW(a.is_subset_of(b), std::invalid_argument);
}

TEST(LabelSet, FullSet) {
  for (std::size_t universe : {1u, 63u, 64u, 65u, 130u}) {
    const LabelSet s = LabelSet::full(universe);
    EXPECT_EQ(s.size(), universe);
    for (std::uint32_t i = 0; i < universe; ++i) EXPECT_TRUE(s.contains(i));
  }
}

TEST(LabelSet, SetAlgebra) {
  const LabelSet a(8, {1, 2, 3});
  const LabelSet b(8, {3, 4, 5});
  EXPECT_EQ(a.union_with(b), (LabelSet{8, {1, 2, 3, 4, 5}}));
  EXPECT_EQ(a.intersect_with(b), (LabelSet{8, {3}}));
  EXPECT_EQ(a.minus(b), (LabelSet{8, {1, 2}}));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.minus(b).intersects(b));
}

TEST(LabelSet, SubsetRelation) {
  const LabelSet a(8, {1, 2});
  const LabelSet b(8, {1, 2, 3});
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  EXPECT_TRUE(LabelSet(8).is_subset_of(a));
}

TEST(LabelSet, ToVectorSortedAndMin) {
  LabelSet s(70, {65, 3, 40});
  const auto v = s.to_vector();
  EXPECT_EQ(v, (std::vector<std::uint32_t>{3, 40, 65}));
  EXPECT_EQ(s.min(), 3u);
  EXPECT_THROW(LabelSet(5).min(), std::logic_error);
}

TEST(LabelSet, OrderingMatchesBitValue) {
  const LabelSet a(8, {0});
  const LabelSet b(8, {1});
  const LabelSet c(8, {0, 1});
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_FALSE(a < a);
}

TEST(LabelSet, HashDistinguishesContents) {
  const LabelSet a(8, {1});
  const LabelSet b(8, {2});
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), LabelSet(8, {1}).hash());
}

TEST(LabelSet, ToStringWithNamer) {
  const LabelSet s(4, {0, 2});
  EXPECT_EQ(s.to_string(), "{0,2}");
  EXPECT_EQ(s.to_string([](std::uint32_t l) {
    return std::string(1, static_cast<char>('A' + l));
  }),
            "{A,C}");
}

// from_words is the inverse of word(): the raw storage round-trips across
// the word seams, and it refuses a wrong word count or a bit outside the
// universe.
TEST(LabelSet, FromWordsRoundTripsRawStorage) {
  for (const std::size_t universe : {1u, 63u, 64u, 65u, 128u, 129u}) {
    LabelSet set(universe);
    for (std::uint32_t l = 0; l < universe; l += 7) set.insert(l);
    set.insert(static_cast<std::uint32_t>(universe - 1));
    std::vector<std::uint64_t> words;
    for (std::size_t w = 0; w < set.word_count(); ++w) {
      words.push_back(set.word(w));
    }
    EXPECT_EQ(LabelSet::from_words(universe, words), set) << universe;
  }
  const std::uint64_t five = 0b101;
  EXPECT_EQ(LabelSet::from_words(3, {&five, 1}), (LabelSet{3, {0, 2}}));
  EXPECT_THROW(LabelSet::from_words(2, {&five, 1}), std::out_of_range);
  EXPECT_THROW(LabelSet::from_words(65, {&five, 1}), std::invalid_argument);
  EXPECT_EQ(LabelSet::from_words(0, {}), LabelSet());
}

TEST(AllNonemptySubsets, CountAndContents) {
  const auto subsets = all_nonempty_subsets(3);
  EXPECT_EQ(subsets.size(), 7u);
  // Sorted ascending by bit value; first is {0}, last {0,1,2}.
  EXPECT_EQ(subsets.front(), (LabelSet{3, {0}}));
  EXPECT_EQ(subsets.back(), LabelSet::full(3));
  // No duplicates.
  auto copy = subsets;
  std::sort(copy.begin(), copy.end());
  EXPECT_TRUE(std::adjacent_find(copy.begin(), copy.end()) == copy.end());
}

TEST(AllNonemptySubsets, GuardsAgainstBlowup) {
  EXPECT_THROW(all_nonempty_subsets(22), std::invalid_argument);
  EXPECT_NO_THROW(all_nonempty_subsets(18, 18));
}

}  // namespace
}  // namespace lcl
