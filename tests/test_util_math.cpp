#include "util/math.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/combinatorics.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace lcl {
namespace {

TEST(LogStar, KnownValues) {
  EXPECT_EQ(log_star(1), 0);
  EXPECT_EQ(log_star(2), 1);
  EXPECT_EQ(log_star(4), 2);
  EXPECT_EQ(log_star(16), 3);
  EXPECT_EQ(log_star(65536), 4);
  EXPECT_EQ(log_star(65537), 5);
  EXPECT_EQ(log_star(1e18), 5);
}

TEST(Tower, InverseOfLogStar) {
  EXPECT_EQ(tower(0), 1u);
  EXPECT_EQ(tower(1), 2u);
  EXPECT_EQ(tower(2), 4u);
  EXPECT_EQ(tower(3), 16u);
  EXPECT_EQ(tower(4), 65536u);
  for (int h = 1; h <= 4; ++h) {
    EXPECT_EQ(log_star(static_cast<double>(tower(h))), h);
  }
  EXPECT_THROW(tower(6), std::overflow_error);
  EXPECT_THROW(tower(-1), std::invalid_argument);
}

TEST(Log2, FloorAndCeil) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
  EXPECT_THROW(floor_log2(0), std::invalid_argument);
  EXPECT_THROW(ceil_log2(0), std::invalid_argument);
}

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd_u64(0, 5), 5u);
  EXPECT_EQ(gcd_u64(5, 0), 5u);
  EXPECT_EQ(gcd_u64(12, 18), 6u);
  EXPECT_EQ(gcd_u64(7, 13), 1u);
}

TEST(NextPrime, Basics) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(14), 17u);
  EXPECT_EQ(next_prime(97), 97u);
  EXPECT_EQ(next_prime(98), 101u);
}

TEST(SplitRng, DeterministicAndForkIndependent) {
  SplitRng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

  SplitRng root(7);
  SplitRng c1 = root.fork(1);
  SplitRng c2 = root.fork(2);
  // Streams from different forks should differ quickly.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (c1.next_u64() != c2.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SplitRng, NextBelowInRangeAndRoughlyUniform) {
  SplitRng rng(123);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 50);  // within 20% of expectation
  }
}

TEST(SplitRng, NextDoubleInUnitInterval) {
  SplitRng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(EnumerateMultisets, SmallCases) {
  EXPECT_EQ(enumerate_multisets(3, 0).size(), 1u);  // the empty multiset
  EXPECT_EQ(enumerate_multisets(0, 2).size(), 0u);
  const auto pairs = enumerate_multisets(3, 2);
  // C(4,2) = 6 multisets: 00 01 02 11 12 22
  ASSERT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs[0], (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(pairs[5], (std::vector<std::uint32_t>{2, 2}));
  for (const auto& m : pairs) {
    EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
  }
}

TEST(EnumerateMultisets, MatchesCount) {
  for (std::size_t u = 1; u <= 5; ++u) {
    for (std::size_t k = 0; k <= 4; ++k) {
      EXPECT_EQ(enumerate_multisets(u, k).size(), count_multisets(u, k))
          << "u=" << u << " k=" << k;
    }
  }
}

TEST(CountMultisets, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(count_multisets(1u << 20, 8),
            count_multisets(1u << 20, 8));  // deterministic
  EXPECT_EQ(count_multisets(std::size_t{1} << 40, 40),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ForEachSelection, VisitsFullProduct) {
  std::vector<LabelSet> sets{LabelSet(4, {0, 1}), LabelSet(4, {2}),
                             LabelSet(4, {0, 3})};
  int visits = 0;
  const bool early = for_each_selection(
      sets, [&](const std::vector<std::uint32_t>& sel) {
        EXPECT_EQ(sel.size(), 3u);
        EXPECT_TRUE(sel[0] == 0 || sel[0] == 1);
        EXPECT_EQ(sel[1], 2u);
        EXPECT_TRUE(sel[2] == 0 || sel[2] == 3);
        ++visits;
        return false;
      });
  EXPECT_FALSE(early);
  EXPECT_EQ(visits, 4);
}

TEST(ForEachSelection, EarlyExit) {
  std::vector<LabelSet> sets{LabelSet(4, {0, 1}), LabelSet(4, {0, 1})};
  int visits = 0;
  const bool early = for_each_selection(
      sets, [&](const std::vector<std::uint32_t>&) {
        ++visits;
        return visits == 2;
      });
  EXPECT_TRUE(early);
  EXPECT_EQ(visits, 2);
}

TEST(ForEachSelection, EmptyFactorMeansEmptyProduct) {
  std::vector<LabelSet> sets{LabelSet(4, {0, 1}), LabelSet(4)};
  int visits = 0;
  EXPECT_FALSE(for_each_selection(
      sets, [&](const std::vector<std::uint32_t>&) {
        ++visits;
        return true;
      }));
  EXPECT_EQ(visits, 0);
}

TEST(ForEachSelection, EmptyListHasOneEmptyTuple) {
  int visits = 0;
  for_each_selection({}, [&](const std::vector<std::uint32_t>& sel) {
    EXPECT_TRUE(sel.empty());
    ++visits;
    return false;
  });
  EXPECT_EQ(visits, 1);
}

// The subset walk must visit exactly the 2^popcount(mask) - 1 non-empty
// submasks, each once, in strictly decreasing order. The k=6 full word is
// the 2^6 - 1 boundary named in the kernel docs.
TEST(ForEachNonemptySubmask, VisitsEveryNonemptySubmaskOnce) {
  const std::uint64_t masks[] = {0b111111, 0b101101, 0b1, 0b100000, 0};
  for (const std::uint64_t mask : masks) {
    std::vector<std::uint64_t> visited;
    for_each_nonempty_submask(mask, [&](std::uint64_t sub) {
      visited.push_back(sub);
    });
    const int bits = std::popcount(mask);
    ASSERT_EQ(visited.size(), (std::uint64_t{1} << bits) - 1) << mask;
    std::set<std::uint64_t> unique(visited.begin(), visited.end());
    ASSERT_EQ(unique.size(), visited.size());
    for (std::size_t i = 0; i + 1 < visited.size(); ++i) {
      ASSERT_LT(visited[i], visited[i + 1]);  // strictly increasing
    }
    for (const std::uint64_t sub : visited) {
      ASSERT_NE(sub, 0u);
      ASSERT_EQ(sub & ~mask, 0u);  // genuinely a submask
    }
  }
}

TEST(ParseU64, AcceptsDigitsOnly) {
  struct Case {
    std::string text;
    bool ok;
    std::uint64_t value;
  };
  const Case cases[] = {
      {"", false, 0},
      {"-1", false, 0},
      {"+1", false, 0},
      {" 1", false, 0},
      {"1 ", false, 0},
      {"12a", false, 0},
      {"18446744073709551616", false, 0},  // 2^64
      {"0", true, 0},
      {"007", true, 7},
      {"18446744073709551615", true, UINT64_MAX},
  };
  for (const auto& c : cases) {
    std::uint64_t out = 42;
    EXPECT_EQ(parse_u64(c.text, out), c.ok) << "'" << c.text << "'";
    EXPECT_EQ(out, c.ok ? c.value : 42u) << "'" << c.text << "'";
  }
}

}  // namespace
}  // namespace lcl
