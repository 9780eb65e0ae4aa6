#include "authidx/text/distance.h"

#include <gtest/gtest.h>

#include <string>

#include "authidx/common/random.h"

namespace authidx::text {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(Levenshtein("", ""), 0u);
  EXPECT_EQ(Levenshtein("abc", "abc"), 0u);
  EXPECT_EQ(Levenshtein("abc", ""), 3u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(Levenshtein("smith", "smyth"), 1u);
  EXPECT_EQ(Levenshtein("johnson", "jonson"), 1u);
}

TEST(LevenshteinTest, Symmetry) {
  EXPECT_EQ(Levenshtein("abcdef", "azced"), Levenshtein("azced", "abcdef"));
}

TEST(BoundedTest, ExactWithinBudget) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 3), 3u);
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 5), 3u);
  EXPECT_EQ(BoundedLevenshtein("same", "same", 0), 0u);
}

TEST(BoundedTest, CapsWhenOverBudget) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 2), 3u);  // max+1.
  EXPECT_EQ(BoundedLevenshtein("abcdefgh", "zzzzzzzz", 3), 4u);
  EXPECT_EQ(BoundedLevenshtein("short", "muchlongerstring", 2), 3u);
}

TEST(BoundedTest, WithinEditDistanceWrapper) {
  EXPECT_TRUE(WithinEditDistance("jonson", "johnson", 1));
  EXPECT_FALSE(WithinEditDistance("jonson", "johnsen", 1));
  EXPECT_TRUE(WithinEditDistance("jonson", "johnsen", 2));
}

// Property: bounded distance equals full distance whenever the full
// distance fits the budget, and max+1 otherwise.
class BoundedPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BoundedPropertyTest, AgreesWithFullDp) {
  const size_t budget = GetParam();
  Random rng(1000 + budget);
  for (int i = 0; i < 1000; ++i) {
    std::string a, b;
    for (size_t j = rng.Uniform(14); j > 0; --j) {
      a += static_cast<char>('a' + rng.Uniform(5));
    }
    for (size_t j = rng.Uniform(14); j > 0; --j) {
      b += static_cast<char>('a' + rng.Uniform(5));
    }
    size_t full = Levenshtein(a, b);
    size_t bounded = BoundedLevenshtein(a, b, budget);
    if (full <= budget) {
      EXPECT_EQ(bounded, full) << a << " vs " << b;
    } else {
      EXPECT_EQ(bounded, budget + 1) << a << " vs " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BoundedPropertyTest,
                         ::testing::Values(0, 1, 2, 3, 5));

TEST(JaroWinklerTest, BoundsAndKnownPairs) {
  EXPECT_DOUBLE_EQ(JaroWinkler("same", "same"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("", ""), 1.0);
  double martha = JaroWinkler("martha", "marhta");
  EXPECT_NEAR(martha, 0.9611, 0.001);  // Classic example.
  double dixon = JaroWinkler("dixon", "dicksonx");
  EXPECT_NEAR(dixon, 0.8133, 0.005);
}

TEST(JaroWinklerTest, PrefixBoostOrdersCandidates) {
  // Shared prefix should beat same-distance suffix variation.
  double prefix_match = JaroWinkler("mcginley", "mcginlay");
  double scattered = JaroWinkler("mcginley", "acginlem");
  EXPECT_GT(prefix_match, scattered);
}

TEST(JaroWinklerTest, InUnitInterval) {
  Random rng(77);
  for (int i = 0; i < 500; ++i) {
    std::string a, b;
    for (size_t j = 1 + rng.Uniform(10); j > 0; --j) {
      a += static_cast<char>('a' + rng.Uniform(6));
    }
    for (size_t j = 1 + rng.Uniform(10); j > 0; --j) {
      b += static_cast<char>('a' + rng.Uniform(6));
    }
    double sim = JaroWinkler(a, b);
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0 + 1e-12);
  }
}

}  // namespace
}  // namespace authidx::text
