#include <gtest/gtest.h>

#include <map>
#include <set>

#include "authidx/common/hash.h"
#include "authidx/common/random.h"

namespace authidx {
namespace {

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
}

TEST(HashTest, SmallInputChangesPropagate) {
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64(std::string(1, '\0')));
}

TEST(HashTest, FewCollisionsOnSequentialKeys) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 100000; ++i) {
    seen.insert(Fnv1a64("key" + std::to_string(i)));
  }
  // Birthday bound: expected collisions over 1e5 draws from 2^64 ~ 0.
  EXPECT_EQ(seen.size(), 100000u);
}

TEST(RandomTest, DeterministicPerSeed) {
  Random a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next64();
    EXPECT_EQ(va, b.Next64());
    (void)c;
  }
  Random d(43);
  EXPECT_NE(Random(42).Next64(), d.Next64());
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RandomTest, UniformRoughlyBalanced) {
  Random rng(11);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.Uniform(10)];
  }
  for (const auto& [bucket, count] : counts) {
    // Each bucket expects 10000; allow +-10%.
    EXPECT_GT(count, 9000) << "bucket " << bucket;
    EXPECT_LT(count, 11000) << "bucket " << bucket;
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(3);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, OneInApproximatesProbability) {
  Random rng(5);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.OneIn(10)) {
      ++hits;
    }
  }
  EXPECT_GT(hits, 9000);
  EXPECT_LT(hits, 11000);
}

TEST(ZipfTest, RanksWithinRangeAndSkewed) {
  Zipf zipf(1000, 0.99, 17);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t rank = zipf.Next();
    ASSERT_LT(rank, 1000u);
    ++counts[rank];
  }
  // Rank 0 must dominate: more hits than rank 10 and far more than a
  // deep-tail rank.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20 * (counts[500] + 1));
  // Head mass: top-10 ranks should hold a large share under s~1.
  int head = 0;
  for (uint64_t r = 0; r < 10; ++r) {
    head += counts[r];
  }
  EXPECT_GT(head, kDraws / 4);
}

TEST(ZipfTest, DeterministicPerSeed) {
  Zipf a(100, 0.8, 9), b(100, 0.8, 9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

}  // namespace
}  // namespace authidx
