#include "authidx/common/arena.h"

#include <gtest/gtest.h>

#include <cstring>

#include "authidx/common/random.h"

namespace authidx {
namespace {

TEST(ArenaTest, AllocationsAreUsableAndDisjoint) {
  Arena arena;
  char* a = arena.Allocate(16);
  char* b = arena.Allocate(16);
  std::memset(a, 0xAA, 16);
  std::memset(b, 0xBB, 16);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(a[i]), 0xAA);
    EXPECT_EQ(static_cast<unsigned char>(b[i]), 0xBB);
  }
}

TEST(ArenaTest, LargeAllocationGetsOwnBlock) {
  Arena arena;
  char* small = arena.Allocate(8);
  char* large = arena.Allocate(1 << 20);
  std::memset(large, 1, 1 << 20);
  char* small2 = arena.Allocate(8);
  std::memset(small, 2, 8);
  std::memset(small2, 3, 8);
  EXPECT_EQ(static_cast<unsigned char>(large[0]), 1);
  EXPECT_EQ(static_cast<unsigned char>(small[0]), 2);
}

TEST(ArenaTest, CopyStringPreservesContentsStably) {
  Arena arena;
  std::string original = "persistent text";
  std::string_view copy = arena.CopyString(original);
  original.assign("XXXXXXXXXXXXXXX");  // Mutate the source.
  EXPECT_EQ(copy, "persistent text");
}

// Regression: copying a default-constructed view used to memcpy from
// its null data() pointer — UB flagged by UBSan's nonnull checks.
TEST(ArenaTest, CopyStringHandlesEmptyAndNullViews) {
  Arena arena;
  EXPECT_EQ(arena.CopyString(std::string_view()), "");
  EXPECT_EQ(arena.CopyString(""), "");
  EXPECT_TRUE(arena.CopyString(std::string_view()).empty());
}

TEST(ArenaTest, RandomizedStressKeepsContents) {
  Arena arena;
  Random rng(123);
  std::vector<std::pair<std::string_view, std::string>> copies;
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng.Uniform(200), static_cast<char>('a' + (i % 26)));
    copies.emplace_back(arena.CopyString(s), s);
  }
  for (const auto& [view, expected] : copies) {
    ASSERT_EQ(view, expected);
  }
}

}  // namespace
}  // namespace authidx
