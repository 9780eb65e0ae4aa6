// Deterministic allocation gate for query paths: a counting global
// operator new measures heap allocations per call, which unlike wall
// clock does not move with the host.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "authidx/core/author_index.h"

namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

// noinline: when GCC inlines replaced global operators it pairs the
// caller's new with the inlined free() and emits a spurious
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size)) {
    return ptr;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept {
  std::free(ptr);
}

namespace authidx {
namespace {

// A catalog of `groups` author groups spread evenly over five surnames
// that share a first letter, one entry per group.
std::unique_ptr<core::AuthorIndex> CatalogWithGroups(size_t groups) {
  static constexpr const char* kSurnames[] = {"Baker", "Barker", "Banner",
                                              "Bender", "Booker"};
  std::vector<Entry> entries;
  for (size_t i = 0; i < groups; ++i) {
    Entry entry;
    entry.author.surname = kSurnames[i % std::size(kSurnames)];
    entry.author.given = std::to_string(i / std::size(kSurnames));
    entry.title = "Coal Mining";
    entry.citation = Citation{69, static_cast<uint32_t>(i + 1), 1966};
    entries.push_back(std::move(entry));
  }
  auto catalog = core::AuthorIndex::Create();
  EXPECT_TRUE(catalog->AddAll(std::move(entries)).ok());
  return catalog;
}

// Heap allocations made by one fuzzy probe that shares the surnames'
// first letter, so it walks every group, but matches none of them.
uint64_t AllocationsOfMissingFuzzyProbe(const core::AuthorIndex& catalog) {
  const uint64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  std::vector<EntryId> ids = catalog.AuthorFuzzy("bxkkr", 1);
  const uint64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(ids.empty());
  return after - before;
}

// The first-letter walk tests the edit distance once per surname, not
// once per group, so ten times the groups cost no further allocation.
TEST(QueryAllocTest, FuzzyProbeAllocationsDoNotGrowWithGroups) {
  auto small = CatalogWithGroups(50);
  auto large = CatalogWithGroups(500);
  ASSERT_EQ(small->group_count(), 50u);
  ASSERT_EQ(large->group_count(), 500u);
  EXPECT_EQ(AllocationsOfMissingFuzzyProbe(*small),
            AllocationsOfMissingFuzzyProbe(*large));
}

}  // namespace
}  // namespace authidx
