#include "authidx/storage/memtable.h"

#include <gtest/gtest.h>

#include <map>

#include "authidx/common/random.h"
#include "authidx/common/strings.h"
#include "scan_util.h"

namespace authidx::storage {
namespace {

using Contents = std::map<std::string, std::string>;

TEST(MemTableTest, PutOverwrites) {
  MemTable table;
  EXPECT_TRUE(tests::ScanToMap(*table.NewIterator())->empty());
  table.Put("k", "v1");
  EXPECT_EQ(*tests::ScanToMap(*table.NewIterator()), (Contents{{"k", "v1"}}));
  table.Put("k", "v2");  // Overwrite.
  EXPECT_EQ(*tests::ScanToMap(*table.NewIterator()), (Contents{{"k", "v2"}}));
  EXPECT_EQ(table.entry_count(), 1u);  // Overwrites reuse the node.
}

TEST(MemTableTest, IteratorYieldsSortedKeysWithValues) {
  MemTable table;
  table.Put("delta", "4");
  table.Put("alpha", "1");
  table.Put("charlie", "3");
  table.Put("bravo", "2");
  auto it = table.NewIterator();
  std::vector<std::pair<std::string, std::string>> seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen.emplace_back(std::string(it->key()), std::string(it->value()));
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], std::make_pair(std::string("alpha"), std::string("1")));
  EXPECT_EQ(seen[1], std::make_pair(std::string("bravo"), std::string("2")));
  EXPECT_EQ(seen[2], std::make_pair(std::string("charlie"), std::string("3")));
  EXPECT_EQ(seen[3], std::make_pair(std::string("delta"), std::string("4")));
}

TEST(MemTableTest, IteratorSeek) {
  MemTable table;
  table.Put("b", "1");
  table.Put("d", "2");
  auto it = table.NewIterator();
  it->Seek("c");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "d");
  it->Seek("e");
  EXPECT_FALSE(it->Valid());
  it->Seek("");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "b");
}

TEST(MemTableTest, MemoryUsageGrows) {
  MemTable table;
  size_t before = table.ApproximateMemoryUsage();
  for (int i = 0; i < 1000; ++i) {
    table.Put(StringPrintf("key%06d", i), std::string(100, 'v'));
  }
  EXPECT_GT(table.ApproximateMemoryUsage(), before + 100 * 1000);
}

class MemTableModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemTableModelTest, AgreesWithStdMap) {
  Random rng(GetParam());
  MemTable table;
  Contents model;
  for (int op = 0; op < 30000; ++op) {
    std::string key = StringPrintf("k%04llu",
        static_cast<unsigned long long>(rng.Uniform(2000)));
    std::string value = StringPrintf("v%llu",
        static_cast<unsigned long long>(rng.Next64()));
    table.Put(key, value);
    model[key] = value;
  }
  EXPECT_EQ(*tests::ScanToMap(*table.NewIterator()), model);
  EXPECT_EQ(table.entry_count(), model.size());
  // Iterator agrees with the model's key order.
  auto it = table.NewIterator();
  it->SeekToFirst();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(it->Valid());
    ASSERT_EQ(it->key(), key);
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemTableModelTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace authidx::storage
