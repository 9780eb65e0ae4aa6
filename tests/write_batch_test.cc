#include "authidx/storage/write_batch.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "authidx/common/strings.h"
#include "authidx/storage/engine.h"
#include "scan_util.h"

namespace authidx::storage {
namespace {

using Contents = std::map<std::string, std::string>;

TEST(WriteBatchTest, BuildAndIterate) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Put("c", "3");
  EXPECT_EQ(batch.count(), 3u);
  std::vector<std::string> ops;
  ASSERT_TRUE(WriteBatch::Iterate(
                  batch.rep(),
                  [&](std::string_view k, std::string_view v) {
                    ops.push_back("put " + std::string(k) + "=" +
                                  std::string(v));
                  })
                  .ok());
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0], "put a=1");
  EXPECT_EQ(ops[1], "put b=2");
  EXPECT_EQ(ops[2], "put c=3");
}

TEST(WriteBatchTest, ClearResets) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.rep().empty());
}

TEST(WriteBatchTest, IterateRejectsGarbage) {
  auto nop_put = [](std::string_view, std::string_view) {};
  EXPECT_TRUE(WriteBatch::Iterate("X", nop_put).IsCorruption());
  WriteBatch batch;
  batch.Put("key", "value");
  std::string truncated = batch.rep().substr(0, batch.rep().size() - 2);
  EXPECT_TRUE(WriteBatch::Iterate(truncated, nop_put).IsCorruption());
  // A well-formed delete op ('D' + length-prefixed key), as the retired
  // WriteBatch::Delete encoded it, after a valid put.
  std::string with_delete = batch.rep() + std::string("D\x01k", 3);
  EXPECT_TRUE(WriteBatch::Iterate(with_delete, nop_put).IsCorruption());
}

TEST(WriteBatchTest, BinarySafety) {
  WriteBatch batch;
  std::string key("k\0ey", 4), value("v\xffl", 3);
  batch.Put(key, value);
  bool seen = false;
  ASSERT_TRUE(WriteBatch::Iterate(
                  batch.rep(),
                  [&](std::string_view k, std::string_view v) {
                    EXPECT_EQ(k, key);
                    EXPECT_EQ(v, value);
                    seen = true;
                  })
                  .ok());
  EXPECT_TRUE(seen);
}

class BatchEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/batch_engine_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<StorageEngine> Open(EngineOptions options = {}) {
    auto engine = StorageEngine::Open(dir_, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }

  std::string dir_;
};

TEST_F(BatchEngineTest, ApplyIsVisibleImmediately) {
  auto engine = Open();
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Put("a", "3");  // Later ops in one batch win.
  ASSERT_TRUE(engine->Apply(batch).ok());
  EXPECT_EQ(*tests::ScanToMap(*engine->NewIterator()),
            (Contents{{"a", "3"}, {"b", "2"}}));
  EXPECT_EQ(engine->stats().puts, 3u);
}

TEST_F(BatchEngineTest, EmptyBatchIsNoop) {
  auto engine = Open();
  WriteBatch batch;
  ASSERT_TRUE(engine->Apply(batch).ok());
  EXPECT_EQ(engine->stats().puts, 0u);
}

TEST_F(BatchEngineTest, BatchSurvivesWalRecovery) {
  {
    EngineOptions options;
    options.sync_writes = true;
    auto engine = Open(options);
    WriteBatch batch;
    for (int i = 0; i < 100; ++i) {
      batch.Put(StringPrintf("key%03d", i), StringPrintf("v%d", i));
    }
    batch.Put("key050", "rewritten");
    ASSERT_TRUE(engine->Apply(batch).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  auto engine = Open();
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->size(), 100u);
  EXPECT_EQ((*state)["key000"], "v0");
  EXPECT_EQ((*state)["key099"], "v99");
  EXPECT_EQ((*state)["key050"], "rewritten");
}

TEST_F(BatchEngineTest, TornBatchIsAllOrNothing) {
  std::string wal_copy;
  uint64_t wal_number;
  {
    EngineOptions options;
    options.sync_writes = true;
    auto engine = Open(options);
    ASSERT_TRUE(engine->Put("before", "1").ok());
    WriteBatch batch;
    for (int i = 0; i < 50; ++i) {
      batch.Put(StringPrintf("batch%03d", i), "v");
    }
    ASSERT_TRUE(engine->Apply(batch).ok());
    Manifest manifest = *Manifest::Load(Env::Default(), dir_);
    wal_number = manifest.wal_number;
    wal_copy = *Env::Default()->ReadFileToString(
        WalFileName(dir_, wal_number));
    ASSERT_TRUE(engine->Close().ok());
  }
  // Rewind to pre-Close state with the batch record torn mid-payload.
  {
    Manifest manifest = *Manifest::Load(Env::Default(), dir_);
    for (const FileMeta& meta : manifest.files) {
      ASSERT_TRUE(Env::Default()
                      ->RemoveFile(TableFileName(dir_, meta.file_number))
                      .ok());
    }
    manifest.files.clear();
    manifest.wal_number = wal_number;
    ASSERT_TRUE(manifest.Save(Env::Default(), dir_).ok());
    std::string torn = wal_copy.substr(0, wal_copy.size() - 100);
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFileSync(WalFileName(dir_, wal_number),
                                            torn)
                    .ok());
  }
  auto engine = Open();
  EXPECT_TRUE(engine->stats().wal_tail_corruption);
  // The single put before the batch survived; the torn batch vanished
  // entirely (no partial application).
  EXPECT_EQ(*tests::ScanToMap(*engine->NewIterator()),
            (Contents{{"before", "1"}}));
}

TEST_F(BatchEngineTest, LargeBatchTriggersFlush) {
  EngineOptions options;
  options.memtable_bytes = 32 * 1024;
  auto engine = Open(options);
  WriteBatch batch;
  for (int i = 0; i < 2000; ++i) {
    batch.Put(StringPrintf("key%05d", i), std::string(64, 'v'));
  }
  ASSERT_TRUE(engine->Apply(batch).ok());
  EXPECT_GT(engine->stats().flushes, 0u);
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->size(), 2000u);
  EXPECT_EQ((*state)["key00000"], std::string(64, 'v'));
  EXPECT_EQ((*state)["key01999"], std::string(64, 'v'));
}

}  // namespace
}  // namespace authidx::storage
