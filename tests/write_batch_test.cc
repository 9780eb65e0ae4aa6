#include "authidx/storage/write_batch.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "authidx/common/strings.h"
#include "authidx/storage/engine.h"
#include "scan_util.h"

namespace authidx::storage {
namespace {

using Contents = std::map<std::string, std::string>;

// Decodes `batch` the way recovery and replication do: as the batch log
// record kWalBatch + rep().
Status ForEachOp(const WriteBatch& batch, std::vector<std::string>* ops) {
  return ForEachRecordOp(kWalBatch + batch.rep(),
                         [&](std::string_view k, std::string_view v) {
                           ops->push_back(std::string(k) + "=" +
                                          std::string(v));
                           return Status::OK();
                         });
}

TEST(WriteBatchTest, BuildAndDecode) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Put("c", "3");
  EXPECT_EQ(batch.count(), 3u);
  std::vector<std::string> ops;
  ASSERT_TRUE(ForEachOp(batch, &ops).ok());
  EXPECT_EQ(ops, (std::vector<std::string>{"a=1", "b=2", "c=3"}));
}

TEST(WriteBatchTest, ClearResets) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.rep().empty());
}

TEST(WriteBatchTest, DecodeRejectsGarbage) {
  auto nop_put = [](std::string_view, std::string_view) {
    return Status::OK();
  };
  EXPECT_TRUE(ForEachRecordOp(kWalBatch + std::string("X"), nop_put)
                  .IsCorruption());
  WriteBatch batch;
  batch.Put("key", "value");
  std::string truncated = batch.rep().substr(0, batch.rep().size() - 2);
  EXPECT_TRUE(ForEachRecordOp(kWalBatch + truncated, nop_put).IsCorruption());
  // A well-formed delete op ('D' + length-prefixed key), as the retired
  // WriteBatch::Delete encoded it, after a valid put.
  std::string with_delete = batch.rep() + std::string("D\x01k", 3);
  EXPECT_TRUE(
      ForEachRecordOp(kWalBatch + with_delete, nop_put).IsCorruption());
}

TEST(WriteBatchTest, BinarySafety) {
  WriteBatch batch;
  std::string key("k\0ey", 4), value("v\xffl", 3);
  batch.Put(key, value);
  std::vector<std::string> ops;
  ASSERT_TRUE(ForEachOp(batch, &ops).ok());
  EXPECT_EQ(ops, (std::vector<std::string>{key + "=" + value}));
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
  EXPECT_EQ(*tests::ScanToMap(*engine),
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
  auto state = tests::ScanToMap(*engine);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->size(), 100u);
  EXPECT_EQ((*state)["key000"], "v0");
  EXPECT_EQ((*state)["key099"], "v99");
  EXPECT_EQ((*state)["key050"], "rewritten");
}

TEST_F(BatchEngineTest, TornBatchIsAllOrNothing) {
  std::string wal_copy;
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
    wal_copy = *Env::Default()->ReadFileToString(WalFileName(dir_, 1));
    ASSERT_TRUE(engine->Close().ok());
  }
  // Rewind to the crash: the batch record torn mid-payload.
  std::string torn = wal_copy.substr(0, wal_copy.size() - 100);
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFileSync(WalFileName(dir_, 1), torn)
                  .ok());
  auto engine = Open();
  EXPECT_TRUE(engine->stats().wal_tail_corruption);
  // The single put before the batch survived; the torn batch vanished
  // entirely (no partial application).
  EXPECT_EQ(*tests::ScanToMap(*engine), (Contents{{"before", "1"}}));
}

TEST_F(BatchEngineTest, LargeBatchSurvivesFlushAndReopen) {
  {
    auto engine = Open();
    WriteBatch batch;
    for (int i = 0; i < 2000; ++i) {
      batch.Put(StringPrintf("key%05d", i), std::string(64, 'v'));
    }
    ASSERT_TRUE(engine->Apply(batch).ok());
    ASSERT_TRUE(engine->Flush().ok());
    EXPECT_EQ(engine->stats().segments, 2u);
  }
  auto engine = Open();
  auto state = tests::ScanToMap(*engine);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->size(), 2000u);
  EXPECT_EQ((*state)["key00000"], std::string(64, 'v'));
  EXPECT_EQ((*state)["key01999"], std::string(64, 'v'));
}

}  // namespace
}  // namespace authidx::storage
