// Tests for the segmented log's on-disk features: segment discovery and
// numbering, rejection of stores from the earlier LSM format, and
// bounded-memory replay of records larger than the read buffer.

#include <gtest/gtest.h>

#include <filesystem>

#include "authidx/common/strings.h"
#include "authidx/storage/engine.h"
#include "scan_util.h"

namespace authidx::storage {
namespace {

class EngineFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/engine_feat_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<StorageEngine> Open(EngineOptions options = {}) {
    auto engine = StorageEngine::Open(dir_, options);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }

  // Three segments: two sealed by Flush, the third empty.
  void WriteThreeSegments() {
    auto engine = Open();
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(engine->Put(StringPrintf("k%02d", i), "v").ok());
      if (i % 15 == 14) {
        ASSERT_TRUE(engine->Flush().ok());
      }
    }
    ASSERT_EQ(engine->stats().segments, 3u);
    ASSERT_TRUE(engine->Close().ok());
  }

  std::string dir_;
};

TEST_F(EngineFeaturesTest, ReopenAppendsToTheEmptyNewestSegment) {
  WriteThreeSegments();
  {
    auto engine = Open();
    // Segment 3 was empty: it is reused, not joined by a fourth.
    EXPECT_EQ(engine->stats().segments, 3u);
    EXPECT_EQ(engine->stats().wal_replayed_records, 30u);
    ASSERT_TRUE(engine->Put("k30", "v").ok());
  }
  // Segment 3 now holds a record, so the next open starts segment 4.
  auto engine = Open();
  EXPECT_EQ(engine->stats().segments, 4u);
  EXPECT_EQ(engine->CommittedWalPosition(), (WalPosition{4, 0}));
  auto state = tests::ScanToMap(*engine);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->size(), 31u);
}

TEST_F(EngineFeaturesTest, MissingSegmentNumberIsCorruption) {
  WriteThreeSegments();
  ASSERT_TRUE(Env::Default()->RemoveFile(WalFileName(dir_, 2)).ok());
  auto engine = StorageEngine::Open(dir_, EngineOptions{});
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsCorruption()) << engine.status();
  EXPECT_NE(engine.status().ToString().find("000002.wal"),
            std::string::npos)
      << engine.status();
}

TEST_F(EngineFeaturesTest, StoreFromTheLsmFormatIsRejected) {
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFileSync(dir_ + "/MANIFEST", "old")
                  .ok());
  auto engine = StorageEngine::Open(dir_, EngineOptions{});
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsCorruption()) << engine.status();
  EXPECT_NE(engine.status().ToString().find(dir_ + "/MANIFEST"),
            std::string::npos)
      << engine.status();

  std::filesystem::remove_all(dir_);
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFileSync(dir_ + "/000007.tbl", "old")
                  .ok());
  engine = StorageEngine::Open(dir_, EngineOptions{});
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsCorruption()) << engine.status();
  EXPECT_NE(engine.status().ToString().find("000007.tbl"),
            std::string::npos)
      << engine.status();
}

// A batch several times the replay buffer, with values that straddle
// every chunk boundary: the streaming CRC and decode passes must yield
// exactly what was written, in order.
TEST_F(EngineFeaturesTest, RecordLargerThanTheReadBufferReplaysExactly) {
  WriteBatch batch;
  std::vector<std::pair<std::string, std::string>> want;
  size_t bytes = 0;
  for (int i = 0; bytes < 3 * kWalReadBufferBytes + 12345; ++i) {
    std::string key = StringPrintf("big%06d", i);
    std::string value(static_cast<size_t>(50 + (i * 37) % 400),
                      static_cast<char>('a' + i % 26));
    bytes += key.size() + value.size() + 4;
    batch.Put(key, value);
    want.emplace_back(std::move(key), std::move(value));
  }
  {
    auto engine = Open();
    ASSERT_TRUE(engine->Put("before", "1").ok());
    ASSERT_TRUE(engine->Apply(batch).ok());
    ASSERT_TRUE(engine->Put("after", "2").ok());
  }
  want.insert(want.begin(), {"before", "1"});
  want.emplace_back("after", "2");
  auto engine = Open();
  EXPECT_EQ(engine->stats().wal_replayed_records, 3u);
  std::vector<std::pair<std::string, std::string>> seen;
  auto replayed = engine->Replay([&](std::string_view k, std::string_view v) {
    seen.emplace_back(std::string(k), std::string(v));
    return Status::OK();
  });
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->records, 3u);
  EXPECT_EQ(seen, want);
  EXPECT_TRUE(engine->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace authidx::storage
