// Tests for the storage-engine extension of per-block compression.

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

  void FillCompressible(StorageEngine* engine, int n) {
    for (int i = 0; i < n; ++i) {
      // Repetitive values compress extremely well.
      ASSERT_TRUE(engine
                      ->Put(StringPrintf("author/%06d/entry", i),
                            std::string(200, static_cast<char>('a' + (i % 3))))
                      .ok());
    }
  }

  uint64_t TableBytes() {
    uint64_t total = 0;
    auto names = Env::Default()->ListDir(dir_);
    EXPECT_TRUE(names.ok());
    for (const auto& name : *names) {
      if (name.size() > 4 && name.substr(name.size() - 4) == ".tbl") {
        total += *Env::Default()->FileSize(dir_ + "/" + name);
      }
    }
    return total;
  }

  std::string dir_;
};

TEST_F(EngineFeaturesTest, CompressionShrinksTablesAndRoundTrips) {
  uint64_t raw_bytes, compressed_bytes;
  {
    auto engine = Open();
    FillCompressible(engine.get(), 5000);
    ASSERT_TRUE(engine->Compact().ok());
    raw_bytes = TableBytes();
    ASSERT_TRUE(engine->Close().ok());
  }
  std::filesystem::remove_all(dir_);
  {
    EngineOptions options;
    options.compress_blocks = true;
    auto engine = Open(options);
    FillCompressible(engine.get(), 5000);
    ASSERT_TRUE(engine->Compact().ok());
    compressed_bytes = TableBytes();
    // Everything readable while compressed.
    auto state = tests::ScanToMap(*engine->NewIterator());
    ASSERT_TRUE(state.ok()) << state.status();
    for (int i = 0; i < 5000; i += 317) {
      auto hit = state->find(StringPrintf("author/%06d/entry", i));
      ASSERT_NE(hit, state->end()) << i;
      EXPECT_EQ(hit->second.size(), 200u);
    }
    ASSERT_TRUE(engine->Close().ok());
  }
  EXPECT_LT(compressed_bytes, raw_bytes / 2)
      << "raw=" << raw_bytes << " compressed=" << compressed_bytes;
  // Reopen compressed store (options do not need to match: block type is
  // self-describing).
  auto engine = Open();
  // Full scan decodes every compressed block.
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["author/000000/entry"].size(), 200u);
  EXPECT_EQ(state->size(), 5000u);
}

TEST_F(EngineFeaturesTest, MixedCompressedAndRawRuns) {
  {
    auto engine = Open();  // Raw.
    FillCompressible(engine.get(), 1000);
    ASSERT_TRUE(engine->Close().ok());
  }
  EngineOptions options;
  options.compress_blocks = true;
  auto engine = Open(options);
  for (int i = 1000; i < 2000; ++i) {
    ASSERT_TRUE(engine
                    ->Put(StringPrintf("author/%06d/entry", i),
                          std::string(200, 'z'))
                    .ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  // Reads span a raw run and a compressed run.
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->count("author/000500/entry"), 1u);
  EXPECT_EQ(state->count("author/001500/entry"), 1u);
  ASSERT_TRUE(engine->Compact().ok());
  state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->count("author/000500/entry"), 1u);
  EXPECT_EQ(state->count("author/001500/entry"), 1u);
}

}  // namespace
}  // namespace authidx::storage
