// Crash-recovery torture tests: random operation streams with periodic
// close/reopen verification, and WAL truncation at every byte offset
// (prefix-consistency).

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "authidx/common/random.h"
#include "authidx/common/strings.h"
#include "authidx/storage/engine.h"
#include "scan_util.h"

namespace authidx::storage {
namespace {

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/crash_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Every prefix of a synced WAL must recover to a prefix of the applied
// operations — never to garbage, never to out-of-order application.
TEST_F(CrashRecoveryTest, EveryWalTruncationRecoversAPrefix) {
  // Build a WAL of known operations.
  std::vector<std::pair<std::string, std::string>> ops;  // key -> value.
  std::string wal_bytes;
  uint64_t wal_number;
  {
    EngineOptions options;
    options.sync_writes = true;
    auto engine = StorageEngine::Open(dir_, options);
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 30; ++i) {
      std::string key = StringPrintf("key%02d", i % 10);
      std::string value = StringPrintf("value%02d", i);
      ASSERT_TRUE((*engine)->Put(key, value).ok());
      ops.emplace_back(key, value);
    }
    Manifest manifest = *Manifest::Load(Env::Default(), dir_);
    wal_number = manifest.wal_number;
    wal_bytes = *Env::Default()->ReadFileToString(
        WalFileName(dir_, wal_number));
    // Abandon without Close: the directory now holds manifest + WAL.
    // (Close would flush; instead we recreate state below per trial.)
    ASSERT_TRUE((*engine)->Close().ok());
  }
  std::string manifest_template;
  {
    Manifest manifest = *Manifest::Load(Env::Default(), dir_);
    for (const FileMeta& meta : manifest.files) {
      ASSERT_TRUE(Env::Default()
                      ->RemoveFile(TableFileName(dir_, meta.file_number))
                      .ok());
    }
    manifest.files.clear();
    manifest.wal_number = wal_number;
    manifest_template = manifest.Encode();
  }

  // Step through truncation points (every byte would be slow with
  // reopen-flush; step 7 still covers all header/payload phases).
  for (size_t cut = 0; cut <= wal_bytes.size(); cut += 7) {
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFileSync(ManifestFileName(dir_),
                                            manifest_template)
                    .ok());
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFileSync(WalFileName(dir_, wal_number),
                                            wal_bytes.substr(0, cut))
                    .ok());
    auto engine = StorageEngine::Open(dir_, EngineOptions{});
    ASSERT_TRUE(engine.ok()) << "cut=" << cut << ": " << engine.status();
    uint64_t replayed = (*engine)->stats().wal_replayed_records;
    ASSERT_LE(replayed, ops.size());
    // The recovered state must equal applying exactly the first
    // `replayed` operations.
    std::map<std::string, std::string> model;
    for (size_t i = 0; i < replayed; ++i) {
      model[ops[i].first] = ops[i].second;
    }
    auto state = tests::ScanToMap(*(*engine)->NewIterator());
    ASSERT_TRUE(state.ok()) << "cut=" << cut << ": " << state.status();
    ASSERT_EQ(*state, model) << "cut=" << cut;
  }
}

TEST_F(CrashRecoveryTest, ReopenLoopTortureAgainstModel) {
  Random rng(777);
  std::map<std::string, std::string> model;
  EngineOptions options;
  options.memtable_bytes = 8 * 1024;
  options.l0_compaction_trigger = 2;
  for (int session = 0; session < 8; ++session) {
    auto engine = StorageEngine::Open(dir_, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    // Recovered state must match the model exactly at session start.
    auto it = (*engine)->NewIterator();
    auto expected = model.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
      ASSERT_NE(expected, model.end()) << "session " << session;
      ASSERT_EQ(it->key(), expected->first);
      ASSERT_EQ(it->value(), expected->second);
    }
    ASSERT_EQ(expected, model.end()) << "session " << session;
    // More random ops.
    for (int op = 0; op < 400; ++op) {
      std::string key = StringPrintf("k%03llu",
          static_cast<unsigned long long>(rng.Uniform(150)));
      std::string value = StringPrintf("s%dv%llu", session,
          static_cast<unsigned long long>(rng.Next64() % 100000));
      ASSERT_TRUE((*engine)->Put(key, value).ok());
      model[key] = value;
    }
    ASSERT_TRUE((*engine)->Close().ok());
  }
}

// Recovery after a simulated crash must announce itself: structured
// wal_recovery / wal_tail_truncated events on the engine logger and a
// bumped authidx_engine_recovery_records_total counter.
TEST_F(CrashRecoveryTest, RecoveryEmitsStructuredEventsAndCounter) {
  std::string wal_bytes;
  uint64_t wal_number;
  {
    EngineOptions options;
    options.sync_writes = true;
    auto engine = StorageEngine::Open(dir_, options);
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*engine)
                      ->Put(StringPrintf("key%02d", i),
                            StringPrintf("value%02d", i))
                      .ok());
    }
    Manifest manifest = *Manifest::Load(Env::Default(), dir_);
    wal_number = manifest.wal_number;
    wal_bytes =
        *Env::Default()->ReadFileToString(WalFileName(dir_, wal_number));
    ASSERT_TRUE((*engine)->Close().ok());
  }
  // Recreate the pre-crash directory: manifest referencing no tables
  // plus the WAL cut mid-record (a torn tail).
  {
    Manifest manifest = *Manifest::Load(Env::Default(), dir_);
    for (const FileMeta& meta : manifest.files) {
      ASSERT_TRUE(Env::Default()
                      ->RemoveFile(TableFileName(dir_, meta.file_number))
                      .ok());
    }
    manifest.files.clear();
    manifest.wal_number = wal_number;
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFileSync(ManifestFileName(dir_),
                                            manifest.Encode())
                    .ok());
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFileSync(
                        WalFileName(dir_, wal_number),
                        wal_bytes.substr(0, wal_bytes.size() - 3))
                    .ok());
  }

  obs::Logger logger(obs::LogLevel::kInfo);
  auto sink = std::make_unique<obs::VectorSink>();
  obs::VectorSink* lines = sink.get();
  logger.AddSink(std::move(sink));
  EngineOptions options;
  options.logger = &logger;
  auto engine = StorageEngine::Open(dir_, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  uint64_t replayed = (*engine)->stats().wal_replayed_records;
  EXPECT_GT(replayed, 0u);
  EXPECT_LT(replayed, 20u);  // The torn tail dropped the last record.
  EXPECT_TRUE((*engine)->stats().wal_tail_corruption);

  EXPECT_TRUE(lines->Contains("event=wal_recovery"));
  EXPECT_TRUE(lines->Contains(
      StringPrintf("records_replayed=%llu",
                   static_cast<unsigned long long>(replayed))));
  EXPECT_TRUE(lines->Contains("tail_corruption=true"));
  EXPECT_TRUE(lines->Contains("level=WARN event=wal_tail_truncated"));
  EXPECT_TRUE(lines->Contains("event=engine_open"));

  obs::MetricsSnapshot snapshot = (*engine)->metrics().Snapshot();
  const obs::MetricValue* counter =
      snapshot.Find("authidx_engine_recovery_records_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->counter, replayed);

  ASSERT_TRUE((*engine)->Close().ok());
  EXPECT_TRUE(lines->Contains("event=engine_close"));
}

}  // namespace
}  // namespace authidx::storage
