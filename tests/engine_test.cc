#include "authidx/storage/engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "authidx/common/random.h"
#include "authidx/common/strings.h"
#include "fault_env.h"
#include "scan_util.h"

namespace authidx::storage {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/engine_test_" +
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

using Contents = std::map<std::string, std::string>;

TEST_F(EngineTest, PutIsVisibleInMemtable) {
  auto engine = Open();
  ASSERT_TRUE(engine->Put("k1", "v1").ok());
  ASSERT_TRUE(engine->Put("k2", "v2").ok());
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(*state, (Contents{{"k1", "v1"}, {"k2", "v2"}}));
  EXPECT_EQ(state->count("missing"), 0u);
}

TEST_F(EngineTest, FlushMovesDataToTables) {
  auto engine = Open();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine->Put(StringPrintf("key%04d", i),
                            StringPrintf("val%d", i)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->stats().flushes, 1u);
  EXPECT_EQ(engine->stats().l0_files, 1);
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  ASSERT_EQ(state->size(), 100u);
  for (int i = 0; i < 100; i += 9) {
    EXPECT_EQ((*state)[StringPrintf("key%04d", i)], StringPrintf("val%d", i));
  }
}

TEST_F(EngineTest, OverwriteAcrossFlushesKeepsNewest) {
  auto engine = Open();
  ASSERT_TRUE(engine->Put("k", "v1").ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Put("k", "v2").ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Put("k", "v3").ok());
  EXPECT_EQ(*tests::ScanToMap(*engine->NewIterator()), (Contents{{"k", "v3"}}));
  ASSERT_TRUE(engine->Compact().ok());
  EXPECT_EQ(*tests::ScanToMap(*engine->NewIterator()), (Contents{{"k", "v3"}}));
}

TEST_F(EngineTest, ReopenRecoversFlushedAndWalData) {
  {
    auto engine = Open();
    ASSERT_TRUE(engine->Put("flushed", "f").ok());
    ASSERT_TRUE(engine->Flush().ok());
    ASSERT_TRUE(engine->Put("in_wal_only", "w").ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  auto engine = Open();
  EXPECT_EQ(*tests::ScanToMap(*engine->NewIterator()),
            (Contents{{"flushed", "f"}, {"in_wal_only", "w"}}));
}

TEST_F(EngineTest, CrashRecoveryFromWalWithoutClose) {
  {
    EngineOptions options;
    options.sync_writes = true;
    auto engine = Open(options);
    ASSERT_TRUE(engine->Put("durable", "yes").ok());
    // Simulate crash: drop the engine without Close() having flushed...
    // Close() in the destructor flushes, so instead copy the directory
    // state mid-life. Easiest honest crash test: kill the WAL tail.
    ASSERT_TRUE(engine->Put("torn", std::string(1000, 'x')).ok());
    // Leak-free "crash": release without Close by moving out and
    // abandoning—destructor runs Close; so emulate the crash by
    // truncating the WAL after reopening below instead.
    ASSERT_TRUE(engine->Close().ok());
  }
  // Damage: append garbage to the live WAL to emulate a torn write that
  // a crash left behind.
  {
    Manifest manifest = *Manifest::Load(Env::Default(), dir_);
    // After Close() the WAL is fresh/empty; write garbage into it.
    std::string wal_path = WalFileName(dir_, manifest.wal_number);
    std::ofstream f(wal_path, std::ios::binary | std::ios::app);
    f << "garbage-torn-record";
  }
  auto engine = Open();
  EXPECT_TRUE(engine->stats().wal_tail_corruption);
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["durable"], "yes");
  EXPECT_EQ((*state)["torn"].size(), 1000u);
}

TEST_F(EngineTest, WalReplayRecoversUnflushedWrites) {
  // Write without Flush/Close-path interference by making a WAL by hand:
  // open engine, write, then simulate crash by copying WAL aside before
  // Close and restoring it after.
  std::string wal_copy;
  uint64_t wal_number;
  {
    EngineOptions options;
    options.sync_writes = true;  // Records must reach the file to copy it.
    auto engine = Open(options);
    ASSERT_TRUE(engine->Put("a", "1").ok());
    ASSERT_TRUE(engine->Put("b", "2").ok());
    ASSERT_TRUE(engine->Put("a", "3").ok());
    Manifest manifest = *Manifest::Load(Env::Default(), dir_);
    wal_number = manifest.wal_number;
    wal_copy = *Env::Default()->ReadFileToString(
        WalFileName(dir_, wal_number));
    ASSERT_TRUE(engine->Close().ok());
  }
  // Rewind the directory to the pre-Close state: restore the WAL and the
  // manifest pointing at it, and remove the table the Close-flush wrote.
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
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFileSync(WalFileName(dir_, wal_number),
                                            wal_copy)
                    .ok());
  }
  auto engine = Open();
  EXPECT_EQ(engine->stats().wal_replayed_records, 3u);
  // The overwrite replayed after the first put of "a".
  EXPECT_EQ(*tests::ScanToMap(*engine->NewIterator()),
            (Contents{{"a", "3"}, {"b", "2"}}));
}

TEST_F(EngineTest, AutomaticFlushOnMemtableFull) {
  EngineOptions options;
  options.memtable_bytes = 64 * 1024;
  auto engine = Open(options);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine->Put(StringPrintf("key%05d", i),
                            std::string(100, 'v')).ok());
  }
  EXPECT_GT(engine->stats().flushes, 0u);
  // Everything still readable across memtable + L0 (+ L1 after auto
  // compaction).
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->size(), 2000u);
  for (int i = 0; i < 2000; i += 113) {
    EXPECT_EQ(state->count(StringPrintf("key%05d", i)), 1u) << i;
  }
}

TEST_F(EngineTest, CompactionMergesRunsKeepingNewestVersion) {
  EngineOptions options;
  options.l0_compaction_trigger = 100;  // Manual compaction only.
  auto engine = Open(options);
  for (int round = 0; round < 3; ++round) {
    for (int i = round * 100; i < (round + 1) * 100; ++i) {
      ASSERT_TRUE(engine->Put(StringPrintf("key%05d", i), "v").ok());
    }
    ASSERT_TRUE(engine->Flush().ok());
  }
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(engine->Put(StringPrintf("key%05d", i), "v2").ok());
  }
  ASSERT_TRUE(engine->Compact().ok());
  EXPECT_EQ(engine->stats().l0_files, 0);
  EXPECT_EQ(engine->stats().l1_files, 1);
  // Overwritten half holds the new value, the rest the old one.
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["key00000"], "v2");
  EXPECT_EQ((*state)["key00149"], "v2");
  EXPECT_EQ((*state)["key00150"], "v");
  EXPECT_EQ((*state)["key00299"], "v");
  // The compacted run carries one version per key: count its entries
  // via a raw iterator.
  auto it = engine->NewIterator();
  int entries = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    ++entries;
  }
  EXPECT_EQ(entries, 300);
}

TEST_F(EngineTest, IteratorMergesAllLevelsNewestWins) {
  EngineOptions options;
  options.l0_compaction_trigger = 100;
  auto engine = Open(options);
  ASSERT_TRUE(engine->Put("a", "old").ok());
  ASSERT_TRUE(engine->Put("b", "keep").ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Put("a", "new").ok());
  ASSERT_TRUE(engine->Put("c", "mem").ok());
  auto it = engine->NewIterator();
  std::vector<std::pair<std::string, std::string>> seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen.emplace_back(std::string(it->key()), std::string(it->value()));
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], std::make_pair(std::string("a"), std::string("new")));
  EXPECT_EQ(seen[1], std::make_pair(std::string("b"), std::string("keep")));
  EXPECT_EQ(seen[2], std::make_pair(std::string("c"), std::string("mem")));
}

TEST_F(EngineTest, RandomizedModelCheckWithReopen) {
  Random rng(2024);
  std::map<std::string, std::string> model;
  EngineOptions options;
  options.memtable_bytes = 16 * 1024;  // Frequent flushes.
  options.l0_compaction_trigger = 3;   // Frequent compactions.
  {
    auto engine = Open(options);
    for (int op = 0; op < 5000; ++op) {
      std::string key = StringPrintf("k%03llu",
          static_cast<unsigned long long>(rng.Uniform(500)));
      std::string value = StringPrintf("v%llu",
          static_cast<unsigned long long>(rng.Next64() % 1000));
      ASSERT_TRUE(engine->Put(key, value).ok());
      model[key] = value;
      if (op % 1000 == 999) {
        auto state = tests::ScanToMap(*engine->NewIterator());
        ASSERT_TRUE(state.ok()) << state.status();
        ASSERT_EQ(*state, model) << "op " << op;
      }
    }
    ASSERT_TRUE(engine->Close().ok());
  }
  // Reopen and verify the full model via iterator.
  auto engine = Open(options);
  auto it = engine->NewIterator();
  auto expected = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    ASSERT_EQ(it->key(), expected->first);
    ASSERT_EQ(it->value(), expected->second);
  }
  EXPECT_EQ(expected, model.end());
}

TEST_F(EngineTest, SyncWritesModeWorks) {
  EngineOptions options;
  options.sync_writes = true;
  auto engine = Open(options);
  ASSERT_TRUE(engine->Put("k", "v").ok());
  EXPECT_EQ(*tests::ScanToMap(*engine->NewIterator()), (Contents{{"k", "v"}}));
}

TEST_F(EngineTest, UseAfterCloseFails) {
  auto engine = Open();
  ASSERT_TRUE(engine->Close().ok());
  EXPECT_TRUE(engine->Put("k", "v").IsFailedPrecondition());
}

TEST_F(EngineTest, WriteInstrumentsMoveOnPutAndFlush) {
  auto engine = Open();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine->Put(StringPrintf("key%04d", i),
                            StringPrintf("val%d", i)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());

  auto counter = [&](const char* name) {
    auto snap = engine->metrics().Snapshot();
    const obs::MetricValue* metric = snap.Find(name);
    EXPECT_NE(metric, nullptr) << name;
    return metric == nullptr ? 0 : metric->counter;
  };

  // WAL and flush instruments saw the writes above.
  EXPECT_EQ(counter("authidx_storage_puts_total"), 200u);
  EXPECT_GE(counter("authidx_wal_appends_total"), 200u);
  EXPECT_EQ(counter("authidx_memtable_flushes_total"), 1u);
}

TEST_F(EngineTest, SharedRegistryReceivesEngineMetrics) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.metrics = &registry;
  auto engine = Open(options);
  ASSERT_TRUE(engine->Put("k", "v").ok());
  auto snap = registry.Snapshot();
  const obs::MetricValue* puts = snap.Find("authidx_storage_puts_total");
  ASSERT_NE(puts, nullptr);
  EXPECT_EQ(puts->counter, 1u);
}

// --- background-error / degraded-mode contract ---
//
// These tests trip the sticky error with a FaultEnv; the systematic
// harness lives in fault_injection_test.cc and fault_sweep_test.cc.

TEST_F(EngineTest, DegradedEngineRejectsWritesButServesReads) {
  tests::FaultEnv env;
  EngineOptions options;
  options.env = &env;
  options.retry_base_delay_us = 0;
  auto engine = Open(options);
  ASSERT_TRUE(engine->Put("k", "v").ok());
  EXPECT_FALSE(engine->degraded());
  EXPECT_TRUE(engine->background_error().ok());

  env.FailAllFromNow();
  EXPECT_TRUE(engine->Put("k2", "x").IsIOError());
  EXPECT_TRUE(engine->degraded());
  EXPECT_TRUE(engine->background_error().IsIOError());
  env.StopFailing();

  // Sticky: the filesystem recovered, but the engine stays read-only
  // until reopen. Writes fail fast with the original cause attached.
  Status rejected = engine->Put("k3", "x");
  EXPECT_TRUE(rejected.IsIOError());
  EXPECT_NE(rejected.ToString().find("degraded"), std::string::npos)
      << rejected;
  EXPECT_TRUE(engine->Flush().IsIOError());

  // Reads keep working by default.
  EXPECT_EQ(*tests::ScanToMap(*engine->NewIterator()), (Contents{{"k", "v"}}));
  auto it = engine->NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "k");

  // The degraded gauge is visible to scrapers.
  auto snap = engine->metrics().Snapshot();
  const obs::MetricValue* degraded = snap.Find("authidx_degraded");
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->gauge, 1.0);
}

TEST_F(EngineTest, ParanoidChecksHaltReadsWhenDegraded) {
  tests::FaultEnv env;
  EngineOptions options;
  options.env = &env;
  options.paranoid_checks = true;
  options.retry_base_delay_us = 0;
  auto engine = Open(options);
  ASSERT_TRUE(engine->Put("k", "v").ok());
  env.FailAllFromNow();
  ASSERT_TRUE(engine->Put("k2", "x").IsIOError());
  env.StopFailing();
  // Paranoid engines refuse reads too once degraded.
  EXPECT_TRUE(tests::ScanToMap(*engine->NewIterator()).status().IsIOError());
  auto it = engine->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsIOError());
}

TEST_F(EngineTest, ReopenClearsBackgroundError) {
  tests::FaultEnv env;
  {
    EngineOptions options;
    options.env = &env;
    options.sync_writes = true;
    options.retry_base_delay_us = 0;
    auto engine = Open(options);
    ASSERT_TRUE(engine->Put("k", "v").ok());
    env.FailAllFromNow();
    ASSERT_TRUE(engine->Put("k2", "x").IsIOError());
    ASSERT_TRUE(engine->degraded());
  }
  env.StopFailing();
  auto engine = Open();
  EXPECT_FALSE(engine->degraded());
  EXPECT_TRUE(engine->background_error().ok());
  EXPECT_EQ(*tests::ScanToMap(*engine->NewIterator()), (Contents{{"k", "v"}}));
  ASSERT_TRUE(engine->Put("k2", "now-works").ok());
  EXPECT_EQ(*tests::ScanToMap(*engine->NewIterator()),
            (Contents{{"k", "v"}, {"k2", "now-works"}}));
}

TEST_F(EngineTest, ScanAndIntegrityScanOnHealthyStore) {
  auto engine = Open();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine->Put(StringPrintf("key%04d", i),
                            StringPrintf("val%d", i)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  for (int i = 0; i < 200; i += 17) {
    EXPECT_EQ((*state)[StringPrintf("key%04d", i)], StringPrintf("val%d", i));
  }
  auto report = engine->VerifyIntegrity();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean());
  EXPECT_GT(report->files.size(), 0u);
  auto snap = engine->metrics().Snapshot();
  const obs::MetricValue* corrupt = snap.Find("authidx_corrupt_blocks_total");
  ASSERT_NE(corrupt, nullptr);
  EXPECT_EQ(corrupt->counter, 0u);
}

TEST_F(EngineTest, VerifyIntegrityDetectsBitFlippedTable) {
  auto engine = Open();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine->Put(StringPrintf("key%04d", i),
                            StringPrintf("val%d", i)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  // Flip a byte in the middle of the only table file on disk.
  std::string table_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".tbl") {
      table_path = entry.path().string();
    }
  }
  ASSERT_FALSE(table_path.empty());
  {
    std::fstream f(table_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(table_path) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  auto report = engine->VerifyIntegrity();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->clean());
  EXPECT_EQ(report->corrupt_files, 1);
  ASSERT_EQ(report->files.size(), 1u);
  EXPECT_FALSE(report->files[0].status.ok());
  auto snap = engine->metrics().Snapshot();
  const obs::MetricValue* corrupt = snap.Find("authidx_corrupt_blocks_total");
  ASSERT_NE(corrupt, nullptr);
  EXPECT_GE(corrupt->counter, 1u);
}

}  // namespace
}  // namespace authidx::storage
