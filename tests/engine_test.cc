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

// Flips the byte at `offset` of the file at `path`.
void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-1, std::ios::cur);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
}

TEST_F(EngineTest, PutIsVisibleInReplay) {
  auto engine = Open();
  ASSERT_TRUE(engine->Put("k1", "v1").ok());
  ASSERT_TRUE(engine->Put("k2", "v2").ok());
  auto state = tests::ScanToMap(*engine);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(*state, (Contents{{"k1", "v1"}, {"k2", "v2"}}));
  EXPECT_EQ(state->count("missing"), 0u);
}

TEST_F(EngineTest, FlushRollsToAFreshSegment) {
  auto engine = Open();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine->Put(StringPrintf("key%04d", i),
                            StringPrintf("val%d", i)).ok());
  }
  EXPECT_EQ(engine->stats().segments, 1u);
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->stats().segments, 2u);
  // Flushing an empty newest segment rolls nothing.
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->stats().segments, 2u);
  EXPECT_EQ(engine->CommittedWalPosition(), (WalPosition{2, 0}));
  auto state = tests::ScanToMap(*engine);
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
  EXPECT_EQ(*tests::ScanToMap(*engine), (Contents{{"k", "v3"}}));
  ASSERT_TRUE(engine->Close().ok());
  engine = Open();
  EXPECT_EQ(*tests::ScanToMap(*engine), (Contents{{"k", "v3"}}));
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
  EXPECT_EQ(*tests::ScanToMap(*engine),
            (Contents{{"flushed", "f"}, {"in_wal_only", "w"}}));
}

TEST_F(EngineTest, CrashRecoveryFromWalWithoutClose) {
  {
    EngineOptions options;
    options.sync_writes = true;
    auto engine = Open(options);
    ASSERT_TRUE(engine->Put("durable", "yes").ok());
    ASSERT_TRUE(engine->Put("torn", std::string(1000, 'x')).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  // Damage: append garbage to the newest segment to emulate a torn
  // write that a crash left behind.
  {
    std::ofstream f(WalFileName(dir_, 1), std::ios::binary | std::ios::app);
    f << "garbage-torn-record";
  }
  auto engine = Open();
  EXPECT_TRUE(engine->stats().wal_tail_corruption);
  auto state = tests::ScanToMap(*engine);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["durable"], "yes");
  EXPECT_EQ((*state)["torn"].size(), 1000u);
  // The tail was cut off before segment 1 stopped being the newest, so
  // the store stays clean across further writes and reopens.
  ASSERT_TRUE(engine->Put("after", "crash").ok());
  ASSERT_TRUE(engine->Close().ok());
  engine = Open();
  EXPECT_FALSE(engine->stats().wal_tail_corruption);
  EXPECT_TRUE(engine->VerifyIntegrity().ok());
  EXPECT_EQ((*tests::ScanToMap(*engine))["after"], "crash");
}

TEST_F(EngineTest, WalReplayRecoversUnflushedWrites) {
  // Capture the log as a crash would leave it, then restore only that.
  std::string wal_copy;
  {
    EngineOptions options;
    options.sync_writes = true;  // Records must reach the file to copy it.
    auto engine = Open(options);
    ASSERT_TRUE(engine->Put("a", "1").ok());
    ASSERT_TRUE(engine->Put("b", "2").ok());
    ASSERT_TRUE(engine->Put("a", "3").ok());
    wal_copy = *Env::Default()->ReadFileToString(WalFileName(dir_, 1));
    ASSERT_TRUE(engine->Close().ok());
  }
  std::filesystem::remove_all(dir_);
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFileSync(WalFileName(dir_, 1), wal_copy)
                  .ok());
  auto engine = Open();
  EXPECT_EQ(engine->stats().wal_replayed_records, 3u);
  // The overwrite replayed after the first put of "a".
  EXPECT_EQ(*tests::ScanToMap(*engine), (Contents{{"a", "3"}, {"b", "2"}}));
}

TEST_F(EngineTest, ReplaySpansManySegments) {
  auto engine = Open();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine->Put(StringPrintf("key%05d", i),
                            std::string(100, 'v')).ok());
    if (i % 500 == 499) {
      ASSERT_TRUE(engine->Flush().ok());
    }
  }
  EXPECT_EQ(engine->stats().segments, 5u);
  auto state = tests::ScanToMap(*engine);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->size(), 2000u);
  for (int i = 0; i < 2000; i += 113) {
    EXPECT_EQ(state->count(StringPrintf("key%05d", i)), 1u) << i;
  }
}

TEST_F(EngineTest, ReplayYieldsEveryPutInLogOrder) {
  auto engine = Open();
  ASSERT_TRUE(engine->Put("a", "old").ok());
  ASSERT_TRUE(engine->Put("b", "keep").ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Put("a", "new").ok());
  ASSERT_TRUE(engine->Put("c", "live").ok());
  std::vector<std::pair<std::string, std::string>> seen;
  auto replayed = engine->Replay([&](std::string_view k, std::string_view v) {
    seen.emplace_back(std::string(k), std::string(v));
    return Status::OK();
  });
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->records, 4u);
  const std::vector<std::pair<std::string, std::string>> want = {
      {"a", "old"}, {"b", "keep"}, {"a", "new"}, {"c", "live"}};
  EXPECT_EQ(seen, want);
  // The sink's error stops the pass and comes back as is.
  int calls = 0;
  replayed = engine->Replay([&](std::string_view, std::string_view) {
    ++calls;
    return Status::Corruption("sink says no");
  });
  EXPECT_TRUE(replayed.status().IsCorruption());
  EXPECT_EQ(calls, 1);
}

TEST_F(EngineTest, RandomizedModelCheckWithReopen) {
  Random rng(2024);
  std::map<std::string, std::string> model;
  {
    auto engine = Open();
    for (int op = 0; op < 5000; ++op) {
      std::string key = StringPrintf("k%03llu",
          static_cast<unsigned long long>(rng.Uniform(500)));
      std::string value = StringPrintf("v%llu",
          static_cast<unsigned long long>(rng.Next64() % 1000));
      ASSERT_TRUE(engine->Put(key, value).ok());
      model[key] = value;
      if (op % 1000 == 999) {
        ASSERT_TRUE(engine->Flush().ok());
        auto state = tests::ScanToMap(*engine);
        ASSERT_TRUE(state.ok()) << state.status();
        ASSERT_EQ(*state, model) << "op " << op;
      }
    }
    ASSERT_TRUE(engine->Close().ok());
  }
  // Reopen and verify the full model.
  auto engine = Open();
  auto state = tests::ScanToMap(*engine);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(*state, model);
}

TEST_F(EngineTest, SyncWritesModeWorks) {
  EngineOptions options;
  options.sync_writes = true;
  auto engine = Open(options);
  ASSERT_TRUE(engine->Put("k", "v").ok());
  EXPECT_EQ(*tests::ScanToMap(*engine), (Contents{{"k", "v"}}));
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

  auto snap = engine->metrics().Snapshot();
  auto counter = [&](const char* name) {
    const obs::MetricValue* metric = snap.Find(name);
    EXPECT_NE(metric, nullptr) << name;
    return metric == nullptr ? 0 : metric->counter;
  };

  // Log and roll instruments saw the writes above.
  EXPECT_EQ(counter("authidx_storage_puts_total"), 200u);
  EXPECT_GE(counter("authidx_wal_appends_total"), 200u);
  EXPECT_EQ(counter("authidx_wal_segment_rolls_total"), 1u);
  const obs::MetricValue* segments = snap.Find("authidx_wal_segments");
  ASSERT_NE(segments, nullptr);
  EXPECT_EQ(segments->gauge, 2.0);
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

  // Reads keep working: Replay serves everything below the committed
  // position.
  EXPECT_EQ(*tests::ScanToMap(*engine), (Contents{{"k", "v"}}));

  // The degraded gauge is visible to scrapers.
  auto snap = engine->metrics().Snapshot();
  const obs::MetricValue* degraded = snap.Find("authidx_degraded");
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->gauge, 1.0);
}

TEST_F(EngineTest, ReopenClearsBackgroundError) {
  tests::FaultEnv env;
  {
    EngineOptions options;
    options.env = &env;
    options.sync_writes = true;
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
  EXPECT_EQ(*tests::ScanToMap(*engine), (Contents{{"k", "v"}}));
  ASSERT_TRUE(engine->Put("k2", "now-works").ok());
  EXPECT_EQ(*tests::ScanToMap(*engine),
            (Contents{{"k", "v"}, {"k2", "now-works"}}));
}

TEST_F(EngineTest, ScanAndIntegrityScanOnHealthyStore) {
  auto engine = Open();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine->Put(StringPrintf("key%04d", i),
                            StringPrintf("val%d", i)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Put("live", "tail").ok());
  auto state = tests::ScanToMap(*engine);
  ASSERT_TRUE(state.ok()) << state.status();
  for (int i = 0; i < 200; i += 17) {
    EXPECT_EQ((*state)[StringPrintf("key%04d", i)], StringPrintf("val%d", i));
  }
  Status verified = engine->VerifyIntegrity();
  EXPECT_TRUE(verified.ok()) << verified;
  auto snap = engine->metrics().Snapshot();
  const obs::MetricValue* corrupt =
      snap.Find("authidx_wal_corrupt_records_total");
  ASSERT_NE(corrupt, nullptr);
  EXPECT_EQ(corrupt->counter, 0u);
}

// The log is the only copy of the data: one flipped byte in a sealed
// segment must fail the integrity scan, Replay and the next Open with
// Corruption naming the segment and the record's offset — never skip
// the damaged record and every record after it.
TEST_F(EngineTest, BitFlipInASealedSegmentIsCorruption) {
  uint64_t record_offset = 0;
  {
    auto engine = Open();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(engine->Put(StringPrintf("key%04d", i),
                              StringPrintf("val%d", i)).ok());
      if (i == 99) {
        record_offset = engine->CommittedWalPosition().offset;
      }
    }
    ASSERT_TRUE(engine->Flush().ok());  // Seals segment 1.
    ASSERT_TRUE(engine->Put("live", "tail").ok());
    // Flip a payload byte of the record right after the 100th.
    FlipByte(WalFileName(dir_, 1), record_offset + kWalRecordHeaderBytes + 2);
    const std::string offset = "at offset " + std::to_string(record_offset);
    Status verified = engine->VerifyIntegrity();
    EXPECT_TRUE(verified.IsCorruption()) << verified;
    EXPECT_NE(verified.ToString().find("000001.wal"), std::string::npos)
        << verified;
    EXPECT_NE(verified.ToString().find(offset), std::string::npos)
        << verified;
    EXPECT_TRUE(tests::ScanToMap(*engine).status().IsCorruption());
    auto snap = engine->metrics().Snapshot();
    const obs::MetricValue* corrupt =
        snap.Find("authidx_wal_corrupt_records_total");
    ASSERT_NE(corrupt, nullptr);
    EXPECT_GE(corrupt->counter, 1u);
    ASSERT_TRUE(engine->Close().ok());
  }
  auto reopened = StorageEngine::Open(dir_, EngineOptions{});
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
  EXPECT_NE(reopened.status().ToString().find("000001.wal"),
            std::string::npos)
      << reopened.status();
  EXPECT_NE(reopened.status().ToString().find(
                "at offset " + std::to_string(record_offset)),
            std::string::npos)
      << reopened.status();
}

}  // namespace
}  // namespace authidx::storage
