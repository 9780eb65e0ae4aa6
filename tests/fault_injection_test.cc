// Fault injection: FaultEnv (tests/fault_env.h) starts failing
// write-path ops on command, verifying the engine surfaces IOError and
// degrades instead of corrupting state, that transient failures are
// absorbed by the retry policy, and that a store written before the
// fault still recovers. The exhaustive every-k crash-consistency sweep
// lives in fault_sweep_test.cc.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "authidx/common/env.h"
#include "authidx/common/strings.h"
#include "authidx/storage/engine.h"
#include "fault_env.h"
#include "scan_util.h"

namespace authidx::storage {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-qualified: the same test from two build trees (asan + tsan
    // presets) may run concurrently and must not share directories.
    dir_ = ::testing::TempDir() + "/fault_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    options_.env = &faulty_env_;
    options_.retry_base_delay_us = 0;  // Keep retried tests instant.
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  tests::FaultEnv faulty_env_;
  EngineOptions options_;
};

TEST_F(FaultInjectionTest, PutSurfacesIOErrorWhenWalFails) {
  auto engine = StorageEngine::Open(dir_, options_);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Put("before", "ok").ok());
  faulty_env_.FailAllFromNow();
  Status s = (*engine)->Put("after", "fails");
  EXPECT_TRUE(s.IsIOError()) << s;
  // Reads keep working on the pre-fault state — even while the env
  // still fails, since scans never touch the write path.
  auto state = tests::ScanToMap(*(*engine)->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["before"], "ok");
  faulty_env_.StopFailing();
  state = tests::ScanToMap(*(*engine)->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["before"], "ok");
}

TEST_F(FaultInjectionTest, FlushFailureIsReportedNotSilent) {
  auto engine = StorageEngine::Open(dir_, options_);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), "v").ok());
  }
  faulty_env_.FailAllFromNow();
  EXPECT_TRUE((*engine)->Flush().IsIOError());
  faulty_env_.StopFailing();
  // Data still served from the memtable.
  auto state = tests::ScanToMap(*(*engine)->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["k050"], "v");
}

TEST_F(FaultInjectionTest, SyncedWritesBeforeFaultSurviveReopen) {
  {
    options_.sync_writes = true;
    auto engine = StorageEngine::Open(dir_, options_);
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), "v").ok());
    }
    faulty_env_.FailAllFromNow();
    // Fails by design; the write is meant to be lost.
    (*engine)->Put("lost", "x").IgnoreError();
    // Simulate the process dying here: drop the engine while writes
    // fail (Close's flush fails, as a crash would).
  }
  faulty_env_.StopFailing();
  auto engine = StorageEngine::Open(dir_, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  // All synced pre-fault writes recovered from the WAL.
  auto state = tests::ScanToMap(*(*engine)->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(state->count(StringPrintf("k%03d", i)), 1u) << i;
  }
  EXPECT_EQ(state->count("lost"), 0u);
}

TEST_F(FaultInjectionTest, OpenFailsCleanlyWhenDirUncreatable) {
  faulty_env_.FailAllFromNow();
  auto engine = StorageEngine::Open(dir_, options_);
  // Fresh store needs a WAL: open must fail with IOError, not crash.
  EXPECT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsIOError()) << engine.status();
}

// A single transient failure during flush must be absorbed by the retry
// policy: the flush succeeds, nothing becomes sticky, and the retry is
// visible in the metrics.
TEST_F(FaultInjectionTest, TransientFlushFailureIsRetried) {
  auto engine = StorageEngine::Open(dir_, options_);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), "v").ok());
  }
  // Fail exactly the next write-path op: the table file creation of the
  // first flush attempt.
  faulty_env_.FailOnceAt(faulty_env_.write_ops());
  EXPECT_TRUE((*engine)->Flush().ok());
  EXPECT_FALSE((*engine)->degraded());
  EXPECT_EQ(faulty_env_.faults_injected(), 1u);
  auto snap = (*engine)->metrics().Snapshot();
  const auto* retries = snap.Find("authidx_retries_total{op=\"flush\"}");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->counter, 1u);
  auto state = tests::ScanToMap(*(*engine)->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["k010"], "v");
}

// Exhausting the retry budget on a persistent failure trips the sticky
// background error.
TEST_F(FaultInjectionTest, ExhaustedRetriesTripBackgroundError) {
  auto engine = StorageEngine::Open(dir_, options_);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), "v").ok());
  }
  faulty_env_.FailAllFromNow();
  EXPECT_TRUE((*engine)->Flush().IsIOError());
  EXPECT_TRUE((*engine)->degraded());
  EXPECT_TRUE((*engine)->background_error().IsIOError());
  auto snap = (*engine)->metrics().Snapshot();
  const auto* retries = snap.Find("authidx_retries_total{op=\"flush\"}");
  ASSERT_NE(retries, nullptr);
  // max_attempts = 3 default: two retries before giving up.
  EXPECT_EQ(retries->counter, 2u);
  const auto* bg = snap.Find("authidx_bg_errors_total");
  ASSERT_NE(bg, nullptr);
  EXPECT_EQ(bg->counter, 1u);
}

// The end-to-end degradation story with a compaction failure as the
// trigger: the sticky error trips with op context, writes return it,
// reads keep serving, and the gauge flips for scrapers.
TEST_F(FaultInjectionTest, CompactionFailureDegradesEngineEndToEnd) {
  auto engine = StorageEngine::Open(dir_, options_);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), "v").ok());
  }
  ASSERT_TRUE((*engine)->Flush().ok());
  // The memtable is now empty, so Compact's implicit flush is a no-op
  // and the first failing op is compaction's own table write.
  faulty_env_.FailAllFromNow();
  Status s = (*engine)->Compact();
  EXPECT_TRUE(s.IsIOError()) << s;
  EXPECT_TRUE((*engine)->degraded());
  EXPECT_NE((*engine)->background_error().ToString().find("compaction"),
            std::string::npos)
      << (*engine)->background_error();
  faulty_env_.StopFailing();
  Status rejected = (*engine)->Put("more", "x");
  EXPECT_TRUE(rejected.IsIOError());
  EXPECT_NE(rejected.ToString().find("degraded"), std::string::npos);
  auto state = tests::ScanToMap(*(*engine)->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["k025"], "v");
  auto snap = (*engine)->metrics().Snapshot();
  const auto* degraded = snap.Find("authidx_degraded");
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->gauge, 1.0);
  const auto* retries =
      snap.Find("authidx_retries_total{op=\"compaction\"}");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->counter, 2u);
}

// A WAL append torn mid-record by the fault (half the bytes reach disk)
// must be detected and discarded by recovery, keeping every
// acknowledged record.
TEST_F(FaultInjectionTest, TornFinalWalAppendIsDiscardedOnRecovery) {
  {
    options_.sync_writes = true;
    auto engine = StorageEngine::Open(dir_, options_);
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), "v").ok());
    }
    faulty_env_.set_torn_writes(true);
    faulty_env_.FailAllFromNow();
    EXPECT_FALSE((*engine)->Put("torn", "never-acknowledged").ok());
  }
  faulty_env_.StopFailing();
  auto engine = StorageEngine::Open(dir_, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto state = tests::ScanToMap(*(*engine)->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(state->count(StringPrintf("k%03d", i)), 1u) << i;
  }
  EXPECT_EQ(state->count("torn"), 0u);
  auto report = (*engine)->VerifyIntegrity();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean());
}

// A failed obsolete-file unlink is best-effort: logged and counted, the
// flush itself still succeeds, and the file is removed by a later GC
// pass instead of leaking forever.
TEST_F(FaultInjectionTest, FailedObsoleteFileRemovalIsRetriedLater) {
  options_.sync_writes = true;
  auto engine = StorageEngine::Open(dir_, options_);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), "v").ok());
  }
  // Every unlink fails, everything else succeeds: the flush must still
  // commit, only degrading GC.
  faulty_env_.set_fail_removes(true);
  ASSERT_TRUE((*engine)->Flush().ok()) << (*engine)->background_error();
  EXPECT_FALSE((*engine)->degraded());
  auto snap = (*engine)->metrics().Snapshot();
  const auto* gc = snap.Find("authidx_gc_failures_total");
  ASSERT_NE(gc, nullptr);
  EXPECT_GE(gc->counter, 1u);
  // The superseded WAL is still on disk (its unlink failed).
  uint64_t stuck_faults = faulty_env_.faults_injected();
  EXPECT_GE(stuck_faults, 1u);
  // Once the filesystem recovers, the next flush sweeps the leftovers.
  faulty_env_.set_fail_removes(false);
  for (int i = 20; i < 40; ++i) {
    ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), "v").ok());
  }
  ASSERT_TRUE((*engine)->Flush().ok());
  auto state = tests::ScanToMap(*(*engine)->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["k030"], "v");
  // Only the engine's WAL + table + manifest files remain in the dir:
  // nothing the failed GC left behind outlives the sweep.
  auto listing = faulty_env_.ListDir(dir_);
  ASSERT_TRUE(listing.ok());
  size_t wal_files = 0;
  for (const std::string& name : *listing) {
    if (name.find("wal") != std::string::npos) {
      ++wal_files;
    }
  }
  EXPECT_EQ(wal_files, 1u) << "stale WALs not garbage-collected";
}

}  // namespace
}  // namespace authidx::storage
