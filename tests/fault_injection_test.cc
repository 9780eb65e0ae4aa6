// Fault injection: FaultEnv (tests/fault_env.h) starts failing
// write-path ops on command, verifying the engine surfaces IOError and
// degrades instead of corrupting state, and that a store written before
// the fault still recovers. The exhaustive every-k crash-consistency sweep
// lives in fault_sweep_test.cc.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
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
  auto state = tests::ScanToMap(**engine);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["before"], "ok");
  faulty_env_.StopFailing();
  state = tests::ScanToMap(**engine);
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
  // Data still served from the log.
  auto state = tests::ScanToMap(**engine);
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
  auto state = tests::ScanToMap(**engine);
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

// A failed flush trips the sticky background error: nothing is
// retried, since the flush itself (sync, then the next segment) is
// what makes writes durable.
TEST_F(FaultInjectionTest, FlushFailureTripsBackgroundError) {
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
  const auto* bg = snap.Find("authidx_bg_errors_total");
  ASSERT_NE(bg, nullptr);
  EXPECT_EQ(bg->counter, 1u);
}

// The end-to-end degradation story with a segment roll as the trigger:
// the old segment syncs, the next one cannot be created. The sticky
// error trips with op context, writes return it, reads keep serving,
// the gauge flips for scrapers, and a reopen finds every write.
TEST_F(FaultInjectionTest, RollFailureDegradesEngineEndToEnd) {
  {
    auto engine = StorageEngine::Open(dir_, options_);
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), "v").ok());
    }
    // Op k is the roll's sync; op k+1 creates the next segment.
    faulty_env_.FailOnceAt(faulty_env_.write_ops() + 1);
    Status s = (*engine)->Flush();
    EXPECT_TRUE(s.IsIOError()) << s;
    EXPECT_TRUE((*engine)->degraded());
    EXPECT_NE((*engine)->background_error().ToString().find("flush"),
              std::string::npos)
        << (*engine)->background_error();
    faulty_env_.StopFailing();
    Status rejected = (*engine)->Put("more", "x");
    EXPECT_TRUE(rejected.IsIOError());
    EXPECT_NE(rejected.ToString().find("degraded"), std::string::npos);
    auto state = tests::ScanToMap(**engine);
    ASSERT_TRUE(state.ok()) << state.status();
    EXPECT_EQ((*state)["k025"], "v");
    auto snap = (*engine)->metrics().Snapshot();
    const auto* degraded = snap.Find("authidx_degraded");
    ASSERT_NE(degraded, nullptr);
    EXPECT_EQ(degraded->gauge, 1.0);
  }
  auto engine = StorageEngine::Open(dir_, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto state = tests::ScanToMap(**engine);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->size(), 50u);
  EXPECT_EQ(state->count("more"), 0u);
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
  auto state = tests::ScanToMap(**engine);
  ASSERT_TRUE(state.ok()) << state.status();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(state->count(StringPrintf("k%03d", i)), 1u) << i;
  }
  EXPECT_EQ(state->count("torn"), 0u);
  Status verified = (*engine)->VerifyIntegrity();
  EXPECT_TRUE(verified.ok()) << verified;
}

// Cutting a torn tail off at open rewrites the newest segment (temp
// file + rename). If that fails, Open fails and leaves the segment as
// it was, so the next open on a healthy disk repairs it.
TEST_F(FaultInjectionTest, FailedTailRepairFailsOpenAndIsRedoneNextTime) {
  {
    EngineOptions options;
    options.sync_writes = true;
    auto engine = StorageEngine::Open(dir_, options);
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), "v").ok());
    }
  }
  {
    std::ofstream f(WalFileName(dir_, 1), std::ios::binary | std::ios::app);
    f << "torn";
  }
  // Op k creates the (existing) directory; every later op — the
  // repair's temp file, its writes, the rename — fails.
  faulty_env_.FailFrom(faulty_env_.write_ops() + 1);
  auto failed = StorageEngine::Open(dir_, options_);
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status();
  faulty_env_.StopFailing();
  auto engine = StorageEngine::Open(dir_, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->stats().wal_tail_corruption);
  auto state = tests::ScanToMap(**engine);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->size(), 20u);
  EXPECT_TRUE((*engine)->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace authidx::storage
