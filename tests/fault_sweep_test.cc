// Crash-consistency sweep: run a fixed put/overwrite workload against an
// engine whose filesystem dies permanently at write-path op k — for
// EVERY k from 0 to the op count of a fault-free run — then "crash"
// (drop the engine), reopen on a healthy filesystem, and check the
// durability contract:
//
//   * every acknowledged write (sync_writes=true, so acked == synced)
//     is present with its exact value;
//   * the single first-failed write is indeterminate — its WAL record
//     may have become durable before the failure surfaced — so either
//     the pre-op or post-op state is accepted for that one key;
//   * every write issued after the engine degraded was rejected fast
//     and must NOT appear;
//   * the reopened store holds exactly those keys: a full scan must
//     equal the acknowledged state, so extra keys fail too;
//   * VerifyIntegrity() reports the reopened store clean.
//
// A probabilistic variant repeats the same invariant under random fault
// placement for several seeds.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>

#include "authidx/common/strings.h"
#include "authidx/storage/engine.h"
#include "fault_env.h"
#include "scan_util.h"

namespace authidx::storage {
namespace {

// Pid-unique scratch root: the same binary from two build trees (e.g.
// the asan and tsan presets) may sweep concurrently and must not share
// directories.
std::string ScratchDir(const char* name) {
  return ::testing::TempDir() + "/" + name + "_" +
         std::to_string(::getpid());
}

constexpr int kOps = 32;
constexpr int kKeys = 8;

// Every 7th op overwrites a key that an earlier op wrote (op i / 7 is
// never itself an overwrite slot), so the newest version must shadow an
// older one that may already sit in a flushed or compacted table.
bool IsOverwriteOp(int i) { return (i % 7) == 6; }

std::string KeyName(int i) {
  return StringPrintf("key%02d", (IsOverwriteOp(i) ? i / 7 : i) % kKeys);
}

std::string ValueName(int i) {
  return StringPrintf("value-%04d-abcdefghijklmnop", i);
}

EngineOptions SweepOptions(Env* env) {
  EngineOptions options;
  options.env = env;
  options.sync_writes = true;     // Acked must mean durable.
  options.memtable_bytes = 256;   // Flush every few ops.
  options.l0_compaction_trigger = 2;  // Compact often too.
  options.background_retry_attempts = 2;
  options.retry_base_delay_us = 0;  // Retries are instant in tests.
  return options;
}

struct RunResult {
  bool open_ok = false;
  // E0: fold of every acknowledged op, in order.
  std::map<std::string, std::string> expected;
  // The first failed op, whose effect is indeterminate.
  bool have_indeterminate = false;
  std::string ind_key;
  std::string ind_value;
};

// Drives the workload until the first failure, then asserts fail-fast
// rejection and "crashes" by letting the engine drop while the env
// still fails.
RunResult RunWorkload(const std::string& dir, tests::FaultEnv* env) {
  RunResult r;
  auto engine = StorageEngine::Open(dir, SweepOptions(env));
  if (!engine.ok()) {
    return r;
  }
  r.open_ok = true;
  for (int i = 0; i < kOps; ++i) {
    std::string key = KeyName(i);
    if ((*engine)->Put(key, ValueName(i)).ok()) {
      r.expected[key] = ValueName(i);
      continue;
    }
    r.have_indeterminate = true;
    r.ind_key = key;
    r.ind_value = ValueName(i);
    // The error must be sticky: later writes are rejected before they
    // touch the WAL, and reads keep serving.
    EXPECT_TRUE((*engine)->degraded());
    EXPECT_FALSE((*engine)->Put("rejected-sentinel", "x").ok());
    break;
  }
  return r;
}

// Reopens on a healthy env and checks the contract for one run.
void VerifyRecovered(const std::string& dir, const RunResult& r,
                     const std::string& label) {
  auto engine = StorageEngine::Open(dir, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << label << ": reopen failed: " << engine.status();
  auto scanned = tests::ScanToMap(*(*engine)->NewIterator());
  ASSERT_TRUE(scanned.ok()) << label << ": scan: " << scanned.status();
  std::map<std::string, std::string> got = std::move(scanned).value();
  std::map<std::string, std::string> want = r.expected;
  EXPECT_EQ(got.count("rejected-sentinel"), 0u)
      << label << ": rejected write became durable";
  if (r.have_indeterminate) {
    // E0 (op never applied) or E1 (its WAL record was durable).
    auto held = got.find(r.ind_key);
    auto e0 = want.find(r.ind_key);
    bool matches_e0 = e0 != want.end()
                          ? (held != got.end() && held->second == e0->second)
                          : held == got.end();
    bool matches_e1 = held != got.end() && held->second == r.ind_value;
    EXPECT_TRUE(matches_e0 || matches_e1)
        << label << ": indeterminate key " << r.ind_key
        << " holds neither the pre-op nor the post-op state";
    got.erase(r.ind_key);
    want.erase(r.ind_key);
  }
  // Every other key holds exactly its last acknowledged value: a lost
  // write, a wrong value, or an extra key all fail here.
  EXPECT_EQ(got, want) << label;
  auto report = (*engine)->VerifyIntegrity();
  ASSERT_TRUE(report.ok()) << label << ": " << report.status();
  EXPECT_TRUE(report->clean()) << label << ": integrity scan found damage ("
                               << report->manifest_status.ToString() << ", "
                               << report->corrupt_files
                               << " corrupt table(s))";
}

TEST(FaultSweepTest, EveryFaultPointPreservesAcknowledgedWrites) {
  std::string base = ScratchDir("fault_sweep_every_k");
  // Pass 1: count the write-path ops of a fault-free run (including the
  // destructor's Close) so the sweep covers every possible fault point.
  std::filesystem::remove_all(base);
  tests::FaultEnv counting_env;
  RunWorkload(base, &counting_env);
  uint64_t total_ops = counting_env.write_ops();
  ASSERT_GT(total_ops, 0u);
  std::filesystem::remove_all(base);

  for (uint64_t k = 0; k <= total_ops; ++k) {
    std::string label = StringPrintf("k=%llu/%llu",
                                     static_cast<unsigned long long>(k),
                                     static_cast<unsigned long long>(total_ops));
    std::string dir = base + "_run";
    std::filesystem::remove_all(dir);
    tests::FaultEnv env;
    env.FailFrom(k);
    RunResult r = RunWorkload(dir, &env);
    if (!r.open_ok) {
      // The store never opened; whatever partial files exist must still
      // reopen to an empty, clean store.
      EXPECT_LE(k, total_ops);
    }
    VerifyRecovered(dir, r, label);
    if (::testing::Test::HasFatalFailure()) {
      return;  // One detailed failure beats hundreds of repeats.
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(FaultSweepTest, RandomFaultPlacementPreservesAcknowledgedWrites) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::string dir =
        ScratchDir("fault_sweep_rand") +
        StringPrintf("_%llu", static_cast<unsigned long long>(seed));
    std::filesystem::remove_all(dir);
    tests::FaultEnv env;
    env.FailWithProbability(0.03, seed);
    RunResult r = RunWorkload(dir, &env);
    VerifyRecovered(dir, r, StringPrintf("seed=%llu",
                                         static_cast<unsigned long long>(seed)));
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    std::filesystem::remove_all(dir);
  }
}

// Torn final writes at every fault point: same sweep, but each failing
// append first leaks half its bytes to disk. Recovery must treat the
// torn tail as absent.
TEST(FaultSweepTest, TornWritesAtEveryFaultPointAreDiscarded) {
  std::string base = ScratchDir("fault_sweep_torn");
  std::filesystem::remove_all(base);
  tests::FaultEnv counting_env;
  RunWorkload(base, &counting_env);
  uint64_t total_ops = counting_env.write_ops();
  ASSERT_GT(total_ops, 0u);
  std::filesystem::remove_all(base);

  // Every 3rd k keeps the sweep fast; the plain sweep already covers
  // every k without tearing.
  for (uint64_t k = 0; k <= total_ops; k += 3) {
    std::string label = StringPrintf("torn k=%llu",
                                     static_cast<unsigned long long>(k));
    std::string dir = base + "_run";
    std::filesystem::remove_all(dir);
    tests::FaultEnv env;
    env.set_torn_writes(true);
    env.FailFrom(k);
    RunResult r = RunWorkload(dir, &env);
    VerifyRecovered(dir, r, label);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace authidx::storage
