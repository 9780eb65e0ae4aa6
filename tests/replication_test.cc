// WAL-shipping replication end to end over real loopback sockets:
// snapshot bootstrap, record catch-up across WAL switches, idempotent
// re-delivery after a follower crash, NOT_PRIMARY on follower
// mutations, client read failover when the primary is down, snapshot
// fallback after a primary restart garbage-collects the follower's
// cursor — and a crash-consistency sweep that kills the follower's
// filesystem at every write-path op during catch-up (label `fault`).

#include "authidx/net/replica.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "authidx/common/env.h"
#include "authidx/common/strings.h"
#include "authidx/core/author_index.h"
#include "authidx/net/client.h"
#include "authidx/net/server.h"
#include "authidx/parse/tsv.h"
#include "authidx/storage/engine.h"
#include "fault_env.h"
#include "scan_util.h"

namespace authidx::net {
namespace {

// Pid-unique scratch root: the same binary from two build trees (e.g.
// the asan and tsan presets) may run concurrently and must not share
// directories.
std::string ScratchDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::string TsvLine(int i) {
  return StringPrintf(
      "Author%03d, Test\tReplicated Title Number %03d\t95:%d (19%02d)", i,
      i, 100 + i, 50 + (i % 50));
}

void AddEntries(core::AuthorIndex* catalog, int from, int count) {
  for (int i = from; i < from + count; ++i) {
    Result<Entry> entry = ParseTsvLine(TsvLine(i));
    ASSERT_TRUE(entry.ok()) << entry.status();
    Result<EntryId> id = catalog->Add(std::move(*entry));
    ASSERT_TRUE(id.ok()) << id.status();
  }
}

// Persistent primary catalog + server on an ephemeral port. The
// heartbeat interval is cranked down so CatchUpOnce converges fast.
struct Primary {
  std::string dir;
  std::unique_ptr<core::AuthorIndex> catalog;
  std::unique_ptr<Server> server;

  explicit Primary(std::string dir_in, storage::EngineOptions eopts = {})
      : dir(std::move(dir_in)) {
    Result<std::unique_ptr<core::AuthorIndex>> opened =
        core::AuthorIndex::OpenPersistent(dir, eopts);
    AUTHIDX_CHECK_OK(opened.status());
    catalog = std::move(*opened);
    StartServer();
  }

  void StartServer() {
    ServerOptions sopts;
    sopts.metrics = catalog->mutable_metrics();
    sopts.repl_heartbeat_interval_ms = 20;
    server = std::make_unique<Server>(catalog.get(), sopts);
    AUTHIDX_CHECK_OK(server->Start());
  }

  // Simulates a primary restart: stop serving, close the store, reopen
  // and serve again (recovery typically flushes recovered state and
  // garbage-collects the old WALs).
  void Restart() {
    server->Stop();
    server.reset();
    catalog.reset();
    Result<std::unique_ptr<core::AuthorIndex>> opened =
        core::AuthorIndex::OpenPersistent(dir);
    AUTHIDX_CHECK_OK(opened.status());
    catalog = std::move(*opened);
    StartServer();
  }
};

// Replica catalog + follower targeting `primary_port`.
struct Replica {
  std::string dir;
  std::unique_ptr<core::AuthorIndex> catalog;
  std::unique_ptr<ReplicationFollower> follower;
  bool open_ok = false;

  Replica(std::string dir_in, int primary_port, Env* env = nullptr)
      : dir(std::move(dir_in)) {
    storage::EngineOptions eopts;
    eopts.env = env;
    Result<std::unique_ptr<core::AuthorIndex>> opened =
        core::AuthorIndex::OpenReplica(dir, eopts);
    if (!opened.ok()) {
      return;  // The fault sweep opens on a failing filesystem.
    }
    open_ok = true;
    catalog = std::move(*opened);
    ReplicaOptions ropts;
    ropts.primary_port = primary_port;
    ropts.io_timeout_ms = 2000;
    follower = std::make_unique<ReplicationFollower>(catalog.get(), dir,
                                                     ropts);
  }

  uint64_t CounterValue(const std::string& name) const {
    obs::MetricsSnapshot snapshot = catalog->GetMetricsSnapshot();
    const obs::MetricValue* value = snapshot.Find(name);
    return value != nullptr ? value->counter : 0;
  }

  void ExpectClean() const {
    Result<storage::IntegrityReport> report =
        catalog->storage_engine()->VerifyIntegrity();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->clean()) << report->manifest_status;
  }
};

TEST(ReplicationTest, SnapshotBootstrapPopulatesEmptyFollower) {
  Primary primary(ScratchDir("repl_boot_primary"));
  AddEntries(primary.catalog.get(), 0, 20);
  ASSERT_TRUE(primary.catalog->Flush().ok());  // Some entries in SSTs...
  AddEntries(primary.catalog.get(), 20, 5);    // ...and some in the WAL.

  Replica replica(ScratchDir("repl_boot_replica"),
                  primary.server->port());
  ASSERT_TRUE(replica.open_ok);
  Status s = replica.follower->CatchUpOnce();
  ASSERT_TRUE(s.ok()) << s;

  EXPECT_EQ(replica.catalog->entry_count(), 25u);
  EXPECT_GT(
      replica.CounterValue("authidx_repl_snapshot_pairs_applied_total"),
      0u);
  Result<query::QueryResult> hits =
      replica.catalog->Search("author:author007");
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_EQ(hits->total_matches, 1u);
  replica.ExpectClean();
}

TEST(ReplicationTest, StreamsRecordsAcrossWalSwitches) {
  // A small memtable makes every flush seal the live WAL and open a
  // new one, so the stream must follow the cursor across WAL switches.
  storage::EngineOptions eopts;
  eopts.memtable_bytes = 4 * 1024;
  Primary primary(ScratchDir("repl_switch_primary"), eopts);

  Replica replica(ScratchDir("repl_switch_replica"),
                  primary.server->port());
  ASSERT_TRUE(replica.open_ok);
  // Initial sync against the empty primary plants a real cursor, so
  // everything after this arrives as REPL_RECORDS, never a snapshot.
  ASSERT_TRUE(replica.follower->CatchUpOnce().ok());
  ASSERT_EQ(replica.catalog->entry_count(), 0u);

  // Keep the subscription live (pinning WALs on the primary) while
  // entries and explicit flushes force several WAL switches under it.
  ASSERT_TRUE(replica.follower->Start().ok());
  constexpr int kTotal = 30;
  for (int batch = 0; batch < 3; ++batch) {
    AddEntries(primary.catalog.get(), batch * (kTotal / 3), kTotal / 3);
    ASSERT_TRUE(primary.catalog->Flush().ok());
  }
  for (int i = 0; i < 400 && replica.catalog->entry_count() < kTotal;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  replica.follower->Stop();

  EXPECT_EQ(replica.catalog->entry_count(),
            static_cast<size_t>(kTotal));
  EXPECT_GE(replica.CounterValue("authidx_repl_records_applied_total"),
            static_cast<uint64_t>(kTotal));
  EXPECT_EQ(
      replica.CounterValue("authidx_repl_snapshot_pairs_applied_total"),
      0u);
  replica.ExpectClean();
}

TEST(ReplicationTest, DuplicateRedeliveryAfterCursorRollbackIsANoOp) {
  Primary primary(ScratchDir("repl_dup_primary"));
  AddEntries(primary.catalog.get(), 0, 10);

  std::string replica_dir = ScratchDir("repl_dup_replica");
  std::string cursor_bytes;
  {
    Replica replica(replica_dir, primary.server->port());
    ASSERT_TRUE(replica.open_ok);
    ASSERT_TRUE(replica.follower->CatchUpOnce().ok());
    ASSERT_EQ(replica.catalog->entry_count(), 10u);
    // Snapshot the durable cursor as of "now"; entries added after this
    // point will be re-delivered once we roll the cursor back.
    storage::ReplicationApplier applier(replica.catalog->storage_engine(),
                                        replica_dir);
    Result<std::string> bytes =
        Env::Default()->ReadFileToString(applier.position_path());
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    cursor_bytes = std::move(*bytes);

    AddEntries(primary.catalog.get(), 10, 10);
    Status caught_up = replica.follower->CatchUpOnce();
    ASSERT_TRUE(caught_up.ok()) << caught_up;
    ASSERT_EQ(replica.catalog->entry_count(), 20u);
  }

  // "Crash" the follower back to the stale cursor: the store keeps all
  // 20 entries, but the cursor claims only the first 10 were applied —
  // exactly the window a crash between apply and commit leaves behind.
  {
    storage::ReplicationApplier probe(nullptr, replica_dir);
    ASSERT_TRUE(Env::Default()
                    ->WriteStringToFileSync(probe.position_path(),
                                            cursor_bytes)
                    .ok());
  }

  Replica reopened(replica_dir, primary.server->port());
  ASSERT_TRUE(reopened.open_ok);
  ASSERT_TRUE(reopened.follower->CatchUpOnce().ok());
  // Entries 10..19 were delivered twice; the apply path must dedupe.
  EXPECT_EQ(reopened.catalog->entry_count(), 20u);
  Result<query::QueryResult> hits =
      reopened.catalog->Search("author:author015");
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_EQ(hits->total_matches, 1u);
  reopened.ExpectClean();
}

TEST(ReplicationTest, FollowerResultCacheInvalidatedByApply) {
  // A follower serving cached reads must never return a stale result
  // after replicated records apply: ApplyReplicatedRecord bumps the
  // follower's data epoch exactly like a local ingest would.
  Primary primary(ScratchDir("repl_cache_primary"));
  AddEntries(primary.catalog.get(), 0, 5);

  Replica replica(ScratchDir("repl_cache_replica"),
                  primary.server->port());
  ASSERT_TRUE(replica.open_ok);
  replica.catalog->EnableResultCache(1 << 20);
  ASSERT_TRUE(replica.follower->CatchUpOnce().ok());
  ASSERT_EQ(replica.catalog->entry_count(), 5u);

  // Prime the cache, then hit it.
  Result<query::QueryResult> first =
      replica.catalog->Search("author:author003");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->total_matches, 1u);
  ASSERT_TRUE(replica.catalog->Search("author:author003").ok());
  EXPECT_EQ(replica.CounterValue("authidx_result_cache_hits_total"), 1u);

  // New records arrive: the apply must invalidate, not serve stale.
  const uint64_t epoch_before = replica.catalog->data_epoch();
  AddEntries(primary.catalog.get(), 5, 3);
  ASSERT_TRUE(replica.follower->CatchUpOnce().ok());
  ASSERT_EQ(replica.catalog->entry_count(), 8u);
  EXPECT_GT(replica.catalog->data_epoch(), epoch_before);

  Result<query::QueryResult> after =
      replica.catalog->Search("author:author003");
  ASSERT_TRUE(after.ok());
  // Still one hit for author003 (ids 5-7 are author005..007), but the
  // probe must have been an invalidation + miss, not a cache hit.
  EXPECT_EQ(replica.CounterValue("authidx_result_cache_hits_total"), 1u);
  EXPECT_GE(replica.CounterValue("authidx_result_cache_invalidations_total"),
            1u);
  replica.ExpectClean();
}

// The engine has no deletes, so no primary can ship one: a delete
// record, or a batch holding a delete op, is rejected before it reaches
// the follower's WAL or memtable.
TEST(ReplicationTest, FollowerRejectsShippedDeleteOps) {
  std::string dir = ScratchDir("repl_reject_delete");
  storage::EngineOptions options;
  options.apply_only = true;
  auto engine = storage::StorageEngine::Open(dir, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const std::string put = storage::StorageEngine::EncodePutRecord("k", "v");
  ASSERT_TRUE((*engine)->ApplyReplicated(put).ok());
  // 'D' + length-prefixed key: the retired delete record.
  const std::string del("D\x01k", 3);
  Status rejected = (*engine)->ApplyReplicated(del);
  EXPECT_TRUE(rejected.IsCorruption()) << rejected;
  // 'B' + batch ops: a put op (same bytes as a put record), then a
  // delete op.
  rejected = (*engine)->ApplyReplicated("B" + put + del);
  EXPECT_TRUE(rejected.IsCorruption()) << rejected;
  EXPECT_EQ((*engine)->stats().puts, 1u);
  const std::map<std::string, std::string> only_put = {{"k", "v"}};
  EXPECT_EQ(*tests::ScanToMap(*(*engine)->NewIterator()), only_put);
  ASSERT_TRUE((*engine)->Close().ok());
  engine = storage::StorageEngine::Open(dir, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(*tests::ScanToMap(*(*engine)->NewIterator()), only_put);
  ASSERT_TRUE((*engine)->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(ReplicationTest, FollowerServerRejectsMutationsAsNotPrimary) {
  Primary primary(ScratchDir("repl_np_primary"));
  AddEntries(primary.catalog.get(), 0, 3);

  Replica replica(ScratchDir("repl_np_replica"), primary.server->port());
  ASSERT_TRUE(replica.open_ok);
  ASSERT_TRUE(replica.follower->CatchUpOnce().ok());

  // Front the replica catalog with its own server: reads flow, ADD is
  // refused — and refused without retries (requests_total counts one).
  ServerOptions sopts;
  sopts.metrics = replica.catalog->mutable_metrics();
  Server replica_server(replica.catalog.get(), sopts);
  ASSERT_TRUE(replica_server.Start().ok());

  ClientOptions copts;
  copts.port = replica_server.port();
  copts.retry.max_attempts = 4;
  copts.retry.base_delay_us = 100;
  Client client(copts);

  Result<WireQueryResult> reads = client.Query("author:author001");
  ASSERT_TRUE(reads.ok()) << reads.status();
  EXPECT_EQ(reads->total_matches, 1u);

  Result<uint64_t> added = client.Add({TsvLine(90)});
  ASSERT_FALSE(added.ok());
  EXPECT_TRUE(added.status().IsFailedPrecondition()) << added.status();

  obs::MetricsSnapshot snapshot = replica.catalog->GetMetricsSnapshot();
  const obs::MetricValue* requests =
      snapshot.Find("authidx_server_requests_total");
  ASSERT_NE(requests, nullptr);
  // One QUERY + one ADD: NOT_PRIMARY is permanent, never re-sent.
  EXPECT_EQ(requests->counter, 2u);
  replica_server.Stop();
}

TEST(ReplicationTest, ClientFailsOverReadsWhenPrimaryStops) {
  Primary primary(ScratchDir("repl_fo_primary"));
  AddEntries(primary.catalog.get(), 0, 5);

  Replica replica(ScratchDir("repl_fo_replica"), primary.server->port());
  ASSERT_TRUE(replica.open_ok);
  ASSERT_TRUE(replica.follower->CatchUpOnce().ok());

  ServerOptions sopts;
  sopts.metrics = replica.catalog->mutable_metrics();
  Server replica_server(replica.catalog.get(), sopts);
  ASSERT_TRUE(replica_server.Start().ok());

  ClientOptions copts;
  copts.port = primary.server->port();
  copts.replicas = {"127.0.0.1:" +
                    std::to_string(replica_server.port())};
  copts.retry.max_attempts = 4;
  copts.retry.base_delay_us = 100;
  copts.io_timeout_ms = 1000;
  Client client(copts);

  // Warm read against the live primary.
  Result<WireQueryResult> warm = client.Query("author:author002");
  ASSERT_TRUE(warm.ok()) << warm.status();

  primary.server->Stop();

  Result<WireQueryResult> failed_over = client.Query("author:author002");
  ASSERT_TRUE(failed_over.ok()) << failed_over.status();
  EXPECT_EQ(failed_over->total_matches, 1u);
  EXPECT_EQ(client.current_endpoint(),
            "127.0.0.1:" + std::to_string(replica_server.port()));

  // Mutations stay pinned to the dead primary rather than hitting the
  // replica (which would NOT_PRIMARY them anyway).
  Result<uint64_t> added = client.Add({TsvLine(91)});
  EXPECT_FALSE(added.ok());
  EXPECT_EQ(replica.catalog->entry_count(), 5u);
  replica_server.Stop();
}

TEST(ReplicationTest, PrimaryRestartFallsBackToSnapshotCatchUp) {
  Primary primary(ScratchDir("repl_restart_primary"));
  AddEntries(primary.catalog.get(), 0, 8);

  std::string replica_dir = ScratchDir("repl_restart_replica");
  {
    Replica replica(replica_dir, primary.server->port());
    ASSERT_TRUE(replica.open_ok);
    ASSERT_TRUE(replica.follower->CatchUpOnce().ok());
    ASSERT_EQ(replica.catalog->entry_count(), 8u);
  }

  // Restart the primary: recovery flushes the recovered memtable and
  // garbage-collects the WAL the follower's cursor points into. The
  // subscribe must come back as a snapshot bootstrap, not an error.
  primary.Restart();
  AddEntries(primary.catalog.get(), 8, 4);

  Replica reopened(replica_dir, primary.server->port());
  ASSERT_TRUE(reopened.open_ok);
  Status s = reopened.follower->CatchUpOnce();
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(reopened.catalog->entry_count(), 12u);
  reopened.ExpectClean();
}

// Crash-consistency sweep: kill the follower's filesystem at write-path
// op k for EVERY k observed in a fault-free catch-up, "crash" (drop the
// follower), reopen on a healthy filesystem, catch up again, and
// require convergence to the primary with a clean store. The cursor
// sidecar commits go through the same Env, so the sweep also covers a
// crash between apply and commit (re-delivery must dedupe).
TEST(ReplicationTest, FollowerCrashSweepAtEveryApplyOp) {
  Primary primary(ScratchDir("repl_sweep_primary"));
  AddEntries(primary.catalog.get(), 0, 8);
  ASSERT_TRUE(primary.catalog->Flush().ok());
  AddEntries(primary.catalog.get(), 8, 4);
  constexpr size_t kTotal = 12;

  // Fault-free calibration run counts the write-path ops a full
  // bootstrap + catch-up performs.
  uint64_t total_ops = 0;
  {
    tests::FaultEnv fenv;
    Replica replica(ScratchDir("repl_sweep_calibrate"),
                    primary.server->port(), &fenv);
    ASSERT_TRUE(replica.open_ok);
    ASSERT_TRUE(replica.follower->CatchUpOnce().ok());
    ASSERT_EQ(replica.catalog->entry_count(), kTotal);
    total_ops = fenv.write_ops();
  }
  ASSERT_GT(total_ops, 0u);

  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE(StringPrintf("fail from op %llu of %llu",
                              static_cast<unsigned long long>(k),
                              static_cast<unsigned long long>(total_ops)));
    std::string dir =
        ScratchDir(StringPrintf("repl_sweep_%llu",
                                static_cast<unsigned long long>(k)));
    {
      tests::FaultEnv fenv;
      fenv.FailFrom(k);
      Replica doomed(dir, primary.server->port(), &fenv);
      if (doomed.open_ok) {
        // The catch-up may fail anywhere — mid-snapshot, mid-batch,
        // mid-cursor-commit — or even limp through; either way the
        // follower "crashes" here with whatever made it to disk.
        doomed.follower->CatchUpOnce().IgnoreError();
      }
    }
    Replica recovered(dir, primary.server->port());
    ASSERT_TRUE(recovered.open_ok);
    Status s = recovered.follower->CatchUpOnce();
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_EQ(recovered.catalog->entry_count(), kTotal);
    recovered.ExpectClean();
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace authidx::net
