// WAL-shipping replication end to end over real loopback sockets:
// bootstrap from the primary's first log segment, record catch-up
// across segment rolls, an ADD too large for one stream frame,
// idempotent re-delivery after a follower crash, NOT_PRIMARY on
// follower mutations, client read failover when the primary is down,
// resuming from the cursor after a primary restart — and a
// crash-consistency sweep that kills the follower's filesystem at every
// write-path op during catch-up (label `fault`). ReplicationSource
// unit tests pin its bounded reads and the splitting of oversized
// records.

#include "authidx/net/replica.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
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
  // and serve again (the reopened engine appends to a fresh segment).
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
    Status verified = catalog->storage_engine()->VerifyIntegrity();
    EXPECT_TRUE(verified.ok()) << verified;
  }
};

TEST(ReplicationTest, EmptyFollowerBootstrapsFromTheFirstSegment) {
  Primary primary(ScratchDir("repl_boot_primary"));
  AddEntries(primary.catalog.get(), 0, 20);
  ASSERT_TRUE(primary.catalog->Flush().ok());  // Some in a sealed segment...
  AddEntries(primary.catalog.get(), 20, 5);    // ...some in the newest.

  Replica replica(ScratchDir("repl_boot_replica"),
                  primary.server->port());
  ASSERT_TRUE(replica.open_ok);
  Status s = replica.follower->CatchUpOnce();
  ASSERT_TRUE(s.ok()) << s;

  EXPECT_EQ(replica.catalog->entry_count(), 25u);
  EXPECT_EQ(replica.CounterValue("authidx_repl_records_applied_total"), 25u);
  EXPECT_EQ(replica.follower->applied_position(),
            primary.catalog->storage_engine()->CommittedWalPosition());
  Result<query::QueryResult> hits =
      replica.catalog->Search("author:author007");
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_EQ(hits->total_matches, 1u);
  replica.ExpectClean();
}

TEST(ReplicationTest, StreamsRecordsAcrossSegmentRolls) {
  // Every flush rolls the primary's log to a new segment, so the stream
  // must follow the cursor across segments.
  Primary primary(ScratchDir("repl_switch_primary"));

  Replica replica(ScratchDir("repl_switch_replica"),
                  primary.server->port());
  ASSERT_TRUE(replica.open_ok);
  // Initial sync against the empty primary plants a real cursor.
  ASSERT_TRUE(replica.follower->CatchUpOnce().ok());
  ASSERT_EQ(replica.catalog->entry_count(), 0u);
  EXPECT_EQ(replica.follower->applied_position(),
            (storage::WalPosition{1, 0}));

  // Keep the subscription live while entries and explicit flushes
  // force several segment rolls under it.
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
  EXPECT_EQ(primary.catalog->StorageStats().segments, 4u);
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
    storage::ReplicationApplier applier(replica_dir);
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
    storage::ReplicationApplier probe(replica_dir);
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
// the follower's log.
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
  EXPECT_EQ(*tests::ScanToMap(**engine), only_put);
  ASSERT_TRUE((*engine)->Close().ok());
  engine = storage::StorageEngine::Open(dir, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(*tests::ScanToMap(**engine), only_put);
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

TEST(ReplicationTest, PrimaryRestartResumesFromTheCursor) {
  Primary primary(ScratchDir("repl_restart_primary"));
  AddEntries(primary.catalog.get(), 0, 8);

  std::string replica_dir = ScratchDir("repl_restart_replica");
  {
    Replica replica(replica_dir, primary.server->port());
    ASSERT_TRUE(replica.open_ok);
    ASSERT_TRUE(replica.follower->CatchUpOnce().ok());
    ASSERT_EQ(replica.catalog->entry_count(), 8u);
  }

  // Restart the primary: it keeps every segment and appends to a fresh
  // one, so the follower's cursor stays servable. It crosses into the
  // new segment and receives exactly the 4 new records — no
  // re-bootstrap from the first segment.
  primary.Restart();
  AddEntries(primary.catalog.get(), 8, 4);

  Replica reopened(replica_dir, primary.server->port());
  ASSERT_TRUE(reopened.open_ok);
  Status s = reopened.follower->CatchUpOnce();
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(reopened.catalog->entry_count(), 12u);
  EXPECT_EQ(reopened.CounterValue("authidx_repl_records_applied_total"), 4u);
  EXPECT_EQ(reopened.follower->applied_position(),
            primary.catalog->storage_engine()->CommittedWalPosition());
  reopened.ExpectClean();
}

// One ADD whose log record is larger than a stream frame may be: 13 910
// TSV lines, 1 046 054 bytes of TSV text. The primary accepts it as one
// request (and one record); the record must reach the follower as
// put-batch pieces in several REPL_RECORDS frames rather than as one
// frame over the follower's 1 MiB frame cap, which the follower would
// reject on every retry.
TEST(ReplicationTest, AddLargerThanAStreamFrameReplicates) {
  constexpr int kLines = 13910;
  std::vector<std::string> lines;
  size_t tsv_bytes = 0;
  for (int i = 0; i < kLines; ++i) {
    // 7 pad bytes on the first 13 604 titles, 6 on the rest: exactly
    // the reported ADD.
    lines.push_back(StringPrintf(
        "Author%05d, Test\tOversized Batch Title Number %05d%s\t95:%d "
        "(19%02d)",
        i, i, i < 13604 ? " zzzzzz" : " zzzzz", 100 + i, 50 + (i % 50)));
    tsv_bytes += lines.back().size() + 1;
  }
  ASSERT_EQ(tsv_bytes, 1046054u);

  Primary primary(ScratchDir("repl_big_primary"));
  // The follower holds a cursor before the ADD, so the record reaches it
  // through record shipping.
  Replica replica(ScratchDir("repl_big_replica"), primary.server->port());
  ASSERT_TRUE(replica.open_ok);
  ASSERT_TRUE(replica.follower->CatchUpOnce().ok());
  {
    ClientOptions copts;
    copts.port = primary.server->port();
    copts.retry.max_attempts = 1;
    Client client(copts);
    Result<uint64_t> added = client.Add(lines);
    ASSERT_TRUE(added.ok()) << added.status();
    EXPECT_EQ(*added, static_cast<uint64_t>(kLines));
  }
  ASSERT_EQ(primary.catalog->entry_count(), static_cast<size_t>(kLines));
  AddEntries(primary.catalog.get(), kLines, 2);  // Records after it too.

  Status s = replica.follower->CatchUpOnce();
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(replica.catalog->entry_count(),
            static_cast<size_t>(kLines + 2));
  // Several pieces for the one big record, then the two small ones.
  EXPECT_GT(replica.CounterValue("authidx_repl_records_applied_total"), 4u);
  Result<query::QueryResult> hits =
      replica.catalog->Search("author:author13909");
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_EQ(hits->total_matches, 1u);
  replica.ExpectClean();
}

// --- ReplicationSource, without a server ---

// Counts the bytes every RandomAccessFile it hands out returns.
class CountingEnv final : public Env {
 public:
  uint64_t bytes_read() const { return bytes_read_.load(); }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    return base_->NewWritableFile(path);
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    AUTHIDX_ASSIGN_OR_RETURN(auto file, base_->NewRandomAccessFile(path));
    return std::unique_ptr<RandomAccessFile>(
        std::make_unique<CountingFile>(std::move(file), &bytes_read_));
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    AUTHIDX_ASSIGN_OR_RETURN(std::string data,
                             base_->ReadFileToString(path));
    bytes_read_ += data.size();
    return data;
  }
  Status WriteStringToFileSync(const std::string& path,
                               std::string_view data) override {
    return base_->WriteStringToFileSync(path, data);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }

 private:
  class CountingFile final : public RandomAccessFile {
   public:
    CountingFile(std::unique_ptr<RandomAccessFile> base,
                 std::atomic<uint64_t>* bytes)
        : base_(std::move(base)), bytes_(bytes) {}
    Status Read(uint64_t offset, size_t n, std::string* scratch,
                std::string_view* out) const override {
      Status s = base_->Read(offset, n, scratch, out);
      *bytes_ += out->size();
      return s;
    }
    Result<uint64_t> Size() const override { return base_->Size(); }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    std::atomic<uint64_t>* bytes_;
  };

  Env* base_ = Env::Default();
  std::atomic<uint64_t> bytes_read_{0};
};

// Each ReadBatch reads from its cursor, not whole segments: at most
// `max_bytes` of records plus one record (the header of the record
// that did not fit).
TEST(ReplicationSourceTest, ReadsOnlyFromTheCursor) {
  std::string dir = ScratchDir("repl_source_bounded");
  auto engine = storage::StorageEngine::Open(dir, {});
  ASSERT_TRUE(engine.ok()) << engine.status();
  size_t largest_record = 0;
  for (int i = 0; i < 300; ++i) {
    std::string value(static_cast<size_t>(40 + (i * 53) % 160), 'v');
    largest_record = std::max(
        largest_record,
        storage::kWalRecordHeaderBytes +
            storage::StorageEngine::EncodePutRecord(StringPrintf("k%03d", i),
                                                    value)
                .size());
    ASSERT_TRUE((*engine)->Put(StringPrintf("k%03d", i), value).ok());
    if (i == 150) {
      ASSERT_TRUE((*engine)->Flush().ok());
    }
  }
  constexpr size_t kMaxBytes = 1000;
  CountingEnv env;
  storage::ReplicationSource source(engine->get(), &env);
  storage::WalPosition cursor;
  size_t records = 0, calls = 0;
  for (;;) {
    const uint64_t before = env.bytes_read();
    Result<storage::ReplicationBatch> batch =
        source.ReadBatch(cursor, 512, kMaxBytes);
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_LE(env.bytes_read() - before, kMaxBytes + largest_record)
        << "call " << calls;
    ++calls;
    if (batch->records.empty() && batch->end == cursor) {
      break;
    }
    records += batch->records.size();
    cursor = batch->end;
  }
  EXPECT_EQ(records, 300u);
  EXPECT_EQ(cursor, (*engine)->CommittedWalPosition());
  EXPECT_GT(calls, 300u * 40 / kMaxBytes);
}

// A record larger than the byte budget comes back alone, as put-batch
// pieces within the budget that together hold its puts in order, and
// the cursor moves past the whole record.
TEST(ReplicationSourceTest, SplitsARecordLargerThanTheBudget) {
  std::string dir = ScratchDir("repl_source_split");
  auto engine = storage::StorageEngine::Open(dir, {});
  ASSERT_TRUE(engine.ok()) << engine.status();
  storage::WriteBatch big;
  std::vector<std::pair<std::string, std::string>> want;
  for (int i = 0; i < 200; ++i) {
    want.emplace_back(StringPrintf("k%03d", i), std::string(90, static_cast<char>('a' + i % 26)));
    big.Put(want.back().first, want.back().second);
  }
  ASSERT_TRUE((*engine)->Put("small", "1").ok());
  ASSERT_TRUE((*engine)->Apply(big).ok());
  const storage::WalPosition after_big = (*engine)->CommittedWalPosition();
  ASSERT_TRUE((*engine)->Put("small", "2").ok());

  constexpr size_t kMaxBytes = 4096;
  storage::ReplicationSource source(engine->get());
  Result<storage::ReplicationBatch> first =
      source.ReadBatch({}, 512, kMaxBytes);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->records.size(), 1u);  // Stops before the big record.
  Result<storage::ReplicationBatch> pieces =
      source.ReadBatch(first->end, 512, kMaxBytes);
  ASSERT_TRUE(pieces.ok()) << pieces.status();
  EXPECT_GT(pieces->records.size(), 1u);
  EXPECT_EQ(pieces->end, after_big);
  std::vector<std::pair<std::string, std::string>> seen;
  for (const std::string& piece : pieces->records) {
    EXPECT_LE(piece.size(), kMaxBytes);
    EXPECT_EQ(piece.front(), storage::kWalBatch);
    ASSERT_TRUE(storage::ForEachRecordOp(
                    piece,
                    [&](std::string_view k, std::string_view v) {
                      seen.emplace_back(std::string(k), std::string(v));
                      return Status::OK();
                    })
                    .ok());
  }
  EXPECT_EQ(seen, want);
  Result<storage::ReplicationBatch> last =
      source.ReadBatch(pieces->end, 512, kMaxBytes);
  ASSERT_TRUE(last.ok()) << last.status();
  ASSERT_EQ(last->records.size(), 1u);
  EXPECT_EQ(last->end, (*engine)->CommittedWalPosition());
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
        // The catch-up may fail anywhere — mid-batch, mid-cursor-
        // commit — or even limp through; either way the
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
